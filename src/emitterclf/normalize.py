"""Sequence normalization schemes and batch assembly.

Two transforms form the network input: dataset min-max normalization maps
each attribute linearly onto [-1, 1] using global training-set extrema, and
per-sequence normalization rescales each attribute using only that
sequence's own min/max, exposing within-sequence temporal structure at full
amplitude regardless of the absolute value range. The combined scheme
concatenates both along the feature axis, giving T x 2M channels.

Also provides the baselines' normalizers: global standardization and
fixed-bin discretization (integer channels for embedding lookup).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_model import ATTRIBUTES, NUM_ATTRIBUTES, Dataset, PulseSequence

__all__ = [
    "SCHEMES",
    "DEFAULT_BINS",
    "DomainStats",
    "fit_domain_stats",
    "minmax_normalize",
    "per_sequence_normalize",
    "standardize_normalize",
    "discretize_normalize",
    "normalize_scheme",
    "scheme_channel_count",
    "NormalizedSequence",
    "NormalizedBatch",
    "build_batch",
]

SCHEMES = ("none", "minmax", "minmax+perseq", "standardize", "discretize")
DEFAULT_BINS = 256


@dataclass(frozen=True)
class DomainStats:
    """Per-attribute global statistics fitted on a training dataset only."""

    mins: np.ndarray
    maxs: np.ndarray
    means: np.ndarray
    stds: np.ndarray

    def to_dict(self) -> dict:
        return {
            "mins": [float(v) for v in self.mins],
            "maxs": [float(v) for v in self.maxs],
            "means": [float(v) for v in self.means],
            "stds": [float(v) for v in self.stds],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DomainStats":
        return cls(
            mins=np.asarray(d["mins"], dtype=np.float64),
            maxs=np.asarray(d["maxs"], dtype=np.float64),
            means=np.asarray(d["means"], dtype=np.float64),
            stds=np.asarray(d["stds"], dtype=np.float64),
        )


_RUN_PULSES = 1 << 15  # pulses per block of fit_domain_stats' passes


def _pulse_runs(sequences):
    """Consecutive runs of the sequences' (T, 3) values, about _RUN_PULSES pulses per run."""
    run, pulses = [], 0
    for seq in sequences:
        run.append(seq.values)
        pulses += seq.length
        if pulses >= _RUN_PULSES:
            yield run
            run, pulses = [], 0
    if run:
        yield run


def _block(total, run) -> tuple[np.ndarray, np.ndarray]:
    """One (1 + k, 3) array: the running sum's row, then the run's k pulses.

    Returns the block and its pulse rows.
    """
    block = np.empty((1 + sum(len(v) for v in run), NUM_ATTRIBUTES))
    block[0] = total
    np.concatenate(run, out=block[1:])
    return block, block[1:]


def fit_domain_stats(train: Dataset) -> DomainStats:
    """Exact per-attribute min/max/mean/std over all training pulses.

    The pulses are never gathered into one (N, 3) array: two passes walk the
    sequences in order, in runs of about _RUN_PULSES pulses. The first takes
    each run's min, max and column sum, the second the sum of its squared
    deviations from the mean; std is sqrt(that sum / N), as numpy's is. The
    bits are those of stacked.mean(axis=0) and stacked.std(axis=0) on the
    concatenated pulses: numpy's axis-0 sum of a C-contiguous (N, 3) array
    adds one row at a time, first to last, so summing a block whose first
    row is the running sum of the earlier runs makes the same additions in
    the same order. Both sums start from a zero row, which moves no bit:
    0.0 + x has the bits of x for every x but -0.0, and pulse values are
    > 0 and squares >= +0. Min and max are exact in any order.
    """
    if train.n == 0:
        raise ValueError("cannot fit domain stats on an empty dataset")
    runs = list(_pulse_runs(train.sequences))
    mins = np.full(NUM_ATTRIBUTES, np.inf)
    maxs = np.full(NUM_ATTRIBUTES, -np.inf)
    total = np.zeros(NUM_ATTRIBUTES)
    for run in runs:
        block, pulses = _block(total, run)
        columns = np.ascontiguousarray(pulses.T)  # contiguous rows reduce faster than columns
        np.minimum(mins, columns.min(axis=1), out=mins)
        np.maximum(maxs, columns.max(axis=1), out=maxs)
        total = block.sum(axis=0)
    for j in range(NUM_ATTRIBUTES):
        if mins[j] == maxs[j]:
            raise ValueError(
                f"attribute {ATTRIBUTES[j]} is constant across the dataset (min == max)"
            )
    count = sum(seq.length for seq in train.sequences)
    means = total / count
    squares = np.zeros(NUM_ATTRIBUTES)
    for run in runs:
        block, pulses = _block(squares, run)
        pulses -= means
        np.multiply(pulses, pulses, out=pulses)
        squares = block.sum(axis=0)
    return DomainStats(mins=mins, maxs=maxs, means=means, stds=np.sqrt(squares / count))


def minmax_normalize(seq: PulseSequence, stats: DomainStats) -> np.ndarray:
    """Map each attribute linearly onto [-1, 1] via the global training domain.

    Values outside the training domain pass through linearly (no clamping).
    """
    return 2.0 * (seq.values - stats.mins) / (stats.maxs - stats.mins) - 1.0


def per_sequence_normalize(seq: PulseSequence) -> np.ndarray:
    """Rescale each attribute onto [-1, 1] using this sequence's own extrema.

    Attributes constant within the sequence map to the zero column (range
    midpoint: no temporal variation is a neutral signal).
    """
    values = seq.values
    lo = values.min(axis=0)
    hi = values.max(axis=0)
    span = hi - lo
    out = np.zeros_like(values)
    for j in range(values.shape[1]):
        if span[j] > 0.0:
            out[:, j] = 2.0 * (values[:, j] - lo[j]) / span[j] - 1.0
    return out


def standardize_normalize(seq: PulseSequence, stats: DomainStats) -> np.ndarray:
    """Per-attribute global standardization (v - mean) / std."""
    return (seq.values - stats.means) / stats.stds


def discretize_normalize(seq: PulseSequence, stats: DomainStats, bins: int) -> np.ndarray:
    """Integer bin index floor(B * (v - MIN) / (MAX - MIN)), clamped to [0, B-1]."""
    if bins < 2:
        raise ValueError("bins must be >= 2")
    scaled = bins * (seq.values - stats.mins) / (stats.maxs - stats.mins)
    return np.clip(np.floor(scaled), 0, bins - 1).astype(np.int64)


def scheme_channel_count(scheme: str, num_attributes: int) -> int:
    if scheme == "minmax+perseq":
        return 2 * num_attributes
    if scheme in ("none", "minmax", "standardize", "discretize"):
        return num_attributes
    raise ValueError(f"unknown normalization scheme {scheme!r}")


@dataclass(frozen=True)
class NormalizedSequence:
    """Normalized channels for one sequence.

    For minmax+perseq the column order is frozen: columns [0, M) are the
    min-max channels and [M, 2M) the per-sequence channels, both in
    (pri, pw, rf) attribute order.
    """

    channels: np.ndarray
    label: int
    valid_length: int


def normalize_scheme(
    seq: PulseSequence,
    stats: DomainStats | None,
    scheme: str,
    bins: int,
) -> NormalizedSequence:
    """Apply the named scheme and return the channel matrix for one sequence."""
    if scheme == "none":
        channels = seq.values.copy()
    elif scheme == "minmax":
        channels = minmax_normalize(seq, stats)
    elif scheme == "minmax+perseq":
        channels = np.hstack([minmax_normalize(seq, stats), per_sequence_normalize(seq)])
    elif scheme == "standardize":
        channels = standardize_normalize(seq, stats)
    elif scheme == "discretize":
        channels = discretize_normalize(seq, stats, bins)
    else:
        raise ValueError(f"unknown normalization scheme {scheme!r}")
    return NormalizedSequence(channels=channels, label=seq.label, valid_length=seq.length)


@dataclass(frozen=True)
class NormalizedBatch:
    """Right-padded batch of normalized sequences plus valid lengths."""

    channels: np.ndarray  # (B, T_max, K)
    lengths: np.ndarray  # (B,)
    labels: np.ndarray  # (B,)

    def mask(self) -> np.ndarray:
        """(B, T_max) bool mask: True where t < valid length."""
        t = np.arange(self.channels.shape[1])
        return t[None, :] < self.lengths[:, None]


def build_batch(normalized: list[NormalizedSequence]) -> NormalizedBatch:
    """Right-pad normalized sequences with zeros into one (B, T_max, K) tensor."""
    if not normalized:
        raise ValueError("cannot build an empty batch")
    t_max = max(ns.valid_length for ns in normalized)
    k = normalized[0].channels.shape[1]
    dtype = normalized[0].channels.dtype
    channels = np.zeros((len(normalized), t_max, k), dtype=dtype)
    lengths = np.empty(len(normalized), dtype=np.int64)
    labels = np.empty(len(normalized), dtype=np.int64)
    for b, ns in enumerate(normalized):
        channels[b, : ns.valid_length] = ns.channels
        lengths[b] = ns.valid_length
        labels[b] = ns.label
    return NormalizedBatch(channels=channels, lengths=lengths, labels=labels)
