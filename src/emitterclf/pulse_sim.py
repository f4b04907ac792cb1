"""Synthetic pulse-stream generator with controllable class structure.

Each emitter class is described by one pattern per attribute:

* PRI / PW patterns: ``constant(v)``, ``stagger(v1..vK)`` (cycled in order),
  ``jitter(center, dev)`` (uniform on center*(1 +/- dev)).
* RF patterns: ``constant(v)`` or ``hop(dwell, v1..vK)`` (each value held
  for `dwell` consecutive pulses, cycled).

Each pattern gives its values through one method, ``column(t, u)``: the
attribute at pulse indices ``t``; jitter reads ``u``, one uniform draw per pulse.

Measurement noise is additive Gaussian per attribute value. Sequence
generation derives a child RNG from (seed, class_id, sequence_index), so
datasets are identical no matter how generation work is ordered or
distributed.

Draw order, on which every dataset's bytes depend: a sequence of T pulses
takes one ``uniform(-1, 1)`` block of shape (T, J) from its rng, J being the
number of jitter attributes in (PRI, PW) order, read pulse-major (pulse t's
PRI draw, then its PW draw, then pulse t + 1's). Then, if the noise fraction
is > 0, it takes one (T, 3) ``standard_normal`` block. No other pattern
draws. A scalar loop over pulses, then attributes, makes the same draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .data_model import Dataset, PulseSequence, MIN_SEQ_LEN, MAX_SEQ_LEN
from .seeding import derive_rng

__all__ = [
    "ConstantPattern",
    "StaggerPattern",
    "JitterPattern",
    "HopPattern",
    "EmitterSpec",
    "SimConfig",
    "generate_sequence",
    "generate_dataset",
    "add_noise",
    "parse_pattern",
    "VALUE_FLOOR",
]

# Clamp floor for noisy attribute values, in file units.
VALUE_FLOOR = 1e-9


@dataclass(frozen=True)
class ConstantPattern:
    value: float

    def __post_init__(self):
        if not self.value > 0.0:
            raise ValueError("constant pattern value must be > 0")

    def column(self, t: np.ndarray, u) -> np.ndarray:
        return np.full(len(t), self.value)

    @property
    def mean(self) -> float:
        return self.value

    @property
    def lo(self) -> float:
        return self.value

    @property
    def hi(self) -> float:
        return self.value


@dataclass(frozen=True)
class _CyclePattern:
    """Cycle through values, each held for `dwell` pulses; subclasses set `kind`, `dwell`."""

    values: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if not self.values:
            raise ValueError(f"{self.kind} pattern needs at least one value")
        if any(v <= 0.0 for v in self.values):
            raise ValueError(f"{self.kind} pattern values must be > 0")

    def column(self, t: np.ndarray, u) -> np.ndarray:
        return np.array(self.values)[(t // self.dwell) % len(self.values)]

    @property
    def mean(self) -> float:
        return float(np.mean(self.values))

    @property
    def lo(self) -> float:
        return min(self.values)

    @property
    def hi(self) -> float:
        return max(self.values)


@dataclass(frozen=True)
class StaggerPattern(_CyclePattern):
    """Deterministic cycle through a fixed list of values, one per pulse."""

    kind = "stagger"
    dwell = 1


@dataclass(frozen=True)
class JitterPattern:
    """Uniform random deviation around a center: center * (1 +/- deviation)."""

    center: float
    deviation: float

    def __post_init__(self):
        if not self.center > 0.0:
            raise ValueError("jitter center must be > 0")
        if not 0.0 <= self.deviation <= 0.5:
            raise ValueError("jitter deviation must lie in [0, 0.5]")

    def column(self, t, u: np.ndarray) -> np.ndarray:
        return self.center * (1.0 + self.deviation * u)

    @property
    def mean(self) -> float:
        return self.center

    @property
    def lo(self) -> float:
        return self.center * (1.0 - self.deviation)

    @property
    def hi(self) -> float:
        return self.center * (1.0 + self.deviation)


@dataclass(frozen=True)
class HopPattern(_CyclePattern):
    """Cycle through values, holding each for `dwell` consecutive pulses."""

    dwell: int
    kind = "hop"

    def __post_init__(self):
        super().__post_init__()
        if self.dwell < 1:
            raise ValueError("hop dwell must be >= 1")


_PRI_PW_PATTERNS = (ConstantPattern, StaggerPattern, JitterPattern)
_RF_PATTERNS = (ConstantPattern, HopPattern)


def parse_pattern(tokens: list[str], *, rf: bool = False):
    """Parse a pattern from config tokens.

    Syntax: ``constant <v>`` | ``stagger <v1> <v2> ...`` |
    ``jitter <center> <deviation>`` | ``hop <dwell> <v1> <v2> ...``.
    """
    if not tokens:
        raise ValueError("empty pattern")
    kind, args = tokens[0], tokens[1:]
    try:
        if kind == "constant":
            (v,) = args
            return ConstantPattern(float(v))
        if kind == "stagger" and not rf:
            return StaggerPattern(tuple(float(v) for v in args))
        if kind == "jitter" and not rf:
            center, dev = args
            return JitterPattern(float(center), float(dev))
        if kind == "hop" and rf:
            dwell, *vals = args
            return HopPattern(tuple(float(v) for v in vals), int(dwell))
    except ValueError:
        raise
    except Exception as exc:
        raise ValueError(f"malformed {kind} pattern: {' '.join(tokens)!r}") from exc
    family = "rf" if rf else "pri/pw"
    raise ValueError(f"unknown {family} pattern kind {kind!r}")


@dataclass(frozen=True)
class EmitterSpec:
    """Pattern triple defining one emitter class."""

    class_id: int
    pri: ConstantPattern | StaggerPattern | JitterPattern
    pw: ConstantPattern | StaggerPattern | JitterPattern
    rf: ConstantPattern | HopPattern

    def __post_init__(self):
        if not isinstance(self.pri, _PRI_PW_PATTERNS):
            raise ValueError(f"class {self.class_id}: unsupported PRI pattern {type(self.pri)}")
        if not isinstance(self.pw, _PRI_PW_PATTERNS):
            raise ValueError(f"class {self.class_id}: unsupported PW pattern {type(self.pw)}")
        if not isinstance(self.rf, _RF_PATTERNS):
            raise ValueError(f"class {self.class_id}: unsupported RF pattern {type(self.rf)}")
        if not self.pw.hi < self.pri.lo:
            raise ValueError(
                f"class {self.class_id}: max PW {self.pw.hi} must stay below min PRI {self.pri.lo}"
            )


@dataclass(frozen=True)
class SimConfig:
    """Full simulation recipe: emitters, per-class counts, lengths, noise."""

    emitters: tuple[EmitterSpec, ...]
    sequences_per_class: tuple[int, ...]
    length_range: tuple[int, int]
    noise_fraction: float
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "emitters", tuple(self.emitters))
        object.__setattr__(self, "sequences_per_class", tuple(self.sequences_per_class))
        if len(self.emitters) != len(self.sequences_per_class):
            raise ValueError("one sequence count per emitter class required")
        ids = [e.class_id for e in self.emitters]
        if ids != list(range(len(self.emitters))):
            raise ValueError(f"emitter class_ids must be 0..C-1 in order, got {ids}")
        if any(c < 2 for c in self.sequences_per_class):
            raise ValueError("each class needs at least 2 sequences")
        lo, hi = self.length_range
        if not (MIN_SEQ_LEN <= lo <= hi <= MAX_SEQ_LEN):
            raise ValueError(
                f"length_range must satisfy {MIN_SEQ_LEN} <= lo <= hi <= {MAX_SEQ_LEN}"
            )
        if not 0.0 <= self.noise_fraction:
            raise ValueError("noise_fraction must be >= 0")

    @property
    def num_classes(self) -> int:
        return len(self.emitters)


def _cap_pw(values: np.ndarray) -> None:
    # Noise can push pw past pri; cap to preserve the pulse invariant.
    np.minimum(values[:, 1], values[:, 0] * (1.0 - 1e-9), out=values[:, 1])


@lru_cache(maxsize=64)
def _spec_columns(spec: EmitterSpec):
    """Per-spec constants, read-only: every column over MAX_SEQ_LEN pulses (a
    jitter column holds its center), the (column, pattern) jitter pairs, the means."""
    patterns = (spec.pri, spec.pw, spec.rf)
    t, u = np.arange(MAX_SEQ_LEN), np.zeros(MAX_SEQ_LEN)
    table = np.stack([p.column(t, u) for p in patterns], axis=1)
    means = np.array([p.mean for p in patterns])
    table.setflags(write=False)
    means.setflags(write=False)
    jitter = tuple((j, p) for j, p in enumerate(patterns) if isinstance(p, JitterPattern))
    return table, jitter, means


def generate_sequence(
    spec: EmitterSpec, length: int, noise_fraction: float, rng: np.random.Generator
) -> PulseSequence:
    """Generate one sequence: pattern values at each step plus Gaussian noise.

    Noise sigma is `noise_fraction` times the pattern mean of the attribute;
    values are clamped to stay strictly positive. Lengths below the nominal
    dataset minimum of 7 are allowed here (degenerate-length probes); dataset
    generation enforces [7, 512] via SimConfig. Draw order: module docstring.
    """
    if not 1 <= length <= MAX_SEQ_LEN:
        raise ValueError(f"length must lie in [1, {MAX_SEQ_LEN}], got {length}")
    if noise_fraction < 0.0:
        raise ValueError("noise_fraction must be >= 0")
    table, jitter, means = _spec_columns(spec)
    values = table[:length].copy()
    u = rng.uniform(-1.0, 1.0, size=(length, len(jitter)))
    for k, (j, pat) in enumerate(jitter):
        values[:, j] = pat.column(None, u[:, k])
    if noise_fraction > 0.0:
        values += rng.standard_normal(values.shape) * (noise_fraction * means)
        np.maximum(values, VALUE_FLOOR, out=values)
        _cap_pw(values)
    return PulseSequence(values, spec.class_id, check=False)


def generate_dataset(cfg: SimConfig) -> Dataset:
    """Generate the full labelled dataset, deterministic given cfg.seed."""
    sequences = []
    lo, hi = cfg.length_range
    for spec, count in zip(cfg.emitters, cfg.sequences_per_class):
        for i in range(count):
            rng = derive_rng(cfg.seed, "sim", spec.class_id, i)
            length = int(rng.integers(lo, hi + 1))
            sequences.append(generate_sequence(spec, length, cfg.noise_fraction, rng))
    return Dataset(sequences, cfg.num_classes)


def add_noise(ds: Dataset, noise_fraction: float, seed: int) -> Dataset:
    """Perturb every attribute value v by N(0, (noise_fraction * v)^2).

    Labels and lengths are unchanged; values are clamped to a small positive
    floor. noise_fraction 0 returns a value-identical dataset.
    """
    if not 0.0 <= noise_fraction <= 0.5:
        raise ValueError("noise_fraction must lie in [0, 0.5]")
    if noise_fraction == 0.0:
        return Dataset(ds.sequences, ds.num_classes)
    noisy = []
    for i, seq in enumerate(ds.sequences):
        rng = derive_rng(seed, "noise", i)
        values = seq.values.copy()
        values += rng.standard_normal(values.shape) * (noise_fraction * values)
        np.maximum(values, VALUE_FLOOR, out=values)
        _cap_pw(values)
        noisy.append(PulseSequence(values, seq.label, check=False))
    return Dataset(noisy, ds.num_classes)
