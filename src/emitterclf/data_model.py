"""Pulse-sequence data model and the on-disk dataset format.

A pulse carries three attributes: PRI and PW in microseconds, RF in
megahertz (file units; the rest of the package treats them as plain reals).
Sequences are variable-length runs of pulses from a single emitter, already
deinterleaved and time-ordered. A dataset is a labelled collection of such
sequences together with recomputed per-class counts.

Dataset file format (UTF-8 text, one value row per pulse)::

    # emitter-dataset v1
    classes <C>
    seq <label> <T>
    <pri_us> <pw_us> <rf_mhz>
    ...

Floats are serialized with 17 significant digits so load(save(ds)) is
bit-exact.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .seeding import derive_rng

__all__ = [
    "ATTRIBUTES",
    "NUM_ATTRIBUTES",
    "MIN_SEQ_LEN",
    "MAX_SEQ_LEN",
    "PulseSequence",
    "Dataset",
    "DatasetFormatError",
    "load_dataset",
    "save_dataset",
    "serialize_dataset",
    "dataset_fingerprint",
    "split_dataset",
]

ATTRIBUTES = ("pri", "pw", "rf")
NUM_ATTRIBUTES = len(ATTRIBUTES)

MIN_SEQ_LEN = 7
MAX_SEQ_LEN = 512

_FORMAT_HEADER = "# emitter-dataset v1"


class DatasetFormatError(ValueError):
    """Raised for malformed dataset files or invalid pulse records."""


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _validate_values(values: np.ndarray) -> None:
    if values.ndim != 2 or values.shape[1] != NUM_ATTRIBUTES:
        raise ValueError(f"sequence: expected a (T, {NUM_ATTRIBUTES}) array, got {values.shape}")
    if not np.all(np.isfinite(values)):
        t, j = np.argwhere(~np.isfinite(values))[0]
        raise ValueError(f"sequence: non-finite {ATTRIBUTES[j]} at pulse {t}")
    if not np.all(values > 0.0):
        t, j = np.argwhere(values <= 0.0)[0]
        raise ValueError(f"sequence: non-positive {ATTRIBUTES[j]} at pulse {t}")
    bad = values[:, 1] >= values[:, 0]
    if np.any(bad):
        t = int(np.argmax(bad))
        raise ValueError(f"sequence: pw >= pri at pulse {t}")


class PulseSequence:
    """Time-ordered pulses of one emitter plus the emitter class label.

    Backed by a read-only (T, 3) float64 array with columns (pri, pw, rf).
    """

    def __init__(self, values, label: int, *, check: bool = True):
        values = np.ascontiguousarray(values, dtype=np.float64)
        if check:
            _validate_values(values)
            if len(values) > MAX_SEQ_LEN:
                raise ValueError(f"sequence length {len(values)} exceeds {MAX_SEQ_LEN}")
            if len(values) < 1:
                raise ValueError("sequence must contain at least one pulse")
            if len(values) < MIN_SEQ_LEN:
                warnings.warn(
                    f"sequence length {len(values)} is below the nominal minimum {MIN_SEQ_LEN}",
                    stacklevel=2,
                )
        values.setflags(write=False)
        self.values = values
        self.label = int(label)

    @property
    def length(self) -> int:
        return len(self.values)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PulseSequence):
            return NotImplemented
        return self.label == other.label and np.array_equal(self.values, other.values)

    def __repr__(self) -> str:
        return f"PulseSequence(T={self.length}, label={self.label})"


class Dataset:
    """Immutable collection of labelled pulse sequences.

    `class_counts` is always recomputed from the contained sequences, never
    trusted from file headers.
    """

    def __init__(self, sequences, num_classes: int):
        sequences = tuple(sequences)
        num_classes = int(num_classes)
        if num_classes < 1:
            raise ValueError("num_classes must be >= 1")
        counts = np.zeros(num_classes, dtype=np.int64)
        for k, seq in enumerate(sequences):
            if not 0 <= seq.label < num_classes:
                raise ValueError(
                    f"sequence {k}: label {seq.label} outside [0, {num_classes})"
                )
            counts[seq.label] += 1
        self.sequences = sequences
        self.num_classes = num_classes
        self.class_counts = counts
        self.class_counts.setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.sequences)

    def subset(self, indices) -> "Dataset":
        return Dataset([self.sequences[i] for i in indices], self.num_classes)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.num_classes == other.num_classes
            and len(self.sequences) == len(other.sequences)
            and all(a == b for a, b in zip(self.sequences, other.sequences))
        )

    def __repr__(self) -> str:
        return f"Dataset(N={self.n}, C={self.num_classes})"


def serialize_dataset(ds: Dataset) -> str:
    """Render `ds` in the line-oriented text format; byte-deterministic."""
    parts = [_FORMAT_HEADER, f"classes {ds.num_classes}"]
    for seq in ds.sequences:
        parts.append(f"seq {seq.label} {seq.length}")
        for row in seq.values:
            parts.append(f"{_fmt(row[0])} {_fmt(row[1])} {_fmt(row[2])}")
    return "\n".join(parts) + "\n"


def dataset_fingerprint(ds: Dataset) -> str:
    """SHA-256 of the canonical serialized form (train/test hygiene checks)."""
    import hashlib

    return hashlib.sha256(serialize_dataset(ds).encode("utf-8")).hexdigest()


def save_dataset(ds: Dataset, path) -> None:
    """Write `ds` in the line-oriented text format; byte-deterministic."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(serialize_dataset(ds))


def _parse_float(token: str, record: int, field: str) -> float:
    try:
        v = float(token)
    except ValueError:
        raise DatasetFormatError(f"record {record}: field {field}: not a number: {token!r}")
    if not math.isfinite(v):
        raise DatasetFormatError(f"record {record}: field {field}: non-finite value {token!r}")
    if v <= 0.0:
        raise DatasetFormatError(f"record {record}: field {field}: must be > 0, got {token!r}")
    return v


def load_dataset(path) -> Dataset:
    """Read a dataset file, recomputing class counts.

    Sequence lengths below the nominal minimum of 7 load with a warning so
    degenerate inputs can be probed; lengths outside [1, 512] are errors.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            lines = fh.read().splitlines()
        except UnicodeDecodeError as exc:
            raise DatasetFormatError(f"{path}: {exc}") from None
    if not lines or lines[0] != _FORMAT_HEADER:
        raise DatasetFormatError(f"{path}: missing '{_FORMAT_HEADER}' header line")
    if len(lines) < 2 or not lines[1].startswith("classes "):
        raise DatasetFormatError(f"{path}: missing 'classes <C>' line")
    try:
        num_classes = int(lines[1].split()[1])
    except (IndexError, ValueError):
        raise DatasetFormatError(f"{path}: malformed classes line: {lines[1]!r}")
    if num_classes < 1:
        raise DatasetFormatError(f"{path}: classes line {lines[1]!r}: the count must be >= 1")
    try:
        sequences = _parse_records(lines, num_classes)
    except DatasetFormatError as exc:
        raise DatasetFormatError(f"{path}: {exc}") from None
    return Dataset(sequences, num_classes)


def _parse_records(lines: list[str], num_classes: int) -> list[PulseSequence]:
    """The `seq` records that follow the two header lines."""
    sequences = []
    record = 0
    i = 2
    while i < len(lines):
        line = lines[i]
        if not line.strip():
            i += 1
            continue
        record += 1
        parts = line.split()
        if parts[0] != "seq" or len(parts) != 3:
            raise DatasetFormatError(f"record {record}: expected 'seq <label> <T>', got {line!r}")
        try:
            label, length = int(parts[1]), int(parts[2])
        except ValueError:
            raise DatasetFormatError(f"record {record}: malformed seq line: {line!r}")
        if not 0 <= label < num_classes:
            raise DatasetFormatError(
                f"record {record}: label {label} outside declared range [0, {num_classes})"
            )
        if not 1 <= length <= MAX_SEQ_LEN:
            raise DatasetFormatError(
                f"record {record}: length {length} outside [1, {MAX_SEQ_LEN}]"
            )
        if length < MIN_SEQ_LEN:
            warnings.warn(
                f"record {record}: length {length} below nominal minimum {MIN_SEQ_LEN}",
                stacklevel=3,
            )
        if i + length >= len(lines):
            raise DatasetFormatError(f"record {record}: truncated ({length} rows expected)")
        values = np.empty((length, NUM_ATTRIBUTES), dtype=np.float64)
        for t in range(length):
            row = lines[i + 1 + t].split()
            if len(row) != NUM_ATTRIBUTES:
                raise DatasetFormatError(
                    f"record {record}: pulse {t}: expected {NUM_ATTRIBUTES} fields, got {len(row)}"
                )
            for j, name in enumerate(ATTRIBUTES):
                values[t, j] = _parse_float(row[j], record, name)
            if values[t, 1] >= values[t, 0]:
                raise DatasetFormatError(f"record {record}: pulse {t}: pw >= pri")
        sequences.append(PulseSequence(values, label, check=False))
        i += 1 + length
    return sequences


def split_dataset(ds: Dataset, train_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Stratified deterministic train/test split.

    Each class contributes round(N_c * train_fraction) sequences to the
    train side (rounding: floor(x + 0.5)), clamped so both sides receive at
    least one sequence per class. Original sequence order is preserved
    within each part.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    by_class: dict[int, list[int]] = {c: [] for c in range(ds.num_classes)}
    for i, seq in enumerate(ds.sequences):
        by_class[seq.label].append(i)
    for c, idx in by_class.items():
        if len(idx) < 2:
            raise ValueError(f"class {c} has {len(idx)} sequences; need at least 2 to split")
    train_idx: list[int] = []
    test_idx: list[int] = []
    for c in range(ds.num_classes):
        idx = np.array(by_class[c])
        rng = derive_rng(seed, "split", c)
        perm = rng.permutation(len(idx))
        n_train = int(math.floor(len(idx) * train_fraction + 0.5))
        n_train = min(max(n_train, 1), len(idx) - 1)
        train_idx.extend(idx[perm[:n_train]])
        test_idx.extend(idx[perm[n_train:]])
    return ds.subset(sorted(train_idx)), ds.subset(sorted(test_idx))
