import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emitterclf import config as cfgmod
from emitterclf.data_model import (
    Dataset,
    DatasetFormatError,
    PulseSequence,
    _validate_values,
    dataset_fingerprint,
    load_dataset,
    save_dataset,
    serialize_dataset,
    split_dataset,
)
from emitterclf.pulse_sim import generate_dataset

from conftest import make_sequence

MICRO = Path(__file__).resolve().parent.parent / "configs" / "micro.cfg"


def test_pulse_invariants():
    row = [100.0, 1.0, 9000.0]
    PulseSequence(np.array([row] * 7), 0)
    bad_pulses = [
        ([100.0, 100.0, 9000.0], "pw >= pri at pulse 2"),  # pw must stay below pri
        ([-1.0, 0.5, 9000.0], "non-positive pri at pulse 2"),
        ([float("nan"), 0.5, 9000.0], "non-finite pri at pulse 2"),
    ]
    for bad, message in bad_pulses:
        values = np.array([row] * 7)
        values[2] = bad
        with pytest.raises(ValueError, match=message):
            PulseSequence(values, 0)


def test_sequence_validation_names_field_and_pulse():
    values = np.full((8, 3), 10.0)
    values[:, 0] = 100.0
    values[3, 2] = float("nan")
    with pytest.raises(ValueError, match="rf at pulse 3"):
        PulseSequence(values, 0)
    values[3, 2] = -1.0
    with pytest.raises(ValueError, match="rf at pulse 3"):
        PulseSequence(values, 0)


def test_sequence_length_limits():
    row = [100.0, 1.0, 9000.0]
    with pytest.raises(ValueError):
        PulseSequence(np.array([row] * 513), 0)
    with pytest.warns(UserWarning, match="below the nominal minimum"):
        PulseSequence(np.array([row] * 3), 0)


def test_dataset_counts_and_domains(small_dataset):
    assert small_dataset.n == 12
    assert list(small_dataset.class_counts) == [4, 4, 4]


def test_dataset_rejects_bad_labels():
    seq = make_sequence(100.0, 1.0, 9000.0, label=5, length=7)
    with pytest.raises(ValueError, match="label 5"):
        Dataset([seq], 3)


def test_save_load_round_trip(tmp_path, small_dataset):
    path = tmp_path / "ds.txt"
    save_dataset(small_dataset, path)
    loaded = load_dataset(path)
    assert loaded == small_dataset
    assert loaded.num_classes == small_dataset.num_classes
    assert np.array_equal(loaded.class_counts, small_dataset.class_counts)


def test_save_is_deterministic(tmp_path, small_dataset):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    save_dataset(small_dataset, a)
    save_dataset(small_dataset, b)
    assert a.read_bytes() == b.read_bytes()
    assert dataset_fingerprint(small_dataset) == dataset_fingerprint(small_dataset)


def test_empty_dataset_header_only(tmp_path):
    ds = Dataset([], 17)
    path = tmp_path / "empty.txt"
    save_dataset(ds, path)
    assert path.read_text() == "# emitter-dataset v1\nclasses 17\n"
    loaded = load_dataset(path)
    assert loaded.n == 0 and loaded.num_classes == 17


def test_single_record_file_shape(tmp_path):
    ds = Dataset([make_sequence(100.0, 1.0, 9000.0, length=7)], 1)
    path = tmp_path / "one.txt"
    save_dataset(ds, path)
    lines = path.read_text().splitlines()
    assert lines[2] == "seq 0 7"
    assert len(lines) == 3 + 7


def test_load_extreme_lengths_and_labels(tmp_path):
    header = "# emitter-dataset v1\nclasses 17\n"
    body = "seq 0 7\n" + "100 1 9000\n" * 7 + "seq 16 512\n" + "200 2 8000\n" * 512
    path = tmp_path / "two.txt"
    path.write_text(header + body)
    ds = load_dataset(path)
    assert ds.n == 2
    assert ds.num_classes == 17
    assert ds.class_counts[0] == 1 and ds.class_counts[16] == 1
    assert ds.sequences[1].length == 512


@pytest.mark.parametrize(
    "record,match",
    [
        ("seq 17 7\n" + "100 1 9000\n" * 7, "label 17"),
        ("seq 0 0\n", "length 0"),
        ("seq 0 513\n" + "100 1 9000\n" * 513, "length 513"),
        ("seq 0 7\n" + "100 1 9000\n" * 6 + "100 NaN 9000\n", "field pw"),
        ("seq 0 7\n" + "100 1 9000\n" * 6 + "100 1 nope\n", "field rf"),
        ("seq 0 7\n" + "100 1 9000\n" * 6 + "-5 1 9000\n", "field pri"),
        ("seq 0 2\n100 1 9000\n100 200 9000\n", "pw >= pri"),
        ("seq 0 3\n" + "100 1 9000\n" * 2, "record 1: truncated"),  # the last record, one row short
        ("classes 0\n", "classes line 'classes 0'"),  # header only
        ("classes -2\n" + "seq 0 7\n" + "100 1 9000\n" * 7, "classes line 'classes -2'"),
        (
            "classes 2 junk\n" + "seq 0 7\n" + "100 1 9000\n" * 7,
            "malformed classes line: 'classes 2 junk'",
        ),
    ],
)
def test_load_rejects_malformed_records(tmp_path, record, match):
    path = tmp_path / "bad.txt"
    # a case that starts with its own classes line replaces the default one
    classes = "" if record.startswith("classes ") else "classes 17\n"
    path.write_text("# emitter-dataset v1\n" + classes + record)
    with pytest.raises(DatasetFormatError, match=f"^{re.escape(str(path))}: .*{match}"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # short-length warning precedes some errors
            load_dataset(path)


def test_load_refuses_non_utf8_naming_the_file(tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"\xff# emitter-dataset v1\nclasses 2\n")
    with pytest.raises(DatasetFormatError, match=f"^{re.escape(str(path))}: 'utf-8' codec"):
        load_dataset(path)


def test_load_nan_rf_identifies_record_and_field(tmp_path):
    path = tmp_path / "nanrf.txt"
    path.write_text(
        "# emitter-dataset v1\nclasses 2\nseq 0 7\n" + "100 1 9000\n" * 6 + "100 1 NaN\n"
    )
    with pytest.raises(DatasetFormatError, match="record 1.*field rf"):
        load_dataset(path)


def test_load_short_sequence_warns(tmp_path):
    path = tmp_path / "short.txt"
    path.write_text("# emitter-dataset v1\nclasses 1\nseq 0 3\n" + "100 1 9000\n" * 3)
    with pytest.warns(UserWarning, match="below nominal minimum"):
        ds = load_dataset(path)
    assert ds.sequences[0].length == 3


def test_load_missing_header(tmp_path):
    path = tmp_path / "nohdr.txt"
    path.write_text("classes 2\n")
    with pytest.raises(DatasetFormatError, match="header"):
        load_dataset(path)


MICRO_LINES = serialize_dataset(
    generate_dataset(cfgmod.sim_config(cfgmod.load_config(MICRO)))
).splitlines()
_line = st.integers(0, len(MICRO_LINES) - 1)
_edits = st.one_of(
    st.tuples(st.just("drop"), _line),
    st.tuples(st.just("truncate"), _line),
    st.tuples(
        st.just("swap"), _line, st.integers(0, 2), st.sampled_from(("nan", "-1", "0", "x", "", "1e400"))
    ),
)


def _edit_lines(lines, edit):
    """Drop line k, keep lines 0..k only, or swap one token of line k."""
    kind, k = edit[:2]
    if kind == "drop":
        return lines[:k] + lines[k + 1 :]
    if kind == "truncate":
        return lines[: k + 1]
    tokens = lines[k].split(" ")
    tokens[edit[2] % len(tokens)] = edit[3]
    return lines[:k] + [" ".join(tokens)] + lines[k + 1 :]


@pytest.fixture(scope="module")
def edited_path(tmp_path_factory):
    return tmp_path_factory.mktemp("edited") / "micro.ds"


@given(edit=_edits)
@settings(max_examples=150, deadline=None)
def test_malformed_dataset_only_raises_format_error(edited_path, edit):
    """One edit to a saved micro dataset: it loads, or it is refused naming the file."""
    edited_path.write_text("\n".join(_edit_lines(MICRO_LINES, edit)) + "\n")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            load_dataset(edited_path)
    except DatasetFormatError as exc:
        assert str(exc).startswith(f"{edited_path}: ")


@st.composite
def datasets(draw):
    num_classes = draw(st.integers(1, 3))
    seqs = []
    n = draw(st.integers(1, 5))
    for _ in range(n):
        t = draw(st.integers(7, 12))
        label = draw(st.integers(0, num_classes - 1))
        rows = []
        for _ in range(t):
            pri = draw(st.floats(1e-3, 1e6, allow_nan=False, allow_infinity=False))
            ratio = draw(st.floats(1e-6, 0.99))
            rf = draw(st.floats(1e-3, 1e9, allow_nan=False, allow_infinity=False))
            rows.append([pri, pri * ratio, rf])
        seqs.append(PulseSequence(np.array(rows), label))
    return Dataset(seqs, num_classes)


@given(datasets())
@settings(max_examples=25, deadline=None)
def test_round_trip_property(tmp_path_factory, ds):
    """load(save(ds)) reproduces every value bit-for-bit."""
    path = tmp_path_factory.mktemp("rt") / "ds.txt"
    save_dataset(ds, path)
    loaded = load_dataset(path)
    assert loaded == ds
    assert serialize_dataset(loaded) == serialize_dataset(ds)


def _record(label, values):
    rows = "".join(" ".join(format(v, ".17g") for v in row) + "\n" for row in values)
    return f"seq {label} {len(values)}\n" + rows


_FAULTS = ["nan", "inf", "-inf", "zero", "negative", "pw>=pri"]


def _break_rule(values, draw, fault):
    """Break the pulse rule once in `values`, at a drawn pulse (and field)."""
    t = draw(st.integers(0, len(values) - 1), label="pulse")
    if fault == "pw>=pri":
        values[t, 1] = values[t, 0] * draw(st.floats(1.0, 10.0), label="pw/pri")
    else:
        bad = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf, "zero": 0.0, "negative": -1.0}
        values[t, draw(st.integers(0, 2), label="field")] = bad[fault]


@given(length=st.integers(7, 12), fault=st.sampled_from(_FAULTS), data=st.data())
@settings(max_examples=60, deadline=None)
def test_loader_refuses_a_bad_value_as_the_pulse_rule_does(tmp_path_factory, length, fault, data):
    """One value that breaks the pulse rule makes load_dataset raise the
    message _validate_values gives for that record's array, after `record N: `."""
    values = np.array([[100.0, 1.0, 9000.0]] * length)
    _break_rule(values, data.draw, fault)
    with pytest.raises(ValueError) as rule:
        _validate_values(values)
    rows = "".join(" ".join(format(v, ".17g") for v in row) + "\n" for row in values)
    good = "seq 0 7\n" + "100 1 9000\n" * 7
    path = tmp_path_factory.mktemp("bad") / "ds.txt"
    path.write_text(f"# emitter-dataset v1\nclasses 2\n{good}seq 1 {length}\n{rows}")
    with pytest.raises(DatasetFormatError) as refused:
        load_dataset(path)
    assert str(refused.value).endswith(f"record 2: {rule.value}")


@st.composite
def maybe_bad_datasets(draw):
    """A valid dataset, or one with a sequence that breaks the pulse rule once (built unchecked)."""
    ds = draw(datasets())
    if draw(st.booleans()):
        return ds
    k = draw(st.integers(0, ds.n - 1))
    values = ds.sequences[k].values.copy()
    _break_rule(values, draw, draw(st.sampled_from(_FAULTS)))
    seqs = list(ds.sequences)
    seqs[k] = PulseSequence(values, seqs[k].label, check=False)
    return Dataset(seqs, ds.num_classes)


@given(maybe_bad_datasets())
@settings(max_examples=60, deadline=None)
def test_save_writes_only_what_load_reads_back(tmp_path_factory, ds):
    """What save_dataset writes, load_dataset reads back equal; a dataset
    whose values _validate_values refuses, save_dataset refuses, and it
    leaves no file."""
    path = tmp_path_factory.mktemp("save") / "ds.txt"
    try:
        for seq in ds.sequences:
            _validate_values(seq.values)
    except ValueError as exc:
        with pytest.raises(DatasetFormatError, match=re.escape(str(exc))):
            save_dataset(ds, path)
        assert not path.exists()
    else:
        save_dataset(ds, path)
        assert load_dataset(path) == ds


def _imbalanced_dataset(counts):
    seqs = []
    for label, count in enumerate(counts):
        for k in range(count):
            seqs.append(make_sequence(100.0 + label, 1.0, 9000.0 + k, label=label, length=7))
    return Dataset(seqs, len(counts))


def test_split_exact_arithmetic():
    ds = _imbalanced_dataset([10] * 3)
    train, test = split_dataset(ds, 0.8, seed=0)
    assert list(train.class_counts) == [8, 8, 8]
    assert list(test.class_counts) == [2, 2, 2]


def test_split_deterministic():
    ds = _imbalanced_dataset([10, 6, 8])
    a = split_dataset(ds, 0.7, seed=5)
    b = split_dataset(ds, 0.7, seed=5)
    assert a[0] == b[0] and a[1] == b[1]
    c = split_dataset(ds, 0.7, seed=6)
    assert not (a[0] == c[0] and a[1] == c[1])


def test_split_fraction_oracle():
    """Per-class train counts match an independent floor(N_c*f + 0.5)."""
    import math

    counts = [40, 25, 17, 9, 5, 3, 2, 31, 12, 8, 6, 4, 2, 50, 20, 10, 7]
    ds = _imbalanced_dataset(counts)
    train, test = split_dataset(ds, 0.778, seed=3)
    for c, n_c in enumerate(counts):
        want = min(max(math.floor(n_c * 0.778 + 0.5), 1), n_c - 1)
        assert train.class_counts[c] == want
        assert test.class_counts[c] == n_c - want


def test_split_partitions():
    ds = _imbalanced_dataset([9, 4, 6])
    train, test = split_dataset(ds, 0.6, seed=11)
    ids_train = {id(s) for s in train.sequences}
    ids_test = {id(s) for s in test.sequences}
    assert not ids_train & ids_test
    assert sorted(map(id, ds.sequences)) == sorted(ids_train | ids_test)


def test_split_rejects_tiny_class():
    ds = _imbalanced_dataset([5, 1, 4])
    with pytest.raises(ValueError, match="class 1"):
        split_dataset(ds, 0.5, seed=0)
