import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emitterclf.data_model import Dataset, PulseSequence
from emitterclf.normalize import (
    DomainStats,
    build_batch,
    discretize_normalize,
    fit_domain_stats,
    minmax_normalize,
    normalize_scheme,
    per_sequence_normalize,
    scheme_channel_count,
    standardize_normalize,
)

from conftest import make_sequence


def _stats(mins, maxs, means=None, stds=None):
    mins = np.asarray(mins, dtype=np.float64)
    maxs = np.asarray(maxs, dtype=np.float64)
    return DomainStats(
        mins=mins,
        maxs=maxs,
        means=np.asarray(means if means is not None else (mins + maxs) / 2),
        stds=np.asarray(stds if stds is not None else (maxs - mins)),
    )


def test_fit_domain_stats_exact():
    a = make_sequence([100.0, 200.0], 1.0, 9000.0, length=7)
    b = make_sequence([150.0, 300.0], 2.0, 8000.0, length=7)
    stats = fit_domain_stats(Dataset([a, b], 1))
    assert stats.mins[0] == 100.0 and stats.maxs[0] == 300.0


def test_fit_domain_stats_brute_force_oracle(small_dataset):
    stats = fit_domain_stats(small_dataset)
    all_rows = [row for s in small_dataset.sequences for row in s.values]
    for j in range(3):
        col = [r[j] for r in all_rows]
        assert stats.mins[j] == min(col)
        assert stats.maxs[j] == max(col)
        assert stats.means[j] == pytest.approx(sum(col) / len(col), rel=1e-12)
        var = sum((v - stats.means[j]) ** 2 for v in col) / len(col)
        assert stats.stds[j] == pytest.approx(var**0.5, rel=1e-12)


def test_fit_domain_stats_rejects_constant_attribute():
    a = make_sequence([100.0, 200.0], 1.0, 9000.0, length=7)
    b = make_sequence([150.0, 300.0], 1.0, 8000.0, length=7)
    with pytest.raises(ValueError, match="pw"):
        fit_domain_stats(Dataset([a, b], 1))


def test_fit_never_touches_test_data(small_dataset):
    stats = fit_domain_stats(small_dataset)
    wild = make_sequence(1e6, 1.0, 1e6, length=7)
    _ = minmax_normalize(wild, stats)  # values pass through linearly
    stats2 = fit_domain_stats(small_dataset)
    assert np.array_equal(stats.mins, stats2.mins)
    assert np.array_equal(stats.maxs, stats2.maxs)


def test_minmax_endpoints_and_midpoint():
    stats = _stats([100.0, 1.0, 8000.0], [300.0, 3.0, 9000.0])
    seq = make_sequence([100.0, 300.0, 200.0], 2.0, 8500.0, length=3)
    out = minmax_normalize(seq, stats)
    assert out[0, 0] == -1.0 and out[1, 0] == 1.0 and out[2, 0] == 0.0
    assert out[0, 1] == 0.0  # midpoint of pw domain
    assert out[0, 2] == 0.0


def test_minmax_linear_example():
    stats = _stats([0.0, 0.0, 0.0], [10.0, 10.0, 10.0])
    seq = make_sequence(2.5, 1.0, 5.0, length=1)
    assert minmax_normalize(seq, stats)[0, 0] == -0.5


def test_minmax_no_clamp_outside_domain():
    stats = _stats([100.0, 1.0, 8000.0], [200.0, 3.0, 9000.0])
    seq = make_sequence(300.0, 2.0, 9500.0, length=2)
    out = minmax_normalize(seq, stats)
    assert out[0, 0] == 3.0  # linear pass-through beyond +1
    assert out[0, 2] == 2.0


def test_minmax_duplicate_implementation_oracle(small_dataset):
    stats = fit_domain_stats(small_dataset)
    for seq in small_dataset.sequences:
        ours = minmax_normalize(seq, stats)
        for j in range(3):
            span = stats.maxs[j] - stats.mins[j]
            for t in range(seq.length):
                ref = 2.0 * (seq.values[t, j] - stats.mins[j]) / span - 1.0
                assert abs(ours[t, j] - ref) < 1e-12


def test_per_sequence_endpoints():
    seq = make_sequence([2.0, 7.0, 12.0], 1.0, 9000.0, length=3)
    out = per_sequence_normalize(seq)
    assert list(out[:, 0]) == [-1.0, 0.0, 1.0]


def test_per_sequence_constant_zero_fill():
    seq = make_sequence(7.0, 1.0, [9000.0, 9100.0], length=4)
    out = per_sequence_normalize(seq)
    assert np.all(out[:, 0] == 0.0)
    assert np.all(out[:, 1] == 0.0)
    assert out[:, 2].min() == -1.0 and out[:, 2].max() == 1.0


def test_per_sequence_exact_range(small_dataset):
    for seq in small_dataset.sequences:
        out = per_sequence_normalize(seq)
        for j in range(3):
            col = seq.values[:, j]
            if col.max() > col.min():
                assert abs(out[:, j].min() + 1.0) < 1e-12
                assert abs(out[:, j].max() - 1.0) < 1e-12


@given(
    a=st.floats(1e-3, 1e3),
    b=st.floats(0.0, 1e3),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=40, deadline=None)
def test_per_sequence_affine_invariance(a, b, seed):
    """Per-sequence output is unchanged by any positive affine map of the input."""
    rng = np.random.default_rng(seed)
    values = rng.uniform(1.0, 100.0, size=(9, 3))
    values[:, 1] = values[:, 0] * 0.5  # keep pw < pri
    base = PulseSequence(values, 0)
    mapped = PulseSequence(a * values + b, 0, check=False)
    out_a = per_sequence_normalize(base)
    out_b = per_sequence_normalize(mapped)
    assert np.max(np.abs(out_a - out_b)) < 1e-9


def test_standardize_matches_brute_force(small_dataset):
    stats = fit_domain_stats(small_dataset)
    seq = small_dataset.sequences[0]
    out = standardize_normalize(seq, stats)
    for j in range(3):
        ref = (seq.values[:, j] - stats.means[j]) / stats.stds[j]
        assert np.allclose(out[:, j], ref, atol=1e-12)


def test_discretize_boundaries():
    stats = _stats([0.0, 0.0, 0.0], [10.0, 10.0, 10.0])
    seq = make_sequence([10.0, 0.001, 5.0], 0.0005, 10.0, length=3)
    out = discretize_normalize(seq, stats, bins=100)
    assert out.dtype == np.int64
    assert out[0, 0] == 99  # value == MAX clamps into the top bin
    assert out[1, 0] == 0
    assert out[2, 0] == 50
    assert np.all(out[:, 2] == 99)


def test_scheme_channel_counts():
    assert scheme_channel_count("none") == 3
    assert scheme_channel_count("minmax") == 3
    assert scheme_channel_count("minmax+perseq") == 6
    assert scheme_channel_count("standardize") == 3
    assert scheme_channel_count("discretize") == 3
    with pytest.raises(ValueError):
        scheme_channel_count("bogus")


def test_normalize_scheme_layout_contract(small_dataset):
    """minmax+perseq: columns 0-2 are min-max, 3-5 per-sequence, (pri, pw, rf)."""
    stats = fit_domain_stats(small_dataset)
    seq = small_dataset.sequences[0]
    ns = normalize_scheme(seq, stats, "minmax+perseq")
    assert ns.channels.shape == (seq.length, 6)
    assert np.array_equal(ns.channels[:, :3], minmax_normalize(seq, stats))
    assert np.array_equal(ns.channels[:, 3:], per_sequence_normalize(seq))
    assert ns.valid_length == seq.length and ns.label == seq.label


def test_normalize_scheme_none_is_identity(small_dataset):
    seq = small_dataset.sequences[2]
    ns = normalize_scheme(seq, None, "none")
    assert np.array_equal(ns.channels, seq.values)


def test_normalize_scheme_unknown_token(small_dataset):
    stats = fit_domain_stats(small_dataset)
    with pytest.raises(ValueError, match="unknown"):
        normalize_scheme(small_dataset.sequences[0], stats, "zscore")


def test_dual_scheme_shape_seven_by_six():
    seq = make_sequence([100.0, 110.0, 120.0, 130.0, 140.0, 150.0, 160.0], 1.0, 9000.0)
    stats = _stats([90.0, 0.5, 8000.0], [200.0, 2.0, 9500.0])
    ns = normalize_scheme(seq, stats, "minmax+perseq")
    assert ns.channels.shape == (7, 6)


def test_build_batch_padding_and_mask(small_dataset):
    stats = fit_domain_stats(small_dataset)
    normalized = [normalize_scheme(s, stats, "minmax") for s in small_dataset.sequences[:3]]
    batch = build_batch(normalized)
    t_max = max(ns.valid_length for ns in normalized)
    assert batch.channels.shape == (3, t_max, 3)
    mask = batch.mask()
    for b, ns in enumerate(normalized):
        assert mask[b, : ns.valid_length].all()
        assert not mask[b, ns.valid_length :].any()
        assert np.all(batch.channels[b, ns.valid_length :] == 0.0)
