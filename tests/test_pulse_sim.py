import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emitterclf.data_model import serialize_dataset
from emitterclf.pulse_sim import (
    ConstantPattern,
    EmitterSpec,
    HopPattern,
    JitterPattern,
    SimConfig,
    StaggerPattern,
    add_noise,
    generate_dataset,
    generate_sequence,
    parse_pattern,
)
from emitterclf.seeding import derive_rng
from reference_pulse_sim import ref_generate_sequence


def _spec(pri, pw, rf, class_id=0):
    return EmitterSpec(class_id=class_id, pri=pri, pw=pw, rf=rf)


def test_stagger_readout_zero_noise():
    spec = _spec(
        StaggerPattern((100.0, 120.0, 140.0)), ConstantPattern(1.0), ConstantPattern(9000.0)
    )
    seq = generate_sequence(spec, 6, 0.0, derive_rng(0))
    assert list(seq.values[:, 0]) == [100.0, 120.0, 140.0, 100.0, 120.0, 140.0]


def test_constant_rf_exact():
    spec = _spec(ConstantPattern(500.0), ConstantPattern(1.0), ConstantPattern(9000.0))
    seq = generate_sequence(spec, 64, 0.0, derive_rng(1))
    assert np.all(seq.values[:, 2] == 9000.0)
    assert seq.label == 0


def test_hop_pattern_dwell():
    pat = HopPattern((9000.0, 9200.0), dwell=3)
    vals = list(pat.column(np.arange(8), None))
    assert vals == [9000.0, 9000.0, 9000.0, 9200.0, 9200.0, 9200.0, 9000.0, 9000.0]


def test_jitter_statistical_oracle():
    """Uniform jitter: long-run mean near center, support center*(1 +/- dev)."""
    pat = JitterPattern(100.0, 0.1)
    rng = derive_rng(7)
    draws = pat.column(np.arange(100_000), rng.uniform(-1.0, 1.0, size=100_000))
    assert abs(draws.mean() - 100.0) / 100.0 < 0.01
    assert draws.min() >= 90.0 and draws.max() <= 110.0


def test_pattern_validation():
    with pytest.raises(ValueError):
        JitterPattern(100.0, 0.6)
    with pytest.raises(ValueError):
        StaggerPattern(())
    with pytest.raises(ValueError):
        HopPattern((9000.0,), dwell=0)
    with pytest.raises(ValueError):
        ConstantPattern(0.0)


def test_emitter_spec_validation():
    with pytest.raises(ValueError, match="max PW"):
        _spec(ConstantPattern(10.0), ConstantPattern(10.0), ConstantPattern(9000.0))
    with pytest.raises(ValueError, match="PRI pattern"):
        _spec(HopPattern((100.0,), 1), ConstantPattern(1.0), ConstantPattern(9000.0))
    with pytest.raises(ValueError, match="RF pattern"):
        _spec(ConstantPattern(100.0), ConstantPattern(1.0), JitterPattern(9000.0, 0.1))


def format_pattern(p) -> str:
    """The config-token form of a pattern, as `parse_pattern` reads it."""
    if isinstance(p, ConstantPattern):
        return f"constant {p.value:g}"
    if isinstance(p, StaggerPattern):
        return "stagger " + " ".join(f"{v:g}" for v in p.values)
    if isinstance(p, JitterPattern):
        return f"jitter {p.center:g} {p.deviation:g}"
    if isinstance(p, HopPattern):
        return f"hop {p.dwell} " + " ".join(f"{v:g}" for v in p.values)
    raise TypeError(f"not a pattern: {p!r}")


def test_pattern_parse_format_round_trip():
    for tokens, rf in [
        (["constant", "100"], False),
        (["stagger", "100", "120", "140"], False),
        (["jitter", "100", "0.2"], False),
        (["hop", "3", "9000", "9200"], True),
    ]:
        pat = parse_pattern(tokens, rf=rf)
        assert parse_pattern(format_pattern(pat).split(), rf=rf) == pat
    with pytest.raises(ValueError, match="unknown"):
        parse_pattern(["hop", "3", "100"], rf=False)


def _simconfig(noise=0.0, counts=(10,) * 3, lengths=(7, 16), seed=9):
    emitters = (
        _spec(StaggerPattern((100.0, 130.0)), ConstantPattern(5.0), ConstantPattern(9000.0), 0),
        _spec(JitterPattern(200.0, 0.2), ConstantPattern(6.0), ConstantPattern(3000.0), 1),
        _spec(ConstantPattern(400.0), ConstantPattern(7.0), HopPattern((5000.0, 5500.0), 2), 2),
    )
    return SimConfig(
        emitters=emitters,
        sequences_per_class=counts,
        length_range=lengths,
        noise_fraction=noise,
        seed=seed,
    )


def test_generate_dataset_counts_and_determinism():
    cfg = _simconfig(counts=(10, 10, 10))
    ds = generate_dataset(cfg)
    assert ds.n == 30
    assert list(ds.class_counts) == [10, 10, 10]
    assert serialize_dataset(ds) == serialize_dataset(generate_dataset(cfg))


def test_generate_dataset_imbalanced_counts():
    ds = generate_dataset(_simconfig(counts=(50, 5, 5)))
    assert list(ds.class_counts) == [50, 5, 5]


def test_generate_dataset_respects_length_range():
    ds = generate_dataset(_simconfig(lengths=(7, 9)))
    lengths = {s.length for s in ds.sequences}
    assert lengths <= {7, 8, 9}
    assert len(lengths) > 1


def test_zero_noise_pattern_fidelity():
    """Generated attribute columns equal closed-form pattern evaluation."""
    cfg = _simconfig(noise=0.0)
    ds = generate_dataset(cfg)
    for seq in ds.sequences:
        spec = cfg.emitters[seq.label]
        for j, pat in enumerate((spec.pri, spec.pw, spec.rf)):
            if isinstance(pat, JitterPattern):
                continue
            expect = pat.column(np.arange(seq.length), None)
            assert np.array_equal(seq.values[:, j], expect)


def test_positivity_under_noise():
    for noise in (0.0, 0.1, 0.5):
        ds = generate_dataset(_simconfig(noise=noise))
        for seq in ds.sequences:
            assert np.all(seq.values > 0.0)
            assert np.all(seq.values[:, 1] < seq.values[:, 0])


def test_simconfig_validation():
    with pytest.raises(ValueError, match="at least 2"):
        _simconfig(counts=(1, 10, 10))
    with pytest.raises(ValueError, match="length_range"):
        _simconfig(lengths=(3, 16))
    with pytest.raises(ValueError, match="length_range"):
        _simconfig(lengths=(7, 600))


def test_add_noise_zero_is_identity():
    ds = generate_dataset(_simconfig(noise=0.02))
    noisy = add_noise(ds, 0.0, seed=4)
    assert noisy == ds


def test_add_noise_sigma_oracle():
    """Relative sigma: constant-100 values perturbed at 10% show sigma ~= 10."""
    from emitterclf.data_model import Dataset, PulseSequence

    values = np.empty((512, 3))
    values[:, 0] = 100.0
    values[:, 1] = 1.0
    values[:, 2] = 9000.0
    ds = Dataset([PulseSequence(values, 0) for _ in range(2000)], 1)
    noisy = add_noise(ds, 0.1, seed=12)
    pri = np.concatenate([s.values[:, 0] for s in noisy.sequences])
    assert pri.size >= 1_000_000
    sigma = pri.std()
    assert abs(sigma - 10.0) / 10.0 < 0.02


def test_add_noise_preserves_labels_and_lengths():
    ds = generate_dataset(_simconfig(noise=0.0))
    noisy = add_noise(ds, 0.1, seed=3)
    assert [s.label for s in noisy.sequences] == [s.label for s in ds.sequences]
    assert [s.length for s in noisy.sequences] == [s.length for s in ds.sequences]
    assert serialize_dataset(add_noise(ds, 0.1, seed=3)) == serialize_dataset(noisy)


def test_add_noise_rejects_out_of_range():
    ds = generate_dataset(_simconfig())
    with pytest.raises(ValueError):
        add_noise(ds, 0.6, seed=0)


def test_separability_sanity_one_nn_on_mean_rf():
    """Disjoint constant RFs, zero noise: 1-NN on mean RF is perfect."""
    cfg = _simconfig(noise=0.0)
    ds = generate_dataset(cfg)
    centers = np.array([e.rf.mean for e in cfg.emitters])
    correct = np.zeros(ds.num_classes)
    for seq in ds.sequences:
        pred = int(np.argmin(np.abs(centers - seq.values[:, 2].mean())))
        correct[seq.label] += pred == seq.label
    macro = float(np.mean(correct / np.asarray(ds.class_counts)))
    assert macro == 1.0


def test_sequence_order_independent_seeding():
    """Each (class, index) derives its own stream: same output regardless of order."""
    cfg = _simconfig(noise=0.05)
    spec = cfg.emitters[1]
    rng = derive_rng(cfg.seed, "sim", 1, 3)
    length = int(rng.integers(*cfg.length_range[0:1] + (cfg.length_range[1] + 1,)))
    direct = generate_sequence(spec, length, cfg.noise_fraction, rng)
    ds = generate_dataset(cfg)
    from_dataset = ds.sequences[10 + 3]  # class 1 block starts at 10
    assert direct == from_dataset


def _pattern(draw, kind, lo, hi):
    value = st.floats(lo, hi)
    if kind == "constant":
        return ConstantPattern(draw(value))
    if kind == "jitter":
        return JitterPattern(draw(value), draw(st.floats(0.0, 0.5)))
    values = tuple(draw(st.lists(value, min_size=1, max_size=5)))
    if kind == "stagger":
        return StaggerPattern(values)
    return HopPattern(values, draw(st.integers(1, 40)))


@pytest.mark.parametrize("rf_kind", ["constant", "hop"])
@pytest.mark.parametrize("pw_kind", ["constant", "stagger", "jitter"])
@pytest.mark.parametrize("pri_kind", ["constant", "stagger", "jitter"])
@given(data=st.data())
@settings(max_examples=12, deadline=None)
def test_generate_sequence_matches_scalar_reference(pri_kind, pw_kind, rf_kind, data):
    """Same bytes as the per-pulse scalar loop, and the rng ends in the same state.

    The PRI range lies above every PW value, so any pair of patterns is a
    valid spec; jitter on both PRI and PW covers the interleaved draws.
    """
    spec = _spec(
        _pattern(data.draw, pri_kind, 200.0, 2000.0),
        _pattern(data.draw, pw_kind, 1.0, 60.0),
        _pattern(data.draw, rf_kind, 1000.0, 10000.0),
        class_id=data.draw(st.integers(0, 16)),
    )
    length = data.draw(st.integers(1, 512))
    noise = data.draw(st.sampled_from([0.0, 0.07, 0.5]))
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    seq = generate_sequence(spec, length, noise, rng)
    ref = ref_generate_sequence(spec, length, noise, ref_rng)
    assert seq.label == ref.label
    assert seq.values.tobytes() == ref.values.tobytes()
    assert rng.integers(0, 2**63) == ref_rng.integers(0, 2**63)
