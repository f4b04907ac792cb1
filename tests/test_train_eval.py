import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from emitterclf import train_eval
from emitterclf.data_model import Dataset, PulseSequence, dataset_fingerprint
from emitterclf.model import ARCHITECTURES, ModelConfig, build
from emitterclf.normalize import fit_domain_stats
from emitterclf.pulse_sim import (
    ConstantPattern,
    EmitterSpec,
    JitterPattern,
    SimConfig,
    StaggerPattern,
    generate_dataset,
)
from emitterclf.seeding import derive_rng
from emitterclf.train_eval import (
    ABLATION_CELLS,
    BASELINES,
    TrainConfig,
    TrainingDiverged,
    classification_report,
    evaluate,
    noise_sweep,
    run_ablation,
    run_baselines,
    summarize_rows,
    train,
    write_confusion_csv,
    write_noise_gnuplot,
    write_report_json,
    write_rows_csv,
)


def _check_consistency(report, class_counts=None) -> None:
    """The report's totals, per-class accuracies and macro average agree."""
    row_sums = report.confusion.sum(axis=1)
    assert int(report.confusion.sum()) == report.n_test
    if class_counts is not None:
        assert np.array_equal(row_sums, class_counts)
    accs = []
    for c, acc in enumerate(report.per_class_accuracy):
        if row_sums[c] == 0:
            assert acc is None
        else:
            assert acc == report.confusion[c, c] / row_sums[c]
            accs.append(acc)
    assert report.macro_accuracy == sum(accs) / len(accs)


def _separable_config(noise=0.0, counts=(12, 12), lengths=(7, 16), seed=21):
    emitters = (
        EmitterSpec(0, StaggerPattern((100.0, 140.0)), ConstantPattern(5.0), ConstantPattern(9000.0)),
        EmitterSpec(1, JitterPattern(300.0, 0.1), ConstantPattern(6.0), ConstantPattern(3000.0)),
    )
    return SimConfig(
        emitters=emitters,
        sequences_per_class=counts,
        length_range=lengths,
        noise_fraction=noise,
        seed=seed,
    )


@pytest.fixture(scope="module")
def separable_ds():
    return generate_dataset(_separable_config())


def _tcfg(**kw):
    base = dict(epochs=4, batch_size=8, learning_rate=2e-3, seed=0)
    base.update(kw)
    return TrainConfig(**base)


def _mcfg(**kw):
    base = dict(
        architecture="attribute_specific_lstm",
        scheme="minmax+perseq",
        num_classes=2,
        hidden=8,
        layers=2,
        dropout=0.0,
    )
    base.update(kw)
    return ModelConfig(**base)


def test_classification_report_matches_brute_force():
    rng = derive_rng(31)
    c = 6
    truths = rng.integers(0, c, size=500)
    preds = rng.integers(0, c, size=500)
    macro, per_class, confusion = classification_report(truths, preds, c)
    ref_conf = [[0] * c for _ in range(c)]
    for t, p in zip(truths, preds):
        ref_conf[t][p] += 1
    assert confusion.tolist() == ref_conf
    accs = []
    for cls in range(c):
        row_total = sum(ref_conf[cls])
        if row_total == 0:
            assert per_class[cls] is None
        else:
            acc = ref_conf[cls][cls] / row_total
            assert per_class[cls] == acc
            accs.append(acc)
    assert macro == sum(accs) / len(accs)


def test_constant_predictor_macro_is_one_over_c():
    c = 7
    truths = np.repeat(np.arange(c), [50, 40, 30, 20, 10, 5, 5])  # imbalanced
    preds = np.full_like(truths, 3)
    macro, _, _ = classification_report(truths, preds, c)
    assert macro == 1.0 / c


def test_classification_report_absent_class():
    macro, per_class, _ = classification_report([0, 0, 2], [0, 0, 2], 3)
    assert per_class[1] is None
    assert macro == 1.0


def test_train_reaches_perfect_macro_on_separable_data(separable_ds):
    """Two trivially separable classes: train accuracy hits 1.0 quickly."""
    model = build(_mcfg(), seed=0)
    result = train(model, separable_ds, _tcfg(epochs=30, learning_rate=5e-3))
    report = evaluate(result.model, separable_ds, result.stats)
    assert report.macro_accuracy == 1.0
    _check_consistency(report, separable_ds.class_counts)


def test_initial_loss_near_log_c(separable_ds):
    """With uniform weights (balanced classes) an untrained model scores about ln C."""
    model = build(_mcfg(), seed=1)
    result = train(model, separable_ds, _tcfg(epochs=1, learning_rate=1e-5))
    assert abs(result.epoch_losses[0] - math.log(2)) / math.log(2) < 0.1


def test_train_deterministic(separable_ds):
    r1 = train(build(_mcfg(), seed=3), separable_ds, _tcfg())
    r2 = train(build(_mcfg(), seed=3), separable_ds, _tcfg())
    assert r1.epoch_losses == r2.epoch_losses
    for name in r1.model.params:
        assert np.array_equal(r1.model.params[name], r2.model.params[name])


def test_train_uses_median_frequency_weights(separable_ds):
    result = train(build(_mcfg(), seed=4), separable_ds, _tcfg(epochs=1))
    assert np.array_equal(result.class_weights, [1.0, 1.0])  # balanced counts
    assert result.stats is not None


def test_train_diverged_diagnostic(separable_ds):
    model = build(_mcfg(), seed=5)
    model.params["fc.W"][:] = np.nan
    with pytest.raises(TrainingDiverged, match="epoch 0, batch 0"):
        train(model, separable_ds, _tcfg())


def test_resume_replays_identical_trajectory(separable_ds):
    """Split training (with optimizer state) equals one uninterrupted run."""
    cfg_full = _tcfg(epochs=6)
    full = train(build(_mcfg(), seed=6), separable_ds, cfg_full)

    cfg_head = _tcfg(epochs=3)
    head = train(build(_mcfg(), seed=6), separable_ds, cfg_head)
    tail = train(
        head.model,
        separable_ds,
        cfg_full,
        stats=head.stats,
        optimizer=head.optimizer,
        prior_losses=head.epoch_losses,
    )
    assert tail.epoch_losses == full.epoch_losses
    for name in full.model.params:
        assert np.array_equal(tail.model.params[name], full.model.params[name])


_SCHEMES = {
    "attribute_specific_lstm": "minmax+perseq",
    "joint_lstm": "minmax",
    "gru_discretized": "discretize",
    "stats_mlp": "minmax",
}


def _pulse_dataset(lengths, seed):
    """Two classes that alternate; PRI, PW and RF vary within each sequence."""
    rng = np.random.default_rng(seed)
    seqs = []
    for i, t in enumerate(lengths):
        label = i % 2
        base = np.array([100.0 * (1 + label), 5.0, 3000.0 * (1 + label)])
        seqs.append(PulseSequence(base * (1.0 + 0.2 * rng.random((t, 3))), label, check=False))
    return Dataset(seqs, 2)


def _arrays(obj):
    """Every ndarray reachable through a cache's dicts, lists and tuples."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _arrays(v)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            yield from _arrays(v)


def _train_recording(model, ds, cfg, hand_off):
    """train() with each batch's gradients recorded.

    hand_off=True fills the spent cache with NaN, store buffers included,
    before the next forward takes it over, so a stale read shows; False
    gives every forward fresh stores.
    """
    grads = []
    real_forward, real_backward = train_eval.forward, train_eval.backward

    def forward(*args, spent=None, **kwargs):
        if not hand_off:
            spent = None
        for a in _arrays(spent):
            if a.dtype.kind == "f":
                a.fill(np.nan)
        return real_forward(*args, spent=spent, **kwargs)

    def backward(*args):
        g = real_backward(*args)
        grads.append({name: d.copy() for name, d in g.items()})
        return g

    with mock.patch.object(train_eval, "forward", forward), mock.patch.object(
        train_eval, "backward", backward
    ):
        result = train(model, ds, cfg)
    return result, grads


@settings(max_examples=40, deadline=None)
@given(
    arch=st.sampled_from(ARCHITECTURES),
    dropout=st.sampled_from([0.0, 0.3]),
    lengths=st.lists(st.integers(1, 12), min_size=2, max_size=9),
    batch_size=st.integers(1, 4),
    shuffle=st.booleans(),
    seed=st.integers(0, 2**16),
)
@example(  # later batches need a longer T and more rows; the last one is smaller
    arch="attribute_specific_lstm", dropout=0.3, lengths=[2, 3, 5, 5, 9, 9, 12, 4, 4],
    batch_size=2, shuffle=False, seed=0,
)
@example(
    arch="gru_discretized", dropout=0.3, lengths=[1, 2, 6, 6, 6, 11, 3],
    batch_size=2, shuffle=False, seed=1,
)
def test_handed_over_stores_keep_training_bytes(arch, dropout, lengths, batch_size, shuffle, seed):
    """Training that writes each batch's BPTT stores over the spent cache's
    gives the bytes of training with fresh stores: trained params, epoch
    losses and every batch's gradients."""
    cfg = ModelConfig(
        architecture=arch, scheme=_SCHEMES[arch], num_classes=2, hidden=3, layers=2,
        dropout=dropout, embed_dim=2, mlp_hidden=(4,),
    )
    ds = _pulse_dataset(lengths, seed)
    tcfg = _tcfg(epochs=2, batch_size=batch_size, shuffle=shuffle, seed=seed)
    fresh, fresh_grads = _train_recording(build(cfg, seed=seed), ds, tcfg, hand_off=False)
    handed, handed_grads = _train_recording(build(cfg, seed=seed), ds, tcfg, hand_off=True)
    assert np.array(handed.epoch_losses).tobytes() == np.array(fresh.epoch_losses).tobytes()
    for name, p in fresh.model.params.items():
        assert handed.model.params[name].tobytes() == p.tobytes(), name
    assert len(handed_grads) == len(fresh_grads)
    for got, want in zip(handed_grads, fresh_grads):
        assert got.keys() == want.keys()
        for name in want:
            assert got[name].tobytes() == want[name].tobytes(), name


@pytest.mark.parametrize("arch", ["attribute_specific_lstm", "joint_lstm", "gru_discretized"])
def test_training_holds_one_batch_of_state(arch):
    """Over 4 batches of one shape, train() peaks within 1.1x of its peak over
    1 batch: no batch's cache or gradients outlive it, except the cache the
    next forward writes over. (When a whole cache outlived its batch, the
    ratio was 1.3-1.7.)"""
    cfg = ModelConfig(
        architecture=arch, scheme=_SCHEMES[arch], num_classes=2, hidden=16, layers=2,
        dropout=0.3,
    )
    ds = _pulse_dataset([96] * 8, seed=0)

    def peak(epochs):  # one batch per epoch
        model = build(cfg, seed=0)
        tracemalloc.start()
        try:
            train(model, ds, _tcfg(epochs=epochs, batch_size=8))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # first-call allocations that later calls reuse
    assert peak(4) < 1.1 * peak(1)


def test_evaluate_report_consistency(separable_ds):
    result = train(build(_mcfg(), seed=7), separable_ds, _tcfg())
    report = evaluate(result.model, separable_ds, result.stats)
    _check_consistency(report, separable_ds.class_counts)
    assert report.n_test == separable_ds.n


def test_stats_are_a_function_of_the_training_split_only(separable_ds):
    """Train/test hygiene: fitting inputs hash to the train split."""
    train_half = Dataset(separable_ds.sequences[6:18], 2)  # 6 of each class
    result = train(build(_mcfg(), seed=8), train_half, _tcfg(epochs=1))
    direct = fit_domain_stats(train_half)
    assert np.array_equal(result.stats.mins, direct.mins)
    assert np.array_equal(result.stats.maxs, direct.maxs)
    assert dataset_fingerprint(train_half) == dataset_fingerprint(train_half)
    assert dataset_fingerprint(train_half) != dataset_fingerprint(separable_ds)


@pytest.fixture(scope="module")
def micro_split():
    cfg = _separable_config(noise=0.02, counts=(10, 10), lengths=(7, 12))
    ds = generate_dataset(cfg)
    from emitterclf.data_model import split_dataset

    return split_dataset(ds, 0.7, seed=1)


def test_run_ablation_grid_layout(micro_split):
    train_ds, test_ds = micro_split
    base = _mcfg()
    result = run_ablation(train_ds, test_ds, base, _tcfg(epochs=2), seeds=(0, 1), jobs=1)
    assert [(r["scheme"], r["architecture"]) for r in result.summary] == list(ABLATION_CELLS)
    assert len(result.rows) == 12
    schemes = {r["scheme"] for r in result.rows}
    assert schemes == {"none", "minmax", "minmax+perseq"}


def test_ablation_cell_matches_standalone_run(micro_split):
    """Each grid cell reproduces an identical standalone train+evaluate."""
    train_ds, test_ds = micro_split
    base = _mcfg()
    tcfg = _tcfg(epochs=2)
    result = run_ablation(train_ds, test_ds, base, tcfg, seeds=(5,), jobs=1)
    for row in result.rows:
        cell_cfg = ModelConfig(
            architecture=row["architecture"],
            scheme=row["scheme"],
            num_classes=base.num_classes,
            hidden=base.hidden,
            layers=base.layers,
            dropout=base.dropout,
        )
        model = build(cell_cfg, seed=5)
        res = train(model, train_ds, _tcfg(epochs=2, seed=5))
        report = evaluate(res.model, test_ds, res.stats)
        assert report.macro_accuracy == row["macro_accuracy"]


def test_run_baselines_rows(micro_split):
    train_ds, test_ds = micro_split
    result = run_baselines(
        train_ds, test_ds, _mcfg(hidden=4), _tcfg(epochs=2), seeds=(0,), jobs=1
    )
    assert [r["method"] for r in result.summary] == list(BASELINES)
    by_method = {r["method"]: r["scheme"] for r in result.summary}
    assert by_method["gru_discretized_pripw"] == "discretize"
    assert by_method["stats_mlp_standardize"] == "standardize"
    assert by_method["proposed"] == "minmax+perseq"


def test_run_baselines_models_independent_of_jobs(micro_split):
    """The pool's longest-first dispatch changes no row and no trained parameter."""
    train_ds, test_ds = micro_split
    args = (train_ds, test_ds, _mcfg(hidden=4, dropout=0.3), _tcfg(epochs=2))
    serial = run_baselines(*args, seeds=(0, 1), jobs=1, return_models=True)
    pooled = run_baselines(*args, seeds=(0, 1), jobs=2, return_models=True)
    assert pooled.rows == serial.rows
    assert pooled.summary == serial.summary
    assert list(pooled.models) == list(serial.models)
    for label, (model, _) in serial.models.items():
        params = pooled.models[label][0].params
        assert list(params) == list(model.params)
        for name, value in model.params.items():
            assert params[name].tobytes() == value.tobytes(), (label, name)


def _dispatch_order(monkeypatch, run, micro_split):
    """(row, seed) of each grid task in the order `_execute_tasks` starts them, and the rows."""
    dispatched = []

    def fake_task(task):
        row, _, train_cfg = task[:3]
        dispatched.append((tuple(row.values()), train_cfg.seed))
        return {**row, "seed": train_cfg.seed, "macro_accuracy": 0.0}, None

    monkeypatch.setattr(train_eval, "_run_grid_task", fake_task)
    train_ds, test_ds = micro_split
    result = run(train_ds, test_ds, _mcfg(), _tcfg(), seeds=(0, 1), jobs=1)
    return dispatched, [(tuple(r.values())[:-2], r["seed"]) for r in result.rows]


def test_baselines_dispatch_longest_first(monkeypatch, micro_split):
    """The S=6 cell starts first and the stats MLPs last; ties and rows keep grid order."""
    dispatched, rows = _dispatch_order(monkeypatch, run_baselines, micro_split)
    order = [
        ("proposed", "minmax+perseq"),  # 6 stacks x 2 layers
        ("gru_discretized_pripw", "discretize"),  # 1 x 2
        ("gru_discretized_rf", "discretize"),
        ("stats_mlp_minmax", "minmax"),  # 0
        ("stats_mlp_standardize", "standardize"),
    ]
    assert dispatched == [(cell, seed) for cell in order for seed in (0, 1)]
    grid = order[1:] + order[:1]  # BASELINES lists the proposed model last
    assert rows == [(cell, seed) for cell in grid for seed in (0, 1)]


def test_ablation_dispatch_longest_first(monkeypatch, micro_split):
    dispatched, rows = _dispatch_order(monkeypatch, run_ablation, micro_split)
    order = [
        ("minmax+perseq", "attribute_specific_lstm"),  # 6 stacks x 2 layers
        ("none", "attribute_specific_lstm"),  # 3 x 2
        ("minmax", "attribute_specific_lstm"),
        ("none", "joint_lstm"),  # 1 x 2
        ("minmax", "joint_lstm"),
        ("minmax+perseq", "joint_lstm"),
    ]
    assert dispatched == [(cell, seed) for cell in order for seed in (0, 1)]
    assert rows == [(cell, seed) for cell in ABLATION_CELLS for seed in (0, 1)]


def test_summarize_rows_median():
    rows = [
        {"cell": "a", "macro_accuracy": 0.5},
        {"cell": "a", "macro_accuracy": 0.9},
        {"cell": "a", "macro_accuracy": 0.6},
        {"cell": "b", "macro_accuracy": 0.2},
    ]
    summary = summarize_rows(rows, ("cell",))
    assert summary[0] == {"cell": "a", "median_macro_accuracy": 0.6}
    assert summary[1]["median_macro_accuracy"] == 0.2


def test_noise_sweep_zero_fraction_reproduces_clean_eval(separable_ds):
    result = train(build(_mcfg(), seed=9), separable_ds, _tcfg())
    clean = evaluate(result.model, separable_ds, result.stats)
    rows = noise_sweep(
        [("m", result.model, result.stats)], separable_ds, fractions=(0.0, 0.05), seed=3
    )
    assert rows[0]["noise_fraction"] == 0.0
    assert rows[0]["macro_accuracy"] == clean.macro_accuracy
    assert [r["noise_fraction"] for r in rows] == [0.0, 0.05]


def test_noise_sweep_covers_requested_fractions(separable_ds):
    result = train(build(_mcfg(), seed=10), separable_ds, _tcfg(epochs=1))
    fractions = (0.0, 0.02, 0.04)
    rows = noise_sweep([("m", result.model, result.stats)], separable_ds, fractions, seed=0)
    assert [r["noise_fraction"] for r in rows] == list(fractions)
    rows2 = noise_sweep([("m", result.model, result.stats)], separable_ds, fractions, seed=0)
    assert [r["macro_accuracy"] for r in rows] == [r["macro_accuracy"] for r in rows2]


def test_report_writers(tmp_path, separable_ds):
    result = train(build(_mcfg(), seed=11), separable_ds, _tcfg(epochs=1))
    report = evaluate(result.model, separable_ds, result.stats, metadata={"seed": 11})
    jpath = tmp_path / "report.json"
    write_report_json(report, jpath)
    import json

    payload = json.loads(jpath.read_text())
    assert payload["macro_accuracy"] == report.macro_accuracy
    assert payload["metadata"]["seed"] == 11
    assert np.array(payload["confusion"]).shape == (2, 2)

    cpath = tmp_path / "confusion.csv"
    write_confusion_csv(report, cpath)
    lines = cpath.read_text().splitlines()
    assert lines[0] == "truth_class,pred_0,pred_1"
    row_sums = [sum(int(v) for v in line.split(",")[1:]) for line in lines[1:]]
    assert row_sums == list(separable_ds.class_counts)

    rows = [{"a": 1, "b": 0.5}, {"a": 2, "b": 0.25}]
    rpath = tmp_path / "rows.csv"
    write_rows_csv(rows, ("a", "b"), rpath)
    assert rpath.read_text() == "a,b\n1,0.5\n2,0.25\n"

    sweep = [
        {"model": "m", "noise_fraction": 0.0, "macro_accuracy": 1.0},
        {"model": "m", "noise_fraction": 0.1, "macro_accuracy": 0.9},
        {"model": "other", "noise_fraction": 0.0, "macro_accuracy": 0.5},
    ]
    gpath = tmp_path / "m.dat"
    write_noise_gnuplot(sweep, "m", gpath)
    assert gpath.read_text() == "# noise_fraction macro_accuracy\n0.0 1.0\n0.1 0.9\n"


def test_evaluate_absent_class_excluded():
    """Classes missing from the test set drop out of the macro mean."""
    rng = derive_rng(55)

    def _make(labels):
        seqs = []
        for label in labels:
            values = np.stack(
                [rng.uniform(100, 200, 8), rng.uniform(1, 2, 8), rng.uniform(8000, 9000, 8)], 1
            )
            seqs.append(PulseSequence(values, label))
        return Dataset(seqs, 3)

    train_ds = _make([0, 0, 0, 1, 1, 1, 2, 2, 2])
    test_ds = _make([0, 0, 2, 2])  # class 1 absent
    result = train(build(_mcfg(num_classes=3), seed=12), train_ds, _tcfg(epochs=1))
    report = evaluate(result.model, test_ds, result.stats)
    assert report.per_class_accuracy[1] is None
    _check_consistency(report, test_ds.class_counts)


def test_evaluate_refuses_class_count_mismatch(separable_ds):
    stats = fit_domain_stats(separable_ds)
    model = build(_mcfg(num_classes=3), seed=13)
    with pytest.raises(ValueError, match="model has 3 classes but the dataset declares 2"):
        evaluate(model, separable_ds, stats)


def test_uniform_random_predictor_converges_to_chance():
    """Monte Carlo: random predictions give macro accuracy ~ 1/C."""
    rng = derive_rng(77)
    c = 17
    truths = rng.integers(0, c, size=10_000)
    preds = rng.integers(0, c, size=10_000)
    macro, _, _ = classification_report(truths, preds, c)
    assert abs(macro - 1.0 / c) <= 0.02
