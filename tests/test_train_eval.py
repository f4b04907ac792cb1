import math

import numpy as np
import pytest

from emitterclf.data_model import Dataset, PulseSequence, dataset_fingerprint
from emitterclf.model import ModelConfig, build
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
    BASELINE_METHODS,
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
    report.check_consistency(separable_ds.class_counts)


def test_initial_loss_near_log_c(separable_ds):
    """With uniform weights an untrained model scores about ln C."""
    model = build(_mcfg(), seed=1)
    result = train(
        model,
        separable_ds,
        _tcfg(epochs=1, learning_rate=1e-5),
        class_weights=np.ones(2),
    )
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
        class_weights=head.class_weights,
        start_epoch=3,
        optimizer=head.optimizer,
        prior_losses=head.epoch_losses,
    )
    assert tail.epoch_losses == full.epoch_losses
    for name in full.model.params:
        assert np.array_equal(tail.model.params[name], full.model.params[name])


def test_evaluate_report_consistency(separable_ds):
    result = train(build(_mcfg(), seed=7), separable_ds, _tcfg())
    report = evaluate(result.model, separable_ds, result.stats)
    report.check_consistency(separable_ds.class_counts)
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
    assert [r["method"] for r in result.summary] == list(BASELINE_METHODS)
    by_method = {r["method"]: r["scheme"] for r in result.summary}
    assert by_method["gru_discretized_pripw"] == "discretize"
    assert by_method["stats_mlp_standardize"] == "standardize"
    assert by_method["proposed"] == "minmax+perseq"


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
    report.check_consistency(test_ds.class_counts)


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
