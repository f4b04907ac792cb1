"""Acceptance suite: one test per criterion, each reporting a PASS/FAIL line.

Criteria 5-7 train the full experiment grids on the shipped desk-scale
preset (configs/paperlike_small.cfg) through session-scoped fixtures; their
wall-clock cost dominates the suite. All tolerances are fixed here.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from emitterclf import config as cfgmod
from emitterclf.cli import main as cli_main
from emitterclf.data_model import Dataset, PulseSequence, split_dataset
from emitterclf.model import ModelConfig, backward, build, forward
from emitterclf.nn_core import (
    fc_backward,
    fc_forward,
    gru_backward,
    gru_forward,
    init_gru_params,
    init_lstm_params,
    lstm_backward,
    lstm_forward,
    median_frequency_weights,
    softmax,
    weighted_cross_entropy,
)
from emitterclf.normalize import (
    NormalizedBatch,
    fit_domain_stats,
    minmax_normalize,
    per_sequence_normalize,
)
from emitterclf.pulse_sim import generate_dataset
from emitterclf.seeding import derive_rng
from emitterclf.train_eval import (
    classification_report,
    evaluate,
    noise_sweep,
    run_ablation,
    run_baselines,
)

from conftest import record_acceptance

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"
JOBS = min(4, os.cpu_count() or 1)

GRAD_EPS = 1e-5
GRAD_TOL = 1e-4
CHANCE = 1.0 / 17.0


def _check(criterion: str, passed: bool, detail: str) -> None:
    record_acceptance(criterion, passed, detail)
    assert passed, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# Criterion 1: gradient suite


def _numeric_grad(loss_fn, array):
    grad = np.zeros_like(array)
    flat, gflat = array.ravel(), grad.ravel()
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + GRAD_EPS
        lp = loss_fn()
        flat[i] = old - GRAD_EPS
        lm = loss_fn()
        flat[i] = old
        gflat[i] = (lp - lm) / (2 * GRAD_EPS)
    return grad


def _rel_err(analytic, numeric):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
    return float(np.max(np.abs(analytic - numeric) / denom))


def _lstm_instance_err(rng):
    t_len, s, b, din, hidden = 6, 1, 2, 2, 3
    w, u, bias = init_lstm_params(s, din, hidden, rng)
    w += rng.normal(scale=0.3, size=w.shape)
    u += rng.normal(scale=0.3, size=u.shape)
    bias += rng.normal(scale=0.3, size=bias.shape)
    x = rng.normal(size=(t_len, s, b, din))
    lengths = np.array([t_len, int(rng.integers(1, t_len + 1))])
    proj = rng.normal(size=(t_len, s, b, hidden))

    def loss():
        h, _ = lstm_forward(w, u, bias, x, lengths)
        return float((h * proj).sum())

    _, cache = lstm_forward(w, u, bias, x, lengths)
    grads = lstm_backward(w, u, bias, cache, proj)
    return max(
        _rel_err(g, _numeric_grad(loss, arr)) for g, arr in zip(grads, [w, u, bias, x])
    )


def _gru_instance_err(rng):
    t_len, s, b, din, hidden = 6, 1, 2, 2, 3
    w, u_ru, u_n, bias = init_gru_params(s, din, hidden, rng)
    w += rng.normal(scale=0.3, size=w.shape)
    u_ru += rng.normal(scale=0.3, size=u_ru.shape)
    u_n += rng.normal(scale=0.3, size=u_n.shape)
    x = rng.normal(size=(t_len, s, b, din))
    lengths = np.array([t_len, int(rng.integers(1, t_len + 1))])
    proj = rng.normal(size=(t_len, s, b, hidden))

    def loss():
        h, _ = gru_forward(w, u_ru, u_n, bias, x, lengths)
        return float((h * proj).sum())

    _, cache = gru_forward(w, u_ru, u_n, bias, x, lengths)
    grads = gru_backward(w, u_ru, u_n, bias, cache, proj)
    return max(
        _rel_err(g, _numeric_grad(loss, arr))
        for g, arr in zip(grads, [w, u_ru, u_n, bias, x])
    )


def _fc_instance_err(rng):
    x = rng.normal(size=(4, 3))
    w = rng.normal(size=(3, 5))
    b = rng.normal(size=5)
    proj = rng.normal(size=(4, 5))

    def loss():
        return float((fc_forward(x, w, b) * proj).sum())

    dw, db, dx = fc_backward(x, w, proj)
    return max(
        _rel_err(g, _numeric_grad(loss, arr)) for g, arr in zip([dw, db, dx], [w, b, x])
    )


def _softmax_ce_instance_err(rng):
    logits = rng.normal(scale=2.0, size=(5, 4))
    labels = rng.integers(0, 4, size=5)
    weights = rng.uniform(0.5, 2.0, size=4)

    def loss():
        l, _ = weighted_cross_entropy(softmax(logits), labels, weights)
        return l

    _, dlogits = weighted_cross_entropy(softmax(logits), labels, weights)
    return _rel_err(dlogits, _numeric_grad(loss, logits))


def _full_model_instance_err(rng, seed):
    # tiny attribute-specific model: T=6, h=3, L=2, M=2 (4 channels), C=3
    cfg = ModelConfig(
        architecture="attribute_specific_lstm",
        scheme="minmax+perseq",
        num_classes=3,
        num_attributes=2,
        hidden=3,
        layers=2,
        dropout=0.0,
    )
    model = build(cfg, seed=seed)
    for p in model.params.values():
        p += rng.normal(scale=0.2, size=p.shape)
    t_len, b = 6, 3
    batch = NormalizedBatch(
        channels=rng.uniform(-1.0, 1.0, size=(b, t_len, 4)),
        lengths=np.array([t_len, 4, 2]),
        labels=rng.integers(0, 3, size=b),
    )
    weights = rng.uniform(0.5, 2.0, size=3)

    def loss():
        logits, _ = forward(model, batch, training=True)
        l, _ = weighted_cross_entropy(softmax(logits), batch.labels, weights)
        return l

    logits, cache = forward(model, batch, training=True)
    _, dlogits = weighted_cross_entropy(softmax(logits), batch.labels, weights)
    grads = backward(model, cache, dlogits)
    return max(_rel_err(grads[name], _numeric_grad(loss, p)) for name, p in model.params.items())


def test_criterion_1_gradient_suite():
    """Analytic gradients match central finite differences to 1e-4."""
    start = time.monotonic()
    rng = derive_rng(1001)
    worst = {"lstm": 0.0, "gru": 0.0, "fc": 0.0, "softmax_ce": 0.0, "full_model": 0.0}
    for k in range(20):
        worst["lstm"] = max(worst["lstm"], _lstm_instance_err(rng))
        worst["gru"] = max(worst["gru"], _gru_instance_err(rng))
        worst["fc"] = max(worst["fc"], _fc_instance_err(rng))
        worst["softmax_ce"] = max(worst["softmax_ce"], _softmax_ce_instance_err(rng))
        worst["full_model"] = max(worst["full_model"], _full_model_instance_err(rng, seed=k))
    elapsed = time.monotonic() - start
    ok = all(v < GRAD_TOL for v in worst.values()) and elapsed < 60.0
    detail = (
        ", ".join(f"{name} {err:.2e}" for name, err in worst.items())
        + f"; 20 instances each; {elapsed:.1f}s"
    )
    _check("1 (gradient suite)", ok, detail)


# ---------------------------------------------------------------------------
# Criterion 2: normalization suite


def test_criterion_2_normalization_suite():
    rng = derive_rng(1002)
    worst_endpoint = 0.0
    worst_affine = 0.0
    for _ in range(50):
        t = int(rng.integers(2, 40))
        values = rng.uniform(1.0, 1000.0, size=(t, 3))
        values[:, 1] = values[:, 0] * rng.uniform(0.01, 0.9)
        seq = PulseSequence(values, 0, check=False)
        out = per_sequence_normalize(seq)
        for j in range(3):
            col = values[:, j]
            if col.max() > col.min():
                worst_endpoint = max(
                    worst_endpoint, abs(out[:, j].min() + 1.0), abs(out[:, j].max() - 1.0)
                )
        a = float(rng.uniform(1e-3, 1e3))
        b = float(rng.uniform(0.0, 1e3))
        mapped = PulseSequence(a * values + b, 0, check=False)
        worst_affine = max(
            worst_affine, float(np.max(np.abs(per_sequence_normalize(mapped) - out)))
        )
    # exact min-max endpoint mapping
    ds_seq = PulseSequence(
        np.array([[100.0, 1.0, 8000.0], [300.0, 3.0, 9000.0], [200.0, 2.0, 8500.0]]),
        0,
        check=False,
    )
    stats = fit_domain_stats(Dataset([ds_seq], 1))
    mm = minmax_normalize(ds_seq, stats)
    endpoints_exact = (
        mm[0, 0] == -1.0 and mm[1, 0] == 1.0 and abs(mm[2, 0]) < 1e-15 and mm[0, 2] == -1.0
    )
    # constant attribute maps to the zero column
    const_seq = PulseSequence(
        np.stack([np.full(9, 100.0), np.full(9, 5.0), np.linspace(8000, 9000, 9)], axis=1),
        0,
        check=False,
    )
    zero_fill = np.all(per_sequence_normalize(const_seq)[:, :2] == 0.0)
    ok = worst_endpoint < 1e-12 and worst_affine < 1e-9 and endpoints_exact and zero_fill
    _check(
        "2 (normalization suite)",
        ok,
        f"endpoint dev {worst_endpoint:.2e}, affine dev {worst_affine:.2e}, "
        f"minmax endpoints exact {endpoints_exact}, zero-fill {zero_fill}",
    )


# ---------------------------------------------------------------------------
# Criterion 3: metric oracle


def test_criterion_3_metric_oracle(small_dataset):
    rng = derive_rng(1003)
    pairs_ok = True
    for _ in range(20):
        c = int(rng.integers(2, 9))
        n = int(rng.integers(5, 200))
        truths = rng.integers(0, c, size=n)
        preds = rng.integers(0, c, size=n)
        macro, per_class, confusion = classification_report(truths, preds, c)
        ref = [[0] * c for _ in range(c)]
        for t, p in zip(truths, preds):
            ref[t][p] += 1
        accs = []
        for cls in range(c):
            total = sum(ref[cls])
            if total == 0:
                pairs_ok &= per_class[cls] is None
            else:
                acc = ref[cls][cls] / total
                pairs_ok &= per_class[cls] == acc
                accs.append(acc)
        pairs_ok &= confusion.tolist() == ref and macro == sum(accs) / len(accs)

    # evaluate() against a per-sequence recount through the same model
    stats = fit_domain_stats(small_dataset)
    model = build(
        ModelConfig(
            architecture="attribute_specific_lstm",
            scheme="minmax+perseq",
            num_classes=3,
            hidden=4,
            layers=1,
            dropout=0.0,
        ),
        seed=0,
    )
    report = evaluate(model, small_dataset, stats)
    from emitterclf.model import predict

    preds = [predict(model, s, stats)[0] for s in small_dataset.sequences]
    truths = [s.label for s in small_dataset.sequences]
    macro_ref, _, conf_ref = classification_report(truths, preds, 3)
    eval_ok = report.macro_accuracy == macro_ref and np.array_equal(report.confusion, conf_ref)

    # constant predictor through the real pipeline: M = 1/C exactly
    const = build(
        ModelConfig(
            architecture="attribute_specific_lstm",
            scheme="minmax+perseq",
            num_classes=3,
            hidden=4,
            layers=1,
            dropout=0.0,
        ),
        seed=1,
    )
    for p in const.params.values():
        p[:] = 0.0
    const.params["fc.b"][1] = 10.0  # always predicts class 1
    const_report = evaluate(const, small_dataset, stats)
    const_ok = const_report.macro_accuracy == 1.0 / 3.0
    ok = pairs_ok and eval_ok and const_ok
    _check(
        "3 (metric oracle)",
        ok,
        f"random pairs exact {pairs_ok}, evaluate==recount {eval_ok}, constant-pred 1/C {const_ok}",
    )


# ---------------------------------------------------------------------------
# Criterion 4: median frequency weights


def test_criterion_4_median_frequency_weights():
    w = median_frequency_weights([10, 20, 40])
    exact = list(w) == [2.0, 1.0, 0.5]
    uniform = np.all(median_frequency_weights([13, 13, 13, 13]) == 1.0)
    _check(
        "4 (median-frequency weights)",
        bool(exact and uniform),
        f"[10,20,40]->{[float(v) for v in w]}, equal-counts all 1.0: {bool(uniform)}",
    )


# ---------------------------------------------------------------------------
# Criteria 5-7: grids on the shipped preset


@pytest.fixture(scope="session")
def preset_world():
    cfg_map = cfgmod.load_config(CONFIGS / "paperlike_small.cfg")
    full = generate_dataset(cfgmod.sim_config(cfg_map))
    fraction, split_seed = cfgmod.split_params(cfg_map)
    train_ds, test_ds = split_dataset(full, fraction, split_seed)
    train_cfg = cfgmod.train_config(cfg_map)
    fractions, replicates = cfgmod.eval_params(cfg_map)
    return {
        "train": train_ds,
        "test": test_ds,
        "base_cfg": cfgmod.model_config(cfg_map, full.num_classes),
        "train_cfg": train_cfg,
        "fractions": fractions,
        "seeds": tuple(train_cfg.seed + k for k in range(replicates)),
    }


@pytest.fixture(scope="session")
def ablation_grid(preset_world):
    start = time.monotonic()
    result = run_ablation(
        preset_world["train"],
        preset_world["test"],
        preset_world["base_cfg"],
        preset_world["train_cfg"],
        seeds=preset_world["seeds"],
        jobs=JOBS,
    )
    return result, time.monotonic() - start


@pytest.fixture(scope="session")
def baseline_grid(preset_world):
    result = run_baselines(
        preset_world["train"],
        preset_world["test"],
        preset_world["base_cfg"],
        preset_world["train_cfg"],
        seeds=preset_world["seeds"],
        jobs=JOBS,
        return_models=True,
    )
    return result


def test_criterion_5_ablation_ordering(ablation_grid):
    result, elapsed = ablation_grid
    medians = {(r["scheme"], r["architecture"]): r["median_macro_accuracy"] for r in result.summary}
    best = medians[("minmax+perseq", "attribute_specific_lstm")]
    none_ok = all(
        medians[("none", arch)] < 2 * CHANCE
        for arch in ("joint_lstm", "attribute_specific_lstm")
    )
    best_ok = all(best >= m for m in medians.values())
    attr_vs_joint = best >= medians[("minmax+perseq", "joint_lstm")]
    runtime_ok = elapsed < 1800.0
    table = "; ".join(f"{s}|{a.split('_')[0]}={m:.3f}" for (s, a), m in medians.items())
    _check(
        "5 (ablation ordering)",
        none_ok and best_ok and attr_vs_joint and runtime_ok,
        f"{table}; none<2x-chance {none_ok}, best-cell {best_ok}, "
        f"attr>=joint {attr_vs_joint}, {elapsed:.0f}s (<1800s {runtime_ok})",
    )


def test_criterion_6_baseline_ordering(baseline_grid):
    medians = {r["method"]: r["median_macro_accuracy"] for r in baseline_grid.summary}
    proposed = medians["proposed"]
    ok = (
        proposed >= medians["stats_mlp_minmax"]
        and medians["stats_mlp_minmax"] >= CHANCE
        and proposed >= medians["gru_discretized_pripw"]
    )
    table = "; ".join(f"{k}={v:.3f}" for k, v in medians.items())
    _check("6 (baseline ordering)", ok, table)


def test_criterion_7_noise_sweep(preset_world, baseline_grid):
    fractions = preset_world["fractions"]
    test_ds = preset_world["test"]
    proposed = [
        (label, model, stats)
        for label, (model, stats) in baseline_grid.models.items()
        if label.startswith("proposed")
    ]
    assert len(proposed) == len(preset_world["seeds"])
    rows = noise_sweep(proposed, test_ds, fractions=fractions, seed=0)
    covered = sorted({r["noise_fraction"] for r in rows}) == sorted(fractions)
    zero_exact = True
    retentions = []
    for label, model, stats in proposed:
        clean = evaluate(model, test_ds, stats).macro_accuracy
        at = {r["noise_fraction"]: r["macro_accuracy"] for r in rows if r["model"] == label}
        zero_exact &= at[0.0] == clean
        retentions.append(at[0.10] / at[0.0])
    median_retention = float(np.median(retentions))
    ok = covered and zero_exact and median_retention >= 0.75
    _check(
        "7 (noise robustness)",
        ok,
        f"fractions covered {covered}, zero-noise exact {zero_exact}, "
        f"median retention {median_retention:.3f} (>=0.75)",
    )


# ---------------------------------------------------------------------------
# Criterion 8: ablate determinism


def test_criterion_8_ablate_determinism(tmp_path):
    micro = str(CONFIGS / "micro.cfg")
    data = tmp_path / "micro.ds"
    assert cli_main(["gen", "--config", micro, "--out", str(data)]) == 0
    runs = {}
    for name, jobs in [("a", 1), ("b", 1), ("c", 4), ("d", 4)]:
        out = tmp_path / name
        rc = cli_main(
            [
                "ablate",
                "--config",
                micro,
                "--train",
                str(data),
                "--test",
                str(data),
                "--out-dir",
                str(out),
                "--jobs",
                str(jobs),
            ]
        )
        assert rc == 0
        runs[name] = (
            (out / "ablation.csv").read_bytes(),
            (out / "ablation_runs.csv").read_bytes(),
        )
    rerun_1 = runs["a"] == runs["b"]
    rerun_4 = runs["c"] == runs["d"]
    across = runs["a"] == runs["c"]
    ok = rerun_1 and rerun_4 and across
    _check(
        "8 (ablate determinism)",
        ok,
        f"rerun@jobs1 {rerun_1}, rerun@jobs4 {rerun_4}, jobs1==jobs4 {across}",
    )


# ---------------------------------------------------------------------------
# Criterion 9: variable-length correctness


def test_criterion_9_padding_invariance():
    rng = derive_rng(1009)
    cfg = ModelConfig(
        architecture="attribute_specific_lstm",
        scheme="minmax+perseq",
        num_classes=3,
        hidden=4,
        layers=2,
        dropout=0.0,  # isolates masking semantics from dropout RNG draws
    )
    model = build(cfg, seed=3)
    b, t, k = 3, 8, 6
    channels = rng.uniform(-1.0, 1.0, size=(b, t, k))
    lengths = np.array([8, 5, 3])
    labels = np.array([0, 1, 2])
    for bi in range(b):
        channels[bi, lengths[bi] :] = 0.0
    base = NormalizedBatch(channels=channels, lengths=lengths, labels=labels)
    padded_channels = np.zeros((b, t + 7, k))
    padded_channels[:, :t] = channels
    padded = NormalizedBatch(channels=padded_channels, lengths=lengths, labels=labels)

    weights = np.ones(3)
    logits_a, cache_a = forward(model, base, training=True)
    logits_b, cache_b = forward(model, padded, training=True)
    logits_exact = np.array_equal(logits_a, logits_b)

    _, dl_a = weighted_cross_entropy(softmax(logits_a), labels, weights)
    _, dl_b = weighted_cross_entropy(softmax(logits_b), labels, weights)
    grads_a = backward(model, cache_a, dl_a)
    grads_b = backward(model, cache_b, dl_b)
    worst = max(float(np.max(np.abs(grads_a[n] - grads_b[n]))) for n in grads_a)
    ok = logits_exact and worst < 1e-12
    _check(
        "9 (padding invariance)",
        ok,
        f"logits exact {logits_exact}, max gradient delta {worst:.2e} (<1e-12)",
    )
