"""Training loop, macro-averaged evaluation, and the experiment grids.

Evaluation is macro-averaged: per-class accuracy ACC_c is the diagonal of
the confusion matrix divided by the true class count, and M is the plain
mean of ACC_c over classes present in the test set, so rare classes weigh
the same as common ones.

The ablation (normalization x architecture) and the baseline table are two
cell lists over one runner, `_run_grid`: a cell is a label, its row fields
and a ModelConfig, and each (cell, seed) pair is one independent task that
builds, trains and evaluates a model. Tasks are dispatched longest-first
by a static cost key (recurrent stacks x layers; ties keep grid order), and
their results come back in grid order. With jobs > 1 the tasks run in
spawned worker processes, and results are identical regardless of worker
count. The noise-robustness sweep evaluates fixed, already trained models.
"""

from __future__ import annotations

import concurrent.futures
import math
import multiprocessing
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .data_model import Dataset
from .model import (
    ModelConfig,
    SequenceClassifier,
    backward,
    build,
    forward,
)
from .nn_core import (
    Adam,
    clip_gradients,
    global_grad_norm,
    median_frequency_weights,
    softmax,
    weighted_cross_entropy,
)
from .normalize import DomainStats, build_batch, fit_domain_stats, normalize_scheme
from .pulse_sim import add_noise
from .seeding import derive_int, derive_rng

__all__ = [
    "TrainConfig",
    "TrainResult",
    "TrainingDiverged",
    "train",
    "EvalReport",
    "classification_report",
    "check_class_count",
    "evaluate",
    "ABLATION_CELLS",
    "BASELINES",
    "DEFAULT_NOISE_FRACTIONS",
    "GridResult",
    "run_ablation",
    "run_baselines",
    "noise_sweep",
    "summarize_rows",
    "write_report_json",
    "write_confusion_csv",
    "write_rows_csv",
    "write_noise_gnuplot",
]


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 40
    batch_size: int = 32
    learning_rate: float = 1e-3
    clip_norm: float = 5.0
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not self.clip_norm > 0:  # also refuses NaN
            raise ValueError(f"clip_norm must be > 0, got {self.clip_norm}")

    def to_dict(self) -> dict:
        return asdict(self)


class TrainingDiverged(RuntimeError):
    """Raised when the loss or gradient norm turns non-finite."""


@dataclass
class TrainResult:
    model: SequenceClassifier
    stats: DomainStats | None
    class_weights: np.ndarray
    epoch_losses: list[float]
    optimizer: Adam


def _normalize_all(ds: Dataset, stats, scheme: str, bins: int):
    return [normalize_scheme(s, stats, scheme, bins) for s in ds.sequences]


def train(
    model: SequenceClassifier,
    train_ds: Dataset,
    cfg: TrainConfig,
    *,
    stats: DomainStats | None = None,
    optimizer: Adam | None = None,
    prior_losses: list[float] | None = None,
    on_epoch=None,
) -> TrainResult:
    """Train with weighted cross-entropy, BPTT, clipping, and Adam over shuffled mini-batches.

    Domain stats (unless passed in) and the median-frequency class weights
    are fitted on `train_ds` only. To resume, pass the checkpoint's stats,
    optimizer and epoch losses: training continues at epoch
    len(prior_losses). Shuffling and dropout streams derive from
    (cfg.seed, epoch, batch), so a resumed run replays the identical
    trajectory of an uninterrupted one.

    One batch of backward state is live at a time: each batch's training
    forward is handed the previous batch's spent cache and writes its BPTT
    stores over it, so that memory is neither held twice nor freed and
    faulted in again from batch to batch.
    """
    mcfg = model.config
    if stats is None and mcfg.scheme != "none":
        stats = fit_domain_stats(train_ds)
    class_weights = median_frequency_weights(train_ds.class_counts)
    normalized = _normalize_all(train_ds, stats, mcfg.scheme, mcfg.bins)
    if optimizer is None:
        optimizer = Adam(model.params, cfg.learning_rate)
    losses = list(prior_losses or [])
    n = len(normalized)
    cache = None
    for epoch in range(len(losses), cfg.epochs):
        order = derive_rng(cfg.seed, "shuffle", epoch).permutation(n)
        batch_losses = []
        for bi, lo in enumerate(range(0, n, cfg.batch_size)):
            idx = order[lo : lo + cfg.batch_size]
            batch = build_batch([normalized[i] for i in idx])
            drop_rng = derive_rng(cfg.seed, "dropout", epoch, bi)
            logits, cache = forward(model, batch, training=True, rng=drop_rng, spent=cache)
            probs = softmax(logits)
            loss, dlogits = weighted_cross_entropy(probs, batch.labels, class_weights)
            if not math.isfinite(loss):
                raise TrainingDiverged(f"non-finite loss at epoch {epoch}, batch {bi}")
            grads = backward(model, cache, dlogits)
            gnorm = global_grad_norm(grads)
            if not math.isfinite(gnorm):
                raise TrainingDiverged(
                    f"non-finite gradient norm at epoch {epoch}, batch {bi} (loss {loss:.6g})"
                )
            clip_gradients(grads, cfg.clip_norm)
            optimizer.step(model.params, grads)
            batch_losses.append(loss)
            del grads, logits, probs, dlogits  # only the spent cache outlives the batch
        epoch_loss = float(np.mean(batch_losses))
        losses.append(epoch_loss)
        if on_epoch is not None:
            on_epoch(epoch, epoch_loss)
    return TrainResult(
        model=model,
        stats=stats,
        class_weights=class_weights,
        epoch_losses=losses,
        optimizer=optimizer,
    )


@dataclass
class EvalReport:
    """Macro accuracy, per-class accuracies, and the confusion matrix.

    confusion[c][k] counts test sequences of true class c predicted as k.
    per_class_accuracy is None for classes absent from the test set; the
    macro average runs over present classes only.
    """

    macro_accuracy: float
    per_class_accuracy: list[float | None]
    confusion: np.ndarray
    n_test: int
    metadata: dict = field(default_factory=dict)


def classification_report(truths, preds, num_classes: int):
    """(macro accuracy, per-class accuracies, confusion) from raw pairs."""
    truths = np.asarray(truths, dtype=np.int64)
    preds = np.asarray(preds, dtype=np.int64)
    confusion = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(confusion, (truths, preds), 1)
    row_sums = confusion.sum(axis=1)
    per_class: list[float | None] = []
    present = []
    for c in range(num_classes):
        if row_sums[c] == 0:
            per_class.append(None)
        else:
            acc = confusion[c, c] / row_sums[c]
            per_class.append(float(acc))
            present.append(float(acc))
    macro = sum(present) / len(present)
    return macro, per_class, confusion


def check_class_count(model: SequenceClassifier, ds: Dataset) -> None:
    """Refuse a dataset whose declared class count differs from the model's."""
    if model.config.num_classes != ds.num_classes:
        raise ValueError(
            f"model has {model.config.num_classes} classes "
            f"but the dataset declares {ds.num_classes}"
        )


def evaluate(
    model: SequenceClassifier,
    test_ds: Dataset,
    stats: DomainStats | None,
    *,
    metadata: dict | None = None,
    batch_size: int = 256,
) -> EvalReport:
    """Inference predictions for every sequence, macro-averaged.

    The test sequences are batched longest first: a stable sort by
    non-increasing valid length is cut into consecutive batches of at most
    `batch_size` rows, and each batch's predictions are written back to its
    sequences' places in `test_ds`. A batch then steps only as far as its
    own longest sequence: the 464 test sequences of `paperlike` (T up to
    512) take 745 recurrent steps at batch 256 instead of 1024 in file
    order. A row's logits can differ in the last bits with the batch it
    shares, as they already do between batch sizes (there, at batch 256,
    by at most 3e-18 on 3 of 464 rows against file order); its prediction
    does not.

    forward(training=False) applies no dropout, keeps no backward cache and
    steps the recurrent layers together, holding no (T, S, B, H) slab, with
    the proposed model's stacks split over the usable CPUs: on `paperlike`
    (T up to 512) forward over the 256 longest test sequences peaks at
    about 31 MB traced, in one block or two: two copies of the (B, T, 6)
    input (12 MB), the two layers' step stores of B rows (13.5 MB) and
    per-step temporaries. The whole call peaks at about 43 MB traced and
    raises peak RSS from the 52 MB held before it to about 97 MB.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    check_class_count(model, test_ds)
    if test_ds.n == 0:
        raise ValueError("the test set holds no sequences to evaluate")
    mcfg = model.config
    normalized = _normalize_all(test_ds, stats, mcfg.scheme, mcfg.bins)
    order = np.argsort([-ns.valid_length for ns in normalized], kind="stable")
    preds = np.empty(len(normalized), dtype=np.int64)
    for lo in range(0, len(order), batch_size):
        idx = order[lo : lo + batch_size]
        logits, _ = forward(model, build_batch([normalized[i] for i in idx]))
        preds[idx] = np.argmax(logits, axis=1)
    truths = np.array([s.label for s in test_ds.sequences], dtype=np.int64)
    macro, per_class, confusion = classification_report(truths, preds, test_ds.num_classes)
    return EvalReport(
        macro_accuracy=macro,
        per_class_accuracy=per_class,
        confusion=confusion,
        n_test=test_ds.n,
        metadata=metadata or {},
    )


# ---------------------------------------------------------------------------
# Experiment grids

ABLATION_CELLS = (
    ("none", "joint_lstm"),
    ("none", "attribute_specific_lstm"),
    ("minmax", "joint_lstm"),
    ("minmax", "attribute_specific_lstm"),
    ("minmax+perseq", "joint_lstm"),
    ("minmax+perseq", "attribute_specific_lstm"),
)

# Each baseline method and the ModelConfig fields it sets on the base config.
BASELINES = {
    "gru_discretized_pripw": dict(architecture="gru_discretized", scheme="discretize", gru_use_rf=False),
    "gru_discretized_rf": dict(architecture="gru_discretized", scheme="discretize", gru_use_rf=True),
    "stats_mlp_minmax": dict(architecture="stats_mlp", scheme="minmax"),
    "stats_mlp_standardize": dict(architecture="stats_mlp", scheme="standardize"),
    "proposed": dict(architecture="attribute_specific_lstm", scheme="minmax+perseq"),
}

DEFAULT_NOISE_FRACTIONS = (0.0, 0.02, 0.04, 0.06, 0.08, 0.10)


@dataclass
class GridResult:
    rows: list[dict]
    summary: list[dict]
    models: dict[str, tuple[SequenceClassifier, DomainStats | None]] = field(default_factory=dict)


def _run_grid_task(task: tuple) -> tuple[dict, tuple | None]:
    """One grid cell and seed: build, train, evaluate. Top-level for picklability."""
    row, model_cfg, train_cfg, train_ds, test_ds, return_model = task
    result = train(build(model_cfg, seed=train_cfg.seed), train_ds, train_cfg)
    report = evaluate(result.model, test_ds, result.stats)
    row = {
        **row,
        "seed": train_cfg.seed,
        "macro_accuracy": report.macro_accuracy,
        "n_test": report.n_test,
    }
    return row, ((result.model, result.stats) if return_model else None)


def _cell_cost(cfg: ModelConfig) -> int:
    """Static cost key of a grid cell: recurrent stacks x layers, 0 for the stats MLP."""
    return cfg.stacks * cfg.layers


def _execute_tasks(tasks: list[tuple], jobs: int) -> list[tuple]:
    """Run the tasks longest-first by `_cell_cost`; return their results in task order.

    The sort is stable, so tasks of equal cost keep their grid order. With
    jobs > 1 the pool hands tasks out in that order, so the costliest cells
    start first and no long cell is left to run alone at the end.
    """
    order = sorted(range(len(tasks)), key=lambda i: -_cell_cost(tasks[i][1]))
    ordered = [tasks[i] for i in order]
    if jobs <= 1:
        done = list(map(_run_grid_task, ordered))
    else:
        ctx = multiprocessing.get_context("spawn")
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs, mp_context=ctx) as ex:
            done = list(ex.map(_run_grid_task, ordered))
    results = [None] * len(tasks)
    for i, result in zip(order, done):
        results[i] = result
    return results


def summarize_rows(rows: list[dict], keys: tuple[str, ...]) -> list[dict]:
    """Median macro accuracy per cell, preserving first-seen cell order."""
    groups: dict[tuple, list[float]] = {}
    for row in rows:
        groups.setdefault(tuple(row[f] for f in keys), []).append(row["macro_accuracy"])
    return [
        {**dict(zip(keys, k)), "median_macro_accuracy": float(np.median(accs))}
        for k, accs in groups.items()
    ]


def _run_grid(cells, train_ds, test_ds, train_cfg, seeds, jobs, return_models) -> GridResult:
    """Train and evaluate every (label, row, ModelConfig) cell once per seed.

    A cell's row fields are its summary keys. Models, when returned, are
    keyed "<label>|seed=<seed>" in row order.
    """
    labels, tasks = [], []
    for label, row, model_cfg in cells:
        for seed in seeds:
            labels.append(f"{label}|seed={seed}")
            tasks.append(
                (row, model_cfg, replace(train_cfg, seed=seed), train_ds, test_ds, return_models)
            )
    results = _execute_tasks(tasks, jobs)
    rows = [row for row, _ in results]
    models = {label: out for label, (_, out) in zip(labels, results) if out is not None}
    return GridResult(rows=rows, summary=summarize_rows(rows, tuple(cells[0][1])), models=models)


def run_ablation(
    train_ds: Dataset,
    test_ds: Dataset,
    base_cfg: ModelConfig,
    train_cfg: TrainConfig,
    seeds: tuple[int, ...],
    jobs: int = 1,
    return_models: bool = False,
) -> GridResult:
    """The 6-cell normalization x architecture grid, each cell per seed.

    All cells share the same seed list so runs are comparable; the summary
    reports the per-cell median over seeds.
    """
    cells = [
        (f"{s}|{a}", {"scheme": s, "architecture": a}, replace(base_cfg, architecture=a, scheme=s))
        for s, a in ABLATION_CELLS
    ]
    return _run_grid(cells, train_ds, test_ds, train_cfg, seeds, jobs, return_models)


def run_baselines(
    train_ds: Dataset,
    test_ds: Dataset,
    base_cfg: ModelConfig,
    train_cfg: TrainConfig,
    seeds: tuple[int, ...],
    jobs: int = 1,
    return_models: bool = False,
) -> GridResult:
    """Baseline comparison on identical splits and seeds."""
    cells = []
    for method, fields in BASELINES.items():
        cell_cfg = replace(base_cfg, **fields)
        cells.append((method, {"method": method, "scheme": cell_cfg.scheme}, cell_cfg))
    return _run_grid(cells, train_ds, test_ds, train_cfg, seeds, jobs, return_models)


def noise_sweep(
    named_models: list[tuple[str, SequenceClassifier, DomainStats | None]],
    test_ds: Dataset,
    fractions: tuple[float, ...],
    seed: int,
) -> list[dict]:
    """Evaluate each model on noise-perturbed copies of the test set.

    Models stay fixed (trained clean). The noise seed of a fraction derives
    from its position k in `fractions` (`derive_int(seed, "sweep", k)`), not
    from its value. Fraction 0 reproduces the clean evaluation exactly.
    """
    rows = []
    for k, fraction in enumerate(fractions):
        noisy = add_noise(test_ds, fraction, derive_int(seed, "sweep", k))
        for name, model, stats in named_models:
            report = evaluate(model, noisy, stats)
            rows.append(
                {"model": name, "noise_fraction": fraction, "macro_accuracy": report.macro_accuracy}
            )
    return rows


# ---------------------------------------------------------------------------
# Report writers (all byte-deterministic given identical inputs)


def _fmt_cell(v) -> str:
    if isinstance(v, float):
        return repr(v)  # shortest float64 round-trip form
    return str(v)


def write_rows_csv(rows: list[dict], columns: tuple[str, ...], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt_cell(row[c]) for c in columns) + "\n")


def write_report_json(report: EvalReport, path) -> None:
    import json

    payload = {
        "macro_accuracy": report.macro_accuracy,
        "per_class_accuracy": report.per_class_accuracy,
        "confusion": report.confusion.tolist(),
        "n_test": report.n_test,
        "metadata": report.metadata,
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_confusion_csv(report: EvalReport, path) -> None:
    c = report.confusion.shape[0]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("truth_class," + ",".join(f"pred_{k}" for k in range(c)) + "\n")
        for row_c in range(c):
            fh.write(f"{row_c}," + ",".join(str(int(v)) for v in report.confusion[row_c]) + "\n")


def write_noise_gnuplot(rows: list[dict], model_name: str, path) -> None:
    """gnuplot-ready two-column curve file for one model."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# noise_fraction macro_accuracy\n")
        for row in rows:
            if row["model"] == model_name:
                fh.write(f"{_fmt_cell(row['noise_fraction'])} {_fmt_cell(row['macro_accuracy'])}\n")

