"""The benchmark's three workloads: set-up, one round of work, checked outputs.

A round is the workload's fixed unit of work; a run repeats rounds until its
time is up. Every round of a run is built from the same inputs, so every
round's outputs are compared with the same stored reference.

The workload seed selects one of NVARIANTS input variants (variant =
seed % NVARIANTS): the simulator seed is 1 + variant (variant 0 is the
shipped preset) and model/training seeds are the variant itself.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from emitterclf import config, data_model, model, normalize, pulse_sim, train_eval
from emitterclf.model import ModelConfig
from emitterclf.seeding import derive_int
from emitterclf.train_eval import DEFAULT_NOISE_FRACTIONS, TrainConfig

NVARIANTS = 16
TRAIN_EPOCHS = 2  # one epoch is too short to be steady
GRID_JOBS = 2  # nproc of the reference machine; never more worker processes
# The default evaluate batch of 256 was OOM-killed on the paperlike preset
# (T <= 512, H = 64) because inference keeps every layer's BPTT cache.
INFER_BATCH = 32

# Output tolerances: a mismatch beyond them counts the round's ops as failed.
RTOL = 1e-6  # epoch losses and trained-parameter norms, relative
CONFUSION_L1 = 2  # at most one test sequence may change its predicted class
ACCURACY_ATOL = 0.01  # grid cells: about one changed prediction in the rarest class


@dataclass
class Round:
    """One round's results.

    outputs: (key, value, ops) triples; `ops` is how many ops produced the
    value and count as failed if it mismatches the reference.
    op_ms: latency of each of the workload's ops, in ms.
    seqs: sequences pushed through a model.
    """

    outputs: list[tuple[str, object, int]] = field(default_factory=list)
    op_ms: list[float] = field(default_factory=list)
    op_name: str = ""
    seqs: int = 0
    macro_accuracy: list[float] = field(default_factory=list)
    # filled in by the runner
    seconds: float = 0.0
    traced: bool = False
    jobs: int = 1
    run_id: str = ""


class BatchClock:
    """One perf_counter stamp per batch that train_eval assembles.

    Wraps train_eval.build_batch for the duration of a `with` block; a batch
    runs from its stamp to the next stamp or to the end of its pass.
    """

    def __enter__(self):
        self.stamps = []
        self._orig = train_eval.build_batch

        def stamped(*args, **kwargs):
            self.stamps.append(time.perf_counter())
            return self._orig(*args, **kwargs)

        train_eval.build_batch = stamped
        return self

    def __exit__(self, *exc):
        train_eval.build_batch = self._orig

    def take(self) -> list[float]:
        stamps, self.stamps = self.stamps, []
        return stamps


def batch_intervals(stamps: list[float], ends: list[float]) -> list[list[float]]:
    """Split batch stamps into passes ending at `ends`; ms per batch per pass."""
    passes, i = [], 0
    for end in ends:
        group = []
        while i < len(stamps) and stamps[i] < end:
            group.append(stamps[i])
            i += 1
        passes.append([1e3 * float(d) for d in np.diff(group + [end])])
    return passes


def _split(root: Path, preset: str, variant: int):
    cfg = config.load_config(root / "configs" / f"{preset}.cfg")
    ds = pulse_sim.generate_dataset(config.sim_config(cfg, seed=1 + variant))
    train_ds, test_ds = data_model.split_dataset(ds, *config.split_params(cfg))
    return train_ds, test_ds


# ---------------------------------------------------------------------------
# train_small: the proposed model on paperlike_small, E epochs then evaluate


def setup_train_small(root: Path, variant: int) -> dict:
    train_ds, test_ds = _split(root, "paperlike_small", variant)
    return {
        "variant": variant,
        "train": train_ds,
        "test": test_ds,
        "stats": normalize.fit_domain_stats(train_ds),
        "model_cfg": ModelConfig(
            architecture="attribute_specific_lstm",
            scheme="minmax+perseq",
            num_classes=train_ds.num_classes,
            layers=2,
            hidden=16,
            dropout=0.15,
        ),
        "train_cfg": TrainConfig(
            epochs=TRAIN_EPOCHS, batch_size=96, learning_rate=0.005, clip_norm=5.0, seed=variant
        ),
    }


def round_train_small(st: dict, k: int, jobs: int) -> Round:
    epoch_ends: list[float] = []
    with BatchClock() as clock:
        clf = model.build(st["model_cfg"], seed=st["variant"])
        result = train_eval.train(
            clf,
            st["train"],
            st["train_cfg"],
            stats=st["stats"],
            on_epoch=lambda epoch, loss: epoch_ends.append(time.perf_counter()),
        )
        steps = batch_intervals(clock.take(), epoch_ends)
        report = train_eval.evaluate(result.model, st["test"], result.stats)
        (evals,) = batch_intervals(clock.take(), [time.perf_counter()])
    r = Round(op_name="training step", macro_accuracy=[report.macro_accuracy])
    for epoch, (loss, epoch_steps) in enumerate(zip(result.epoch_losses, steps)):
        r.outputs.append((f"loss.epoch{epoch}", loss, len(epoch_steps)))
        r.op_ms += epoch_steps
    r.outputs.append(("confusion", report.confusion.tolist(), len(evals)))
    r.seqs = st["train"].n * len(result.epoch_losses) + st["test"].n
    return r


# ---------------------------------------------------------------------------
# grid_mixed: one-epoch ablation and baseline grids through the spawn pool


def setup_grid(root: Path, variant: int) -> dict:
    st = setup_train_small(root, variant)
    st["train_cfg"] = TrainConfig(
        epochs=1, batch_size=96, learning_rate=0.005, clip_norm=5.0, seed=variant
    )
    return st


def round_grid(st: dict, k: int, jobs: int) -> Round:
    """Both grids, with the trained models returned so that they can be checked.

    After one epoch many cells still predict near chance, so a cell's macro
    accuracy alone would miss a wrong kernel; its parameter norm does not.
    """
    args = (st["train"], st["test"], st["model_cfg"], st["train_cfg"])
    seeds = (st["variant"],)
    t0 = time.perf_counter()
    ablation = train_eval.run_ablation(*args, seeds=seeds, jobs=jobs, return_models=True)
    t1 = time.perf_counter()
    baselines = train_eval.run_baselines(*args, seeds=seeds, jobs=jobs, return_models=True)
    t2 = time.perf_counter()
    r = Round(op_name="grid call", op_ms=[1e3 * (t1 - t0), 1e3 * (t2 - t1)])
    for grid in (ablation, baselines):
        # models are keyed in row order, one per row
        for (label, (clf, _)), row in zip(grid.models.items(), grid.rows):
            norm = sum(float(np.abs(p).sum()) for p in clf.params.values())
            r.outputs.append((f"cell.{label}", [row["macro_accuracy"], norm], 1))
            r.macro_accuracy.append(row["macro_accuracy"])
    r.seqs = len(r.outputs) * (st["train"].n * st["train_cfg"].epochs + st["test"].n)
    return r


# ---------------------------------------------------------------------------
# infer_long: a paperlike-preset model (H = 64, T <= 512) through the noise sweep


def setup_infer(root: Path, variant: int) -> dict:
    train_ds, test_ds = _split(root, "paperlike", variant)
    model_cfg = ModelConfig(
        architecture="attribute_specific_lstm",
        scheme="minmax+perseq",
        num_classes=train_ds.num_classes,
        layers=2,
        hidden=64,
        dropout=0.5,
    )
    return {
        "variant": variant,
        "test": test_ds,
        "stats": normalize.fit_domain_stats(train_ds),
        # forward cost does not depend on the weights' values: no training
        "model": model.build(model_cfg, seed=variant),
    }


def _infer_key(k: int) -> str:
    return f"confusion.f{DEFAULT_NOISE_FRACTIONS[k % len(DEFAULT_NOISE_FRACTIONS)]:g}"


def round_infer(st: dict, k: int, jobs: int) -> Round:
    """Round k evaluates sweep fraction k mod 6, seeded as noise_sweep seeds it.

    noise_sweep itself calls evaluate at the default batch of 256, which is
    the out-of-memory case, so the sweep is replayed here with INFER_BATCH.
    """
    j = k % len(DEFAULT_NOISE_FRACTIONS)
    fraction = DEFAULT_NOISE_FRACTIONS[j]
    with BatchClock() as clock:
        noisy = pulse_sim.add_noise(st["test"], fraction, derive_int(st["variant"], "sweep", j))
        report = train_eval.evaluate(st["model"], noisy, st["stats"], batch_size=INFER_BATCH)
        (batches,) = batch_intervals(clock.take(), [time.perf_counter()])
    return Round(
        outputs=[(_infer_key(k), report.confusion.tolist(), len(batches))],
        op_ms=batches,
        op_name=f"eval batch (batch_size={INFER_BATCH})",
        seqs=st["test"].n,
        macro_accuracy=[report.macro_accuracy],
    )


WORKLOADS = {
    "train_small": (setup_train_small, round_train_small),
    "grid_mixed": (setup_grid, round_grid),
    "infer_long": (setup_infer, round_infer),
}


def expected_keys(workload: str, reference: dict, k: int) -> set[str]:
    """Reference keys round k must produce: the variant's all, or on infer_long its fraction's."""
    if workload == "infer_long":
        return {_infer_key(k)}
    return set(reference)


def matches(key: str, got, want) -> bool:
    if key.startswith("loss."):
        return abs(got - want) <= RTOL * abs(want)
    if key.startswith("confusion"):
        return int(np.abs(np.asarray(got) - np.asarray(want)).sum()) <= CONFUSION_L1
    (accuracy, norm), (want_accuracy, want_norm) = got, want
    return abs(accuracy - want_accuracy) <= ACCURACY_ATOL and abs(norm - want_norm) <= RTOL * want_norm
