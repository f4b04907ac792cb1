#!/usr/bin/env python3
"""Run the full experiment suite on a preset configuration.

Generates the synthetic dataset, makes the stratified train/test split,
runs the normalization x architecture ablation grid and the baseline
comparison, and sweeps additive test-set noise over three of the baseline
models the comparison trained at the run's train seed (proposed,
gru_discretized_rf, stats_mlp_minmax), so each model is trained once,
inside a grid. All outputs land under --out-dir:

    dataset.ds / train.ds / test.ds
    ablation.csv, ablation_runs.csv
    baselines.csv, baselines_runs.csv
    checkpoints/seed<k>/<method>.ckpt         (each baseline model and seed)
    noise_sweep.csv, noise_<method>.dat       (gnuplot-ready curves)

Usage:
    python scripts/reproduce_results.py --out-dir results [--jobs 2]
    python scripts/reproduce_results.py --config configs/micro.cfg --out-dir /tmp/r
"""

import argparse
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from emitterclf import config as cfgmod  # noqa: E402
from emitterclf.cli import main as cli_main  # noqa: E402
from emitterclf.data_model import load_dataset, save_dataset, split_dataset  # noqa: E402


def run(args: list[str]) -> None:
    rc = cli_main(args)
    if rc != 0:
        raise SystemExit(f"command failed ({rc}): emitterclf {' '.join(args)}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default=str(REPO / "configs" / "paperlike_small.cfg"))
    ap.add_argument("--out-dir", default="results")
    ap.add_argument("--jobs", type=int, default=2)
    ap.add_argument("--seed", type=int, default=None)
    args = ap.parse_args()

    try:  # refuse a bad split before anything is written
        cfg = cfgmod.load_config(args.config)
        fraction, split_seed = cfgmod.split_params(cfg)
    except cfgmod.ConfigError as exc:
        raise SystemExit(f"error: {exc}")

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    dataset = out / "dataset.ds"
    train_path = out / "train.ds"
    test_path = out / "test.ds"

    print("== generate ==")
    run(["gen", "--config", args.config, "--out", str(dataset)])

    ds = load_dataset(dataset)
    train_ds, test_ds = split_dataset(ds, fraction, split_seed)
    save_dataset(train_ds, train_path)
    save_dataset(test_ds, test_path)
    print(f"split: {train_ds.n} train / {test_ds.n} test (fraction {fraction})")

    seed_args = ["--seed", str(args.seed)] if args.seed is not None else []
    grid_args = ["--config", args.config, "--train", str(train_path), "--test", str(test_path)]
    grid_args += ["--out-dir", str(out), "--jobs", str(args.jobs)] + seed_args

    print("== ablation grid ==")
    run(["ablate"] + grid_args)

    print("== baseline table ==")
    run(["baselines"] + grid_args)

    print("== noise sweep ==")
    seed_dir = out / "checkpoints" / f"seed{cfgmod.train_config(cfg, seed=args.seed).seed}"
    ckpts = [str(seed_dir / f"{m}.ckpt") for m in ("proposed", "gru_discretized_rf", "stats_mlp_minmax")]
    run(
        ["noise-sweep", "--config", args.config, "--data", str(test_path), "--out-dir", str(out)]
        + ["--checkpoint"] + ckpts
        + seed_args
    )
    print(f"done; outputs in {out}/")


if __name__ == "__main__":
    main()
