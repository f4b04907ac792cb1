"""Command-line entry point.

Subcommands: gen, train, eval, ablate, baselines, noise-sweep. Exit codes:
0 success, 1 usage/config error, 2 runtime failure. All randomness flows
from the config (or --seed override) through named derivation, so every
subcommand is idempotent given identical inputs and seeds; timestamps only
ever appear inside report metadata fields.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from . import config as cfgmod
from .config import ConfigError
from .data_model import (
    DatasetFormatError,
    dataset_fingerprint,
    load_dataset,
    save_dataset,
)
from .model import build, load_checkpoint, save_checkpoint
from .nn_core import Adam
from .pulse_sim import add_noise, generate_dataset
from .train_eval import (
    check_class_count,
    evaluate,
    noise_sweep,
    run_ablation,
    run_baselines,
    train,
    write_confusion_csv,
    write_noise_gnuplot,
    write_report_json,
    write_rows_csv,
)

__all__ = ["main"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_common(p: argparse.ArgumentParser, *, config_required: bool = True) -> None:
    p.add_argument("--config", required=config_required, help="run configuration file")
    p.add_argument("--seed", type=int, default=None, help="override the configured seed")
    p.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config key (repeatable; comma-separate multi-values)",
    )


def _positive_int(text: str) -> int:
    """argparse type of --jobs: an integer of at least 1."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _load_cfg(args) -> dict:
    cfg = cfgmod.load_config(args.config) if args.config else {}
    return cfgmod.apply_overrides(cfg, args.set)


def _outdir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_gen(args) -> int:
    if args.from_dataset:
        if args.config or args.set:
            raise UsageError("gen --from-dataset reads no --config or --set (its noise is --noise)")
        ds = load_dataset(args.from_dataset)
        seed = args.seed if args.seed is not None else 0
        out = add_noise(ds, args.noise or 0.0, seed)
    else:
        if args.noise is not None:
            raise UsageError("gen --noise needs --from-dataset; set sim.noise to simulate noise")
        if not args.config:
            raise UsageError("gen needs --config (or --from-dataset for a noisy copy)")
        out = generate_dataset(cfgmod.sim_config(_load_cfg(args), seed=args.seed))
    save_dataset(out, args.out)
    counts = ",".join(str(int(c)) for c in out.class_counts)
    print(f"wrote {args.out}: N={out.n} C={out.num_classes} class_counts={counts}")
    return 0


def _load_checkpoint_for(path, ds):
    """Load a checkpoint and refuse it if its class count differs from the data's."""
    ck = load_checkpoint(path)
    try:
        check_class_count(ck.model, ds)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return ck


def cmd_train(args) -> int:
    cfg = _load_cfg(args)
    train_cfg = cfgmod.train_config(cfg, seed=args.seed)
    train_ds = load_dataset(args.data)
    stats, optimizer, prior = None, None, []
    if args.resume:
        ck = _load_checkpoint_for(args.resume, train_ds)
        if ck.opt_tensors is None or ck.adam_t is None:
            raise ValueError(f"{args.resume}: checkpoint carries no optimizer state to resume")
        model, stats, prior = ck.model, ck.stats, list(ck.meta.get("epoch_losses", []))
        optimizer = Adam(
            model.params,
            train_cfg.learning_rate,
            train_cfg.beta1,
            train_cfg.beta2,
            train_cfg.eps,
        )
        optimizer.load_state(ck.opt_tensors, ck.adam_t)
    else:
        model_cfg = cfgmod.model_config(cfg, num_classes=train_ds.num_classes)
        model = build(model_cfg, seed=train_cfg.seed)
    result = train(
        model,
        train_ds,
        train_cfg,
        stats=stats,
        optimizer=optimizer,
        prior_losses=prior,
        on_epoch=lambda e, l: print(f"epoch {e}: loss {l:.6f}"),
    )
    meta = {
        "epoch_losses": result.epoch_losses,
        "train_fingerprint": dataset_fingerprint(train_ds),
        "train_config": train_cfg.to_dict(),
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    save_checkpoint(args.out, result.model, result.stats, meta, optimizer=result.optimizer)
    print(f"wrote {args.out} ({model.config.architecture}, scheme {model.config.scheme})")
    return 0


def cmd_eval(args) -> int:
    test_ds = load_dataset(args.data)
    ck = _load_checkpoint_for(args.checkpoint, test_ds)
    data_fingerprint = dataset_fingerprint(test_ds)
    if data_fingerprint == ck.meta.get("train_fingerprint"):
        print(
            f"warning: {args.data} is the dataset {args.checkpoint} was trained on; "
            "its accuracy is not a held-out score",
            file=sys.stderr,
        )
    report = evaluate(
        ck.model,
        test_ds,
        ck.stats,
        metadata={
            "checkpoint": str(args.checkpoint),
            "data_fingerprint": data_fingerprint,
            "train_fingerprint": ck.meta.get("train_fingerprint"),
            "evaluated_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        },
    )
    out = _outdir(args)
    write_report_json(report, out / "report.json")
    write_confusion_csv(report, out / "confusion.csv")
    print(f"macro_accuracy {report.macro_accuracy:.6f} (n_test={report.n_test})")
    for c, acc in enumerate(report.per_class_accuracy):
        shown = "absent" if acc is None else f"{acc:.6f}"
        print(f"class {c}: acc {shown}")
    return 0


def _cmd_grid(args, run, name: str, keys: tuple[str, ...]) -> int:
    """Run one grid; write <name>_runs.csv and <name>.csv and print each cell's median."""
    cfg = _load_cfg(args)
    train_ds = load_dataset(args.train)
    test_ds = load_dataset(args.test)
    if train_ds.num_classes != test_ds.num_classes:
        raise ValueError("train and test datasets declare different class counts")
    base_cfg = cfgmod.model_config(cfg, num_classes=train_ds.num_classes)
    train_cfg = cfgmod.train_config(cfg, seed=args.seed)
    _, replicates = cfgmod.eval_params(cfg)
    seeds = tuple(train_cfg.seed + k for k in range(replicates))
    result = run(train_ds, test_ds, base_cfg, train_cfg, seeds=seeds, jobs=args.jobs)
    out = _outdir(args)
    write_rows_csv(result.rows, (*keys, "seed", "macro_accuracy"), out / f"{name}_runs.csv")
    write_rows_csv(result.summary, (*keys, "median_macro_accuracy"), out / f"{name}.csv")
    for row in result.summary:
        cell = " | ".join(str(row[k]) for k in keys)
        print(f"{cell} | median M = {row['median_macro_accuracy']:.4f}")
    return 0


def cmd_ablate(args) -> int:
    return _cmd_grid(args, run_ablation, "ablation", ("scheme", "architecture"))


def cmd_baselines(args) -> int:
    return _cmd_grid(args, run_baselines, "baselines", ("method", "scheme"))


def cmd_noise_sweep(args) -> int:
    cfg = _load_cfg(args)
    fractions, _ = cfgmod.eval_params(cfg)
    test_ds = load_dataset(args.data)
    named = []
    for path in args.checkpoint:
        ck = _load_checkpoint_for(path, test_ds)
        named.append((Path(path).stem, ck.model, ck.stats))
    seed = args.seed if args.seed is not None else cfgmod.train_config(cfg).seed
    rows = noise_sweep(named, test_ds, fractions=fractions, seed=seed)
    out = _outdir(args)
    write_rows_csv(rows, ("model", "noise_fraction", "macro_accuracy"), out / "noise_sweep.csv")
    for name, _, _ in named:
        write_noise_gnuplot(rows, name, out / f"noise_{name}.dat")
    for row in rows:
        print(
            f"{row['model']:<24} noise {row['noise_fraction']:.2f} -> "
            f"M = {row['macro_accuracy']:.4f}"
        )
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="emitterclf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic dataset (or a noisy copy)")
    _add_common(p, config_required=False)
    p.add_argument("--out", required=True, help="output dataset file")
    p.add_argument("--from-dataset", default=None, help="perturb an existing dataset instead")
    p.add_argument("--noise", type=float, default=None, help="noise fraction for --from-dataset")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="fit stats, train a model, write a checkpoint")
    _add_common(p)
    p.add_argument("--data", required=True, help="training dataset file")
    p.add_argument("--out", required=True, help="output checkpoint path")
    p.add_argument("--resume", default=None, help="continue training from a checkpoint")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="test dataset file")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="run the normalization x architecture grid")
    _add_common(p)
    p.add_argument("--train", required=True, help="training dataset file")
    p.add_argument("--test", required=True, help="test dataset file")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--jobs", type=_positive_int, default=1, help="max parallel grid workers")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("baselines", help="run the baseline comparison table")
    _add_common(p)
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--jobs", type=_positive_int, default=1, help="max parallel grid workers")
    p.set_defaults(func=cmd_baselines)

    p = sub.add_parser("noise-sweep", help="noise-robustness curves for trained models")
    _add_common(p, config_required=False)
    p.add_argument("--data", required=True, help="test dataset file")
    p.add_argument("--checkpoint", nargs="+", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_noise_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except (UsageError, ConfigError, DatasetFormatError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - map to the documented exit code
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
