#!/usr/bin/env python3
"""Hash what training and inference produce, to check that a change is bit-identical.

For each of the four architectures, trains a model for 2
epochs on the micro preset and prints a sha256 over its trained
parameters, its epoch losses, its inference logits on the test split and
the confusion matrix `evaluate` reports, then one cumulative sha256 of
those. A last line hashes the 4 confusion matrices again, from `evaluate`
at batch_size=2: the micro test split's 6 sequences then take 3 batches,
whose predictions must go back to their own sequences. Before all that it
prints, for each of the micro, paperlike_small and paperlike presets, a
sha256 of the serialized dataset (the text `save_dataset` writes) that the
preset generates at its config seed, and a sha256 of the bits of the
domain stats that `fit_domain_stats` fits on that dataset's train split.
Run it at two commits and compare the lines:

    python scripts/output_hash.py [--hidden 4] [--dropout 0.0]
"""

import argparse
import dataclasses
import hashlib
import sys
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from emitterclf import config as cfgmod  # noqa: E402
from emitterclf.data_model import serialize_dataset, split_dataset  # noqa: E402
from emitterclf.model import ARCHITECTURES, build, forward  # noqa: E402
from emitterclf.normalize import build_batch, fit_domain_stats, normalize_scheme  # noqa: E402
from emitterclf.pulse_sim import generate_dataset  # noqa: E402
from emitterclf.train_eval import evaluate, train  # noqa: E402

SCHEMES = {
    "attribute_specific_lstm": "minmax+perseq",
    "joint_lstm": "minmax+perseq",
    "gru_discretized": "discretize",
    "stats_mlp": "minmax",
}


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--hidden", type=int, default=4)
    ap.add_argument("--dropout", type=float, default=0.0)
    args = ap.parse_args()
    for preset in ("micro", "paperlike_small", "paperlike"):
        preset_cfg = cfgmod.load_config(REPO / "configs" / f"{preset}.cfg")
        ds = generate_dataset(cfgmod.sim_config(preset_cfg))
        print("dataset", preset, hashlib.sha256(serialize_dataset(ds).encode()).hexdigest())
        stats = fit_domain_stats(split_dataset(ds, *cfgmod.split_params(preset_cfg))[0])
        print("stats", preset, _sha(stats.mins, stats.maxs, stats.means, stats.stds))
    cfg = cfgmod.load_config(REPO / "configs" / "micro.cfg")
    train_ds, test_ds = split_dataset(
        generate_dataset(cfgmod.sim_config(cfg)), *cfgmod.split_params(cfg)
    )
    base = cfgmod.model_config(cfg, num_classes=train_ds.num_classes)
    train_cfg = cfgmod.train_config(cfg)
    total, batched = hashlib.sha256(), hashlib.sha256()
    for arch in ARCHITECTURES:
        model_cfg = dataclasses.replace(
            base, architecture=arch, scheme=SCHEMES[arch],
            hidden=args.hidden, dropout=args.dropout, embed_dim=4, mlp_hidden=(8, 8),
        )
        result = train(build(model_cfg, seed=train_cfg.seed), train_ds, train_cfg)
        params = [result.model.params[n] for n in sorted(result.model.params)]
        normalized = [
            normalize_scheme(s, result.stats, model_cfg.scheme, model_cfg.bins)
            for s in test_ds.sequences
        ]
        logits, _ = forward(result.model, build_batch(normalized))
        confusion = evaluate(result.model, test_ds, result.stats).confusion
        parts = [_sha(*params), _sha(result.epoch_losses), _sha(logits), _sha(confusion)]
        total.update("".join(parts).encode())
        print(arch, *(p[:12] for p in parts))
        batched.update(_sha(evaluate(result.model, test_ds, result.stats, batch_size=2).confusion).encode())
    print("cumulative", total.hexdigest())
    print("evaluate batch_size=2", batched.hexdigest())


if __name__ == "__main__":
    main()
