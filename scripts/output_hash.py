#!/usr/bin/env python3
"""Hash what training and inference produce, to check that a change is bit-identical.

For all four architectures x {last, mean} readout, trains a model for 2
epochs on the micro preset and prints a sha256 over its trained
parameters, its epoch losses, its inference logits on the test split and
the confusion matrix `evaluate` reports, then one cumulative sha256 of
those. Before that it prints a sha256 of the serialized dataset (the text
`save_dataset` writes) that each of the micro, paperlike_small and
paperlike presets generates at its config seed. Run it at two commits and
compare the lines:

    python scripts/output_hash.py [--hidden 4] [--dropout 0.0]
"""

import argparse
import dataclasses
import hashlib
import inspect
import sys
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from emitterclf import config as cfgmod  # noqa: E402
from emitterclf.data_model import serialize_dataset, split_dataset  # noqa: E402
from emitterclf.model import ARCHITECTURES, build, forward  # noqa: E402
from emitterclf.normalize import build_batch, normalize_scheme  # noqa: E402
from emitterclf.pulse_sim import generate_dataset  # noqa: E402
from emitterclf.train_eval import evaluate, train  # noqa: E402

SCHEMES = {
    "attribute_specific_lstm": "minmax+perseq",
    "joint_lstm": "minmax+perseq",
    "gru_discretized": "discretize",
    "stats_mlp": "minmax",
}
# forward's inference mode, where the keyword exists (older commits lack it)
INFER = {"keep_cache": False} if "keep_cache" in inspect.signature(forward).parameters else {}


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
        ds = generate_dataset(cfgmod.sim_config(cfgmod.load_config(REPO / "configs" / f"{preset}.cfg")))
        print("dataset", preset, hashlib.sha256(serialize_dataset(ds).encode()).hexdigest())
    cfg = cfgmod.load_config(REPO / "configs" / "micro.cfg")
    train_ds, test_ds = split_dataset(
        generate_dataset(cfgmod.sim_config(cfg)), *cfgmod.split_params(cfg)
    )
    base = cfgmod.model_config(cfg, num_classes=train_ds.num_classes)
    train_cfg = cfgmod.train_config(cfg)
    total = hashlib.sha256()
    for arch in ARCHITECTURES:
        for readout in ("last", "mean"):
            model_cfg = dataclasses.replace(
                base, architecture=arch, scheme=SCHEMES[arch], readout=readout,
                hidden=args.hidden, dropout=args.dropout, embed_dim=4, mlp_hidden=(8, 8),
            )
            result = train(build(model_cfg, seed=train_cfg.seed), train_ds, train_cfg)
            params = [result.model.params[n] for n in sorted(result.model.params)]
            normalized = [
                normalize_scheme(s, result.stats, model_cfg.scheme, model_cfg.bins)
                for s in test_ds.sequences
            ]
            logits, _ = forward(result.model, build_batch(normalized), **INFER)
            confusion = evaluate(result.model, test_ds, result.stats).confusion
            parts = [_sha(*params), _sha(result.epoch_losses), _sha(logits), _sha(confusion)]
            total.update("".join(parts).encode())
            print(arch, readout, *(p[:12] for p in parts))
    print("cumulative", total.hexdigest())


if __name__ == "__main__":
    main()
