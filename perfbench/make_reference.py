"""Write the stored outputs every benchmark round is checked against.

    python3 perfbench/make_reference.py train_small [grid_mixed infer_long]

Run from the repository root, at the commit whose outputs are the reference.
For each of the NVARIANTS input variants it runs one round of train_small
and grid_mixed and one round per noise fraction of infer_long, and writes
perfbench/reference/<workload>.json.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run


def main(names: list[str]) -> int:
    run.prepare()
    import workloads
    from emitterclf.train_eval import DEFAULT_NOISE_FRACTIONS

    rounds = {"train_small": 1, "grid_mixed": 1, "infer_long": len(DEFAULT_NOISE_FRACTIONS)}
    out_dir = Path(__file__).parent / "reference"
    out_dir.mkdir(exist_ok=True)
    try:
        for name in names:
            setup, round_fn = workloads.WORKLOADS[name]
            jobs = workloads.GRID_JOBS if name == "grid_mixed" else 1
            reference = {}
            for variant in range(workloads.NVARIANTS):
                state = setup(run.ROOT, variant)
                reference[str(variant)] = {
                    key: value
                    for k in range(rounds[name])
                    for key, value, _ in round_fn(state, k, jobs).outputs
                }
                print(f"{name} variant {variant} done", flush=True)
            path = out_dir / f"{name}.json"
            path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
            print(f"wrote {path}")
    finally:
        run._stop_resource_tracker()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
