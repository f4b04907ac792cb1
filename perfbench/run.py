"""emitterclf benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload train_small --seed 0 --seconds 30 --trace 0

Run from the repository root. The program under test is imported from
./src; BLAS is pinned to one thread before numpy loads. --trace 0 prints the
end-to-end metrics (untraced); --trace 1 prints the per-layer metrics from
traced rounds, alternated with untraced rounds to state the tracing
overhead, and writes the spans to .perfbench/. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 3  # set-ups before the first round; an untraced run adds one after every round
BLAS_THREADS = "1"


def prepare() -> None:
    """Pin BLAS threads and make ./src/emitterclf the imported package.

    The pin goes through the environment, so spawned grid workers inherit it.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    src = ROOT / "src"
    if not (src / "emitterclf" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        raise SystemExit(f"perfbench: no src/emitterclf or configs/ under {ROOT}")
    sys.path.insert(0, str(src))
    import emitterclf

    if Path(emitterclf.__file__).resolve().parent != src / "emitterclf":
        raise SystemExit(f"perfbench: imported {emitterclf.__file__}, not the package in {src}")


def _blas_threads() -> int | None:
    """Thread count OpenBLAS reports, read from the loaded library."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_block() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "blas_threads_pinned": int(BLAS_THREADS),
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited-for child."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with >= 10 samples beyond it.

    With fewer than 11 samples no such percentile exists; the max is returned
    as percentile 100.
    """
    s = sorted(samples)
    n = len(s)
    if n < 11:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def _stop_resource_tracker() -> None:
    """End the tracker process the spawn pool started, and wait for it."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    import workloads
    from spans import Tracer

    setup, round_fn = workloads.WORKLOADS[workload]
    variant = seed % workloads.NVARIANTS
    reference = json.loads((Path(__file__).parent / "reference" / f"{workload}.json").read_text())[
        str(variant)
    ]
    tracer = Tracer()
    machine = machine_block()
    print(f"perfbench {workload} seed={seed} variant={variant} trace={int(traced)}")
    print("machine " + json.dumps(machine))

    setup_s = []

    def timed_setup(i: int):
        tracer.run_id = f"setup{i}"
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            state = setup(ROOT, variant)
        finally:
            tracer.uninstall()
        setup_s.append(time.perf_counter() - t0)
        return state

    state = timed_setup(0)
    for i in range(1, SETUPS):
        timed_setup(i)

    # Round plan: untraced rounds at the workload's pool size; a traced run
    # alternates untraced and traced rounds at the same pool size. Spans
    # cannot be recorded inside spawned workers, so traced grid rounds run
    # at jobs=1, after one untraced jobs=2 round for pool_efficiency.
    def plan(k: int) -> tuple[bool, int]:
        if workload == "grid_mixed":
            if not traced:
                return False, workloads.GRID_JOBS
            return ((False, workloads.GRID_JOBS), (False, 1), (True, 1))[k]
        return traced and k % 2 == 1, 1

    def done(rounds) -> bool:
        if traced and workload == "grid_mixed":
            return len(rounds) == 3
        if len(rounds) < 2:
            return False
        expected = statistics.median(r.seconds for r in rounds)
        return sum(r.seconds for r in rounds) + expected > seconds

    rounds, attempted, failed = [], 0, 0
    for k in itertools.count():
        is_traced, jobs = plan(k)
        tracer.run_id = f"round{k}"
        if is_traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            r = round_fn(state, k, jobs)
        finally:
            tracer.uninstall()
        r.seconds = time.perf_counter() - t0
        r.traced, r.jobs, r.run_id = is_traced, jobs, tracer.run_id
        rounds.append(r)
        bad = [
            key
            for key, got, _ in r.outputs
            if key not in reference or not workloads.matches(key, got, reference[key])
        ]
        # an expected output the round did not produce is one failed op
        produced = {key for key, _, _ in r.outputs}
        missing = sorted(workloads.expected_keys(workload, reference, k) - produced)
        attempted += sum(n for _, _, n in r.outputs) + len(missing)
        failed += sum(n for key, _, n in r.outputs if key in bad) + len(missing)
        print(
            f"round {k} traced={int(is_traced)} jobs={jobs} {r.seconds:.3f} s "
            f"outputs={len(r.outputs)} mismatched={bad or 0} missing={missing or 0}"
        )
        if not traced:
            # spread set-ups over the run, so that their mean spans the same
            # stretch of the host's speed as the rounds do
            timed_setup(SETUPS + k)
        if done(rounds):
            break
    print("setup_s " + " ".join(f"{s:.4f}" for s in setup_s))

    accuracy = [a for r in rounds for a in r.macro_accuracy]
    print(f"macro_accuracy {statistics.mean(accuracy):.4f} (mean of {len(accuracy)}; checked against the reference)")
    if traced:
        metrics = layer_metrics(tracer, rounds, workload)
        out = ROOT / ".perfbench"
        out.mkdir(exist_ok=True)
        path = out / f"trace-{workload}-seed{seed}.jsonl"
        header = {
            "workload": workload,
            "seed": seed,
            "machine": machine,
            "rounds": [[r.run_id, r.traced, r.jobs, r.seconds] for r in rounds],
        }
        tracer.write(path, header)
        print(f"spans {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    else:
        # Every round repeats the same ops, so op i of one round is op i of
        # the next: the median is taken over each op's mean over the rounds,
        # the tail over every sample.
        ops = [statistics.mean(ms) for ms in zip(*(r.op_ms for r in rounds), strict=True)]
        samples = [ms for r in rounds for ms in r.op_ms]
        tail_ms, pct = tail(samples)
        print(
            f"op = {rounds[0].op_name}; op_ms_p50 over {len(ops)} ops, each the mean of "
            f"{len(rounds)} rounds; op_ms_tail is p{pct:.1f} of {len(samples)} samples"
        )
        metrics = {
            "setup_s": (statistics.mean(setup_s), "s"),
            "wall_s": (statistics.median(r.seconds for r in rounds), "s"),
            "seq_per_s": (sum(r.seqs for r in rounds) / sum(r.seconds for r in rounds), "1/s"),
            "op_ms_p50": (statistics.median(ops), "ms"),
            "op_ms_tail": (tail_ms, "ms"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def layer_metrics(tracer, rounds, workload: str) -> dict:
    """Per-layer metrics, name -> (value, unit): per traced round unless stated otherwise."""
    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced and r.jobs == traced[0].jobs]
    n = len(traced)
    ids = [r.run_id for r in traced]
    t = tracer.totals(ids)
    c = tracer.counted(ids)
    setup_ids = [f"setup{i}" for i in range(SETUPS)]
    ts = tracer.totals(setup_ids)

    def s(*names, key="s", totals=t, per=n):
        return sum(totals[x][key] for x in names if x in totals) / per

    m = {}
    for direction in ("forward", "backward"):
        for groups in (1, 3, 6):
            m[f"recurrent.lstm_{direction}_s.s{groups}"] = s(f"recurrent.lstm_{direction}.s{groups}"), "s"
        m[f"recurrent.gru_{direction}_s"] = s(f"recurrent.gru_{direction}"), "s"
    m["recurrent.calls"] = c["recurrent.calls"] / n, "count"
    m["recurrent.timesteps"] = c["recurrent.timesteps"] / n, "count"
    m["recurrent.active_row_frac"] = c["recurrent.active_rows"] / max(c["recurrent.rows"], 1), "ratio"
    m["normalize.pad_efficiency"] = c["normalize.valid_steps"] / max(c["normalize.padded_steps"], 1), "ratio"
    m["model.forward_self_s"] = s("model.forward", key="self_s"), "s"
    m["model.backward_self_s"] = s("model.backward", key="self_s"), "s"
    for name, span in (
        ("optim.adam_step_s", "optim.adam_step"),
        ("optim.clip_s", "optim.clip"),
        ("loss.wce_s", "loss.wce"),
        ("layers.fc_s", "layers.fc"),
        ("layers.dropout_s", "layers.dropout"),
        ("layers.embedding_s", "layers.embedding"),
        ("pulse_sim.add_noise_s", "pulse_sim.add_noise"),
        ("normalize.scheme_s", "normalize.scheme"),
        ("normalize.build_batch_s", "normalize.build_batch"),
        ("train_eval.evaluate_s", "train_eval.evaluate"),
    ):
        m[name] = s(span), "s"
    m["train_eval.train_self_s"] = s("train_eval.train", key="self_s"), "s"
    # set-up layers: seconds per set-up
    for name, span in (
        ("pulse_sim.generate_s", "pulse_sim.generate"),
        ("data_model.split_s", "data_model.split"),
        ("normalize.fit_stats_s", "normalize.fit_stats"),
    ):
        m[name] = s(span, totals=ts, per=len(setup_ids)), "s"
    cell_sum, pool_efficiency = 0.0, 0.0
    if workload == "grid_mixed":
        # grid cells run build + train + evaluate; at jobs=1 they are root spans
        cell_sum = s("model.build", "train_eval.train", "train_eval.evaluate")
        pool = next(r for r in rounds if r.jobs > 1)
        pool_efficiency = cell_sum / (pool.jobs * pool.seconds)
        print(
            f"computed: pool_efficiency = cell_sum_s {cell_sum:.3f} / "
            f"({pool.jobs} x wall_s {pool.seconds:.3f}) = {pool_efficiency:.3f}"
        )
    m["train_eval.cell_sum_s"] = cell_sum, "s"
    m["train_eval.pool_efficiency"] = pool_efficiency, "ratio"
    traced_s = statistics.median(r.seconds for r in traced)
    plain_s = statistics.median(r.seconds for r in plain)
    m["trace.overhead_frac"] = traced_s / plain_s - 1.0, "ratio"
    print(
        f"tracing overhead: traced round {traced_s:.3f} s vs untraced {plain_s:.3f} s "
        f"at jobs={traced[0].jobs} ({traced_s / plain_s - 1.0:+.2%}), "
        f"{sum(x['calls'] for x in t.values()) / n:.0f} spans per round"
    )
    print("share of the traced round (inclusive span time):")
    for name, tot in sorted(t.items(), key=lambda kv: -kv[1]["s"]):
        print(f"  {name:32s} {tot['s'] / n:9.4f} s  {tot['s'] / n / traced_s:7.2%}  calls={tot['calls'] / n:g}")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("train_small", "grid_mixed", "infer_long"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    prepare()
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        _stop_resource_tracker()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
