"""In-memory span tracer that wraps emitterclf's public functions.

Each target is a binding ``module.attr`` at the name its caller imports
(``emitterclf.model.lstm_forward`` is the LSTM kernel as ``model`` calls it),
so calls made inside the defining module stay unwrapped. A wrapped call
records one span: (name, start, end, parent span index, run id). Spans and
counters stay in memory; ``write`` dumps them once the run is over.
Wrapping happens only in traced rounds, never in the untraced rounds that
give the end-to-end metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

import numpy as np


def _lstm_fwd(W, U, b, x, lengths=None, *a, **k):
    return f"recurrent.lstm_forward.s{W.shape[0]}"


def _lstm_bwd(W, *a, **k):
    return f"recurrent.lstm_backward.s{W.shape[0]}"


def _count_recurrent(tracer, x, lengths):
    """Python steps and active rows of one forward kernel call (x: (T, S, B, Din))."""
    T, _, B, _ = x.shape
    active = B * T if lengths is None else int(np.asarray(lengths).sum())
    tracer.count("recurrent.calls", 1)
    tracer.count("recurrent.timesteps", T)
    tracer.count("recurrent.active_rows", active)
    tracer.count("recurrent.rows", B * T)


def _lstm_fwd_count(tracer, W, U, b, x, lengths=None, *a, **k):
    _count_recurrent(tracer, x, lengths)


def _gru_fwd_count(tracer, W, U_ru, U_n, b, x, lengths=None, *a, **k):
    _count_recurrent(tracer, x, lengths)


def _batch_count(tracer, normalized, *a, **k):
    lengths = [ns.valid_length for ns in normalized]
    tracer.count("normalize.valid_steps", sum(lengths))
    tracer.count("normalize.padded_steps", len(lengths) * max(lengths))


# (module, attribute, span name or name(args), counter(tracer, args) or None)
TARGETS = (
    ("emitterclf.model", "lstm_forward", _lstm_fwd, _lstm_fwd_count),
    ("emitterclf.model", "lstm_backward", _lstm_bwd, None),
    ("emitterclf.model", "gru_forward", "recurrent.gru_forward", _gru_fwd_count),
    ("emitterclf.model", "gru_backward", "recurrent.gru_backward", None),
    ("emitterclf.model", "fc_forward", "layers.fc", None),
    ("emitterclf.model", "fc_backward", "layers.fc", None),
    ("emitterclf.model", "dropout", "layers.dropout", None),
    ("emitterclf.model", "embedding_forward", "layers.embedding", None),
    ("emitterclf.model", "embedding_backward", "layers.embedding", None),
    ("emitterclf.train_eval", "forward", "model.forward", None),
    ("emitterclf.train_eval", "backward", "model.backward", None),
    ("emitterclf.train_eval", "build", "model.build", None),
    ("emitterclf.train_eval", "weighted_cross_entropy", "loss.wce", None),
    ("emitterclf.train_eval", "global_grad_norm", "optim.clip", None),
    ("emitterclf.train_eval", "clip_gradients", "optim.clip", None),
    ("emitterclf.nn_core.optim.Adam", "step", "optim.adam_step", None),
    ("emitterclf.train_eval", "normalize_scheme", "normalize.scheme", None),
    ("emitterclf.train_eval", "build_batch", "normalize.build_batch", _batch_count),
    ("emitterclf.train_eval", "fit_domain_stats", "normalize.fit_stats", None),
    ("emitterclf.train_eval", "add_noise", "pulse_sim.add_noise", None),
    ("emitterclf.train_eval", "train", "train_eval.train", None),
    ("emitterclf.train_eval", "evaluate", "train_eval.evaluate", None),
    # called by the benchmark itself, through the defining module
    ("emitterclf.model", "build", "model.build", None),
    ("emitterclf.pulse_sim", "add_noise", "pulse_sim.add_noise", None),
    ("emitterclf.pulse_sim", "generate_dataset", "pulse_sim.generate", None),
    ("emitterclf.data_model", "split_dataset", "data_model.split", None),
    ("emitterclf.normalize", "fit_domain_stats", "normalize.fit_stats", None),
)


def _resolve(path: str):
    """Import `a.b.C` as module a.b, attribute C (for class targets)."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        mod, _, cls = path.rpartition(".")
        return getattr(importlib.import_module(mod), cls)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int, str]] = []
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.run_id = "idle"
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def count(self, name: str, n: float) -> None:
        self.counts[self.run_id][name] += n

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name(*args, **kwargs) if callable(name) else name
            if counter is not None:
                counter(self, *args, **kwargs)
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (span_name, start, end, parent, self.run_id)

        return traced

    def install(self) -> None:
        """Wrap every target binding; a missing one is an error, not a silent zero."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        for path, attr, name, counter in TARGETS:
            owner = _resolve(path)
            fn = owner.__dict__.get(attr)
            if fn is None:
                self.uninstall()
                raise RuntimeError(f"cannot trace {path}.{attr}: no such binding")
            self._patched.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, counter))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    def totals(self, run_ids) -> dict[str, dict[str, float]]:
        """Per span name: inclusive seconds, self seconds and calls over `run_ids`."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, run in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
        run_ids = set(run_ids)
        for i, (name, start, end, parent, run) in enumerate(self.spans):
            if run in run_ids:
                t = out[name]
                t["s"] += end - start
                t["self_s"] += end - start - child[i]
                t["calls"] += 1
        return out

    def counted(self, run_ids) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for run in run_ids:
            for name, n in self.counts.get(run, {}).items():
                out[name] += n
        return out

    def write(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for name, start, end, parent, run in self.spans:
                fh.write(json.dumps([name, start, end, parent, run]) + "\n")
            fh.write(json.dumps({"counts": self.counts}) + "\n")

