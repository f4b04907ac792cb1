"""Classifier architectures and checkpoint serialization.

Four architectures share one interface:

* ``attribute_specific_lstm`` (the proposed model): one independent L-layer
  LSTM stack per normalized channel (2M stacks for minmax+perseq, M for
  single-scheme inputs); the stacks' hidden states at the last valid
  timestep are concatenated and mapped to class scores by an FC layer.
* ``joint_lstm``: a single L-layer stack over the full channel vector.
* ``gru_discretized``: per-attribute embedding tables over discretized
  inputs feeding a stacked GRU (PRI+PW by default, RF optional).
* ``stats_mlp``: an MLP over per-channel sequence minima and maxima
  (order-invariant summary features).

The three recurrent architectures run one stacked-layer loop. Rows are
sorted by valid length, an input adapter turns the (B, T, K) channels into
the layer-0 kernel input (T, S, B, Din), the L layers run (with training,
one after another with dropout between them; in inference, together per
timestep), and the readout takes the top layer's final state back to the
original row order. The state is carried over padded steps, so that is
each sequence's state at its last valid timestep; it is the only readout.
Inference splits the S stacks of the attribute-specific LSTM into one
block per usable CPU and steps the blocks in threads; see `forward`. The
adapters are: one single-channel stream per stack
(attribute-specific LSTM), the full channel vector as one stream (joint
LSTM), and embedding lookup of the discretized attributes, whose gradient
is layer 0's input gradient (GRU). `_RECURRENT` names each architecture's
cell and the parameter suffixes in kernel argument order.

With training=True, dropout is applied between stacked recurrent layers and
before the final FC layer. Checkpoints store named float64 tensors plus the
model config, the fitted domain stats, and optional optimizer state.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .data_model import NUM_ATTRIBUTES
from .nn_core import (
    Adam,
    dropout,
    embedding_backward,
    embedding_forward,
    fc_backward,
    fc_forward,
    gru_backward,
    gru_forward,
    init_embedding,
    init_fc,
    init_gru_params,
    init_lstm_params,
    lstm_backward,
    lstm_forward,
    relu_backward,
    relu_forward,
)
from .nn_core.recurrent import active_rows, gru_steps, lstm_steps
from .normalize import (
    DEFAULT_BINS,
    SCHEMES,
    DomainStats,
    NormalizedBatch,
    scheme_channel_count,
)
from .seeding import derive_rng

__all__ = [
    "ARCHITECTURES",
    "ModelConfig",
    "SequenceClassifier",
    "build",
    "forward",
    "backward",
    "save_checkpoint",
    "load_checkpoint",
    "CheckpointData",
]

ARCHITECTURES = (
    "attribute_specific_lstm",
    "joint_lstm",
    "gru_discretized",
    "stats_mlp",
)

_CKPT_MAGIC = "emitterclf-checkpoint v1"


@dataclass(frozen=True)
class ModelConfig:
    architecture: str
    scheme: str
    num_classes: int
    num_attributes: int = NUM_ATTRIBUTES
    layers: int = 2
    hidden: int = 64
    dropout: float = 0.5
    bins: int = DEFAULT_BINS
    embed_dim: int = 32
    mlp_hidden: tuple[int, ...] = (64, 64)
    gru_use_rf: bool = False

    def __post_init__(self):
        object.__setattr__(self, "mlp_hidden", tuple(self.mlp_hidden))
        if self.architecture not in ARCHITECTURES:
            raise ValueError(f"unknown architecture {self.architecture!r}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.layers < 1 or self.hidden < 1 or self.num_classes < 2:
            raise ValueError("need layers >= 1, hidden >= 1, num_classes >= 2")
        if self.embed_dim < 1 or any(n < 1 for n in self.mlp_hidden):
            raise ValueError("need embed_dim >= 1 and every mlp_hidden size >= 1")
        if self.bins < 2:
            raise ValueError(f"need bins >= 2, got {self.bins}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must lie in [0, 1)")
        if (self.architecture == "gru_discretized") != (self.scheme == "discretize"):
            raise ValueError(
                "the discretize scheme and the gru_discretized architecture require each other"
            )

    @property
    def channels(self) -> int:
        return scheme_channel_count(self.scheme, self.num_attributes)

    @property
    def stacks(self) -> int:
        """Recurrent stacks S: one per channel (attribute-specific LSTM), 0 (stats MLP) or 1."""
        return {"attribute_specific_lstm": self.channels, "stats_mlp": 0}.get(self.architecture, 1)

    @property
    def gru_attributes(self) -> tuple[int, ...]:
        return tuple(range(3 if self.gru_use_rf else 2))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """Older checkpoints also name their readout, "last"; any other readout is refused."""
        d = dict(d)
        readout = d.pop("readout", "last")
        if readout != "last":
            raise ValueError(f"readout {readout!r}: only the last-state readout exists")
        return cls(**d)


@dataclass
class SequenceClassifier:
    """A built model: config plus all trainable tensors by name."""

    config: ModelConfig
    params: dict[str, np.ndarray] = field(default_factory=dict)


# Recurrent architectures: (cell, parameter suffixes in kernel argument
# order). Layer l's tensors are named f"{cell}{l}.{suffix}". The kernels
# are looked up by name in this module's globals at call time, so a
# rebinding of `emitterclf.model.lstm_forward` (a tracer) takes effect.
_RECURRENT = {
    "attribute_specific_lstm": ("lstm", ("W", "U", "b")),
    "joint_lstm": ("lstm", ("W", "U", "b")),
    "gru_discretized": ("gru", ("W", "U_ru", "U_n", "b")),
}


def build(cfg: ModelConfig, seed: int) -> SequenceClassifier:
    """Create a classifier with deterministic initialization from `seed`."""
    rng = derive_rng(seed, "init")
    params: dict[str, np.ndarray] = {}
    if cfg.architecture in _RECURRENT:
        cell, suffixes = _RECURRENT[cfg.architecture]
        if cfg.architecture == "gru_discretized":
            for j in cfg.gru_attributes:
                params[f"emb{j}"] = init_embedding(cfg.bins, cfg.embed_dim, rng)
            din = len(cfg.gru_attributes) * cfg.embed_dim
        else:  # the channels, one per stack or all in one
            din = cfg.channels // cfg.stacks
        init = init_lstm_params if cell == "lstm" else init_gru_params
        for layer in range(cfg.layers):
            tensors = init(cfg.stacks, din if layer == 0 else cfg.hidden, cfg.hidden, rng)
            for suffix, t in zip(suffixes, tensors):
                params[f"{cell}{layer}.{suffix}"] = t
        fc_in = cfg.stacks * cfg.hidden
    elif cfg.architecture == "stats_mlp":
        sizes = (2 * cfg.channels,) + cfg.mlp_hidden
        for i in range(len(cfg.mlp_hidden)):
            w, b = init_fc(sizes[i], sizes[i + 1], rng)
            params[f"mlp{i}.W"] = w
            params[f"mlp{i}.b"] = b + 0.01  # keep rectifier units off the dead-zero corner
        fc_in = sizes[-1]
    else:  # pragma: no cover - guarded by ModelConfig
        raise ValueError(cfg.architecture)
    w, b = init_fc(fc_in, cfg.num_classes, rng)
    params["fc.W"] = w
    params["fc.b"] = b
    return SequenceClassifier(config=cfg, params=params)


def _recurrent_input(cfg: ModelConfig, p: dict, channels: np.ndarray) -> np.ndarray:
    """Input adapter: (B, T, K) channels -> (T, S, B, Din) layer-0 input."""
    if cfg.architecture == "gru_discretized":
        if channels.dtype.kind not in "iu":
            raise ValueError("gru_discretized expects integer (discretized) channels")
        embedded = [embedding_forward(p[f"emb{j}"], channels[:, :, j]) for j in cfg.gru_attributes]
        # (B, T, A*E) -> (T, 1, B, A*E)
        return np.ascontiguousarray(np.concatenate(embedded, axis=2).transpose(1, 0, 2))[:, None]
    if channels.shape[2] != cfg.channels:
        raise ValueError(f"batch has {channels.shape[2]} channels, model expects {cfg.channels}")
    x = channels.astype(np.float64, copy=False)
    if cfg.architecture == "attribute_specific_lstm":
        # (B, T, K) -> (T, K, B, 1): one single-channel stream per stack
        return np.ascontiguousarray(x.transpose(1, 2, 0))[..., None]
    # (B, T, K) -> (T, 1, B, K)
    return np.ascontiguousarray(x.transpose(1, 0, 2))[:, None]


def _recurrent_input_backward(cfg: ModelConfig, p: dict, ids: np.ndarray, dx, grads) -> None:
    """Gradients of the adapter's own parameters from layer 0's input gradient."""
    if cfg.architecture != "gru_discretized":
        return
    dx0 = dx[:, 0].transpose(1, 0, 2)  # (T, 1, B, A*E) -> (B, T, A*E)
    e = cfg.embed_dim
    for slot, j in enumerate(cfg.gru_attributes):
        grads[f"emb{j}"] = embedding_backward(
            p[f"emb{j}"], ids[:, :, j], dx0[:, :, slot * e : (slot + 1) * e]
        )


def _sort_by_length(batch: NormalizedBatch):
    """Recurrent kernels want rows ordered by non-increasing valid length.

    Returns (channels, lengths, order, inverse); callers see original row
    order, the permutation stays internal.
    """
    order = np.argsort(-batch.lengths, kind="stable")
    inv = np.empty_like(order)
    inv[order] = np.arange(len(order))
    return batch.channels[order], batch.lengths[order], order, inv


def _flatten(feats):
    """(S, B, H) readout -> (B, S*H) features, stack s in columns [s*H, (s+1)*H)."""
    s, b, h = feats.shape
    return np.ascontiguousarray(feats.transpose(1, 0, 2)).reshape(b, s * h)


def _split_width(groups: int) -> int:
    """How many blocks inference splits `groups` independent stacks into.

    One block per CPU this process may run on, at most one per group. A
    process that a pool started runs width 1: its siblings fill the cores.
    """
    if multiprocessing.parent_process() is not None:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        cpus = os.cpu_count() or 1
    return min(groups, cpus)


def _lockstep(steps, layers, x, lengths):
    """Inference over x (T, S, B, Din) in _split_width(S) blocks of groups -> (S, B, H) readout.

    Each block [lo, hi) chains one step generator per layer over the
    parameter slices [lo:hi], so layer l's state at t is layer l+1's input
    at t, and keeps its top layer's final state: with the carried state,
    that is each sequence's state at its last valid step. The calling
    thread builds every chain and takes its step 0, which allocates the
    generators' stores from the calling thread's heap, not from a worker's
    malloc arena that outlives the call. Then it drains the first chain and
    worker threads the others; they share only read-only inputs, and the
    readout has the bits of width 1 (see `forward`).
    """
    T, S, B, _ = x.shape
    active, _ = active_rows(lengths, T, B)
    width = _split_width(S)  # 1 for the single-stack architectures

    def chain(lo, hi):
        states = iter(x[:, lo:hi])
        for params in layers:
            states = steps(*(a[lo:hi] for a in params), states, active, None)
        return states, next(states)

    def drain(states, last):
        for last in states:
            pass
        return last

    bounds = [(S * k // width, S * (k + 1) // width) for k in range(width)]
    chains = [chain(lo, hi) for lo, hi in bounds]
    if width == 1:
        return drain(*chains[0])
    with ThreadPoolExecutor(width - 1) as pool:
        others = [pool.submit(drain, *c) for c in chains[1:]]
        parts = [drain(*chains[0])] + [f.result() for f in others]
    return np.concatenate(parts)


def _readout_backward(dfeats, shape):
    """(B, S*H) feature gradient -> the (T, S, B, H) top-layer gradient, nonzero at the last step."""
    _, s, b, h = shape
    dh_seq = np.zeros(shape)
    dh_seq[-1] = dfeats.reshape(b, s, h).transpose(1, 0, 2)
    return dh_seq


def forward(
    model: SequenceClassifier,
    batch: NormalizedBatch,
    training: bool = False,
    rng: np.random.Generator | None = None,
    spent: dict | None = None,
) -> tuple[np.ndarray, dict | None]:
    """Compute pre-softmax logits for a padded batch.

    training=True runs the recurrent layers one after another, applies
    dropout (drawn from rng) between them and before the FC layer, and
    returns (logits, cache) for `backward`. training=False (inference)
    applies no dropout and returns (logits, None): its recurrent layers step
    together, one layer's state at t being the next layer's input at t, so
    each holds a two-slot ring of (S, B, H) states and no (T, S, B, H) array
    exists. At dropout 0 the logits are bit-identical either way.

    Inference also splits the S groups into min(S, CPUs in the process's
    affinity mask) contiguous blocks, one block for a process that a pool
    started (its siblings fill the cores). Each block steps its layers over
    the parameter slices of its groups and keeps its own readout, the
    calling thread one block and worker threads the others, and the
    readouts are joined along S before the FC layer. The groups share
    nothing before the FC layer, numpy's stacked matmul runs one product
    per group at the shape it has in the whole S, and every other operation
    is elementwise, so the logits have the same bits at every width. The
    single-stack architectures (S = 1) start no thread, and training runs
    in the calling thread.

    spent, the cache of this model's previous training forward once
    `backward` is done with it, is handed over: forward empties it and
    writes the recurrent stores, the states and the inter-layer dropout
    masks and outputs over its memory, which grows only when this batch
    needs more rows or a longer T. The results are the same bits.
    """
    cfg = model.config
    if training and cfg.dropout > 0.0 and rng is None:
        raise ValueError(f"forward(training=True) at dropout {cfg.dropout} needs an rng")
    p = model.params
    cache: dict = {}
    stores = None
    if spent:  # keep its stores; free the rest of it before this batch allocates
        stores = spent.pop("stores", None)
        spent.clear()
    if cfg.architecture in _RECURRENT:
        cell, suffixes = _RECURRENT[cfg.architecture]
        channels, lengths, order, inv = _sort_by_length(batch)
        h = _recurrent_input(cfg, p, channels)
        layers = [[p[f"{cell}{layer}.{s}"] for s in suffixes] for layer in range(cfg.layers)]
        if training:
            kernel = globals()[f"{cell}_forward"]
            if stores is None:  # one list per kernel call and per inter-layer dropout, in call order
                stores = [[] for _ in range(2 * cfg.layers - 1)]
            layer_caches, drop_masks = [], []
            for layer, params in enumerate(layers):
                h, lc = kernel(*params, h, lengths, stores=stores[2 * layer])
                layer_caches.append(lc)
                if layer < cfg.layers - 1:
                    h, dm = dropout(h, cfg.dropout, rng, stores=stores[2 * layer + 1])
                    drop_masks.append(dm)
            cache.update(
                stores=stores,
                layer_caches=layer_caches,
                drop_masks=drop_masks,
                h_shape=h.shape,
                order=order,
                ids=channels,
            )
            feats = h[-1]  # the carried state: each sequence's state at its last valid step
        else:  # lockstep: each layer's state at t is the next layer's input at t
            feats = _lockstep(globals()[f"{cell}_steps"], layers, h, lengths)
        feats = _flatten(feats)[inv]
    elif cfg.architecture == "stats_mlp":
        x = batch.channels.astype(np.float64, copy=False)
        m3 = batch.mask()[:, :, None].astype(bool)
        mins = np.where(m3, x, np.inf).min(axis=1)
        maxs = np.where(m3, x, -np.inf).max(axis=1)
        feats = np.concatenate([mins, maxs], axis=1)
        acts, pre = [], []
        h = feats
        for i in range(len(cfg.mlp_hidden)):
            z = fc_forward(h, p[f"mlp{i}.W"], p[f"mlp{i}.b"])
            pre.append(z)
            acts.append(h)
            h = relu_forward(z)
        feats = h
        cache.update(mlp_pre=pre, mlp_acts=acts)
    else:  # pragma: no cover
        raise ValueError(cfg.architecture)

    if not training:
        return fc_forward(feats, p["fc.W"], p["fc.b"]), None
    feats_d, fc_drop = dropout(feats, cfg.dropout, rng)
    cache.update(feats_d=feats_d, fc_drop=fc_drop)
    return fc_forward(feats_d, p["fc.W"], p["fc.b"]), cache


def backward(model: SequenceClassifier, cache: dict, dlogits: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of the loss w.r.t. every model parameter."""
    if not cache:
        raise ValueError(
            "forward(training=False) kept no cache, and a cache handed on as `spent` is "
            "emptied; backward needs the cache of the latest training forward"
        )
    cfg = model.config
    p = model.params
    grads: dict[str, np.ndarray] = {}
    dW, db, dfeats = fc_backward(cache["feats_d"], p["fc.W"], dlogits)
    grads["fc.W"] = dW
    grads["fc.b"] = db
    if cache["fc_drop"] is not None:
        dfeats = dfeats * cache["fc_drop"]

    if cfg.architecture in _RECURRENT:
        cell, suffixes = _RECURRENT[cfg.architecture]
        kernel = globals()[f"{cell}_backward"]
        dfeats = dfeats[cache["order"]]
        dh_seq = _readout_backward(dfeats, cache["h_shape"])
        for layer in range(cfg.layers - 1, -1, -1):
            names = [f"{cell}{layer}.{s}" for s in suffixes]
            *dparams, dx = kernel(*(p[n] for n in names), cache["layer_caches"][layer], dh_seq)
            grads.update(zip(names, dparams))
            if layer > 0:
                dm = cache["drop_masks"][layer - 1]
                if dm is not None:
                    dx *= dm
                dh_seq = dx
        _recurrent_input_backward(cfg, p, cache["ids"], dx, grads)
    elif cfg.architecture == "stats_mlp":
        dh = dfeats
        for i in range(len(cfg.mlp_hidden) - 1, -1, -1):
            dz = relu_backward(cache["mlp_pre"][i], dh)
            dw, dbias, dh = fc_backward(cache["mlp_acts"][i], p[f"mlp{i}.W"], dz)
            grads[f"mlp{i}.W"] = dw
            grads[f"mlp{i}.b"] = dbias
    else:  # pragma: no cover
        raise ValueError(cfg.architecture)
    return grads


@dataclass
class CheckpointData:
    model: SequenceClassifier
    stats: DomainStats | None
    meta: dict
    adam_t: int | None
    opt_tensors: dict[str, np.ndarray] | None


def save_checkpoint(
    path,
    model: SequenceClassifier,
    stats: DomainStats | None,
    meta: dict | None = None,
    optimizer: Adam | None = None,
) -> None:
    """Versioned checkpoint: JSON header + named little-endian float64 tensors."""
    tensors = dict(model.params)
    if optimizer is not None:
        tensors.update(optimizer.state_tensors())
    names = sorted(tensors)
    header = {
        "config": model.config.to_dict(),
        "stats": stats.to_dict() if stats is not None else None,
        "meta": meta or {},
        "adam_t": optimizer.t if optimizer is not None else None,
        "tensors": [{"name": n, "shape": list(tensors[n].shape)} for n in names],
    }
    payload = b"".join(np.ascontiguousarray(tensors[n], dtype="<f8").tobytes() for n in names)
    with open(path, "wb") as fh:
        fh.write((_CKPT_MAGIC + "\n").encode("utf-8"))
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode("utf-8"))
        fh.write(f"data {len(payload)}\n".encode("utf-8"))
        fh.write(payload)


def load_checkpoint(path) -> CheckpointData:
    """Read a checkpoint, refusing one that `evaluate` or a resume could not use.

    The tensors must carry exactly the names and shapes `build(config)`
    gives, plus `adam.m.<name>` and `adam.v.<name>` per parameter when
    optimizer state was saved, and the payload must hold exactly their
    bytes, all finite, and its domain stats (unless the scheme is `none`)
    usable by normalization. Every refusal is a ValueError naming the path.
    """
    with open(path, "rb") as fh:
        magic = fh.readline().decode("utf-8", errors="replace").rstrip("\n")
        if magic != _CKPT_MAGIC:
            raise ValueError(f"{path}: not an emitterclf checkpoint (header {magic!r})")
        try:
            header = json.loads(fh.readline().decode("utf-8"))
            cfg = ModelConfig.from_dict(header["config"])
            entries = [(e["name"], tuple(e["shape"])) for e in header["tensors"]]
            stats = DomainStats.from_dict(header["stats"]) if header["stats"] is not None else None
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"{path}: malformed checkpoint header: {exc!r}") from None
        data_line = fh.readline().decode("utf-8", errors="replace").split()
        if len(data_line) != 2 or data_line[0] != "data" or not data_line[1].isdigit():
            raise ValueError(f"{path}: malformed data length line")
        declared = int(data_line[1])
        payload = fh.read()
    if stats is None and cfg.scheme != "none":
        raise ValueError(f"{path}: scheme {cfg.scheme!r} needs domain stats, the header has none")
    if stats is not None:
        for name, v in vars(stats).items():
            if v.shape != (NUM_ATTRIBUTES,) or not np.isfinite(v).all():
                raise ValueError(f"{path}: stats {name} must hold 3 finite values, got {v.tolist()}")
        if np.any(stats.maxs <= stats.mins):
            raise ValueError(f"{path}: stats maxs {stats.maxs.tolist()} must exceed its mins")
        if np.any(stats.stds <= 0):
            raise ValueError(f"{path}: stats stds {stats.stds.tolist()} must be > 0")

    expected = {n: t.shape for n, t in build(cfg, seed=0).params.items()}
    if header.get("adam_t") is not None:
        for n, shape in list(expected.items()):
            expected[f"adam.m.{n}"] = shape
            expected[f"adam.v.{n}"] = shape
    shapes = dict(entries)
    if len(shapes) != len(entries):
        raise ValueError(f"{path}: duplicate tensor names in the header")
    for name, shape in entries:
        if name not in expected:
            raise ValueError(f"{path}: unexpected tensor {name!r}")
        if shape != expected[name]:
            raise ValueError(
                f"{path}: tensor {name!r} has shape {shape}, the config needs {expected[name]}"
            )
    missing = sorted(expected.keys() - shapes.keys())
    if missing:
        raise ValueError(f"{path}: missing tensor {missing[0]!r}")
    needed = sum(8 * math.prod(shape) for _, shape in entries)
    if declared != needed:
        raise ValueError(f"{path}: data line declares {declared} bytes, the tensors need {needed}")

    tensors: dict[str, np.ndarray] = {}
    offset = 0
    for name, shape in entries:
        size = math.prod(shape)
        if offset + 8 * size > len(payload):
            raise ValueError(
                f"{path}: truncated inside tensor {name!r} "
                f"(payload has {len(payload)} of {declared} bytes)"
            )
        arr = np.frombuffer(payload, dtype="<f8", count=size, offset=offset)
        if not np.isfinite(arr).all():
            raise ValueError(f"{path}: tensor {name!r} holds a non-finite value")
        tensors[name] = arr.reshape(shape).astype(np.float64)
        offset += 8 * size
    if len(payload) != offset:
        raise ValueError(f"{path}: {len(payload) - offset} bytes after the last tensor")
    params = {n: t for n, t in tensors.items() if not n.startswith("adam.")}
    opt_tensors = {n: t for n, t in tensors.items() if n.startswith("adam.")}
    return CheckpointData(
        model=SequenceClassifier(config=cfg, params=params),
        stats=stats,
        meta=header.get("meta", {}),
        adam_t=header.get("adam_t"),
        opt_tensors=opt_tensors or None,
    )
