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

The three recurrent architectures run one stacked-layer loop. An input
adapter turns the (B, T, K) channels into the layer-0 kernel input
(T, S, B, Din), rows sorted by valid length in the same copy, the L
layers step together, one chain of per-layer step generators
(`_chain`) in which layer l's state at t is layer l+1's input at t
(in training, through the inter-layer dropout mask), and the readout
takes the top layer's final state back to the original row order. The
state is carried over padded steps, so that is each sequence's state at
its last valid timestep; it is the only readout. Training's backward
pass runs the mirror chain (`_back_chain`), one reverse step generator
per layer.
Inference splits the S stacks of the attribute-specific LSTM into one
block per usable CPU and steps the blocks in threads; see `forward`. The
adapters are one reshape of the K channels into S streams of K // S
channels for both LSTMs (one channel per stack for the attribute-specific
LSTM, all K in one stream for the joint LSTM), and embedding lookup of
the discretized attributes, whose gradient is layer 0's input gradient
(GRU). `_RECURRENT` maps each architecture to its cell record,
`recurrent.LSTM` or `recurrent.GRU`; every layer of both steps through
`recurrent.steps` and `recurrent.back_steps`.

All four end in one dense head (`_head`): the stats MLP's hidden layers,
of which the recurrent models have none, then the FC layer, with dropout
before it in training, as between stacked recurrent layers. `build`,
`forward` and `backward` each split only on where the features come
from: the recurrent stack or the min/max summary. Checkpoints store named
float64 tensors plus the model config, the fitted domain stats, and
optional optimizer state.
"""

from __future__ import annotations

import itertools
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
    init_embedding,
    init_fc,
    relu_backward,
    relu_forward,
)

# The stacks call none of these whole-sequence kernels: they chain `steps`
# and `back_steps`. The four per-cell bindings stay bound in this module
# only because perfbench's tracer wraps `emitterclf.model.<name>` for each
# of them and refuses to run when a name is missing.
from .nn_core import gru_backward, gru_forward, lstm_backward, lstm_forward  # noqa: F401
from .nn_core.recurrent import GRU, LSTM, active_rows, back_steps, steps
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


# Recurrent architectures and their cells. Layer l's tensors are named
# f"{cell.name}{l}.{suffix}", the suffixes in the cell's argument order.
_RECURRENT = {"attribute_specific_lstm": LSTM, "joint_lstm": LSTM, "gru_discretized": GRU}


def _layer_names(cfg: ModelConfig) -> list[list[str]]:
    """Each recurrent layer's tensor names, in its cell's argument order."""
    cell = _RECURRENT[cfg.architecture]
    return [[f"{cell.name}{layer}.{s}" for s in cell.suffixes] for layer in range(cfg.layers)]


def _head(cfg: ModelConfig) -> list[str]:
    """The dense head's layers: the stats MLP's hidden layers (none if recurrent), then fc."""
    return [f"mlp{i}" for i in range(0 if cfg.stacks else len(cfg.mlp_hidden))] + ["fc"]


def build(cfg: ModelConfig, seed: int) -> SequenceClassifier:
    """Create a classifier with deterministic initialization from `seed`."""
    rng = derive_rng(seed, "init")
    params: dict[str, np.ndarray] = {}
    if cfg.stacks:  # the recurrent stack and its input adapter
        if cfg.architecture == "gru_discretized":
            for j in cfg.gru_attributes:
                params[f"emb{j}"] = init_embedding(cfg.bins, cfg.embed_dim, rng)
            din = len(cfg.gru_attributes) * cfg.embed_dim
        else:  # the channels, one per stack or all in one
            din = cfg.channels // cfg.stacks
        init = _RECURRENT[cfg.architecture].init
        for layer, names in enumerate(_layer_names(cfg)):
            tensors = init(cfg.stacks, din if layer == 0 else cfg.hidden, cfg.hidden, rng)
            params.update(zip(names, tensors))
        sizes = [cfg.stacks * cfg.hidden]
    else:  # the min/max summary, then the MLP's hidden layers
        sizes = [2 * cfg.channels, *cfg.mlp_hidden]
    for name, n_in, n_out in zip(_head(cfg), sizes, sizes[1:] + [cfg.num_classes]):
        w, b = init_fc(n_in, n_out, rng)
        params[f"{name}.W"] = w
        params[f"{name}.b"] = b if name == "fc" else b + 0.01  # ReLUs off the dead-zero corner
    return SequenceClassifier(config=cfg, params=params)


def _recurrent_input(cfg: ModelConfig, p: dict, batch: NormalizedBatch):
    """Input adapter: the batch -> (T, S, B, Din) layer-0 input, the row order, the GRU's ids.

    One gather along B puts the rows in the kernels' order, longest first
    (stable), and lays them out contiguously. The GRU's gather is of the
    ids, before the lookup, so its lookups and their concatenation build
    the layout, and the sorted ids serve its embedding gradients.
    """
    order = np.argsort(-batch.lengths, kind="stable")
    channels = batch.channels
    if cfg.architecture == "gru_discretized":
        if channels.dtype.kind not in "iu":
            raise ValueError("gru_discretized expects integer (discretized) channels")
        ids = channels[order]
        embedded = [embedding_forward(p[f"emb{j}"], ids[:, :, j].T) for j in cfg.gru_attributes]
        return np.concatenate(embedded, axis=2)[:, None], order, ids  # (T, 1, B, A*E)
    (B, T, K), S = channels.shape, cfg.stacks
    if K != cfg.channels:
        raise ValueError(f"batch has {K} channels, model expects {cfg.channels}")
    x = channels.astype(np.float64, copy=False).reshape(B, T, S, K // S).transpose(1, 2, 0, 3)
    return np.take(x, order, axis=2), order, None


def _recurrent_input_backward(cfg: ModelConfig, p: dict, cache: dict, dx, grads) -> None:
    """Gradients of the adapter's own parameters from layer 0's input gradient dx.

    Only valid steps are summed: a padded step's dx rows are +0.0, which
    adds nothing to an embedding gradient.
    """
    if cfg.architecture != "gru_discretized":
        return
    ids, lengths = cache["ids"], cache["lengths"]
    valid = np.arange(ids.shape[1]) < lengths[:, None]  # (B, T), rows in kernel order
    dx_valid = dx[:, 0].transpose(1, 0, 2)[valid]  # (T, 1, B, A*E) -> (valid steps, A*E)
    ids_valid = ids[valid]
    e = cfg.embed_dim
    for slot, j in enumerate(cfg.gru_attributes):
        grads[f"emb{j}"] = embedding_backward(
            p[f"emb{j}"], ids_valid[:, j], dx_valid[:, slot * e : (slot + 1) * e]
        )


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


def _keeping(steps, kept: list, layer: int):
    """Yield what the generator `steps` yields; keep what it returns in kept[layer]."""
    kept[layer] = yield from steps


def _dropped(states, masks, scale: float):
    """Each state times its step's keep mask and `scale`: dropout's h * keep, bit for bit."""
    out = np.empty(masks.shape[1:])
    for h, mask in zip(states, masks):
        np.multiply(h, mask, out=out)
        out *= scale
        yield out


def _chain(cell, layers, x, active, offsets=None, stores=None, masks=None, scale=1.0):
    """The stack's chain of step generators over x (T, S, B, Din) -> (top, kept).

    Layer l's state at t, times masks[l][t] * scale when masks is given
    (training with dropout), is layer l+1's input at t. top yields the top
    layer's state at each step; with the carried state, its last is each
    sequence's state at its last valid step. With offsets (training), layer
    l keeps its BPTT stores in the list stores[l], and once top is drained
    kept[l] holds what its generator returned.
    """
    kept = [None] * len(layers)
    states = iter(x)
    for layer, params in enumerate(layers):
        if layer and masks is not None:
            states = _dropped(states, masks[layer - 1], scale)
        gen = steps(cell, params, states, active, offsets, None if stores is None else stores[layer])
        states = _keeping(gen, kept, layer)
    return states, kept


def _last(states):
    """Run a chain to its end; return what it yielded last."""
    for last in states:
        pass
    return last


def _lockstep(cell, layers, x, lengths):
    """Inference over x (T, S, B, Din) in _split_width(S) blocks of groups -> (S, B, H) readout.

    Each block [lo, hi) runs the chain (`_chain`) over the parameter slices
    [lo:hi] and keeps its top layer's final state. The calling
    thread builds every chain and takes its step 0, which allocates the
    generators' stores (mappings of their own, see layers.reuse) and halved
    weights in the calling thread, not in a worker's malloc arena that
    outlives the call. Then it drains the first chain and
    worker threads the others; they share only read-only inputs, and the
    readout has the bits of width 1 (see `forward`).
    """
    T, S, B, _ = x.shape
    active, _ = active_rows(lengths, T, B)
    width = _split_width(S)  # 1 for the single-stack architectures

    def chain(lo, hi):
        top, _ = _chain(cell, [[a[lo:hi] for a in params] for params in layers], x[:, lo:hi], active)
        return itertools.chain([next(top)], top)

    bounds = [(S * k // width, S * (k + 1) // width) for k in range(width)]
    chains = [chain(lo, hi) for lo, hi in bounds]
    if width == 1:
        return _last(chains[0])
    with ThreadPoolExecutor(width - 1) as pool:
        others = [pool.submit(_last, c) for c in chains[1:]]
        parts = [_last(chains[0])] + [f.result() for f in others]
    return np.concatenate(parts)


def _back_chain(cell, layers, cache, top, dx0) -> list:
    """The mirror of the training chain: each layer's parameter gradients.

    One reverse step generator per layer, from t = T-1 down to 0. The top
    layer's upstream gradient is `top` at T-1 and one shared zero array
    after it. Layer l's input gradient at t, times the mask that dropped
    its input, is layer l-1's upstream gradient at t; it is written into
    one (S, B, H) scratch that layer l-1 reads before layer l's next step.
    Layer l > 0 recomputes its input from the state below, as the forward
    dropped it. Layer 0 writes its input gradient into dx0, or computes
    none when dx0 is None.
    """
    x, kept, masks, scale = cache["x"], cache["kept"], cache["masks"], cache["scale"]
    active, offsets = cache["active"], cache["offsets"]
    dhs = itertools.chain([top], itertools.repeat(np.zeros(top.shape), len(active) - 1))
    grads = [None] * len(layers)
    for layer in range(len(layers) - 1, -1, -1):
        if layer == 0:
            xs, dx = x[::-1], dx0
        else:
            xs = kept[layer - 1][-1][::-1]  # the states below, from T-1 down
            if masks is not None:
                xs = _dropped(xs, masks[layer - 1][::-1], scale)
            dx = np.zeros((1, *top.shape))
        gen = back_steps(cell, layers[layer], kept[layer], xs, dhs, active, offsets, dx)
        dhs = _keeping(gen, grads, layer)
        if layer and masks is not None:
            dhs = _dropped(dhs, masks[layer - 1][::-1], scale)
    _last(dhs)
    return grads


def forward(
    model: SequenceClassifier,
    batch: NormalizedBatch,
    training: bool = False,
    rng: np.random.Generator | None = None,
    spent: dict | None = None,
) -> tuple[np.ndarray, dict | None]:
    """Compute pre-softmax logits for a padded batch.

    The features, the recurrent stack's top-layer states at each sequence's
    last valid step or the stats MLP's per-channel minima and maxima over
    the valid steps, pass through one dense head: the stats MLP's hidden
    layers (FC, then ReLU), then the FC layer.

    training=True applies dropout (drawn from rng) between the recurrent
    layers and before the FC layer, and returns (logits, cache) for
    `backward`. training=False (inference) applies no dropout and returns
    (logits, None). Both step the recurrent layers together, one layer's
    state at t being the next layer's input at t. Training keeps each
    layer's BPTT stores. Its dropout masks are one byte per element
    (layers.dropout): the inter-layer masks all drawn before any layer
    steps, in layer order, as one slab draw per layer boundary would draw
    them, then the FC layer's mask. Inference keeps a
    two-slot ring of (S, B, H) states per layer, so no (T, S, B, H) array
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
    single-stack architectures (S = 1) start no thread. Training runs in
    the calling thread at width 1: per-block training threads were
    measured slower.

    spent, the cache of this model's previous training forward once
    `backward` is done with it, is handed over: forward empties it and
    writes the recurrent stores, the states and the inter-layer dropout
    masks over its memory, which grows only when this batch needs more
    rows or a longer T. The results are the same bits.
    """
    cfg = model.config
    if training and cfg.dropout > 0.0 and rng is None:
        raise ValueError(f"forward(training=True) at dropout {cfg.dropout} needs an rng")
    p = model.params
    scale = 1.0 / (1.0 - cfg.dropout)  # what dropout scales the kept elements by
    cache: dict = {"scale": scale}
    stores = None
    if spent:  # keep its stores; free the rest of it before this batch allocates
        stores = spent.pop("stores", None)
        spent.clear()
    if cfg.stacks:
        cell = _RECURRENT[cfg.architecture]
        x, order, ids = _recurrent_input(cfg, p, batch)
        lengths = batch.lengths[order]
        layers = [[p[n] for n in names] for names in _layer_names(cfg)]
        if training:
            if stores is None:  # one list per layer, then the inter-layer masks'
                stores = [[] for _ in range(cfg.layers + 1)]
            T, S, B, _ = x.shape
            active, offsets = active_rows(lengths, T, B)
            shape = (cfg.layers - 1, T, S, B, cfg.hidden)
            masks = dropout(shape, cfg.dropout, rng, stores=stores[-1])
            top, kept = _chain(cell, layers, x, active, offsets, stores, masks, scale)
            feats = _last(top)
            cache.update(
                stores=stores,
                x=x,
                kept=kept,
                masks=masks,
                active=active,
                offsets=offsets,
                order=order,
                lengths=lengths,
                ids=ids,  # for the embedding gradients
            )
        else:
            feats = _lockstep(cell, layers, x, lengths)
        S, B, H = feats.shape  # -> (B, S*H) features, stack s in columns [s*H, (s+1)*H)
        feats = feats.transpose(1, 0, 2).reshape(B, S * H)[np.argsort(order)]
    else:  # each channel's minimum and maximum over the valid steps
        x = batch.channels.astype(np.float64, copy=False)
        m3 = batch.mask()[:, :, None]
        mins = np.where(m3, x, np.inf).min(axis=1)
        maxs = np.where(m3, x, -np.inf).max(axis=1)
        feats = np.concatenate([mins, maxs], axis=1)

    hidden = []  # each MLP layer's name, input and pre-activation
    for name in _head(cfg)[:-1]:
        z = fc_forward(feats, p[f"{name}.W"], p[f"{name}.b"])
        hidden.append((name, feats, z))
        feats = relu_forward(z)
    if not training:
        return fc_forward(feats, p["fc.W"], p["fc.b"]), None
    fc_mask = dropout(feats.shape, cfg.dropout, rng)
    if fc_mask is not None:
        feats = feats * fc_mask
        feats *= scale
    cache.update(hidden=hidden, feats_d=feats, fc_mask=fc_mask)
    return fc_forward(feats, p["fc.W"], p["fc.b"]), cache


def backward(model: SequenceClassifier, cache: dict, dlogits: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of the loss w.r.t. every model parameter, the FC layer's first."""
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
    if cache["fc_mask"] is not None:
        dfeats *= cache["fc_mask"]
        dfeats *= cache["scale"]
    for name, h, z in reversed(cache["hidden"]):
        dw, dbias, dfeats = fc_backward(h, p[f"{name}.W"], relu_backward(z, dfeats))
        grads[f"{name}.W"] = dw
        grads[f"{name}.b"] = dbias

    if cfg.stacks:
        cell = _RECURRENT[cfg.architecture]
        names = _layer_names(cfg)
        x = cache["x"]
        _, S, B, _ = x.shape
        top = dfeats[cache["order"]].reshape(B, S, -1).transpose(1, 0, 2)
        dx0 = np.zeros(x.shape) if cell is GRU else None  # the LSTM's layer-0 dx has no reader
        dparams = _back_chain(cell, [[p[n] for n in ns] for ns in names], cache, top, dx0)
        for layer in range(cfg.layers - 1, -1, -1):  # top first: global_grad_norm sums in this order
            grads.update(zip(names[layer], dparams[layer]))
        _recurrent_input_backward(cfg, p, cache, dx0, grads)
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
    optimizer state was saved (its step count `adam_t` a non-negative
    integer), `meta` must be an object whose `epoch_losses`, if any, is a
    list of finite numbers, the payload must hold exactly the tensors'
    bytes, all finite, and its domain stats (unless the scheme is `none`)
    must be usable by normalization. Every refusal is a ValueError naming
    the path.
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
    adam_t, meta = header.get("adam_t"), header.get("meta", {})
    if adam_t is not None and (type(adam_t) is not int or adam_t < 0):  # refuses true, too
        raise ValueError(f"{path}: adam_t must be a non-negative integer, got {adam_t!r}")
    if not isinstance(meta, dict):
        raise ValueError(f"{path}: meta must be a JSON object, got {type(meta).__name__}")
    losses = meta.get("epoch_losses", [])  # a grid's checkpoints have none
    if not isinstance(losses, list) or not all(
        type(v) in (int, float) and math.isfinite(v) for v in losses  # true is no number
    ):
        raise ValueError(f"{path}: meta.epoch_losses must be a list of finite numbers")

    expected = {n: t.shape for n, t in build(cfg, seed=0).params.items()}
    if adam_t is not None:
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
        meta=meta,
        adam_t=adam_t,
        opt_tensors=opt_tensors or None,
    )
