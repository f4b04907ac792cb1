"""Grouped LSTM and GRU layers with exact backpropagation through time.

All tensors carry a leading group axis S inside a time-major layout: one
layer object evaluates S independent parameter sets in lockstep via batched
matmuls. S = 1 recovers an ordinary layer; the attribute-specific
classifier uses one group per input channel. Inputs are (T, S, B, Din) and
outputs (T, S, B, H).

Variable lengths: batches are right-padded and ordered by non-increasing
valid length, and each timestep runs only on the still-active prefix of
batch rows. Past a sequence's valid length its hidden and cell state carry
over unchanged (the output rows repeat), so padded timesteps contribute
exactly zero to every parameter gradient and padding never alters results.

LSTM recurrence (per group, per step)::

    i = sigmoid(x W_i + h U_i + b_i)      input gate
    f = sigmoid(x W_f + h U_f + b_f)      forget gate
    o = sigmoid(x W_o + h U_o + b_o)      output gate
    g = tanh   (x W_g + h U_g + b_g)      candidate
    c_t = f * c_{t-1} + i * g
    h_t = o * tanh(c_t)

GRU recurrence (reset r, update u, candidate n)::

    r = sigmoid(x W_r + h U_r + b_r)
    u = sigmoid(x W_u + h U_u + b_u)
    n = tanh   (x W_n + (r * h) U_n + b_n)
    h_t = (1 - u) * n + u * h_{t-1}

Parameters keep the packed layout along the last axis: LSTM (i, f, o, g),
GRU (r, u, n), with U_ru holding (r, u).

Storage. Each step works on one contiguous gate-major slab
(gates, S, n, H), where n is the step's count of active rows, so every gate
is a contiguous array and not an H-wide strided slice of a (..., gates*H)
row. The forward pass keeps, for active rows only, what the backward pass
reads: the gate activations and the cell's per-row stores (the LSTM's
cell state and tanh(c), the GRU's r * h). Each of these is one flat slab
per call, and step t's block starts at row offset sum(active[:t]). A
per-row store is written straight into its slab and read back from there
at the next step (the LSTM's c_{t-1}). Only h_seq, the output, has all B
rows, and of it only the carried rows h_seq[t, :, n:] are copied each
step. Each store, h_seq included, is a view of a flat buffer that the
caller may keep from call to call in a store list (layers.reuse),
allocated in the order gate activations, per-row stores, h_seq: training
hands each batch the spent cache's buffers, reshaped to the batch, and a
buffer grows only when a batch needs more rows or a longer T. The
backward pass holds only per-step scratch of (S, B, ...) rows besides the
stores it reads, and writes each step's input gradient where its caller
asks: into a (T, S, B, Din) array, into a one-step scratch, or nowhere.

Steps. One generator per direction runs the loop for both cells: steps
forward, back_steps from t = T-1 down to 0. A Cell record (LSTM, GRU)
supplies only the cell's tensor names, gate counts, per-row stores,
initializer and per-step math; the generators own the halved sigmoid
columns, x W + b and the packed h U product, the stores, the active and
carried rows, the packed dz copy, the dh, dW, dU and db products and the
input gradient. steps takes each step's (S, B, Din) input and yields the
step's (S, B, H) state, carried rows included. With offsets it keeps
every step's stores and every state (h_seq), written over the previous
batch's when model.forward is handed that batch's spent cache; every store
is written before it is read, so the results do not depend on what the
buffers held. Without offsets it keeps one step of gate activations, and
each per-row store and the state in a two-slot ring, as step t reads step
t-1's. back_steps takes each step's input and the upstream gradient on its
state, and yields the step's input gradient. model.forward and
model.backward chain one generator per layer, in training as in
inference, so layer l's state at t is layer l+1's input at t, and layer
l+1's input gradient at t is layer l's upstream gradient at t.
sequence_forward and sequence_backward drive one generator over a whole
(T, S, B, Din) input; lstm_forward/lstm_backward and
gru_forward/gru_backward bind them to a cell. Every product and
elementwise pass keeps its shape and order, so the states and gradients
are bit-identical whichever way the generators are driven.
model.forward's inference also runs the groups in blocks, one generator
chain per block of groups over the parameter slices [lo:hi], in threads:
the groups never mix, and a stacked matmul is one product per group at
the shape it has in the whole S, so a block's states are the bits of its
groups in the whole S.

Sigmoid through tanh. sigmoid(z) = 0.5 * (tanh(z / 2) + 1) never overflows,
even for raw-unit inputs. The sigmoid gates' columns of W, U and b are
halved once per call, so their pre-activation comes out already halved and
one tanh covers the gates that h U feeds: all four LSTM gates, the GRU's
r and u (n needs r first).
Halving is exact in binary floating point: it changes only the exponent,
and rounding commutes with it. So x(W/2) + h(U/2) + b/2 equals
(xW + hU + b)/2 bit for bit, barring subnormal underflow.

Rounding. The kernels return the same bits as the packed kernels they
replaced, which tests/reference_recurrent.py keeps as the oracle.
Elementwise arithmetic is reordered only where IEEE rules keep it exact
(a + b = b + a, scaling by 0.5). Every BLAS product keeps its shape,
because OpenBLAS can round the same dot product differently when the
product's shape changes: splitting h U's output columns by gate, or
dropping padded rows from x W, changes bits for some sizes. Hence:

- h U is one (S, n, H) @ (S, H, k*H) product over the k gates it feeds
  (U_ru for the GRU), added into the gate-major slab through a strided
  view;
- with Din > 1, x_t W multiplies all B rows of the step and then keeps the
  active ones; with Din = 1 it stays an elementwise product (a K = 1
  matmul returns +0.0 where x * w is -0.0);
- the backward pass copies each step's gate-major dz into one packed
  (S, n, gates*H) array, so dh = dz[..., :k*H] U^T and dx = dz W^T still
  sum over the full inner dimension (the slice is all of dz for the LSTM),
  and dW, dU and db accumulate the same products and sums as before.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .layers import reuse

__all__ = [
    "LSTM",
    "GRU",
    "active_rows",
    "steps",
    "back_steps",
    "sequence_forward",
    "sequence_backward",
    "init_lstm_params",
    "lstm_forward",
    "lstm_backward",
    "init_gru_params",
    "gru_forward",
    "gru_backward",
]


def active_rows(lengths, T: int, B: int) -> tuple[list[int], list[int]]:
    """Rows active per step, and the row offset of each step's store block.

    Requires lengths sorted non-increasing. T may exceed the longest valid
    length (padding past every sequence); fully padded steps simply carry
    all states. offsets[t] = sum(active[:t]), so offsets[-1] is the total.
    """
    if lengths is None:
        active = [B] * T
    else:
        lengths = np.asarray(lengths, dtype=np.int64)
        if lengths.shape != (B,):
            raise ValueError(f"lengths must have shape ({B},)")
        if np.any(lengths[:-1] < lengths[1:]):
            raise ValueError("batch rows must be ordered by non-increasing valid length")
        if lengths[0] > T or lengths[-1] < 1:
            raise ValueError(f"valid lengths must lie in [1, {T}]")
        active = (np.arange(T)[:, None] < lengths[None, :]).sum(axis=1).tolist()
    return active, list(itertools.accumulate(active, initial=0))


def _halved(a, cols: int) -> np.ndarray:
    """Copy of packed weights with the first `cols` (sigmoid-gate) columns * 0.5."""
    out = a.copy()
    out[..., :cols] *= 0.5
    return out


def _gate_view(p, gates: int) -> np.ndarray:
    """Packed (S, m, gates*H) -> gate-major (gates, S, m, H) view."""
    S, m, GH = p.shape
    return p.reshape(S, m, gates, GH // gates).transpose(2, 0, 1, 3)


def _input_gates(out, x_t, W, b) -> None:
    """out = x_t W + b for the first n rows of one step; out: (gates, S, n, H)."""
    G, S, n, H = out.shape
    if x_t.shape[-1] == 1:
        np.multiply(x_t[:, :n], _gate_view(W, G), out=out)
        out += _gate_view(b[:, None], G)
    else:
        xw = np.matmul(x_t, W)  # all B rows: see the module docstring
        xw += b[:, None]
        out[...] = _gate_view(xw, G)[:, :, :n]


def init_lstm_params(groups: int, input_size: int, hidden_size: int, rng):
    """Uniform +/- 1/sqrt(h) weights; forget-gate bias 1, other biases 0."""
    k = 1.0 / math.sqrt(hidden_size)
    W = rng.uniform(-k, k, size=(groups, input_size, 4 * hidden_size))
    U = rng.uniform(-k, k, size=(groups, hidden_size, 4 * hidden_size))
    b = np.zeros((groups, 4 * hidden_size))
    b[:, hidden_size : 2 * hidden_size] = 1.0
    return W, U, b


def _lstm_step(a, hs, prev, rows, h):
    """c = f * c_{t-1} + i * g and h = o * tanh(c) on the step's active rows."""
    i, f, o, g = a
    c, tc = rows
    np.multiply(f, prev[0][:, : c.shape[1]], out=c)
    c += i * g
    np.tanh(c, out=tc)
    np.multiply(o, tc, out=h)


def _lstm_back(params, grads, shape):
    """The LSTM's backward step, closed over the cell state's gradient."""
    dc = np.zeros(shape)  # carried back from step t to t-1

    def step(a, dz, dh, h_prev, prev, rows):
        i, f, o, g = a
        n = dh.shape[1]
        tc = rows[1]
        dc_t = dc[:, :n]
        dcn = dh * o
        dcn *= 1.0 - tc * tc
        dcn += dc_t
        np.multiply(dcn, g, out=dz[0])
        np.multiply(dcn, prev[0][:, :n], out=dz[1])
        np.multiply(dh, tc, out=dz[2])
        np.multiply(dcn, i, out=dz[3])
        dz[3] *= 1.0 - g * g
        np.multiply(dcn, f, out=dc_t)

    return step


def init_gru_params(groups: int, input_size: int, hidden_size: int, rng):
    """Uniform +/- 1/sqrt(h) weights, zero biases. Returns (W, U_ru, U_n, b)."""
    k = 1.0 / math.sqrt(hidden_size)
    W = rng.uniform(-k, k, size=(groups, input_size, 3 * hidden_size))
    U_ru = rng.uniform(-k, k, size=(groups, hidden_size, 2 * hidden_size))
    U_n = rng.uniform(-k, k, size=(groups, hidden_size, hidden_size))
    b = np.zeros((groups, 3 * hidden_size))
    return W, U_ru, U_n, b


def _gru_step(a, hs, prev, rows, h, U_n):
    """n = tanh(x W_n + (r * h) U_n + b_n) and h = (1 - u) * n + u * h_{t-1}."""
    r, u, n_gate = a
    (rh,) = rows
    np.multiply(r, hs, out=rh)
    n_gate += np.matmul(rh, U_n)
    np.tanh(n_gate, out=n_gate)
    np.subtract(1.0, u, out=h)
    h *= n_gate
    h += u * hs


def _gru_back(params, grads, shape):
    """The GRU's backward step: U_n's products, and dh's direct terms."""
    U_n_t = np.ascontiguousarray(params[2].transpose(0, 2, 1))

    def step(a, dz, dh, h_prev, prev, rows):
        r, u, n_gate = a
        np.subtract(h_prev, n_gate, out=dz[1])
        dz[1] *= dh  # du
        dn = dh * (1.0 - u)
        direct = dh * u
        np.multiply(dn, 1.0 - n_gate * n_gate, out=dz[2])  # dz_n
        drh = np.matmul(dz[2], U_n_t)
        np.multiply(drh, h_prev, out=dz[0])  # dr
        direct += drh * r
        grads[2] += np.matmul(rows[0].transpose(0, 2, 1), dz[2])  # dU_n
        return direct

    return step


@dataclass(frozen=True)
class Cell:
    """A recurrent cell's layout and per-step math, for steps and back_steps.

    Parameters come in `suffixes` order as (W, U, *extra, b). The first
    `sigmoids` of the `gates` are sigmoid gates, the rest tanh; h U feeds
    the first U.shape[-1] // H gates. `rows` counts the per-row stores.

    step(a, hs, prev, rows, h, *extra) ends a forward step. a holds the
    step's (gates, S, n, H) gates, those that h U feeds already activated;
    hs holds h_{t-1} on the n active rows; prev and rows hold step t-1's
    and step t's per-row stores; the new state goes into h (S, n, H).

    back(params, grads, shape) returns the call's backward
    step(a, dz, dh, h_prev, prev, rows). It writes dz, leaving out the
    sigmoid derivative, adds its own products into grads, and returns the
    term that dh adds to dz U^T, or None.
    """

    name: str
    suffixes: tuple[str, ...]
    gates: int
    sigmoids: int
    rows: int
    init: Callable
    step: Callable
    back: Callable


LSTM = Cell("lstm", ("W", "U", "b"), 4, 3, 2, init_lstm_params, _lstm_step, _lstm_back)
GRU = Cell("gru", ("W", "U_ru", "U_n", "b"), 3, 2, 1, init_gru_params, _gru_step, _gru_back)


def steps(cell: Cell, params, xs, active, offsets, stores=None):
    """Step `cell` from a zero state: yield each step's (S, B, H) state.

    xs yields each step's (S, B, Din) input; active[t] counts its active
    rows. With offsets (see active_rows) every step's backward stores are
    kept, and step t's state, carried rows included, goes to h_out[t] (h_seq).
    offsets=None keeps one step of gate activations, and every per-row store
    and h_out in a two-slot ring. Returns (acts, *per-row stores, h_out).
    Given `stores`, a list kept from call to call (see layers.reuse), these
    are written over an earlier call's.
    """
    W, U, *extra, b = params
    S, H = U.shape[:2]
    G, K, sig = cell.gates, U.shape[-1] // H, cell.sigmoids
    B = active[0]  # every row is active at step 0
    W_h, U_h, b_h = (_halved(p, sig * H) for p in (W, U, b))
    blk = S * H
    keep = offsets is not None
    rows = offsets[-1] if keep else B
    stores = [] if stores is None else stores
    acts = reuse(stores, 0, (G * blk * rows,))
    size = blk * (rows if keep else 2 * B)  # without offsets, a two-step ring
    row_stores = [reuse(stores, 1 + k, (size,)) for k in range(cell.rows)]
    h_out = reuse(stores, 1 + cell.rows, (len(active) if keep else 2, S, B, H))  # last: lower RSS
    h_prev = np.zeros((S, B, H))
    prev = [h_prev] * cell.rows
    for t, x_t in enumerate(xs):
        n = active[t]
        lo = blk * offsets[t] if keep else 0
        a = acts[G * lo : G * (lo + blk * n)].reshape(G, S, n, H)
        _input_gates(a, x_t, W_h, b_h)
        hs = h_prev[:, :n]
        z = a[:K]
        z += _gate_view(np.matmul(hs, U_h), K)
        np.tanh(z, out=z)
        z = a[:sig]
        z += 1.0
        z *= 0.5
        lo = lo if keep else blk * B * (t % 2)  # step t reads step t-1's
        cur = [st[lo : lo + blk * n].reshape(S, n, H) for st in row_stores]
        h = h_out[t % len(h_out)]
        cell.step(a, hs, prev, cur, h[:, :n], *extra)
        if n < B:
            h[:, n:] = h_prev[:, n:]
        h_prev, prev = h, cur
        yield h
    return (acts, *row_stores, h_out)


def back_steps(cell: Cell, params, stores, xs, dhs, active, offsets, dx=None):
    """Step `steps`' gradients back from t = T-1 to 0: yield each step's dx.

    stores: what steps returned with offsets. xs and dhs yield, for
    t = T-1 down to 0, the step's (S, B, Din) input and the upstream
    gradient on its (S, B, H) state. dx_t goes to dx[t % len(dx)], where dx
    is (T, S, B, Din) or a (1, S, B, Din) scratch that the consumer reads
    before the next step; rows at or past active[t] are not written. With
    dx=None no dx is computed and each step yields None. Returns the
    parameter gradients in `params` order.
    """
    acts, *row_stores, h_seq = stores
    W, U, *_, b = params
    S, H = U.shape[:2]
    G, KH, sig = cell.gates, U.shape[-1], cell.sigmoids
    B = active[0]
    blk = S * H
    grads = [np.zeros_like(p) for p in params]
    dW, dU, db = grads[0], grads[1], grads[-1]
    step = cell.back(params, grads, (S, B, H))
    dh = np.zeros((S, B, H))
    zeros = np.zeros((S, B, H))
    dz_store = np.empty(G * blk * B)
    packed_store = np.empty(G * blk * B)
    Ut = np.ascontiguousarray(U.transpose(0, 2, 1))
    Wt = np.ascontiguousarray(W.transpose(0, 2, 1))
    t = len(active)
    for dh_up, x_t in zip(dhs, xs):  # dhs first: its end is the layer above's end
        t -= 1
        n = active[t]
        lo, hi = blk * offsets[t], blk * offsets[t + 1]
        a = acts[G * lo : G * hi].reshape(G, S, n, H)
        cur = [st[lo:hi].reshape(S, n, H) for st in row_stores]
        if t > 0:
            m = active[t - 1]
            prev = [st[lo - blk * m : lo].reshape(S, m, H) for st in row_stores]
            h_prev = h_seq[t - 1, :, :n]
        else:
            prev, h_prev = [zeros] * cell.rows, zeros[:, :n]
        dh += dh_up
        dh_t = dh[:, :n]
        dz = dz_store[: G * blk * n].reshape(G, S, n, H)
        direct = step(a, dz, dh_t, h_prev, prev, cur)
        dz[:sig] *= a[:sig]
        dz[:sig] *= 1.0 - a[:sig]
        # packed (S, n, G*H) copy: dz's matmuls below need the full inner dimension
        packed = packed_store[: G * blk * n].reshape(S, n, G, H)
        packed[...] = dz.transpose(1, 2, 0, 3)
        dz = packed.reshape(S, n, G * H)
        np.matmul(dz[..., :KH], Ut, out=dh_t)
        if direct is not None:
            dh_t += direct
        dW += np.matmul(x_t[:, :n].transpose(0, 2, 1), dz)
        dU += np.matmul(h_prev.transpose(0, 2, 1), dz[..., :KH])
        db += dz.sum(axis=1)
        if dx is None:
            yield None
            continue
        dx_t = dx[t % len(dx)]
        np.matmul(dz, Wt, out=dx_t[:, :n])
        yield dx_t
    return tuple(grads)


def _drain(gen):
    """Run a step generator to its end and return what it returns."""
    try:
        while True:
            next(gen)
    except StopIteration as done:
        return done.value


def sequence_forward(cell: Cell, params, x, lengths=None):
    """Run `cell` over a right-padded batch from a zero initial state.

    x: (T, S, B, Din); lengths: (B,) valid lengths sorted non-increasing, or
    None for a fully rectangular batch. Returns (h_seq, cache) where h_seq
    is (T, S, B, H) with the state carried unchanged past each sequence's
    valid length, and the cache feeds sequence_backward.
    """
    active, offsets = active_rows(lengths, x.shape[0], x.shape[2])
    kept = _drain(steps(cell, params, x, active, offsets))  # its stores, then h_seq
    return kept[-1], (x, *kept, active, offsets)


def sequence_backward(cell: Cell, params, cache, dh_seq):
    """Exact gradients of sequence_forward: (*parameter gradients, dx).

    dh_seq: (T, S, B, H) upstream gradient on every output row (gradients on
    carried rows flow back to the last active step).
    """
    x, *stores, active, offsets = cache
    dx = np.zeros_like(x)
    gen = back_steps(cell, params, stores, x[::-1], dh_seq[::-1], active, offsets, dx)
    return (*_drain(gen), dx)


# The whole-sequence pair bound to each cell, at the signatures that
# perfbench's tracer and the kernel tests call.
def lstm_forward(W, U, b, x, lengths=None):
    return sequence_forward(LSTM, (W, U, b), x, lengths)


def lstm_backward(W, U, b, cache, dh_seq):  # (dW, dU, db, dx)
    return sequence_backward(LSTM, (W, U, b), cache, dh_seq)


def gru_forward(W, U_ru, U_n, b, x, lengths=None):
    return sequence_forward(GRU, (W, U_ru, U_n, b), x, lengths)


def gru_backward(W, U_ru, U_n, b, cache, dh_seq):  # (dW, dU_ru, dU_n, db, dx)
    return sequence_backward(GRU, (W, U_ru, U_n, b), cache, dh_seq)
