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
reads: the gate activations, the LSTM cell state and tanh(c), the GRU's
r * h. Each of these is one flat slab per call, and step t's block starts
at row offset sum(active[:t]). The cell state is written straight into its
slab and read back from there as the previous state. Only h_seq, the
output, has all B rows, and of it only the carried rows h_seq[t, :, n:] are
copied each step. Each store, h_seq included, is a view of a flat buffer
that the caller may keep from call to call in a store list
(layers.reuse): training hands each batch the spent cache's buffers,
reshaped to the batch, and a buffer grows only when a batch needs more
rows or a longer T.

Steps. One generator per cell (lstm_steps, gru_steps) runs the loop: it
takes each step's (S, B, Din) input and yields the step's (S, B, H) state,
carried rows included. Training (lstm_forward, gru_forward) passes offsets
and keeps every step's stores and every state (h_seq), written over the
previous batch's when model.forward is handed that batch's spent cache;
every store is written before it is read, so the results do not depend on
what the buffers held. Inference (model.forward with training=False)
passes no offsets and chains one generator per layer, so layer l's state
at t is layer l+1's input at t: the stores shrink to one step of B rows,
the states to a two-slot ring, and the LSTM cell state alternates between
two blocks, as step t reads step t-1's c. Every product and elementwise
pass keeps its shape and order, so the states are bit-identical either
way. model.forward's inference also runs the groups in blocks, one
generator chain per block of groups over the parameter slices [lo:hi], in
threads: the groups never mix, and a stacked matmul is one product per
group at the shape it has in the whole S, so a block's states are the bits
of its groups in the whole S.

Sigmoid through tanh. sigmoid(z) = 0.5 * (tanh(z / 2) + 1), the formula of
`layers.sigmoid`. The sigmoid gates' columns of W, U and b are halved once
per call, so their pre-activation comes out already halved and one tanh
covers all four LSTM gates (the GRU's r and u; n needs r first). Halving is
exact in binary floating point: it changes only the exponent, and rounding
commutes with it. So x(W/2) + h(U/2) + b/2 equals (xW + hU + b)/2 bit for
bit, barring subnormal underflow.

Rounding. The kernels return the same bits as the packed kernels they
replaced, which tests/reference_recurrent.py keeps as the oracle.
Elementwise arithmetic is reordered only where IEEE rules keep it exact
(a + b = b + a, scaling by 0.5). Every BLAS product keeps its shape,
because OpenBLAS can round the same dot product differently when the
product's shape changes: splitting h U's output columns by gate, or
dropping padded rows from x W, changes bits for some sizes. Hence:

- h U is one (S, n, H) @ (S, H, gates*H) product, added into the
  gate-major slab through a strided view;
- with Din > 1, x_t W multiplies all B rows of the step and then keeps the
  active ones; with Din = 1 it stays an elementwise product (a K = 1
  matmul returns +0.0 where x * w is -0.0);
- the backward pass copies each step's gate-major dz into one packed
  (S, n, gates*H) array, so dh = dz U^T and dx = dz W^T still sum over the
  full gates*H inner dimension, and dW, dU and db accumulate the same
  products and sums as before.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .layers import reuse

__all__ = [
    "active_rows",
    "init_lstm_params",
    "lstm_steps",
    "lstm_forward",
    "lstm_backward",
    "init_gru_params",
    "gru_steps",
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


def _run_steps(step_fn, params, x, lengths, stores):
    """Drive a step generator over all of x (T, S, B, Din); see lstm_forward."""
    active, offsets = active_rows(lengths, x.shape[0], x.shape[2])
    steps = step_fn(*params, x, active, offsets, stores)
    try:
        while True:
            next(steps)
    except StopIteration as done:  # the generator returns its stores, then h_seq
        return done.value[-1], (x, *done.value, active, offsets)


def lstm_steps(W, U, b, xs, active, offsets, stores=None):
    """Step the LSTM from a zero state: yield each step's (S, B, H) state.

    xs yields each step's (S, B, Din) input; active[t] counts its active
    rows. With offsets (see active_rows) every step's backward stores are
    kept, and step t's state, carried rows included, goes to h_out[t] (h_seq).
    offsets=None keeps one step of scratch and a two-slot ring h_out[t % 2].
    Returns (acts, c_store, tc_store, h_out). Given `stores`, a list kept
    from call to call (see layers.reuse), these are written over an earlier
    call's.
    """
    S, H = U.shape[:2]
    B = active[0]  # every row is active at step 0
    W_h, U_h, b_h = (_halved(a, 3 * H) for a in (W, U, b))
    blk = S * H
    keep = offsets is not None
    rows = offsets[-1] if keep else B
    stores = [] if stores is None else stores
    acts = reuse(stores, 0, (4 * blk * rows,))  # (i, f, o, g) per step
    c_store = reuse(stores, 1, (blk * (rows if keep else 2 * B),))
    tc_store = reuse(stores, 2, (blk * rows,))
    h_out = reuse(stores, 3, (len(active) if keep else 2, S, B, H))  # after the stores: lower training RSS
    h_prev = c_prev = np.zeros((S, B, H))
    for t, x_t in enumerate(xs):
        n = active[t]
        lo = blk * offsets[t] if keep else 0
        hi = lo + blk * n
        a = acts[4 * lo : 4 * hi].reshape(4, S, n, H)
        _input_gates(a, x_t, W_h, b_h)
        a += _gate_view(np.matmul(h_prev[:, :n], U_h), 4)
        np.tanh(a, out=a)
        sig = a[:3]
        sig += 1.0
        sig *= 0.5
        i, f, o, g = a
        c_lo = lo if keep else blk * B * (t % 2)  # step t reads step t-1's c
        c = c_store[c_lo : c_lo + blk * n].reshape(S, n, H)
        np.multiply(f, c_prev[:, :n], out=c)
        c += i * g
        tc = tc_store[lo:hi].reshape(S, n, H)
        np.tanh(c, out=tc)
        h = h_out[t % len(h_out)]
        np.multiply(o, tc, out=h[:, :n])
        if n < B:
            h[:, n:] = h_prev[:, n:]
        h_prev, c_prev = h, c
        yield h
    return acts, c_store, tc_store, h_out


def lstm_forward(W, U, b, x, lengths=None, stores=None):
    """Run the LSTM over a right-padded batch from a zero initial state.

    x: (T, S, B, Din); lengths: (B,) valid lengths sorted non-increasing, or
    None for a fully rectangular batch. Returns (h_seq, cache) where h_seq
    is (T, S, B, H) with the state carried unchanged past each sequence's
    valid length, and the cache feeds lstm_backward. Given `stores`, a list
    kept from call to call (see layers.reuse), h_seq and the cache's stores
    are written over those of the previous call, which must be dead; the
    results are the same bits.
    """
    return _run_steps(lstm_steps, (W, U, b), x, lengths, stores)


def lstm_backward(W, U, b, cache, dh_seq):
    """Exact gradients of lstm_forward.

    dh_seq: (T, S, B, H) upstream gradient on every output row (gradients on
    carried rows flow back to the last active step). Returns
    (dW, dU, db, dx).
    """
    x, acts, c_store, tc_store, h_seq, active, offsets = cache
    T, S, B, Din = x.shape
    H = U.shape[1]
    blk = S * H
    dx = np.zeros_like(x)
    dW = np.zeros_like(W)
    dU = np.zeros_like(U)
    db = np.zeros_like(b)
    dh = np.zeros((S, B, H))
    dc = np.zeros((S, B, H))
    zeros = np.zeros((S, B, H))
    dz_store = np.empty(4 * blk * B)
    packed_store = np.empty(4 * blk * B)
    Ut = np.ascontiguousarray(U.transpose(0, 2, 1))
    Wt = np.ascontiguousarray(W.transpose(0, 2, 1))
    for t in range(T - 1, -1, -1):
        n = active[t]
        lo, hi = blk * offsets[t], blk * offsets[t + 1]
        a = acts[4 * lo : 4 * hi].reshape(4, S, n, H)
        i, f, o, g = a
        tc = tc_store[lo:hi].reshape(S, n, H)
        if t > 0:
            c_prev = c_store[blk * offsets[t - 1] : lo].reshape(S, active[t - 1], H)[:, :n]
            h_prev = h_seq[t - 1, :, :n]
        else:
            c_prev = h_prev = zeros[:, :n]
        dh += dh_seq[t]
        dh_t = dh[:, :n]
        dc_t = dc[:, :n]
        dcn = dh_t * o
        dcn *= 1.0 - tc * tc
        dcn += dc_t
        dz = dz_store[: 4 * blk * n].reshape(4, S, n, H)
        np.multiply(dcn, g, out=dz[0])
        np.multiply(dcn, c_prev, out=dz[1])
        np.multiply(dh_t, tc, out=dz[2])
        dz[:3] *= a[:3]
        dz[:3] *= 1.0 - a[:3]
        np.multiply(dcn, i, out=dz[3])
        dz[3] *= 1.0 - g * g
        np.multiply(dcn, f, out=dc_t)
        # packed (S, n, 4H) copy: dz's matmuls below need the full 4H inner dimension
        packed = packed_store[: 4 * blk * n].reshape(S, n, 4, H)
        packed[...] = dz.transpose(1, 2, 0, 3)
        dz = packed.reshape(S, n, 4 * H)
        np.matmul(dz, Ut, out=dh_t)
        dW += np.matmul(x[t, :, :n].transpose(0, 2, 1), dz)
        dU += np.matmul(h_prev.transpose(0, 2, 1), dz)
        db += dz.sum(axis=1)
        np.matmul(dz, Wt, out=dx[t, :, :n])
    return dW, dU, db, dx


def init_gru_params(groups: int, input_size: int, hidden_size: int, rng):
    """Uniform +/- 1/sqrt(h) weights, zero biases. Returns (W, U_ru, U_n, b)."""
    k = 1.0 / math.sqrt(hidden_size)
    W = rng.uniform(-k, k, size=(groups, input_size, 3 * hidden_size))
    U_ru = rng.uniform(-k, k, size=(groups, hidden_size, 2 * hidden_size))
    U_n = rng.uniform(-k, k, size=(groups, hidden_size, hidden_size))
    b = np.zeros((groups, 3 * hidden_size))
    return W, U_ru, U_n, b


def gru_steps(W, U_ru, U_n, b, xs, active, offsets, stores=None):
    """Step the GRU; mirrors lstm_steps and returns (acts, rh_store, h_out)."""
    S, H = U_n.shape[:2]
    B = active[0]
    W_h, U_h, b_h = (_halved(a, 2 * H) for a in (W, U_ru, b))
    blk = S * H
    keep = offsets is not None
    rows = offsets[-1] if keep else B
    stores = [] if stores is None else stores
    acts = reuse(stores, 0, (3 * blk * rows,))  # (r, u, n) per step
    rh_store = reuse(stores, 1, (blk * rows,))
    h_out = reuse(stores, 2, (len(active) if keep else 2, S, B, H))
    h_prev = np.zeros((S, B, H))
    for t, x_t in enumerate(xs):
        n = active[t]
        lo = blk * offsets[t] if keep else 0
        hi = lo + blk * n
        a = acts[3 * lo : 3 * hi].reshape(3, S, n, H)
        hs = h_prev[:, :n]
        _input_gates(a, x_t, W_h, b_h)
        ru = a[:2]
        ru += _gate_view(np.matmul(hs, U_h), 2)
        np.tanh(ru, out=ru)
        ru += 1.0
        ru *= 0.5
        r, u, n_gate = a
        rh = rh_store[lo:hi].reshape(S, n, H)
        np.multiply(r, hs, out=rh)
        n_gate += np.matmul(rh, U_n)
        np.tanh(n_gate, out=n_gate)
        h = h_out[t % len(h_out)]
        hn = h[:, :n]
        np.subtract(1.0, u, out=hn)
        hn *= n_gate
        hn += u * hs
        if n < B:
            h[:, n:] = h_prev[:, n:]
        h_prev = h
        yield h
    return acts, rh_store, h_out


def gru_forward(W, U_ru, U_n, b, x, lengths=None, stores=None):
    """Run the GRU over a right-padded batch; mirrors lstm_forward."""
    return _run_steps(gru_steps, (W, U_ru, U_n, b), x, lengths, stores)


def gru_backward(W, U_ru, U_n, b, cache, dh_seq):
    """Exact gradients of gru_forward. Returns (dW, dU_ru, dU_n, db, dx)."""
    x, acts, rh_store, h_seq, active, offsets = cache
    T, S, B, Din = x.shape
    H = U_n.shape[1]
    blk = S * H
    dx = np.zeros_like(x)
    dW = np.zeros_like(W)
    dU_ru = np.zeros_like(U_ru)
    dU_n = np.zeros_like(U_n)
    db = np.zeros_like(b)
    dh = np.zeros((S, B, H))
    zeros = np.zeros((S, B, H))
    dz_store = np.empty(3 * blk * B)
    packed_store = np.empty(3 * blk * B)
    U_ru_t = np.ascontiguousarray(U_ru.transpose(0, 2, 1))
    U_n_t = np.ascontiguousarray(U_n.transpose(0, 2, 1))
    Wt = np.ascontiguousarray(W.transpose(0, 2, 1))
    for t in range(T - 1, -1, -1):
        n = active[t]
        lo, hi = blk * offsets[t], blk * offsets[t + 1]
        a = acts[3 * lo : 3 * hi].reshape(3, S, n, H)
        r, u, n_gate = a
        rh = rh_store[lo:hi].reshape(S, n, H)
        h_prev = h_seq[t - 1, :, :n] if t > 0 else zeros[:, :n]
        dh += dh_seq[t]
        dh_t = dh[:, :n]
        dz = dz_store[: 3 * blk * n].reshape(3, S, n, H)
        np.subtract(h_prev, n_gate, out=dz[1])
        dz[1] *= dh_t  # du
        dn = dh_t * (1.0 - u)
        dh_prev = dh_t * u
        np.multiply(dn, 1.0 - n_gate * n_gate, out=dz[2])  # dz_n
        drh = np.matmul(dz[2], U_n_t)
        np.multiply(drh, h_prev, out=dz[0])  # dr
        dh_prev += drh * r
        dz[:2] *= a[:2]
        dz[:2] *= 1.0 - a[:2]
        dU_n += np.matmul(rh.transpose(0, 2, 1), dz[2])
        # packed (S, n, 3H) copy: dz's matmuls below need the full 3H inner dimension
        packed = packed_store[: 3 * blk * n].reshape(S, n, 3, H)
        packed[...] = dz.transpose(1, 2, 0, 3)
        dz = packed.reshape(S, n, 3 * H)
        np.matmul(dz[..., : 2 * H], U_ru_t, out=dh_t)
        dh_t += dh_prev
        dW += np.matmul(x[t, :, :n].transpose(0, 2, 1), dz)
        dU_ru += np.matmul(h_prev.transpose(0, 2, 1), dz[..., : 2 * H])
        db += dz.sum(axis=1)
        np.matmul(dz, Wt, out=dx[t, :, :n])
    return dW, dU_ru, dU_n, db, dx
