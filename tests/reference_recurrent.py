"""Reference recurrent kernels for the bit-identity oracle tests.

A frozen copy of the grouped LSTM and GRU kernels as they were before the
gate-major rewrite of `emitterclf.nn_core.recurrent`: packed (..., gates*H)
slabs over all B rows, a (T, S, B, gates*H) input projection built up
front, and full-width state copies every step. The tests require the
production kernels to return the same outputs and gradients bit for bit.
Not collected by pytest (no `test_` prefix); do not optimise it.
"""

from __future__ import annotations

import numpy as np


def sigmoid(x):
    # as emitterclf.nn_core.layers.sigmoid
    return 0.5 * (np.tanh(0.5 * x) + 1.0)


def _active_counts(lengths, T: int, B: int) -> np.ndarray:
    """Rows active per step; requires lengths sorted non-increasing.

    T may exceed the longest valid length (padding past every sequence);
    fully padded steps simply carry all states.
    """
    if lengths is None:
        return np.full(T, B, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.shape != (B,):
        raise ValueError(f"lengths must have shape ({B},)")
    if np.any(lengths[:-1] < lengths[1:]):
        raise ValueError("batch rows must be ordered by non-increasing valid length")
    if lengths[0] > T or lengths[-1] < 1:
        raise ValueError(f"valid lengths must lie in [1, {T}]")
    return (np.arange(T)[:, None] < lengths[None, :]).sum(axis=1)


def _input_transform(x, W, b):
    """xW + b for all steps at once; (T, S, B, Din) -> (T, S, B, gates)."""
    if x.shape[-1] == 1:
        out = x * W[:, 0][None, :, None, :]
    else:
        out = np.matmul(x, W)
    out += b[:, None, :]
    return out


def ref_lstm_forward(W, U, b, x, lengths=None):
    """Run the LSTM over a right-padded batch from a zero initial state.

    x: (T, S, B, Din); lengths: (B,) valid lengths sorted non-increasing, or
    None for a fully rectangular batch. Returns (h_seq, cache) where h_seq
    is (T, S, B, H) with the state carried unchanged past each sequence's
    valid length.
    """
    T, S, B, Din = x.shape
    H = U.shape[1]
    active = _active_counts(lengths, T, B)
    gates = _input_transform(x, W, b)  # also becomes the activation store
    c_seq = np.empty((T, S, B, H))
    tanh_c = np.empty((T, S, B, H))
    h_seq = np.empty((T, S, B, H))
    h = np.zeros((S, B, H))
    c = np.zeros((S, B, H))
    h_init, c_init = h.copy(), c.copy()
    for t in range(T):
        n = int(active[t])
        z = gates[t, :, :n]
        z += np.matmul(h[:, :n], U)
        sig = sigmoid(z[..., : 3 * H])
        i = sig[..., :H]
        f = sig[..., H : 2 * H]
        o = sig[..., 2 * H :]
        g = np.tanh(z[..., 3 * H :])
        c_new = f * c[:, :n] + i * g
        tc = np.tanh(c_new)
        c[:, :n] = c_new
        h[:, :n] = o * tc
        z[..., : 3 * H] = sig
        z[..., 3 * H :] = g
        tanh_c[t, :, :n] = tc
        c_seq[t] = c
        h_seq[t] = h
    cache = (x, gates, c_seq, tanh_c, h_seq, active, h_init, c_init)
    return h_seq, cache


def ref_lstm_backward(W, U, b, cache, dh_seq):
    """Exact gradients of lstm_forward.

    dh_seq: (T, S, B, H) upstream gradient on every output row (gradients on
    carried rows flow back to the last active step). Returns
    (dW, dU, db, dx). Consumes the cache: gate activations are overwritten.
    """
    x, gates, c_seq, tanh_c, h_seq, active, h_init, c_init = cache
    T, S, B, Din = x.shape
    H = U.shape[1]
    dx = np.zeros_like(x)
    dW = np.zeros_like(W)
    dU = np.zeros_like(U)
    db = np.zeros_like(b)
    dh = np.zeros((S, B, H))
    dc = np.zeros((S, B, H))
    Ut = np.ascontiguousarray(U.transpose(0, 2, 1))
    Wt = np.ascontiguousarray(W.transpose(0, 2, 1))
    for t in range(T - 1, -1, -1):
        n = int(active[t])
        dh += dh_seq[t]
        dh_t = dh[:, :n]
        dc_t = dc[:, :n]
        g_t = gates[t, :, :n]
        i = g_t[..., :H]
        f = g_t[..., H : 2 * H]
        o = g_t[..., 2 * H : 3 * H]
        g = g_t[..., 3 * H :]
        tc = tanh_c[t, :, :n]
        c_prev = (c_seq[t - 1] if t > 0 else c_init)[:, :n]
        h_prev = (h_seq[t - 1] if t > 0 else h_init)[:, :n]
        do = dh_t * tc
        dcn = dc_t + dh_t * o * (1.0 - tc * tc)
        dz = np.empty((S, n, 4 * H))
        dz[..., :H] = (dcn * g) * i * (1.0 - i)
        dz[..., H : 2 * H] = (dcn * c_prev) * f * (1.0 - f)
        dz[..., 2 * H : 3 * H] = do * o * (1.0 - o)
        dz[..., 3 * H :] = (dcn * i) * (1.0 - g * g)
        dc[:, :n] = dcn * f
        dh[:, :n] = np.matmul(dz, Ut)
        dW += np.matmul(x[t, :, :n].transpose(0, 2, 1), dz)
        dU += np.matmul(h_prev.transpose(0, 2, 1), dz)
        db += dz.sum(axis=1)
        dx[t, :, :n] = np.matmul(dz, Wt)
    return dW, dU, db, dx


def ref_gru_forward(W, U_ru, U_n, b, x, lengths=None):
    """Run the GRU over a right-padded batch; mirrors lstm_forward."""
    T, S, B, Din = x.shape
    H = U_n.shape[1]
    active = _active_counts(lengths, T, B)
    gates = _input_transform(x, W, b)
    rh_seq = np.empty((T, S, B, H))
    h_seq = np.empty((T, S, B, H))
    h = np.zeros((S, B, H))
    h_init = h.copy()
    for t in range(T):
        n = int(active[t])
        hs = h[:, :n]
        z = gates[t, :, :n]
        z_ru = z[..., : 2 * H]
        z_ru += np.matmul(hs, U_ru)
        ru = sigmoid(z_ru)
        r = ru[..., :H]
        u = ru[..., H:]
        rh = r * hs
        z_n = z[..., 2 * H :]
        z_n += np.matmul(rh, U_n)
        n_gate = np.tanh(z_n)
        h[:, :n] = (1.0 - u) * n_gate + u * hs
        z[..., : 2 * H] = ru
        z[..., 2 * H :] = n_gate
        rh_seq[t, :, :n] = rh
        h_seq[t] = h
    cache = (x, gates, rh_seq, h_seq, active, h_init)
    return h_seq, cache


def ref_gru_backward(W, U_ru, U_n, b, cache, dh_seq):
    """Exact gradients of gru_forward. Returns (dW, dU_ru, dU_n, db, dx)."""
    x, gates, rh_seq, h_seq, active, h_init = cache
    T, S, B, Din = x.shape
    H = U_n.shape[1]
    dx = np.zeros_like(x)
    dW = np.zeros_like(W)
    dU_ru = np.zeros_like(U_ru)
    dU_n = np.zeros_like(U_n)
    db = np.zeros_like(b)
    dh = np.zeros((S, B, H))
    U_ru_t = np.ascontiguousarray(U_ru.transpose(0, 2, 1))
    U_n_t = np.ascontiguousarray(U_n.transpose(0, 2, 1))
    Wt = np.ascontiguousarray(W.transpose(0, 2, 1))
    for t in range(T - 1, -1, -1):
        n = int(active[t])
        dh += dh_seq[t]
        dh_t = dh[:, :n]
        g_t = gates[t, :, :n]
        r = g_t[..., :H]
        u = g_t[..., H : 2 * H]
        n_gate = g_t[..., 2 * H :]
        h_prev = (h_seq[t - 1] if t > 0 else h_init)[:, :n]
        du = dh_t * (h_prev - n_gate)
        dn = dh_t * (1.0 - u)
        dh_prev = dh_t * u
        dz_n = dn * (1.0 - n_gate * n_gate)
        drh = np.matmul(dz_n, U_n_t)
        dr = drh * h_prev
        dh_prev += drh * r
        dz = np.empty((S, n, 3 * H))
        dz[..., :H] = dr * r * (1.0 - r)
        dz[..., H : 2 * H] = du * u * (1.0 - u)
        dz[..., 2 * H :] = dz_n
        dh[:, :n] = np.matmul(dz[..., : 2 * H], U_ru_t) + dh_prev
        dW += np.matmul(x[t, :, :n].transpose(0, 2, 1), dz)
        dU_ru += np.matmul(h_prev.transpose(0, 2, 1), dz[..., : 2 * H])
        dU_n += np.matmul(rh_seq[t, :, :n].transpose(0, 2, 1), dz_n)
        db += dz.sum(axis=1)
        dx[t, :, :n] = np.matmul(dz, Wt)
    return dW, dU_ru, dU_n, db, dx
