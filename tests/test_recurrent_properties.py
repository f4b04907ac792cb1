"""Bit-for-bit properties of the grouped LSTM and GRU kernels.

Every comparison is on the raw bytes of the float64 arrays, so a last-digit
rounding change or a flipped sign of zero fails it.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from emitterclf.nn_core.recurrent import (
    GRU,
    LSTM,
    active_rows,
    back_steps,
    sequence_backward,
    sequence_forward,
    steps,
)
from reference_recurrent import (
    ref_gru_backward,
    ref_gru_forward,
    ref_lstm_backward,
    ref_lstm_forward,
)

CELLS = {cell.name: cell for cell in (LSTM, GRU)}

# each cell's oracle: the packed kernels the step loops replaced
REFERENCE = {
    "lstm": (ref_lstm_forward, ref_lstm_backward),
    "gru": (ref_gru_forward, ref_gru_backward),
}


@st.composite
def kernel_cases(draw, kinds=("none", "sorted", "ragged")):
    """A cell, its parameters, an input batch, lengths and an upstream gradient."""
    cell = draw(st.sampled_from(sorted(CELLS)))
    T = draw(st.integers(1, 9))
    S = draw(st.integers(1, 6))
    B = draw(st.integers(1, 9))
    H = draw(st.integers(1, 20))
    din = draw(st.sampled_from([1, 2, 3, 7]))
    kind = draw(st.sampled_from(kinds))
    scale = draw(st.sampled_from([1.0, 30.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    params = [p + 0.5 * rng.normal(size=p.shape) for p in CELLS[cell].init(S, din, H, rng)]
    x = scale * rng.normal(size=(T, S, B, din))
    if kind == "none":
        lengths = None
    elif kind == "sorted":
        lengths = np.full(B, T)
    else:  # non-increasing, and may stop short of T
        lengths = np.sort(rng.integers(1, T + 1, size=B))[::-1].copy()
    dh_seq = rng.normal(size=(T, S, B, H))
    return cell, params, x, lengths, dh_seq


def _run(cell, params, x, lengths, dh_seq, reference=False):
    if reference:
        ref_fwd, ref_bwd = REFERENCE[cell]
        h_seq, cache = ref_fwd(*params, x, lengths)
        return [h_seq, *ref_bwd(*params, cache, dh_seq)]
    h_seq, cache = sequence_forward(CELLS[cell], params, x, lengths)
    return [h_seq, *sequence_backward(CELLS[cell], params, cache, dh_seq)]


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@settings(max_examples=120, deadline=None)
@given(kernel_cases())
def test_kernels_match_reference_bit_for_bit(case):
    """h_seq and every gradient equal the packed reference kernels' bits."""
    got = _run(*case)
    want = _run(*case, reference=True)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert _same_bits(g, w)


@settings(max_examples=60, deadline=None)
@given(kernel_cases())
def test_grouped_stack_equals_independent_groups(case):
    """An S-group call equals S single-group calls, outputs and gradients."""
    cell, params, x, lengths, dh_seq = case
    grouped = _run(cell, params, x, lengths, dh_seq)
    h_seq, *dparams, dx = grouped
    for s in range(x.shape[1]):
        one = _run(
            cell, [p[s : s + 1] for p in params], x[:, s : s + 1], lengths, dh_seq[:, s : s + 1]
        )
        h_one, *dparams_one, dx_one = one
        assert _same_bits(np.ascontiguousarray(h_seq[:, s : s + 1]), h_one)
        assert _same_bits(np.ascontiguousarray(dx[:, s : s + 1]), dx_one)
        for d, d_one in zip(dparams, dparams_one):
            assert _same_bits(np.ascontiguousarray(d[s : s + 1]), d_one)


@settings(max_examples=80, deadline=None)
@given(kernel_cases())
def test_cacheless_forward_matches_caching_forward(case):
    """Stepping without offsets (one step of gate activations, the per-row
    stores and the state in two-slot rings, as inference runs) yields each
    step's state with the caching h_seq's bytes."""
    cell, params, x, lengths, _ = case
    h_seq, _ = sequence_forward(CELLS[cell], params, x, lengths)
    T, _, B, _ = x.shape
    active, _ = active_rows(lengths, T, B)
    t = -1
    for t, h in enumerate(steps(CELLS[cell], params, iter(x), active, None)):
        assert _same_bits(h, h_seq[t])  # before the ring reuses h's slot
    assert t == T - 1


def _back_run(cell, params, x, lengths, dh_seq, dx):
    """Drive back_steps over a caching forward's stores: (gradients, copies of what it yields)."""
    T, _, B, _ = x.shape
    active, offsets = active_rows(lengths, T, B)
    _, (_, *stores, _, _) = sequence_forward(CELLS[cell], params, x, lengths)
    gen = back_steps(CELLS[cell], params, stores, x[::-1], dh_seq[::-1], active, offsets, dx)
    yielded = []
    try:
        while True:
            dx_t = next(gen)
            yielded.append(None if dx_t is None else dx_t.copy())
    except StopIteration as done:
        return done.value, yielded


@settings(max_examples=60, deadline=None)
@given(kernel_cases(kinds=("ragged",)))
def test_back_steps_input_gradient_modes_keep_the_bits(case):
    """back_steps returns the same gradient bits whether it writes dx into a
    full (T, S, B, Din) array, into a one-step scratch or nowhere, and each
    step's scratch dx_t holds the full dx[t]'s bytes on its active rows."""
    cell, params, x, lengths, dh_seq = case
    T, S, B, din = x.shape
    active, _ = active_rows(lengths, T, B)
    full = np.zeros_like(x)
    want, _ = _back_run(cell, params, x, lengths, dh_seq, full)
    grads, yielded = _back_run(cell, params, x, lengths, dh_seq, None)
    assert yielded == [None] * T
    assert len(grads) == len(want) == len(params)
    assert all(_same_bits(g, w) for g, w in zip(grads, want))
    grads, yielded = _back_run(cell, params, x, lengths, dh_seq, np.zeros((1, S, B, din)))
    assert all(_same_bits(g, w) for g, w in zip(grads, want))
    assert len(yielded) == T
    for t, dx_t in zip(range(T - 1, -1, -1), yielded):
        n = active[t]
        assert _same_bits(np.ascontiguousarray(dx_t[:, :n]), np.ascontiguousarray(full[t, :, :n]))
