"""Bit-for-bit properties of the grouped LSTM and GRU kernels.

Every comparison is on the raw bytes of the float64 arrays, so a last-digit
rounding change or a flipped sign of zero fails it.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from emitterclf.nn_core import (
    gru_backward,
    gru_forward,
    init_gru_params,
    init_lstm_params,
    lstm_backward,
    lstm_forward,
)
from reference_recurrent import (
    ref_gru_backward,
    ref_gru_forward,
    ref_lstm_backward,
    ref_lstm_forward,
)

CELLS = {
    "lstm": (init_lstm_params, lstm_forward, lstm_backward, ref_lstm_forward, ref_lstm_backward),
    "gru": (init_gru_params, gru_forward, gru_backward, ref_gru_forward, ref_gru_backward),
}


@st.composite
def kernel_cases(draw):
    """A cell, its parameters, an input batch, lengths and an upstream gradient."""
    cell = draw(st.sampled_from(sorted(CELLS)))
    T = draw(st.integers(1, 9))
    S = draw(st.integers(1, 6))
    B = draw(st.integers(1, 9))
    H = draw(st.integers(1, 20))
    din = draw(st.sampled_from([1, 2, 3, 7]))
    kind = draw(st.sampled_from(["none", "sorted", "ragged"]))
    scale = draw(st.sampled_from([1.0, 30.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    params = [p + 0.5 * rng.normal(size=p.shape) for p in CELLS[cell][0](S, din, H, rng)]
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
    _, fwd, bwd, ref_fwd, ref_bwd = CELLS[cell]
    if reference:
        fwd, bwd = ref_fwd, ref_bwd
    h_seq, cache = fwd(*params, x, lengths)
    return [h_seq, *bwd(*params, cache, dh_seq)]


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
    """keep_cache=False returns the same h_seq bytes and no cache."""
    cell, params, x, lengths, _ = case
    fwd = CELLS[cell][1]
    h_seq, _ = fwd(*params, x, lengths)
    h_free, cache = fwd(*params, x, lengths, keep_cache=False)
    assert cache is None
    assert _same_bits(h_free, h_seq)
