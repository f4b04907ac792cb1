import math
import mmap
import os
import tracemalloc
import types
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emitterclf.nn_core import (
    Adam,
    clip_gradients,
    dropout,
    embedding_backward,
    fc_backward,
    fc_forward,
    global_grad_norm,
    gru_backward,
    gru_forward,
    init_gru_params,
    init_lstm_params,
    lstm_backward,
    lstm_forward,
    median_frequency_weights,
    softmax,
    weighted_cross_entropy,
)
from emitterclf.nn_core import layers, recurrent
from emitterclf.seeding import derive_rng
from reference_model import ref_dropout

EPS = 1e-5
TOL = 1e-4


def numeric_grad(loss_fn, array):
    """Central finite differences of a scalar loss w.r.t. one array."""
    grad = np.zeros_like(array)
    flat, gflat = array.ravel(), grad.ravel()
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + EPS
        lp = loss_fn()
        flat[i] = old - EPS
        lm = loss_fn()
        flat[i] = old
        gflat[i] = (lp - lm) / (2 * EPS)
    return grad


def max_rel_err(analytic, numeric):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
    return float(np.max(np.abs(analytic - numeric) / denom))


def _perturbed_lstm(rng, groups, din, hidden):
    w, u, b = init_lstm_params(groups, din, hidden, rng)
    w += rng.normal(scale=0.3, size=w.shape)
    u += rng.normal(scale=0.3, size=u.shape)
    b += rng.normal(scale=0.3, size=b.shape)
    return w, u, b


def _perturbed_gru(rng, groups, din, hidden):
    w, u_ru, u_n, b = init_gru_params(groups, din, hidden, rng)
    w += rng.normal(scale=0.3, size=w.shape)
    u_ru += rng.normal(scale=0.3, size=u_ru.shape)
    u_n += rng.normal(scale=0.3, size=u_n.shape)
    b += rng.normal(scale=0.3, size=b.shape)
    return w, u_ru, u_n, b


def test_lstm_zero_params_fixed_point():
    x = derive_rng(0).normal(size=(6, 2, 3, 2))
    w = np.zeros((2, 2, 16))
    u = np.zeros((2, 4, 16))
    b = np.zeros((2, 16))
    h_seq, _ = lstm_forward(w, u, b, x)
    assert np.all(h_seq == 0.0)


def test_lstm_scalar_hand_check():
    """Single step, scalar cell, against a hand-evaluated recurrence."""
    w = np.full((1, 1, 4), 0.5)
    u = np.zeros((1, 1, 4))
    b = np.array([[0.1, 0.2, 0.3, 0.4]])  # gate order (i, f, o, g)
    x = np.array([[[[2.0]]]])
    h_seq, _ = lstm_forward(w, u, b, x)
    i = 1.0 / (1.0 + math.exp(-(0.5 * 2.0 + 0.1)))
    o = 1.0 / (1.0 + math.exp(-(0.5 * 2.0 + 0.3)))
    g = math.tanh(0.5 * 2.0 + 0.4)
    c = i * g  # f * c0 vanishes
    expect = o * math.tanh(c)
    assert h_seq[0, 0, 0, 0] == pytest.approx(expect, rel=1e-12)


def test_lstm_matches_stepwise_cell():
    """T=5 outputs equal naive per-step evaluation of the recurrence."""
    rng = derive_rng(3)
    w, u, b = _perturbed_lstm(rng, 2, 3, 4)
    x = rng.normal(size=(5, 2, 2, 3))
    h_seq, _ = lstm_forward(w, u, b, x)
    h = np.zeros((2, 2, 4))
    c = np.zeros((2, 2, 4))
    for t in range(5):
        z = np.matmul(x[t], w) + np.matmul(h, u) + b[:, None, :]
        i = 1.0 / (1.0 + np.exp(-z[..., :4]))
        f = 1.0 / (1.0 + np.exp(-z[..., 4:8]))
        o = 1.0 / (1.0 + np.exp(-z[..., 8:12]))
        g = np.tanh(z[..., 12:])
        c = f * c + i * g
        h = o * np.tanh(c)
        assert np.allclose(h_seq[t], h, atol=1e-12)


def test_lstm_state_carry_past_valid_length():
    rng = derive_rng(4)
    w, u, b = _perturbed_lstm(rng, 1, 2, 3)
    x = rng.normal(size=(6, 1, 2, 2))
    lengths = np.array([6, 3])
    h_seq, _ = lstm_forward(w, u, b, x, lengths)
    assert np.array_equal(h_seq[3, :, 1], h_seq[2, :, 1])
    assert np.array_equal(h_seq[5, :, 1], h_seq[2, :, 1])
    assert not np.array_equal(h_seq[5, :, 0], h_seq[2, :, 0])


@pytest.mark.parametrize("use_lengths", [False, True])
def test_lstm_gradients_match_finite_differences(use_lengths):
    rng = derive_rng(5)
    for trial in range(3):
        t_len, s, b_sz, din, hidden = 6, 2, 3, 2, 3
        w, u, b = _perturbed_lstm(rng, s, din, hidden)
        x = rng.normal(size=(t_len, s, b_sz, din))
        lengths = np.array([6, 4, 2]) if use_lengths else None
        proj = rng.normal(size=(t_len, s, b_sz, hidden))

        def loss():
            h, _ = lstm_forward(w, u, b, x, lengths)
            return float((h * proj).sum())

        _, cache = lstm_forward(w, u, b, x, lengths)
        dw, du, db, dx = lstm_backward(w, u, b, cache, proj)
        for analytic, arr in [(dw, w), (du, u), (db, b), (dx, x)]:
            assert max_rel_err(analytic, numeric_grad(loss, arr)) < TOL


def test_lstm_zero_upstream_zero_grads():
    rng = derive_rng(6)
    w, u, b = _perturbed_lstm(rng, 1, 2, 3)
    x = rng.normal(size=(4, 1, 2, 2))
    _, cache = lstm_forward(w, u, b, x)
    dw, du, db, dx = lstm_backward(w, u, b, cache, np.zeros((4, 1, 2, 3)))
    assert not dw.any() and not du.any() and not db.any() and not dx.any()


def test_lstm_gradient_linearity():
    """Gradient of a sum over two sequences equals the sum of gradients."""
    rng = derive_rng(7)
    w, u, b = _perturbed_lstm(rng, 1, 2, 3)
    xs = [rng.normal(size=(4, 1, 1, 2)) for _ in range(2)]
    projs = [rng.normal(size=(4, 1, 1, 3)) for _ in range(2)]
    parts = []
    for x, proj in zip(xs, projs):
        _, cache = lstm_forward(w, u, b, x)
        parts.append(lstm_backward(w, u, b, cache, proj))
    x_both = np.concatenate(xs, axis=2)
    proj_both = np.concatenate(projs, axis=2)
    _, cache = lstm_forward(w, u, b, x_both)
    dw, du, db, _ = lstm_backward(w, u, b, cache, proj_both)
    assert np.allclose(dw, parts[0][0] + parts[1][0], atol=1e-12)
    assert np.allclose(du, parts[0][1] + parts[1][1], atol=1e-12)
    assert np.allclose(db, parts[0][2] + parts[1][2], atol=1e-12)


def test_gru_zero_params_fixed_point():
    x = derive_rng(8).normal(size=(5, 1, 2, 2))
    w = np.zeros((1, 2, 9))
    u_ru = np.zeros((1, 3, 6))
    u_n = np.zeros((1, 3, 3))
    b = np.zeros((1, 9))
    h_seq, _ = gru_forward(w, u_ru, u_n, b, x)
    assert np.all(h_seq == 0.0)


def test_gru_scalar_hand_check():
    w = np.full((1, 1, 3), 0.5)
    u_ru = np.zeros((1, 1, 2))
    u_n = np.zeros((1, 1, 1))
    b = np.array([[0.1, 0.2, 0.3]])  # gate order (r, u, n)
    x = np.array([[[[2.0]]]])
    h_seq, _ = gru_forward(w, u_ru, u_n, b, x)
    upd = 1.0 / (1.0 + math.exp(-(0.5 * 2.0 + 0.2)))
    n = math.tanh(0.5 * 2.0 + 0.3)  # r * h0 term vanishes
    expect = (1.0 - upd) * n
    assert h_seq[0, 0, 0, 0] == pytest.approx(expect, rel=1e-12)


def test_recurrent_gates_saturate_for_huge_inputs():
    """Pre-activations of +/-1e6 (raw-unit inputs are huge) give finite states,
    with every sigmoid gate at exactly 0 or 1."""
    x = np.array([1e6, -1e6]).reshape(1, 1, 2, 1)  # T=1, S=1, B=2, Din=1
    h_seq, _ = lstm_forward(np.ones((1, 1, 4)), np.zeros((1, 1, 4)), np.zeros((1, 4)), x)
    # +1e6: i = f = o = g = 1, so c = 1; -1e6: i = f = o = 0, so c = h = 0
    assert h_seq[0, 0, :, 0].tolist() == [np.tanh(1.0), 0.0]
    h_seq, _ = gru_forward(
        np.ones((1, 1, 3)), np.zeros((1, 1, 2)), np.zeros((1, 1, 1)), np.zeros((1, 3)), x
    )
    # +1e6: u = 1 keeps h0 = 0; -1e6: u = 0 takes n = tanh(-1e6) = -1
    assert h_seq[0, 0, :, 0].tolist() == [0.0, -1.0]


@pytest.mark.parametrize("use_lengths", [False, True])
def test_gru_gradients_match_finite_differences(use_lengths):
    rng = derive_rng(9)
    t_len, s, b_sz, din, hidden = 5, 2, 3, 2, 3
    w, u_ru, u_n, b = _perturbed_gru(rng, s, din, hidden)
    x = rng.normal(size=(t_len, s, b_sz, din))
    lengths = np.array([5, 3, 2]) if use_lengths else None
    proj = rng.normal(size=(t_len, s, b_sz, hidden))

    def loss():
        h, _ = gru_forward(w, u_ru, u_n, b, x, lengths)
        return float((h * proj).sum())

    _, cache = gru_forward(w, u_ru, u_n, b, x, lengths)
    grads = gru_backward(w, u_ru, u_n, b, cache, proj)
    for analytic, arr in zip(grads, [w, u_ru, u_n, b, x]):
        assert max_rel_err(analytic, numeric_grad(loss, arr)) < TOL


def test_dropout_identity_cases():
    """p == 0 draws nothing and gives no mask, so it needs no rng."""
    rng = derive_rng(10)
    for r in (rng, None):
        assert dropout((5, 3, 4), 0.0, r) is None
    assert rng.bit_generator.state == derive_rng(10).bit_generator.state


def test_dropout_statistics():
    """Inverted dropout keeps the mean; the dropped fraction matches p."""
    mask = dropout((1_000_000,), 0.5, derive_rng(11))
    y = np.ones(1_000_000) * mask
    y *= 1.0 / (1.0 - 0.5)
    assert abs(y.mean() - 1.0) < 0.01
    assert abs(float((y == 0.0).mean()) - 0.5) < 0.01
    assert np.all(y[mask] == 2.0)


def test_reuse_writes_over_a_buffer_until_a_call_needs_more(monkeypatch):
    """A request that fits takes its slot's buffer, and one that fits its
    slot's mapping grows in place. A larger one frees the mapping before
    mapping its successor, so the old and the new never coexist. Calls the
    `reuse` that conftest wraps, so tracemalloc sees the stores."""
    stores = []
    tracemalloc.start()
    try:
        first = layers.reuse(stores, 0, (600, 1000))  # its mapping reserves 1.2M values
        other = layers.reuse(stores, 1, (10,))
        in_place = layers.reuse(stores, 0, (1000, 1000))
        smaller = layers.reuse(stores, 0, (999, 1000))
        assert len(stores) == 2 and smaller.shape == (999, 1000)
        assert np.shares_memory(in_place, first) and np.shares_memory(smaller, first)
        assert not np.shares_memory(other, first)
        old = weakref.ref(stores[0].base)
        del first, in_place, smaller
        mapped_while_old_lived = []

        def mapping(*args):
            mapped_while_old_lived.append(old() is not None)
            return mmap.mmap(*args)

        monkeypatch.setattr(layers, "mmap", types.SimpleNamespace(mmap=mapping))
        tracemalloc.reset_peak()
        grown = layers.reuse(stores, 0, (1500, 1000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert mapped_while_old_lived == [False]
    assert grown.shape == (1500, 1000) and stores[0].size == grown.size
    assert peak < 8 * 2_000_000  # the new 12 MB buffer alone, not it plus the old 8 MB


def _resident_mb() -> float:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs /proc/self/statm")
def test_reuse_holds_only_the_live_stores_resident():
    """Slot 0 grows within its mapping, then past it, while slot 1's store
    sits after it. Resident memory must stay at the live stores. On
    glibc's heap, once the mmap threshold had risen above the store size
    (here by freeing a 24 MB array), the outgrown 8 MB store stayed as a
    resident hole."""
    freed = np.ones(3_000_000)
    del freed  # a 24 MB buffer freed: the threshold rises to it
    before = _resident_mb()
    stores = []
    layers.reuse(stores, 0, (1_000_000,)).fill(1.0)
    layers.reuse(stores, 1, (1_000_000,)).fill(1.0)
    start = stores[0].ctypes.data
    layers.reuse(stores, 0, (1_500_000,)).fill(1.0)  # within the mapping slot 0 reserved
    assert stores[0].ctypes.data == start
    assert _resident_mb() - before < 8 * 2_500_000 / 2**20 + 4  # 19 MB live
    layers.reuse(stores, 0, (2_500_000,)).fill(1.0)  # past it: a new mapping
    assert _resident_mb() - before < 8 * 3_500_000 / 2**20 + 4  # 27 MB live


def test_reuse_reports_its_buffers_to_tracemalloc():
    """Through the `reuse` that the layers and the recurrent kernels call,
    tracemalloc sees each store when it is made or grows, and no longer
    once its mapping is freed: conftest wraps both bindings, and the memory
    tests measure through them."""
    for module in (layers, recurrent):
        stores = []
        tracemalloc.start()
        try:
            module.reuse(stores, 0, (1_000_000,))
            made, _ = tracemalloc.get_traced_memory()
            module.reuse(stores, 0, (1_500_000,))  # grows within its mapping
            grown, _ = tracemalloc.get_traced_memory()
            stores.clear()
            freed, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert made >= 8_000_000, module.__name__
        assert grown - made >= 4_000_000 and grown - freed >= 12_000_000, module.__name__


@settings(max_examples=80, deadline=None)
@given(
    vocab=st.integers(1, 9),
    dim=st.integers(1, 5),
    rows=st.integers(0, 40),
    zero_frac=st.sampled_from([0.0, 0.5, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_embedding_backward_equals_add_at(vocab, dim, rows, zero_frac, seed):
    """The gradient has the bytes of np.add.at(zeros, ids, dout), signed zeros
    in dout included: each bin sums its rows in row order from +0.0."""
    rng = np.random.default_rng(seed)
    table = rng.normal(size=(vocab, dim))
    ids = rng.integers(0, vocab, size=rows)
    dout = rng.normal(size=(rows, dim))
    zeroed = rng.random((rows, dim)) < zero_frac
    dout[zeroed] = np.where(rng.random(int(zeroed.sum())) < 0.5, -0.0, 0.0)
    want = np.zeros_like(table)
    np.add.at(want, ids, dout)
    assert embedding_backward(table, ids, dout).tobytes() == want.tobytes()


def test_dropout_masks_draw_dropouts_stream():
    """The one-byte masks, drawn one shape[-3:] chunk at a time, keep what
    one float draw over the whole shape keeps (tests/reference_model.py's
    ref_dropout), leave the rng where it does, and applied as x * mask, then
    *= 1/(1-p), give its x * keep bit for bit. Shapes: the inter-layer
    masks' (L-1, T, S, B, H) and the FC layer's (B, S*H)."""
    for shape in [(2, 5, 3, 4, 6), (7, 9)]:
        x = derive_rng(8).normal(size=shape)
        masks = dropout(shape, 0.3, derive_rng(7), stores := [])
        rng = derive_rng(7)
        want, keep = ref_dropout(x, 0.3, rng)
        assert masks.dtype == np.bool_ and np.shares_memory(masks, stores[0])
        assert np.array_equal(masks, keep != 0.0)
        got = x * masks
        got *= 1.0 / (1.0 - 0.3)
        assert got.tobytes() == want.tobytes()
        after = derive_rng(7)
        dropout(shape, 0.3, after)
        assert after.bit_generator.state == rng.bit_generator.state


def test_fc_pass_through_and_bias():
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    w = np.eye(2)
    b = np.zeros(2)
    assert np.array_equal(fc_forward(x, w, b), x)
    b = np.array([5.0, -1.0])
    assert np.array_equal(fc_forward(np.zeros((2, 2)), w, b), np.tile(b, (2, 1)))


def test_fc_gradients():
    rng = derive_rng(12)
    x = rng.normal(size=(4, 3))
    w = rng.normal(size=(3, 2))
    b = rng.normal(size=2)
    proj = rng.normal(size=(4, 2))

    def loss():
        return float((fc_forward(x, w, b) * proj).sum())

    dw, db, dx = fc_backward(x, w, proj)
    for analytic, arr in [(dw, w), (db, b), (dx, x)]:
        assert max_rel_err(analytic, numeric_grad(loss, arr)) < TOL


def test_softmax_uniform_and_shift_invariance():
    assert np.allclose(softmax(np.zeros(5)), 0.2, atol=1e-15)
    rng = derive_rng(13)
    logits = rng.normal(size=(4, 6))
    shifted = softmax(logits + 123.456)
    assert np.max(np.abs(shifted - softmax(logits))) < 1e-12


def test_softmax_extreme_logits_stable():
    logits = np.array([1e4, -1e4, 0.0])
    p = softmax(logits)
    assert np.all(np.isfinite(p))
    assert p.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.argmax(p) == 0


@given(st.integers(0, 2**31 - 1), st.integers(2, 8))
@settings(max_examples=30, deadline=None)
def test_softmax_rows_sum_to_one(seed, c):
    logits = np.random.default_rng(seed).normal(scale=10.0, size=(3, c))
    p = softmax(logits)
    assert np.max(np.abs(p.sum(axis=1) - 1.0)) < 1e-12
    assert np.all(p >= 0.0)


def test_median_frequency_weights_hand_example():
    w = median_frequency_weights([10, 20, 40])
    assert list(w) == [2.0, 1.0, 0.5]


def test_median_frequency_weights_uniform():
    assert np.all(median_frequency_weights([7, 7, 7, 7]) == 1.0)


def test_median_frequency_weights_even_count_median():
    w = median_frequency_weights([10, 20, 30, 40])
    freqs = np.array([10, 20, 30, 40]) / 100.0
    med = (freqs[1] + freqs[2]) / 2.0
    assert np.allclose(w, med / freqs, atol=1e-15)


def test_median_frequency_weights_empty_class():
    with pytest.raises(ValueError, match="class 1"):
        median_frequency_weights([5, 0, 3])


@given(st.permutations(list(range(5))))
@settings(max_examples=20, deadline=None)
def test_median_frequency_weights_permutation_equivariance(perm):
    counts = np.array([3, 8, 15, 40, 90])
    w = median_frequency_weights(counts)
    w_perm = median_frequency_weights(counts[perm])
    assert np.allclose(w_perm, w[perm], atol=1e-15)


def test_median_frequency_weights_scale_invariance():
    counts = np.array([4, 9, 25])
    assert np.allclose(
        median_frequency_weights(counts), median_frequency_weights(2 * counts), atol=1e-15
    )


def test_weighted_ce_perfect_prediction():
    probs = np.eye(3)
    labels = np.array([0, 1, 2])
    loss, _ = weighted_cross_entropy(probs, labels, np.ones(3))
    assert loss == 0.0


def test_weighted_ce_uniform_closed_form():
    c = 7
    probs = np.full((4, c), 1.0 / c)
    loss, _ = weighted_cross_entropy(probs, np.array([0, 1, 2, 3]), np.ones(c))
    assert loss == pytest.approx(math.log(c), rel=1e-12)


def test_weighted_ce_gradient_matches_finite_differences():
    rng = derive_rng(14)
    logits = rng.normal(size=(5, 4))
    labels = np.array([0, 1, 2, 3, 1])
    weights = np.array([0.5, 1.0, 2.0, 1.5])

    def loss():
        l, _ = weighted_cross_entropy(softmax(logits), labels, weights)
        return l

    _, dlogits = weighted_cross_entropy(softmax(logits), labels, weights)
    assert max_rel_err(dlogits, numeric_grad(loss, logits)) < TOL


def test_adam_zero_gradient_no_move():
    params = {"w": np.array([1.0, -2.0, 3.0])}
    opt = Adam(params, 1e-3)
    opt.step(params, {"w": np.zeros(3)})
    assert np.array_equal(params["w"], [1.0, -2.0, 3.0])


def test_adam_scalar_hand_step():
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
    params = {"w": np.array([2.0])}
    opt = Adam(params, lr)
    g = 0.5
    opt.step(params, {"w": np.array([g])})
    m = (1 - b1) * g
    v = (1 - b2) * g * g
    m_hat = m / (1 - b1)
    v_hat = v / (1 - b2)
    expect = 2.0 - lr * m_hat / (math.sqrt(v_hat) + eps)
    assert params["w"][0] == pytest.approx(expect, rel=1e-15)


def test_adam_identical_tensors_stay_identical():
    params = {"a": np.array([1.0, 2.0]), "b": np.array([1.0, 2.0])}
    opt = Adam(params, 1e-3)
    for _ in range(5):
        g = np.array([0.3, -0.7])
        opt.step(params, {"a": g.copy(), "b": g.copy()})
    assert np.array_equal(params["a"], params["b"])


def test_clip_below_threshold_unchanged():
    grads = {"w": np.array([0.3, 0.4])}
    clip_gradients(grads, 1.0, global_grad_norm(grads))
    assert np.array_equal(grads["w"], [0.3, 0.4])


def test_clip_scales_to_exact_norm_and_keeps_direction():
    grads = {"w": np.array([3.0, 4.0]), "v": np.array([12.0])}
    before = np.concatenate([grads["w"], grads["v"]])
    clip_gradients(grads, 5.0, global_grad_norm(grads))
    after = np.concatenate([grads["w"], grads["v"]])
    assert global_grad_norm(grads) == pytest.approx(5.0, abs=1e-12)
    cos = float(before @ after / (np.linalg.norm(before) * np.linalg.norm(after)))
    assert cos == pytest.approx(1.0, abs=1e-12)
