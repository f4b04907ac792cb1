import dataclasses
import itertools
import json
import multiprocessing
import os
import re
import sys
import threading
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import emitterclf.model as model_module
import emitterclf.nn_core.recurrent as recurrent_module
from emitterclf.data_model import Dataset, PulseSequence
from emitterclf.model import (
    ModelConfig,
    SequenceClassifier,
    backward,
    build,
    forward,
    load_checkpoint,
    save_checkpoint,
)
from emitterclf.nn_core import Adam, fc_forward, softmax, weighted_cross_entropy
from emitterclf.normalize import NormalizedBatch, build_batch, fit_domain_stats, normalize_scheme
from emitterclf.seeding import derive_rng

from conftest import predict
from reference_model import ref_backward, ref_train_forward


def _cfg(**kw):
    base = dict(
        architecture="attribute_specific_lstm",
        scheme="minmax+perseq",
        num_classes=3,
        hidden=4,
        layers=2,
        dropout=0.0,
    )
    base.update(kw)
    return ModelConfig(**base)


def _batch(ds, cfg, stats):
    normalized = [normalize_scheme(s, stats, cfg.scheme, cfg.bins) for s in ds.sequences]
    return build_batch(normalized)


def test_build_default_configuration_shapes():
    cfg = ModelConfig(
        architecture="attribute_specific_lstm",
        scheme="minmax+perseq",
        num_classes=17,
        hidden=64,
        layers=2,
    )
    model = build(cfg, seed=0)
    # 2M = 6 independent stacks, each two layers deep
    assert model.params["lstm0.W"].shape == (6, 1, 256)
    assert model.params["lstm1.W"].shape == (6, 64, 256)
    assert model.params["fc.W"].shape == (6 * 64, 17)  # feature width 2*h*M = 384
    assert model.params["fc.b"].shape == (17,)


def test_build_joint_input_width():
    cfg = _cfg(architecture="joint_lstm", scheme="minmax")
    model = build(cfg, seed=0)
    assert model.params["lstm0.W"].shape == (1, 3, 16)
    assert model.params["fc.W"].shape == (4, 3)


def test_parameter_count_closed_form():
    """Count matches 2M stacks of [4h(1+h+1) + 4h(h+h+1)] plus the FC head."""
    cfg = ModelConfig(
        architecture="attribute_specific_lstm",
        scheme="minmax+perseq",
        num_classes=17,
        hidden=64,
        layers=2,
    )
    model = build(cfg, seed=0)
    h = 64
    per_stack = 4 * h * (1 + h + 1) + 4 * h * (h + h + 1)
    expect = 6 * per_stack + (6 * h) * 17 + 17
    assert sum(v.size for v in model.params.values()) == expect


def test_forget_gate_bias_initialized_to_one():
    model = build(_cfg(), seed=0)
    b = model.params["lstm0.b"]
    h = 4
    assert np.all(b[:, h : 2 * h] == 1.0)
    assert np.all(b[:, :h] == 0.0)


def test_invalid_configurations_rejected():
    with pytest.raises(ValueError):
        _cfg(architecture="stats_mlp", scheme="discretize")
    with pytest.raises(ValueError):
        _cfg(architecture="gru_discretized", scheme="minmax")
    with pytest.raises(ValueError):
        _cfg(architecture="attribute_specific_lstm", scheme="discretize")
    with pytest.raises(ValueError):
        _cfg(dropout=1.0)


def test_channel_count_mismatch_raises(small_dataset):
    stats = fit_domain_stats(small_dataset)
    model = build(_cfg(), seed=0)
    bad = _batch(small_dataset, _cfg(scheme="minmax"), stats)
    with pytest.raises(ValueError, match="channels"):
        forward(model, bad)


def test_channel_permutation_equivariance(small_dataset):
    """Permuting channels together with their stacks leaves logits unchanged."""
    cfg = _cfg()
    stats = fit_domain_stats(small_dataset)
    model = build(cfg, seed=1)
    batch = _batch(small_dataset, cfg, stats)
    logits, _ = forward(model, batch)

    perm = [3, 0, 5, 1, 4, 2]
    permuted = build(cfg, seed=1)
    for layer in range(cfg.layers):
        for name in ("W", "U", "b"):
            permuted.params[f"lstm{layer}.{name}"] = model.params[f"lstm{layer}.{name}"][perm]
    h = cfg.hidden
    fc_blocks = model.params["fc.W"].reshape(6, h, cfg.num_classes)
    permuted.params["fc.W"] = fc_blocks[perm].reshape(6 * h, cfg.num_classes)
    from emitterclf.normalize import NormalizedBatch

    batch_perm = NormalizedBatch(
        channels=batch.channels[:, :, perm], lengths=batch.lengths, labels=batch.labels
    )
    logits_perm, _ = forward(permuted, batch_perm)
    assert np.max(np.abs(logits_perm - logits)) < 1e-9


def test_zeroed_stack_makes_channel_irrelevant(small_dataset):
    cfg = _cfg()
    stats = fit_domain_stats(small_dataset)
    model = build(cfg, seed=2)
    k = 4  # zero the stack reading channel 4
    for layer in range(cfg.layers):
        for name in ("W", "U", "b"):
            model.params[f"lstm{layer}.{name}"][k] = 0.0
    batch = _batch(small_dataset, cfg, stats)
    logits, _ = forward(model, batch)
    mutated = batch.channels.copy()
    mutated[:, :, k] = 0.123  # arbitrary rewrite of channel k
    from emitterclf.normalize import NormalizedBatch

    batch2 = NormalizedBatch(channels=mutated, lengths=batch.lengths, labels=batch.labels)
    logits2, _ = forward(model, batch2)
    assert np.array_equal(logits, logits2)


@pytest.mark.parametrize(
    "arch,scheme,stacks",
    [
        ("attribute_specific_lstm", "minmax+perseq", 6),
        ("attribute_specific_lstm", "minmax", 3),
        ("joint_lstm", "minmax+perseq", 1),
        ("gru_discretized", "discretize", 1),
        ("stats_mlp", "minmax", 0),
    ],
)
def test_build_makes_config_stacks(arch, scheme, stacks):
    """`ModelConfig.stacks` is the S of every recurrent tensor and of the FC input."""
    cfg = _cfg(architecture=arch, scheme=scheme)
    assert cfg.stacks == stacks
    params = build(cfg, seed=0).params
    recurrent = [t for n, t in params.items() if n.startswith(("lstm", "gru"))]
    assert bool(recurrent) == bool(stacks)
    assert all(t.shape[0] == stacks for t in recurrent)
    if stacks:
        assert params["fc.W"].shape[0] == stacks * cfg.hidden


@pytest.mark.parametrize(
    "arch,scheme",
    [
        ("attribute_specific_lstm", "minmax+perseq"),
        ("joint_lstm", "minmax"),
        ("gru_discretized", "discretize"),
        ("stats_mlp", "minmax"),
    ],
)
def test_batch_equals_single_forward(small_dataset, arch, scheme):
    """Batching is semantically transparent."""
    cfg = _cfg(architecture=arch, scheme=scheme, bins=16)
    stats = fit_domain_stats(small_dataset)
    model = build(cfg, seed=3)
    batch = _batch(small_dataset, cfg, stats)
    logits, _ = forward(model, batch)
    for b, seq in enumerate(small_dataset.sequences):
        single = build_batch([normalize_scheme(seq, stats, cfg.scheme, cfg.bins)])
        one, _ = forward(model, single)
        assert np.max(np.abs(one[0] - logits[b])) < 1e-9


@pytest.mark.parametrize(
    "arch,scheme",
    [
        ("attribute_specific_lstm", "minmax+perseq"),
        ("gru_discretized", "discretize"),
        ("joint_lstm", "minmax"),
        ("stats_mlp", "minmax"),
    ],
)
def test_padding_never_changes_logits(small_dataset, arch, scheme):
    cfg = _cfg(architecture=arch, scheme=scheme, bins=16)
    stats = fit_domain_stats(small_dataset)
    model = build(cfg, seed=4)
    seq = small_dataset.sequences[0]
    ns = normalize_scheme(seq, stats, cfg.scheme, cfg.bins)
    base = build_batch([ns])
    logits, _ = forward(model, base)
    padded_channels = np.zeros((1, seq.length + 9, ns.channels.shape[1]), dtype=ns.channels.dtype)
    padded_channels[0, : seq.length] = ns.channels
    padded = NormalizedBatch(
        channels=padded_channels,
        lengths=np.array([seq.length]),
        labels=np.array([seq.label]),
    )
    logits_padded, _ = forward(model, padded)
    assert np.array_equal(logits, logits_padded)


def _model_gradcheck(cfg, ds, seed, tol=1e-4):
    """End-to-end finite-difference check of every parameter tensor.

    Every forward pass runs training=True with the dropout rng re-derived,
    so each loss evaluation applies the same dropout masks.
    """
    stats = fit_domain_stats(ds)
    model = build(cfg, seed=seed)
    batch = _batch(ds, cfg, stats)
    weights = np.ones(cfg.num_classes)

    def run():
        return forward(model, batch, training=True, rng=derive_rng(seed, "dropout"))

    def loss():
        logits, _ = run()
        l, _ = weighted_cross_entropy(softmax(logits), batch.labels, weights)
        return l

    logits, cache = run()
    _, dlogits = weighted_cross_entropy(softmax(logits), batch.labels, weights)
    grads = backward(model, cache, dlogits)
    assert set(grads) == set(model.params)
    from test_nn_core import max_rel_err, numeric_grad

    for name, p in model.params.items():
        err = max_rel_err(grads[name], numeric_grad(loss, p))
        assert err < tol, f"{name}: {err}"


def _tiny_dataset(num_classes=3, n_per=2, t=6):
    rng = derive_rng(99)
    seqs = []
    for label in range(num_classes):
        for _ in range(n_per):
            pri = 100.0 * (label + 1) + rng.uniform(0, 20, t)
            pw = 1.0 + rng.uniform(0, 1, t)
            rf = 1000.0 * (label + 2) + rng.uniform(0, 50, t)
            seqs.append(PulseSequence(np.stack([pri, pw, rf], 1), label, check=False))
    return Dataset(seqs, num_classes)


def test_end_to_end_gradients_gru_discretized():
    ds = _tiny_dataset()
    cfg = _cfg(architecture="gru_discretized", scheme="discretize", bins=8, embed_dim=3, hidden=3)
    _model_gradcheck(cfg, ds, seed=5)


def test_end_to_end_gradients_stats_mlp():
    ds = _tiny_dataset()
    cfg = _cfg(architecture="stats_mlp", scheme="minmax", mlp_hidden=(5, 4))
    _model_gradcheck(cfg, ds, seed=6)


_GRADCHECK_CONFIGS = {
    "attribute_specific_lstm": dict(scheme="minmax+perseq", hidden=3),
    "joint_lstm": dict(scheme="minmax", hidden=3),
    "gru_discretized": dict(scheme="discretize", bins=8, embed_dim=3, hidden=3),
    "stats_mlp": dict(scheme="minmax", mlp_hidden=(5, 4)),
}


@pytest.mark.parametrize("arch", list(_GRADCHECK_CONFIGS))
def test_end_to_end_gradients_with_dropout(arch):
    """Training mode: inter-layer and pre-FC dropout masks enter backward."""
    ds = _tiny_dataset()
    cfg = _cfg(architecture=arch, layers=2, dropout=0.3, **_GRADCHECK_CONFIGS[arch])
    _model_gradcheck(cfg, ds, seed=14)


@pytest.mark.parametrize("arch", list(_GRADCHECK_CONFIGS))
def test_training_forward_with_dropout_needs_rng(small_dataset, arch):
    """Dropout > 0 without an rng is refused up front; dropout 0 needs none."""
    cfg = _cfg(architecture=arch, dropout=0.3, **_GRADCHECK_CONFIGS[arch])
    model = build(cfg, seed=12)
    batch = _batch(small_dataset, cfg, fit_domain_stats(small_dataset))
    with pytest.raises(ValueError, match=r"dropout 0\.3 needs an rng"):
        forward(model, batch, training=True)
    _, cache = forward(_without_dropout(model), batch, training=True)
    assert cache is not None


def _without_dropout(model):
    """The same params under a dropout-0 config: its training forward is deterministic."""
    return SequenceClassifier(dataclasses.replace(model.config, dropout=0.0), model.params)


@pytest.mark.parametrize("arch", list(_GRADCHECK_CONFIGS))
def test_cacheless_forward_logits_bit_identical(small_dataset, arch):
    """Inference keeps no backward stores, applies no dropout, and returns the
    logit bytes of the training forward without dropout."""
    cfg = _cfg(architecture=arch, dropout=0.3, **_GRADCHECK_CONFIGS[arch])
    model = build(cfg, seed=12)
    batch = _batch(small_dataset, cfg, fit_domain_stats(small_dataset))
    logits, cache = forward(_without_dropout(model), batch, training=True)
    logits_free, cache_free = forward(model, batch)
    assert cache is not None and cache_free is None
    assert logits_free.tobytes() == logits.tobytes()


@pytest.mark.parametrize("arch", list(_GRADCHECK_CONFIGS))
def test_backward_refuses_cacheless_forward(arch):
    ds = _tiny_dataset()
    cfg = _cfg(architecture=arch, **_GRADCHECK_CONFIGS[arch])
    model = build(cfg, seed=13)
    batch = _batch(ds, cfg, fit_domain_stats(ds))
    logits, cache = forward(model, batch)
    with pytest.raises(ValueError, match="kept no cache"):
        backward(model, cache, np.ones_like(logits))
    _, spent = forward(model, batch, training=True)
    forward(model, batch, training=True, spent=spent)
    with pytest.raises(ValueError, match="handed on as `spent` is emptied"):
        backward(model, spent, np.ones_like(logits))


_RECURRENT_CONFIGS = {a: kw for a, kw in _GRADCHECK_CONFIGS.items() if a != "stats_mlp"}


@settings(max_examples=80, deadline=None)
@given(
    arch=st.sampled_from(sorted(_RECURRENT_CONFIGS)),
    layers=st.integers(1, 3),
    hidden=st.sampled_from([1, 3, 4, 8, 17]),
    lengths=st.lists(st.integers(1, 9), min_size=1, max_size=7),
    extra=st.integers(0, 3),
    negative_zero=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(
    arch="attribute_specific_lstm", layers=2, hidden=17,
    lengths=[5, 1, 3], extra=2, negative_zero=True, seed=0,
)
@example(
    arch="joint_lstm", layers=3, hidden=17,
    lengths=[1, 4, 4], extra=0, negative_zero=True, seed=1,
)
@example(
    arch="gru_discretized", layers=2, hidden=17,
    lengths=[2, 1, 6], extra=3, negative_zero=False, seed=2,
)
def test_lockstep_inference_matches_caching_forward(
    arch, layers, hidden, lengths, extra, negative_zero, seed
):
    """Inference steps the layers together; its features and logits keep the bytes
    of the layer-by-layer caching forward (training=True on a dropout-0 copy),
    so inference also applies none of the model's dropout 0.3.

    negative_zero shuts the top LSTM layer's output gate (o = 0.0) over a
    negative cell state, so every top-layer state is -0.0. The features must
    then carry the sign of the caching forward's h_seq[-1], through the
    threaded blocks too.
    """
    rng = np.random.default_rng(seed)
    kw = dict(_RECURRENT_CONFIGS[arch], hidden=hidden)
    cfg = _cfg(architecture=arch, layers=layers, dropout=0.3, **kw)
    model = build(cfg, seed=seed % 1000)
    for p in model.params.values():
        p += 0.5 * rng.normal(size=p.shape)
    shut = negative_zero and arch != "gru_discretized"
    if shut:
        model.params[f"lstm{layers - 1}.b"][:, 2 * hidden :] = -1e3  # o and g gates
    b, t = len(lengths), max(lengths) + extra
    shape = (b, t, cfg.channels)
    if arch == "gru_discretized":
        channels = rng.integers(0, cfg.bins, size=shape)
    else:
        channels = rng.normal(scale=3.0, size=shape)
    channels[np.arange(t)[None, :] >= np.array(lengths)[:, None]] = 0
    batch = NormalizedBatch(
        channels=channels, lengths=np.array(lengths), labels=np.zeros(b, dtype=np.int64)
    )
    feats = []

    def capture(x, W, bias):
        feats.append(x.copy())
        return fc_forward(x, W, bias)

    with mock.patch.object(model_module, "fc_forward", capture):
        want, _ = forward(_without_dropout(model), batch, training=True)
        got, cache = forward(model, batch)
    assert cache is None
    assert feats[1].tobytes() == feats[0].tobytes()
    assert got.tobytes() == want.tobytes()
    if shut:
        assert feats[0].tobytes() == np.full(feats[0].shape, -0.0).tobytes()


@settings(max_examples=60, deadline=None)
@given(
    arch=st.sampled_from(sorted(_GRADCHECK_CONFIGS)),
    layers=st.integers(1, 3),
    dropout=st.sampled_from([0.0, 0.3]),
    hidden=st.sampled_from([1, 3, 8]),
    batches=st.lists(st.lists(st.integers(1, 9), min_size=1, max_size=7), min_size=1, max_size=3),
    extra=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
)
@example(  # the second batch needs more rows and a longer T than the spent stores hold
    arch="attribute_specific_lstm", layers=3, dropout=0.3, hidden=3,
    batches=[[2, 1], [9, 4, 7, 1]], extra=1, seed=0,
)
@example(
    arch="gru_discretized", layers=2, dropout=0.3, hidden=3,
    batches=[[5, 2, 6], [1, 3]], extra=0, seed=1,
)
@example(
    arch="stats_mlp", layers=3, dropout=0.3, hidden=3,
    batches=[[5, 2, 6], [1, 3]], extra=1, seed=2,
)
def test_training_pass_matches_layer_by_layer_reference(
    arch, layers, dropout, hidden, batches, extra, seed
):
    """The chained training forward and backward give the bytes of the
    layer-by-layer pass with slab dropout (tests/reference_model.py): logits,
    every gradient, their order and the dropout rng's state after forward.
    Each batch after the first is handed the previous one's spent cache,
    its float stores filled with NaN and its masks with True, so a stale
    read shows. The stats MLP gets `layers` hidden layers of hidden + layers
    down to hidden + 1 units."""
    rng = np.random.default_rng(seed)
    kw = dict(_GRADCHECK_CONFIGS[arch], hidden=hidden)
    if arch == "stats_mlp":
        kw["mlp_hidden"] = tuple(range(hidden + layers, hidden, -1))
    cfg = _cfg(architecture=arch, layers=layers, dropout=dropout, **kw)
    model = build(cfg, seed=seed % 1000)
    for p in model.params.values():
        p += 0.5 * rng.normal(size=p.shape)
    cache = None
    for k, lengths in enumerate(batches):
        b, t = len(lengths), max(lengths) + extra
        shape = (b, t, cfg.channels)
        if arch == "gru_discretized":
            channels = rng.integers(0, cfg.bins, size=shape)
        else:
            channels = rng.normal(scale=3.0, size=shape)
        channels[np.arange(t)[None, :] >= np.array(lengths)[:, None]] = 0
        batch = NormalizedBatch(
            channels=channels, lengths=np.array(lengths), labels=np.zeros(b, dtype=np.int64)
        )
        dlogits = rng.normal(size=(b, cfg.num_classes))
        for buf in itertools.chain.from_iterable((cache or {}).get("stores", [])):
            buf.fill(np.nan if buf.dtype.kind == "f" else True)
        got_rng, want_rng = np.random.default_rng([seed, k]), np.random.default_rng([seed, k])
        logits, cache = forward(model, batch, training=True, rng=got_rng, spent=cache)
        want_logits, want_cache = ref_train_forward(model, batch, want_rng)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        assert logits.tobytes() == want_logits.tobytes()
        grads = backward(model, cache, dlogits)
        want = ref_backward(model, want_cache, dlogits)
        assert list(grads) == list(want)  # the order global_grad_norm sums in
        assert grads.keys() == model.params.keys()
        for name in want:
            assert grads[name].tobytes() == want[name].tobytes(), name


def test_training_pass_holds_no_time_slab_beyond_its_stores():
    """One forward+backward of the proposed model (T=128, S=6, B=32, H=16,
    L=2, dropout 0.3) peaks less than one (T, S, B, H) float64 slab above
    its layers' kernel stores (gate activations, c, tanh c and h_seq). The
    layer-by-layer pass held four such slabs more: the dropout keep mask and
    output, the top layer's upstream gradient and layer 1's input gradient."""
    cfg = _cfg(hidden=16, dropout=0.3, num_classes=17)
    model = build(cfg, seed=0)
    t, b, s, h = 128, 32, cfg.stacks, cfg.hidden
    rng = np.random.default_rng(3)
    lengths = rng.integers(1, t + 1, size=b)
    lengths[0] = t
    batch = NormalizedBatch(
        channels=rng.uniform(-1.0, 1.0, size=(b, t, cfg.channels)),
        lengths=lengths,
        labels=np.zeros(b, dtype=np.int64),
    )
    rows = int(lengths.sum())  # active rows over all steps
    slab = 8 * t * s * b * h
    stores = cfg.layers * (8 * 6 * s * h * rows + slab)
    tracemalloc.start()
    try:
        logits, cache = forward(model, batch, training=True, rng=derive_rng(0, "dropout"))
        backward(model, cache, np.ones_like(logits))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < stores + slab


def test_inference_forward_holds_no_time_slab():
    """One inference forward of the proposed model (T=512, S=6, B=32, H=64,
    L=2) peaks below a quarter of one (T, S, B, H) float64 slab."""
    cfg = _cfg(hidden=64, num_classes=17)
    model = build(cfg, seed=0)
    t, b = 512, 32
    rng = np.random.default_rng(0)
    lengths = np.sort(rng.integers(1, t + 1, size=b))
    lengths[-1] = t
    batch = NormalizedBatch(
        channels=rng.uniform(-1.0, 1.0, size=(b, t, cfg.channels)),
        lengths=lengths,
        labels=np.zeros(b, dtype=np.int64),
    )
    slab = 8 * t * cfg.channels * b * cfg.hidden
    tracemalloc.start()
    try:
        forward(model, batch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < slab / 4


def test_inference_holds_one_copy_of_the_input(monkeypatch):
    """On entry to the recurrent steps, model.py holds one block the size of
    the (B, T, 6) input, not two: the rows' longest-first order and the
    kernel layout are made in one gather. Batch 256 at T = 512 (6.3 MB),
    one block (split width 1), rows not yet in order."""
    cfg = _cfg(hidden=4, layers=1, num_classes=3)
    model = build(cfg, seed=0)
    t, b = 512, 256
    rng = np.random.default_rng(2)
    lengths = rng.integers(1, t + 1, size=b)
    batch = NormalizedBatch(
        channels=rng.uniform(-1.0, 1.0, size=(b, t, cfg.channels)),
        lengths=lengths,
        labels=np.zeros(b, dtype=np.int64),
    )
    held = []
    lockstep = model_module._lockstep

    def snapshot_then_step(*args):
        in_model = tracemalloc.Filter(True, model_module.__file__, all_frames=True)
        traces = tracemalloc.take_snapshot().filter_traces([in_model])
        held.extend(stat.size for stat in traces.statistics("traceback"))
        return lockstep(*args)

    monkeypatch.setattr(model_module, "_split_width", lambda groups: 1)
    monkeypatch.setattr(model_module, "_lockstep", snapshot_then_step)
    tracemalloc.start(10)  # np.take allocates below a numpy Python frame
    try:
        forward(model, batch)
    finally:
        tracemalloc.stop()
    block = batch.channels.nbytes
    assert sum(size >= block for size in held) == 1
    assert sum(held) < 1.5 * block


@settings(max_examples=40, deadline=None)
@given(
    scheme=st.sampled_from(["minmax", "minmax+perseq"]),
    layers=st.integers(1, 3),
    hidden=st.sampled_from([1, 3, 8]),
    lengths=st.lists(st.integers(1, 9), min_size=1, max_size=7),
    extra=st.integers(0, 3),
    negative_zero=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(
    scheme="minmax+perseq", layers=2, hidden=3,
    lengths=[5, 1, 3], extra=2, negative_zero=True, seed=0,
)
def test_split_inference_keeps_width_1_bytes(
    scheme, layers, hidden, lengths, extra, negative_zero, seed
):
    """Inference that splits the S = 3 or 6 attribute stacks into any number of
    blocks gives the FC inputs and logits of one block, byte for byte; up to
    6 blocks run at once, more threads than most hosts have cores.

    negative_zero shuts the top layer's output gates over a negative cell
    state, so every top-layer state is -0.0 and the readout's sign of zero
    is checked too.
    """
    rng = np.random.default_rng(seed)
    cfg = _cfg(scheme=scheme, layers=layers, hidden=hidden)
    model = build(cfg, seed=seed % 1000)
    for p in model.params.values():
        p += 0.5 * rng.normal(size=p.shape)
    if negative_zero:
        model.params[f"lstm{layers - 1}.b"][:, 2 * hidden :] = -1e3  # o and g gates
    b, t = len(lengths), max(lengths) + extra
    channels = rng.normal(scale=3.0, size=(b, t, cfg.channels))
    channels[np.arange(t)[None, :] >= np.array(lengths)[:, None]] = 0
    batch = NormalizedBatch(
        channels=channels, lengths=np.array(lengths), labels=np.zeros(b, dtype=np.int64)
    )
    feats = []

    def capture(x, W, bias):
        feats.append(x.copy())
        return fc_forward(x, W, bias)

    logits = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # threads switch often: a shared write would show
    try:
        with mock.patch.object(model_module, "fc_forward", capture):
            for width in range(1, cfg.channels + 1):
                with mock.patch.object(model_module, "_split_width", lambda groups: width):
                    logits.append(forward(model, batch)[0])
    finally:
        sys.setswitchinterval(interval)
    for got_feats, got in zip(feats[1:], logits[1:]):
        assert got_feats.tobytes() == feats[0].tobytes()
        assert got.tobytes() == logits[0].tobytes()


def test_split_width_is_one_block_per_usable_cpu(monkeypatch):
    """The main process splits into min(S, CPUs in its affinity mask) blocks,
    falling back to os.cpu_count() where there is no affinity call."""
    cpus = len(os.sched_getaffinity(0))
    assert [model_module._split_width(s) for s in range(1, 9)] == [
        min(s, cpus) for s in range(1, 9)
    ]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    assert [model_module._split_width(s) for s in (1, 2, 3, 6)] == [1, 2, 3, 3]
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert [model_module._split_width(s) for s in (1, 3, 6)] == [1, 3, 4]


def test_split_width_is_one_in_a_spawned_worker():
    """A process that a pool started runs its stacks in one block."""
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=1, mp_context=ctx) as pool:
        assert pool.submit(model_module._split_width, 6).result(timeout=120) == 1


@pytest.mark.parametrize("arch", sorted(_GRADCHECK_CONFIGS))
def test_only_the_attribute_stacks_start_threads(small_dataset, monkeypatch, arch):
    """On a host with 4 CPUs the S = 6 model steps its stacks in worker threads;
    the single-stack architectures and the stats MLP start none."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    starts = []
    real_start = threading.Thread.start

    def start(self):
        starts.append(self)
        real_start(self)

    monkeypatch.setattr(threading.Thread, "start", start)
    cfg = _cfg(architecture=arch, **_GRADCHECK_CONFIGS[arch])
    forward(build(cfg, seed=3), _batch(small_dataset, cfg, fit_domain_stats(small_dataset)))
    # width 4: the executor starts a thread per submitted block unless one is idle
    assert 1 <= len(starts) <= 3 if arch == "attribute_specific_lstm" else not starts


def test_inference_stores_come_from_the_calling_thread(small_dataset, monkeypatch):
    """At width 2 the worker thread steps its block on stores that the calling
    thread allocated: a worker's malloc arena would keep them after the call."""
    monkeypatch.setattr(model_module, "_split_width", lambda groups: 2)
    threads = []
    real_reuse = recurrent_module.reuse

    def reuse(*args):
        threads.append(threading.get_ident())
        return real_reuse(*args)

    monkeypatch.setattr(recurrent_module, "reuse", reuse)
    stepped = set()
    real_steps = model_module.steps

    def steps(*args):
        for state in real_steps(*args):
            stepped.add(threading.get_ident())
            yield state

    monkeypatch.setattr(model_module, "steps", steps)
    cfg = _cfg()
    forward(build(cfg, seed=4), _batch(small_dataset, cfg, fit_domain_stats(small_dataset)))
    assert len(stepped) == 2  # a worker thread did step a block
    assert threads and set(threads) == {threading.get_ident()}


@pytest.mark.parametrize("where", ["caller", "worker"])
def test_block_exception_surfaces_from_forward(small_dataset, monkeypatch, where):
    """An exception in a step that any thread takes while the worker threads
    run is raised from forward, and every worker thread has ended by then.
    The calling thread takes every block's step 0 before the pool starts, so
    the failure comes at a later step: in the caller's own block or in a
    worker's."""
    monkeypatch.setattr(model_module, "_split_width", lambda groups: 3)
    caller = threading.get_ident()
    real_steps = model_module.steps
    alive = []

    def steps(*args):
        for k, state in enumerate(real_steps(*args)):
            if k and (threading.get_ident() == caller) == (where == "caller"):
                alive.append(threading.active_count())
                raise RuntimeError(f"{where} block failed")
            yield state

    monkeypatch.setattr(model_module, "steps", steps)
    cfg = _cfg()
    batch = _batch(small_dataset, cfg, fit_domain_stats(small_dataset))
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match=f"{where} block failed"):
        forward(build(cfg, seed=4), batch)
    assert alive and alive[0] > threads  # a worker thread was running
    assert threading.active_count() == threads


@settings(max_examples=40, deadline=None)
@given(
    arch=st.sampled_from(sorted(_GRADCHECK_CONFIGS)),
    layers=st.integers(1, 2),
    lengths=st.lists(st.integers(1, 12), min_size=1, max_size=6),
    extra=st.integers(1, 10),
    seed=st.integers(0, 2**32 - 1),
)
def test_padding_never_changes_logits_property(arch, layers, lengths, extra, seed):
    """Padded timesteps past the longest sequence never change a logit bit."""
    rng = np.random.default_rng(seed)
    seqs = [
        PulseSequence(
            np.stack([rng.uniform(50, 500, t), rng.uniform(1, 10, t), rng.uniform(1e3, 1e4, t)], 1),
            k % 3,
            check=False,
        )
        for k, t in enumerate(lengths)
    ]
    ds = Dataset(seqs, 3)
    cfg = _cfg(architecture=arch, layers=layers, **_GRADCHECK_CONFIGS[arch])
    model = build(cfg, seed=seed % 1000)
    base = _batch(ds, cfg, fit_domain_stats(_tiny_dataset()))
    b, t_max, k = base.channels.shape
    channels = np.zeros((b, t_max + extra, k), dtype=base.channels.dtype)
    channels[:, :t_max] = base.channels
    padded = NormalizedBatch(channels=channels, lengths=base.lengths, labels=base.labels)
    want, _ = forward(model, base)
    for batch in (base, padded):
        for training in (True, False):
            got, _ = forward(model, batch, training=training)
            assert np.array_equal(got, want)


def test_gru_uses_requested_attributes(small_dataset):
    stats = fit_domain_stats(small_dataset)
    cfg = _cfg(architecture="gru_discretized", scheme="discretize", bins=8, embed_dim=3)
    model = build(cfg, seed=8)
    assert set(n for n in model.params if n.startswith("emb")) == {"emb0", "emb1"}
    cfg_rf = _cfg(
        architecture="gru_discretized", scheme="discretize", bins=8, embed_dim=3, gru_use_rf=True
    )
    model_rf = build(cfg_rf, seed=8)
    assert "emb2" in model_rf.params
    batch = _batch(small_dataset, cfg, stats)
    logits, _ = forward(model, batch)
    # RF channel is ignored without the flag
    mutated = batch.channels.copy()
    mutated[:, :, 2] = 0
    from emitterclf.normalize import NormalizedBatch

    logits2, _ = forward(
        model, NormalizedBatch(channels=mutated, lengths=batch.lengths, labels=batch.labels)
    )
    assert np.array_equal(logits, logits2)


def test_stats_mlp_is_order_invariant(small_dataset):
    cfg = _cfg(architecture="stats_mlp", scheme="minmax")
    stats = fit_domain_stats(small_dataset)
    model = build(cfg, seed=9)
    seq = small_dataset.sequences[1]
    shuffled = PulseSequence(derive_rng(1).permutation(seq.values, axis=0), seq.label)
    a, _ = forward(model, build_batch([normalize_scheme(seq, stats, "minmax", cfg.bins)]))
    b, _ = forward(model, build_batch([normalize_scheme(shuffled, stats, "minmax", cfg.bins)]))
    assert np.allclose(a, b, atol=1e-12)


def test_predict_contract(small_dataset):
    cfg = _cfg()
    stats = fit_domain_stats(small_dataset)
    model = build(cfg, seed=10)
    seq = small_dataset.sequences[5]
    cls_a, probs_a = predict(model, seq, stats)
    cls_b, probs_b = predict(model, seq, stats)
    assert cls_a == cls_b
    assert np.array_equal(probs_a, probs_b)
    assert probs_a.sum() == pytest.approx(1.0, abs=1e-12)
    assert cls_a == int(np.argmax(probs_a))


def test_predict_tie_breaks_to_lowest_index():
    probs = np.array([0.4, 0.4, 0.2])
    assert int(np.argmax(probs)) == 0


def test_checkpoint_round_trip(tmp_path, small_dataset):
    cfg = _cfg(hidden=5)
    stats = fit_domain_stats(small_dataset)
    model = build(cfg, seed=11)
    opt = Adam(model.params, 1e-3)
    opt.step(model.params, {k: np.full_like(v, 0.01) for k, v in model.params.items()})
    meta = {"epochs_run": 1, "epoch_losses": [2.5]}
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, stats, meta, optimizer=opt)
    ck = load_checkpoint(path)
    assert ck.model.config == cfg
    assert set(ck.model.params) == set(model.params)
    for name in model.params:
        assert np.array_equal(ck.model.params[name], model.params[name])
    assert np.array_equal(ck.stats.mins, stats.mins)
    assert ck.meta["epochs_run"] == 1
    assert ck.adam_t == 1
    assert np.array_equal(ck.opt_tensors["adam.m.fc.W"], opt.m["fc.W"])


def test_checkpoint_write_is_deterministic(tmp_path, small_dataset):
    cfg = _cfg()
    stats = fit_domain_stats(small_dataset)
    model = build(cfg, seed=12)
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(a, model, stats, {"k": 1})
    save_checkpoint(b, model, stats, {"k": 1})
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize(
    "tensors,data_line,extra,match",
    [
        (None, b"data twelve", b"", "malformed data length line"),
        (lambda ts: ts + ts[:1], None, b"", "duplicate tensor names in the header"),
        (lambda ts: ts + [{"name": "x", "shape": [1]}], None, b"", "unexpected tensor 'x'"),
        (lambda ts: ts[1:], None, b"", "missing tensor 'fc.W'"),
        (None, b"data 8", b"", "data line declares 8 bytes, the tensors need"),
        (None, None, b"\0" * 8, "8 bytes after the last tensor"),
    ],
    ids=["data_line", "duplicate", "unexpected", "missing", "declared_bytes", "trailing_bytes"],
)
def test_checkpoint_layout_refusals(tmp_path, small_dataset, tensors, data_line, extra, match):
    """A header whose tensor list, data line or payload disagree is refused naming the file."""
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, build(_cfg(), seed=0), fit_domain_stats(small_dataset))
    magic, header, data, payload = path.read_bytes().split(b"\n", 3)
    fields = json.loads(header)
    if tensors is not None:
        fields["tensors"] = tensors(fields["tensors"])
    header = json.dumps(fields, sort_keys=True).encode()
    path.write_bytes(b"\n".join([magic, header, data_line or data, payload + extra]))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {match}"):
        load_checkpoint(path)


def test_checkpoint_rejects_foreign_file(tmp_path):
    path = tmp_path / "bogus.ckpt"
    path.write_bytes(b"not a checkpoint\n")
    with pytest.raises(ValueError, match="not an emitterclf checkpoint"):
        load_checkpoint(path)
