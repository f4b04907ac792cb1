"""Reference training pass of the classifiers, for the bit-identity oracle test.

A frozen copy of `emitterclf.model.forward(training=True)` and
`emitterclf.model.backward`. The stats MLP's pass is as it was when its
hidden layers ran apart from the FC head: the per-channel minima and
maxima over the valid steps, each hidden layer's FC and ReLU, then the FC
dropout and layer. The three recurrent architectures' pass is as it
was when training ran the layers one after another: each layer is one
whole-sequence kernel call (lstm_forward/gru_forward, whose own bits
tests/reference_recurrent.py pins), the inter-layer dropout draws and
applies one (T, S, B, H) float keep slab per layer boundary, the top
layer's upstream gradient is a (T, S, B, H) slab that is zero but at its
last step, every layer computes its full input gradient, and the
embedding gradients use np.add.at. The tests require the production pass
to return the same logits and gradients, and to leave the dropout rng in
the same state, bit for bit. Not collected by pytest (no `test_` prefix);
do not optimise it.
"""

from __future__ import annotations

import numpy as np

from emitterclf.nn_core import (
    fc_backward,
    fc_forward,
    gru_backward,
    gru_forward,
    lstm_backward,
    lstm_forward,
)

_KERNELS = {"lstm": (lstm_forward, lstm_backward), "gru": (gru_forward, gru_backward)}
_RECURRENT = {
    "attribute_specific_lstm": ("lstm", ("W", "U", "b")),
    "joint_lstm": ("lstm", ("W", "U", "b")),
    "gru_discretized": ("gru", ("W", "U_ru", "U_n", "b")),
}


def ref_dropout(x, p, rng):
    """Inverted dropout over one slab: (x * keep, keep), or (x, None) at p == 0."""
    if p == 0.0:
        return x, None
    keep = np.empty(x.shape)
    rng.random(out=keep)
    np.greater_equal(keep, p, out=keep)
    keep *= 1.0 / (1.0 - p)
    return np.multiply(x, keep), keep


def _input(cfg, p, batch):
    order = np.argsort(-batch.lengths, kind="stable")
    channels = batch.channels
    if cfg.architecture == "gru_discretized":
        embedded = [p[f"emb{j}"][channels[:, :, j]] for j in cfg.gru_attributes]
        x = np.concatenate(embedded, axis=2).transpose(1, 0, 2)[:, None]
    elif cfg.architecture == "attribute_specific_lstm":
        x = channels.astype(np.float64, copy=False).transpose(1, 2, 0)[..., None]
    else:
        x = channels.astype(np.float64, copy=False).transpose(1, 0, 2)[:, None]
    return np.take(x, order, axis=2), order


def _mlp_train_forward(model, batch, rng):
    cfg, p = model.config, model.params
    x = batch.channels.astype(np.float64, copy=False)
    valid = (np.arange(x.shape[1])[None, :] < batch.lengths[:, None])[:, :, None]
    mins = np.where(valid, x, np.inf).min(axis=1)
    h = np.concatenate([mins, np.where(valid, x, -np.inf).max(axis=1)], axis=1)
    acts, pre = [], []
    for i in range(len(cfg.mlp_hidden)):
        z = fc_forward(h, p[f"mlp{i}.W"], p[f"mlp{i}.b"])
        acts.append(h)
        pre.append(z)
        h = np.maximum(z, 0.0)
    feats_d, fc_drop = ref_dropout(h, cfg.dropout, rng)
    cache = dict(acts=acts, pre=pre, feats_d=feats_d, fc_drop=fc_drop)
    return fc_forward(feats_d, p["fc.W"], p["fc.b"]), cache


def _mlp_backward(model, cache, dlogits):
    cfg, p = model.config, model.params
    grads = {}
    grads["fc.W"], grads["fc.b"], dh = fc_backward(cache["feats_d"], p["fc.W"], dlogits)
    if cache["fc_drop"] is not None:
        dh = dh * cache["fc_drop"]
    for i in range(len(cfg.mlp_hidden) - 1, -1, -1):
        dz = dh * (cache["pre"][i] > 0.0)
        dw, db, dh = fc_backward(cache["acts"][i], p[f"mlp{i}.W"], dz)
        grads[f"mlp{i}.W"], grads[f"mlp{i}.b"] = dw, db
    return grads


def ref_train_forward(model, batch, rng):
    """Logits and the cache for ref_backward."""
    if model.config.architecture == "stats_mlp":
        return _mlp_train_forward(model, batch, rng)
    cfg, p = model.config, model.params
    cell, suffixes = _RECURRENT[cfg.architecture]
    kernel = _KERNELS[cell][0]
    h, order = _input(cfg, p, batch)
    lengths = batch.lengths[order]
    layer_caches, drop_masks = [], []
    for layer in range(cfg.layers):
        h, lc = kernel(*(p[f"{cell}{layer}.{s}"] for s in suffixes), h, lengths)
        layer_caches.append(lc)
        if layer < cfg.layers - 1:
            h, dm = ref_dropout(h, cfg.dropout, rng)
            drop_masks.append(dm)
    s, b, hid = h.shape[1:]
    feats = np.ascontiguousarray(h[-1].transpose(1, 0, 2)).reshape(b, s * hid)
    feats = feats[np.argsort(order)]
    feats_d, fc_drop = ref_dropout(feats, cfg.dropout, rng)
    cache = dict(
        layer_caches=layer_caches, drop_masks=drop_masks, h_shape=h.shape, order=order,
        ids=batch.channels[order], feats_d=feats_d, fc_drop=fc_drop,
    )
    return fc_forward(feats_d, p["fc.W"], p["fc.b"]), cache


def ref_backward(model, cache, dlogits):
    """Gradients of every parameter, by name."""
    if model.config.architecture == "stats_mlp":
        return _mlp_backward(model, cache, dlogits)
    cfg, p = model.config, model.params
    cell, suffixes = _RECURRENT[cfg.architecture]
    kernel = _KERNELS[cell][1]
    grads = {}
    grads["fc.W"], grads["fc.b"], dfeats = fc_backward(cache["feats_d"], p["fc.W"], dlogits)
    if cache["fc_drop"] is not None:
        dfeats = dfeats * cache["fc_drop"]
    dfeats = dfeats[cache["order"]]
    _, s, b, hid = cache["h_shape"]
    dh_seq = np.zeros(cache["h_shape"])
    dh_seq[-1] = dfeats.reshape(b, s, hid).transpose(1, 0, 2)
    for layer in range(cfg.layers - 1, -1, -1):
        names = [f"{cell}{layer}.{s}" for s in suffixes]
        *dparams, dx = kernel(*(p[n] for n in names), cache["layer_caches"][layer], dh_seq)
        grads.update(zip(names, dparams))
        if layer > 0:
            dm = cache["drop_masks"][layer - 1]
            if dm is not None:
                dx *= dm
            dh_seq = dx
    if cfg.architecture == "gru_discretized":
        dx0 = dx[:, 0].transpose(1, 0, 2)
        e = cfg.embed_dim
        for slot, j in enumerate(cfg.gru_attributes):
            table = p[f"emb{j}"]
            dtable = np.zeros_like(table)
            dout = dx0[:, :, slot * e : (slot + 1) * e]
            np.add.at(dtable, cache["ids"][:, :, j].reshape(-1), dout.reshape(-1, e))
            grads[f"emb{j}"] = dtable
    return grads
