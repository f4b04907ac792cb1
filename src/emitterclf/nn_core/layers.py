"""Stateless layer primitives: activations, FC, dropout, embeddings."""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "sigmoid",
    "softmax",
    "init_fc",
    "fc_forward",
    "fc_backward",
    "dropout",
    "reuse",
    "relu_forward",
    "relu_backward",
    "init_embedding",
    "embedding_forward",
    "embedding_backward",
]


def sigmoid(x: np.ndarray) -> np.ndarray:
    # tanh form stays finite for arbitrarily large |x| (raw-unit inputs are huge)
    return 0.5 * (np.tanh(0.5 * x) + 1.0)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis (max subtraction); rows sum to 1."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def init_fc(in_size: int, out_size: int, rng) -> tuple[np.ndarray, np.ndarray]:
    k = 1.0 / math.sqrt(in_size)
    return rng.uniform(-k, k, size=(in_size, out_size)), np.zeros(out_size)


def fc_forward(x: np.ndarray, W: np.ndarray, b: np.ndarray) -> np.ndarray:
    return x @ W + b


def fc_backward(
    x: np.ndarray, W: np.ndarray, dy: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns (dW, db, dx)."""
    return x.T @ dy, dy.sum(axis=0), dy @ W.T


def reuse(stores: list, i: int, shape) -> np.ndarray:
    """An uninitialized float64 array of `shape` in stores[i], a buffer kept across calls.

    stores holds a caller's buffers, one slot per array it asks for, filled
    in slot order on its first call. The buffer in slot i is written over when
    it is large enough. Otherwise it is freed before a buffer of exactly the
    size needed takes its slot, so a store grows only when a call needs more
    than any earlier one and never coexists with the store it replaces (once
    the caller holds no view of it).
    """
    size = math.prod(shape)
    if i == len(stores):
        stores.append(None)
    if stores[i] is None or stores[i].size < size:
        stores[i] = None  # free the old buffer before allocating its successor
        stores[i] = np.empty(size)
    return stores[i][:size].reshape(shape)


def dropout(
    x: np.ndarray, p: float, rng=None, stores: list | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Inverted (training-time) dropout; inference does not call it.

    Zero each element with probability p and scale survivors by 1/(1-p);
    p == 0 is the identity. Returns (output, keep_mask); the mask is None
    when no dropout was applied and otherwise multiplies upstream gradients
    in the backward pass. Given `stores` (see `reuse`), the mask and the
    output are written over an earlier call's; the draw is the same.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must lie in [0, 1), got {p}")
    if p == 0.0:
        return x, None
    stores = [] if stores is None else stores
    # Draw over every element, padding included, so the rng stream depends
    # only on x.shape; the draw then becomes the mask in place.
    keep = reuse(stores, 0, x.shape)
    rng.random(out=keep)
    np.greater_equal(keep, p, out=keep)
    keep *= 1.0 / (1.0 - p)
    return np.multiply(x, keep, out=reuse(stores, 1, x.shape)), keep


def relu_forward(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_backward(x: np.ndarray, dy: np.ndarray) -> np.ndarray:
    return dy * (x > 0.0)


def init_embedding(vocab: int, dim: int, rng) -> np.ndarray:
    k = 1.0 / math.sqrt(dim)
    return rng.uniform(-k, k, size=(vocab, dim))


def embedding_forward(table: np.ndarray, ids: np.ndarray) -> np.ndarray:
    return table[ids]


def embedding_backward(table: np.ndarray, ids: np.ndarray, dout: np.ndarray) -> np.ndarray:
    dtable = np.zeros_like(table)
    np.add.at(dtable, ids.reshape(-1), dout.reshape(-1, table.shape[1]))
    return dtable
