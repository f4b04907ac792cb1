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
    "relu_forward",
    "relu_backward",
    "init_embedding",
    "embedding_forward",
    "embedding_backward",
]


def sigmoid(x: np.ndarray) -> np.ndarray:
    # tanh form stays finite for arbitrarily large |x| (raw-unit inputs are huge)
    return 0.5 * (np.tanh(0.5 * x) + 1.0)


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax (max subtraction); rows sum to 1."""
    z = logits - logits.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


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


def dropout(x: np.ndarray, p: float, rng=None) -> tuple[np.ndarray, np.ndarray | None]:
    """Inverted (training-time) dropout; inference does not call it.

    Zero each element with probability p and scale survivors by 1/(1-p);
    p == 0 is the identity. Returns (output, keep_mask); the mask is None
    when no dropout was applied and otherwise multiplies upstream gradients
    in the backward pass.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must lie in [0, 1), got {p}")
    if p == 0.0:
        return x, None
    # Draw over every element, padding included, so the rng stream depends
    # only on x.shape; the draw then becomes the mask in place.
    keep = rng.random(x.shape)
    np.greater_equal(keep, p, out=keep)
    keep *= 1.0 / (1.0 - p)
    return x * keep, keep


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
