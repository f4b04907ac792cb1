"""Stateless layer primitives: activations, FC, dropout, embeddings."""

from __future__ import annotations

import math
import mmap

import numpy as np

__all__ = [
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


def reuse(stores: list, i: int, shape, dtype=np.float64) -> np.ndarray:
    """An uninitialized array of `shape` in stores[i], a buffer kept across calls.

    stores holds a caller's buffers, one slot per array it asks for, filled
    in slot order on its first call. The buffer in slot i is written over when
    it is large enough. Otherwise it grows to exactly the size needed, so a
    store grows only when a call needs more than any earlier one.

    Each slot's buffer is the head of an anonymous mapping of its own that
    reserves twice the size that made it. Pages never written take no
    memory, so a store that grows within its mapping keeps its resident
    pages and adds only the new ones. A store that outgrows
    its mapping frees it before mapping its successor, so the two never
    coexist (once the caller holds no view of the old one), and the pages
    leave the process at once. On the malloc heap they did not: once
    glibc's mmap threshold had risen to a freed store's size, the old
    stores stayed as holes that later stores did not fit, and a
    `train_small` benchmark run peaked at 187 or 209 MB RSS from run to
    run. Mapping each growth afresh, with no reserve, made 140 mappings
    and faulted in 400 MB per round, and the steps that grew ran 50-80 ms
    slower.
    """
    size = math.prod(shape)
    if i == len(stores):
        stores.append(None)
    if stores[i] is None or stores[i].size < size:
        mapping = None if stores[i] is None else stores[i].base
        stores[i] = None
        if mapping is None or mapping.size < size:
            mapping = None  # free the old mapping before mapping its successor
            itemsize = np.dtype(dtype).itemsize
            mapping = np.frombuffer(mmap.mmap(-1, 2 * itemsize * max(size, 1)), dtype=dtype)
        stores[i] = mapping[:size]
    return stores[i][:size].reshape(shape)


def dropout(shape, p: float, rng=None, stores: list | None = None) -> np.ndarray | None:
    """Inverted-dropout keep masks of `shape`, one byte per element; None at p == 0.

    Element e is kept (True) where its uniform draw is >= p. The draw is
    one rng.random over `shape`, made one chunk of shape[-3:] at a time, so
    no float array of `shape` exists. Dropout applies a mask as
    x * mask, then *= 1/(1-p), in the forward and the backward pass alike:
    the mask's 1.0 and 0.0 scale exactly, so that has the bits of x times a
    float keep mask of 1/(1-p) and 0.0. Given `stores` (see `reuse`), the
    masks are written over an earlier call's.
    """
    if p == 0.0:
        return None
    masks = reuse([] if stores is None else stores, 0, shape, dtype=np.bool_)
    draw = np.empty(shape[-3:])
    for mask in masks.reshape(-1, *draw.shape):
        rng.random(out=draw)
        np.greater_equal(draw, p, out=mask)
    return masks


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
    """Gradient of `table[ids]`: dout's rows summed into the rows of their ids.

    ids: (N,), dout: (N, E). Each element goes to bin id * E + column in
    dout's order from 0.0, as np.add.at(zeros, ids, dout) adds them, so the
    bits are that formula's.
    """
    vocab, dim = table.shape
    bins = (ids[:, None] * dim + np.arange(dim)).reshape(-1)
    return np.bincount(bins, weights=dout.reshape(-1), minlength=vocab * dim).reshape(vocab, dim)
