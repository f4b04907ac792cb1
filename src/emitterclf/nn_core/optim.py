"""First-order optimization: Adam with bias correction, global-norm clipping.

Parameters and gradients travel as flat name -> float64 array dicts; the
gradient dict mirrors the parameter dict exactly and is rebuilt fresh for
every optimization step (nothing carries over between steps).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["Adam", "clip_gradients", "global_grad_norm"]

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


def global_grad_norm(grads: dict[str, np.ndarray]) -> float:
    """Global L2 norm over every gradient tensor."""
    total = 0.0
    for g in grads.values():
        flat = g.ravel()
        total += float(flat @ flat)
    return math.sqrt(total)


def clip_gradients(grads: dict[str, np.ndarray], max_norm: float, norm: float) -> None:
    """Scale all gradients in place from their global_grad_norm `norm` to at most max_norm."""
    if norm > max_norm:
        scale = max_norm / norm
        for g in grads.values():
            g *= scale


class Adam:
    """Adam with bias correction, betas BETA1 and BETA2, and EPS added outside the sqrt."""

    def __init__(self, params: dict[str, np.ndarray], learning_rate: float):
        self.learning_rate = learning_rate
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        b1c = 1.0 - BETA1**self.t
        b2c = 1.0 - BETA2**self.t
        for name, p in params.items():
            g = grads[name]
            m = self.m[name]
            v = self.v[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            p -= self.learning_rate * (m / b1c) / (np.sqrt(v / b2c) + EPS)

    def state_tensors(self) -> dict[str, np.ndarray]:
        """Moment buffers under checkpoint-friendly names."""
        out = {}
        for name, m in self.m.items():
            out[f"adam.m.{name}"] = m
        for name, v in self.v.items():
            out[f"adam.v.{name}"] = v
        return out

    def load_state(self, tensors: dict[str, np.ndarray], t: int) -> None:
        self.t = int(t)
        for name in self.m:
            self.m[name] = tensors[f"adam.m.{name}"]
            self.v[name] = tensors[f"adam.v.{name}"]
