"""Reference pulse-sequence generator for the bit-identity property test.

A frozen copy of `emitterclf.pulse_sim.generate_sequence` as it was before
the vectorized rewrite: it fills the (T, 3) array one pulse and one
attribute at a time, each jitter value taking one scalar `uniform(-1, 1)`
draw, then adds the Gaussian noise block. The pattern methods it called
(`value_at`) are inlined as `_value_at`. The tests require the production
generator to return the same bytes and leave its rng in the same state.
Not collected by pytest (no `test_` prefix); do not optimise it.
"""

from __future__ import annotations

import numpy as np

from emitterclf.data_model import MAX_SEQ_LEN, PulseSequence
from emitterclf.pulse_sim import (
    VALUE_FLOOR,
    ConstantPattern,
    HopPattern,
    JitterPattern,
    StaggerPattern,
)


def _value_at(pat, t: int, rng) -> float:
    if isinstance(pat, ConstantPattern):
        return pat.value
    if isinstance(pat, StaggerPattern):
        return pat.values[t % len(pat.values)]
    if isinstance(pat, JitterPattern):
        return pat.center * (1.0 + pat.deviation * rng.uniform(-1.0, 1.0))
    if isinstance(pat, HopPattern):
        return pat.values[(t // pat.dwell) % len(pat.values)]
    raise TypeError(f"not a pattern: {pat!r}")


def ref_generate_sequence(spec, length: int, noise_fraction: float, rng) -> PulseSequence:
    if not 1 <= length <= MAX_SEQ_LEN:
        raise ValueError(f"length must lie in [1, {MAX_SEQ_LEN}], got {length}")
    if noise_fraction < 0.0:
        raise ValueError("noise_fraction must be >= 0")
    patterns = (spec.pri, spec.pw, spec.rf)
    values = np.empty((length, 3), dtype=np.float64)
    for t in range(length):
        for j, pat in enumerate(patterns):
            values[t, j] = _value_at(pat, t, rng)
    if noise_fraction > 0.0:
        sigma = np.array([noise_fraction * p.mean for p in patterns])
        values += rng.standard_normal(values.shape) * sigma
        np.maximum(values, VALUE_FLOOR, out=values)
        # Noise can push pw past pri; cap to preserve the pulse invariant.
        np.minimum(values[:, 1], values[:, 0] * (1.0 - 1e-9), out=values[:, 1])
    return PulseSequence(values, spec.class_id, check=False)
