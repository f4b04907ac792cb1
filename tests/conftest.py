import numpy as np
import pytest

from emitterclf.data_model import Dataset, PulseSequence
from emitterclf.model import forward
from emitterclf.nn_core import softmax
from emitterclf.normalize import build_batch, normalize_scheme

# Acceptance criteria report one PASS/FAIL line each; collected here and
# printed in the terminal summary so the verdicts are always visible.
_acceptance_lines: list[str] = []


def record_acceptance(criterion: str, passed: bool, detail: str = "") -> None:
    verdict = "PASS" if passed else "FAIL"
    suffix = f" - {detail}" if detail else ""
    _acceptance_lines.append(f"ACCEPTANCE {criterion}: {verdict}{suffix}")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)


def make_sequence(pri, pw, rf, label=0, length=None):
    """Small helper: build a PulseSequence from per-attribute specs.

    Each of pri/pw/rf is either a scalar (constant column) or a list.
    """
    cols = []
    t = None
    for v in (pri, pw, rf):
        arr = np.atleast_1d(np.asarray(v, dtype=np.float64))
        t = max(t or 1, len(arr))
        cols.append(arr)
    if length is not None:
        t = length
    values = np.empty((t, 3))
    for j, col in enumerate(cols):
        values[:, j] = np.resize(col, t)
    return PulseSequence(values, label, check=False)


def predict(model, seq, stats):
    """One sequence through inference on its own: (class, probabilities).

    Normalizes with the model's stored scheme and takes the softmax of the
    logits; argmax ties break toward the lowest class index. `evaluate`,
    which batches, must agree with it.
    """
    ns = normalize_scheme(seq, stats, model.config.scheme, model.config.bins)
    logits, _ = forward(model, build_batch([ns]))
    probs = softmax(logits[0])
    return int(np.argmax(probs)), probs


@pytest.fixture
def small_dataset():
    """Deterministic 3-class dataset with variation in every attribute."""
    rng = np.random.default_rng(42)
    seqs = []
    for label, (pri0, rf0) in enumerate([(100.0, 9000.0), (200.0, 3000.0), (400.0, 5000.0)]):
        for k in range(4):
            t = 7 + int(rng.integers(0, 6))
            pri = pri0 * (1.0 + 0.1 * rng.random(t))
            pw = 5.0 + rng.random(t)
            rf = rf0 * (1.0 + 0.01 * rng.random(t))
            seqs.append(PulseSequence(np.stack([pri, pw, rf], axis=1), label))
    return Dataset(seqs, 3)
