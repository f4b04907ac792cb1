"""Declarative key-value run configuration.

Config files are plain text: one `key value...` statement per line, `#`
comments and blank lines ignored. Keys are dotted and validated against the
known-key schema; unknown or duplicate keys are hard errors. Command-line
overrides use the same keys (`--set train.epochs=20`; multi-valued entries
comma-separated).

Sections::

    sim.seed / sim.length_min / sim.length_max / sim.noise / sim.classes
    sim.class.<i>.count  (i = 0 .. sim.classes-1, written without leading zeros)
    sim.class.<i>.pri   constant v | stagger v1 v2 ... | jitter center dev
    sim.class.<i>.pw    (same pattern algebra as pri)
    sim.class.<i>.rf    constant v | hop dwell v1 v2 ...
    model.arch / model.norm / model.hidden / model.layers / model.dropout
    model.bins / model.embed / model.mlp_hidden / model.gru_use_rf
    train.epochs / train.batch / train.lr / train.clip / train.seed
    split.fraction / split.seed
    eval.fractions / eval.replicates

Every key has a caller in a preset, a test or a script. Four things are
not settings: the readout (each stack's state at its last valid pulse),
early stopping (training runs all train.epochs), Adam's betas and eps
(0.9, 0.999, 1e-8) and the batch order (a fresh shuffle every epoch).
"""

from __future__ import annotations

import re

from .data_model import MAX_SEQ_LEN, MIN_SEQ_LEN
from .model import ModelConfig
from .pulse_sim import EmitterSpec, SimConfig, parse_pattern
from .train_eval import DEFAULT_NOISE_FRACTIONS, TrainConfig

__all__ = [
    "ConfigError",
    "load_config",
    "apply_overrides",
    "sim_config",
    "model_config",
    "train_config",
    "split_params",
    "eval_params",
]


class ConfigError(ValueError):
    """Malformed config file, unknown key, or invalid value."""


_KEY_PATTERNS = tuple(
    re.compile(p)
    for p in (
        r"sim\.(seed|length_min|length_max|noise|classes)$",
        r"sim\.class\.(0|[1-9]\d*)\.(count|pri|pw|rf)$",
        r"split\.(fraction|seed)$",
        r"eval\.(fractions|replicates)$",
    )
)


def _check_key(key: str, where: str) -> None:
    """Refuse a key outside the schema, naming where it was set."""
    if key not in _MODEL_KEYS | _TRAIN_KEYS and not any(p.match(key) for p in _KEY_PATTERNS):
        raise ConfigError(f"{where}: unknown config key {key!r}")


def load_config(path) -> dict[str, list[str]]:
    """Parse a config file into key -> value tokens."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: {exc}") from None
    out: dict[str, list[str]] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        key, values = tokens[0], tokens[1:]
        _check_key(key, f"{path}:{lineno}")
        if not values:
            raise ConfigError(f"{path}:{lineno}: key {key!r} has no value")
        if key in out:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = values
    return out


def apply_overrides(cfg: dict[str, list[str]], overrides: list[str]) -> dict[str, list[str]]:
    """Apply `--set key=value[,value...]` overrides on top of a parsed config."""
    out = dict(cfg)
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set: override must look like key=value, got {item!r}")
        key, value = item.split("=", 1)
        _check_key(key, "--set")
        tokens = [t for t in value.split(",") if t]
        if not tokens:
            raise ConfigError(f"--set: override {key!r} has no value")
        out[key] = tokens
    return out


def _get(cfg, key, conv, default):
    if key not in cfg:
        if default is _REQUIRED:
            raise ConfigError(f"missing required config key {key!r}")
        return default
    tokens = cfg[key]
    try:
        return conv(tokens)
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"bad value for {key!r}: {' '.join(tokens)!r}") from exc


_REQUIRED = object()


def _one(f):
    def conv(tokens):
        if len(tokens) != 1:
            raise ValueError("expected a single value")
        return f(tokens[0])

    return conv


def _bool(tokens):
    (v,) = tokens
    if v not in ("true", "false"):
        raise ValueError("expected true|false")
    return v == "true"


# key -> (dataclass field, converter); ModelConfig and TrainConfig hold the defaults
_MODEL_KEYS = {
    "model.arch": ("architecture", _one(str)),
    "model.norm": ("scheme", _one(str)),
    "model.hidden": ("hidden", _one(int)),
    "model.layers": ("layers", _one(int)),
    "model.dropout": ("dropout", _one(float)),
    "model.bins": ("bins", _one(int)),
    "model.embed": ("embed_dim", _one(int)),
    "model.mlp_hidden": ("mlp_hidden", lambda ts: [int(t) for t in ts]),
    "model.gru_use_rf": ("gru_use_rf", _bool),
}
_TRAIN_KEYS = {
    "train.epochs": ("epochs", _one(int)),
    "train.batch": ("batch_size", _one(int)),
    "train.lr": ("learning_rate", _one(float)),
    "train.clip": ("clip_norm", _one(float)),
    "train.seed": ("seed", _one(int)),
}


def _fields(cfg, keys) -> dict:
    """Dataclass kwargs for the keys of one section that cfg sets."""
    return {f: _get(cfg, key, conv, _REQUIRED) for key, (f, conv) in keys.items() if key in cfg}


def sim_config(cfg: dict[str, list[str]], seed: int | None = None) -> SimConfig:
    """Build a SimConfig from the sim.* section."""
    num_classes = _get(cfg, "sim.classes", _one(int), _REQUIRED)
    emitters = []
    counts = []
    for c in range(num_classes):
        prefix = f"sim.class.{c}"
        for field in ("count", "pri", "pw", "rf"):
            if f"{prefix}.{field}" not in cfg:
                raise ConfigError(f"missing required config key '{prefix}.{field}'")
        counts.append(_get(cfg, f"{prefix}.count", _one(int), _REQUIRED))
        if counts[-1] < 2:  # SimConfig's bound, refused here to name the key
            raise ConfigError(f"{prefix}.count: class {c} needs at least 2 sequences, got {counts[-1]}")
        patterns = {}
        for field in ("pri", "pw", "rf"):
            try:
                patterns[field] = parse_pattern(cfg[f"{prefix}.{field}"], rf=field == "rf")
            except ValueError as exc:
                raise ConfigError(f"{prefix}.{field}: {exc}") from exc
        try:
            emitters.append(EmitterSpec(class_id=c, **patterns))
        except ValueError as exc:
            raise ConfigError(f"class {c}: {exc}") from exc
    extra = [k for k in cfg if k.startswith("sim.class.")]
    for k in extra:
        c = int(k.split(".")[2])
        if c >= num_classes:
            raise ConfigError(f"config key {k!r} references class {c} >= sim.classes")
    noise = _get(cfg, "sim.noise", _one(float), 0.0)
    if not 0.0 <= noise <= 0.5:  # SimConfig's bound, refused here to name the key
        raise ConfigError(f"sim.noise: noise_fraction must lie in [0, 0.5], got {noise!r}")
    lengths = (
        _get(cfg, "sim.length_min", _one(int), MIN_SEQ_LEN),
        _get(cfg, "sim.length_max", _one(int), MAX_SEQ_LEN),
    )
    if not MIN_SEQ_LEN <= lengths[0] <= lengths[1] <= MAX_SEQ_LEN:  # SimConfig's bound
        raise ConfigError(
            f"sim.length_min, sim.length_max: need {MIN_SEQ_LEN} <= min <= max <= {MAX_SEQ_LEN}, "
            f"got {lengths}"
        )
    return SimConfig(
        emitters=tuple(emitters),
        sequences_per_class=tuple(counts),
        length_range=lengths,
        noise_fraction=noise,
        seed=seed if seed is not None else _get(cfg, "sim.seed", _one(int), 0),
    )


def model_config(cfg: dict[str, list[str]], num_classes: int) -> ModelConfig:
    """Build a ModelConfig from the model.* section; class count from data."""
    kw = {"architecture": "attribute_specific_lstm", "scheme": "minmax+perseq"}
    kw.update(_fields(cfg, _MODEL_KEYS))
    try:
        return ModelConfig(num_classes=num_classes, **kw)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def train_config(cfg: dict[str, list[str]], seed: int | None = None) -> TrainConfig:
    kw = _fields(cfg, _TRAIN_KEYS)
    if seed is not None:
        kw["seed"] = seed
    try:
        return TrainConfig(**kw)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def split_params(cfg: dict[str, list[str]]) -> tuple[float, int]:
    fraction = _get(cfg, "split.fraction", _one(float), 0.778)
    if not 0.0 < fraction < 1.0:  # split_dataset's bound, refused here to name the key
        raise ConfigError(f"split.fraction: train_fraction must be in (0, 1), got {fraction!r}")
    return fraction, _get(cfg, "split.seed", _one(int), 7)


def eval_params(cfg: dict[str, list[str]]) -> tuple[tuple[float, ...], int]:
    fractions = _get(
        cfg, "eval.fractions", lambda ts: [float(t) for t in ts], list(DEFAULT_NOISE_FRACTIONS)
    )
    for k, f in enumerate(fractions):
        if not 0.0 <= f <= 0.5:  # also refuses NaN
            raise ConfigError(f"eval.fractions: each fraction must lie in [0, 0.5], got {f!r}")
        if f in fractions[:k]:
            raise ConfigError(f"eval.fractions: fraction {f!r} is listed twice")
    replicates = _get(cfg, "eval.replicates", _one(int), 3)
    if replicates < 1:
        raise ConfigError("eval.replicates must be >= 1")
    return tuple(fractions), replicates
