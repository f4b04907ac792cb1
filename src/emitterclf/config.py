"""Declarative key-value run configuration.

Config files are plain text: one `key value...` statement per line, `#`
comments and blank lines ignored. Keys are dotted and validated against the
known-key schema; unknown or duplicate keys are hard errors. Command-line
overrides use the same keys (`--set train.epochs=20`; multi-valued entries
comma-separated).

Sections::

    sim.seed / sim.length_min / sim.length_max / sim.noise / sim.classes
    sim.class.<i>.count
    sim.class.<i>.pri   constant v | stagger v1 v2 ... | jitter center dev
    sim.class.<i>.pw    (same pattern algebra as pri)
    sim.class.<i>.rf    constant v | hop dwell v1 v2 ...
    model.arch / model.norm / model.hidden / model.layers / model.dropout
    model.readout / model.bins / model.embed / model.mlp_hidden / model.gru_use_rf
    train.epochs / train.batch / train.lr / train.beta1 / train.beta2
    train.eps / train.clip / train.shuffle / train.patience / train.seed
    split.fraction / split.seed
    eval.fractions / eval.replicates
"""

from __future__ import annotations

import re

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
        r"sim\.class\.\d+\.(count|pri|pw|rf)$",
        r"model\.(arch|norm|hidden|layers|dropout|readout|bins|embed|mlp_hidden|gru_use_rf)$",
        r"train\.(epochs|batch|lr|beta1|beta2|eps|clip|shuffle|patience|seed)$",
        r"split\.(fraction|seed)$",
        r"eval\.(fractions|replicates)$",
    )
)


def _check_key(key: str) -> None:
    if not any(p.match(key) for p in _KEY_PATTERNS):
        raise ConfigError(f"unknown config key {key!r}")


def load_config(path) -> dict[str, list[str]]:
    """Parse a config file into key -> value tokens."""
    out: dict[str, list[str]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tokens = line.split()
            key, values = tokens[0], tokens[1:]
            _check_key(key)
            if not values:
                raise ConfigError(f"{path}:{lineno}: key {key!r} has no value")
            if key in out:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            out[key] = values
    return out


def apply_overrides(cfg: dict[str, list[str]], overrides: list[str]) -> dict[str, list[str]]:
    """Apply `key=value[,value...]` overrides on top of a parsed config."""
    out = dict(cfg)
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override must look like key=value, got {item!r}")
        key, value = item.split("=", 1)
        _check_key(key)
        tokens = [t for t in value.split(",") if t]
        if not tokens:
            raise ConfigError(f"override {key!r} has no value")
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
    return SimConfig(
        emitters=tuple(emitters),
        sequences_per_class=tuple(counts),
        length_range=(
            _get(cfg, "sim.length_min", _one(int), 7),
            _get(cfg, "sim.length_max", _one(int), 512),
        ),
        noise_fraction=_get(cfg, "sim.noise", _one(float), 0.0),
        seed=seed if seed is not None else _get(cfg, "sim.seed", _one(int), 0),
    )


def model_config(cfg: dict[str, list[str]], num_classes: int) -> ModelConfig:
    """Build a ModelConfig from the model.* section; class count from data."""
    try:
        return ModelConfig(
            architecture=_get(cfg, "model.arch", _one(str), "attribute_specific_lstm"),
            scheme=_get(cfg, "model.norm", _one(str), "minmax+perseq"),
            num_classes=num_classes,
            hidden=_get(cfg, "model.hidden", _one(int), 64),
            layers=_get(cfg, "model.layers", _one(int), 2),
            dropout=_get(cfg, "model.dropout", _one(float), 0.5),
            readout=_get(cfg, "model.readout", _one(str), "last"),
            bins=_get(cfg, "model.bins", _one(int), 256),
            embed_dim=_get(cfg, "model.embed", _one(int), 32),
            mlp_hidden=tuple(_get(cfg, "model.mlp_hidden", lambda ts: [int(t) for t in ts], [64, 64])),
            gru_use_rf=_get(cfg, "model.gru_use_rf", _bool, False),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def train_config(cfg: dict[str, list[str]], seed: int | None = None) -> TrainConfig:
    patience = _get(cfg, "train.patience", _one(int), 0)
    try:
        return TrainConfig(
            epochs=_get(cfg, "train.epochs", _one(int), 40),
            batch_size=_get(cfg, "train.batch", _one(int), 32),
            learning_rate=_get(cfg, "train.lr", _one(float), 1e-3),
            beta1=_get(cfg, "train.beta1", _one(float), 0.9),
            beta2=_get(cfg, "train.beta2", _one(float), 0.999),
            eps=_get(cfg, "train.eps", _one(float), 1e-8),
            clip_norm=_get(cfg, "train.clip", _one(float), 5.0),
            seed=seed if seed is not None else _get(cfg, "train.seed", _one(int), 0),
            shuffle=_get(cfg, "train.shuffle", _bool, True),
            patience=patience if patience > 0 else None,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def split_params(cfg: dict[str, list[str]]) -> tuple[float, int]:
    return (
        _get(cfg, "split.fraction", _one(float), 0.778),
        _get(cfg, "split.seed", _one(int), 7),
    )


def eval_params(cfg: dict[str, list[str]]) -> tuple[tuple[float, ...], int]:
    fractions = _get(
        cfg, "eval.fractions", lambda ts: [float(t) for t in ts], list(DEFAULT_NOISE_FRACTIONS)
    )
    replicates = _get(cfg, "eval.replicates", _one(int), 3)
    if replicates < 1:
        raise ConfigError("eval.replicates must be >= 1")
    return tuple(fractions), replicates
