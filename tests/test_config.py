from pathlib import Path

import pytest

from emitterclf.config import (
    ConfigError,
    apply_overrides,
    eval_params,
    load_config,
    sim_config,
)

MICRO = (Path(__file__).resolve().parent.parent / "configs" / "micro.cfg").read_text()


def _sim(path):
    return sim_config(load_config(path))


def _overridden(*items):
    return lambda path: eval_params(apply_overrides(load_config(path), list(items)))


# case -> (file contents, what reads it, the refusal)
_REFUSALS = {
    "no_value": ("train.epochs\n", load_config, ":1: key 'train.epochs' has no value"),
    "duplicate_key": (
        "train.epochs 2\n# two\ntrain.epochs 3\n",
        load_config,
        ":3: duplicate key 'train.epochs'",
    ),
    "override_without_equals": (MICRO, _overridden("train.epochs"), "must look like key=value"),
    "override_without_value": (MICRO, _overridden("train.epochs=,"), "'train.epochs' has no value"),
    "missing_class_key": (
        MICRO.replace("sim.class.2.rf hop 2 5000 5500\n", ""),
        _sim,
        "missing required config key 'sim.class.2.rf'",
    ),
    "class_beyond_classes": (
        MICRO + "sim.class.3.count 8\n",
        _sim,
        "'sim.class.3.count' references class 3 >= sim.classes",
    ),
    "zero_replicates": (MICRO, _overridden("eval.replicates=0"), "eval.replicates must be >= 1"),
}


@pytest.mark.parametrize("case", sorted(_REFUSALS))
def test_config_refusals(tmp_path, case):
    text, read, message = _REFUSALS[case]
    path = tmp_path / "run.cfg"
    path.write_text(text)
    with pytest.raises(ConfigError) as info:
        read(path)
    assert message in str(info.value)


def test_non_utf8_config_refused_naming_the_file(tmp_path):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(b"\xff" + MICRO.encode())
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert str(info.value).startswith(f"{path}: 'utf-8' codec can't decode byte 0xff in position 0")
