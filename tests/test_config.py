from pathlib import Path

import pytest

from emitterclf.cli import main
from emitterclf.config import (
    ConfigError,
    apply_overrides,
    eval_params,
    load_config,
    sim_config,
    split_params,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
MICRO = (CONFIGS / "micro.cfg").read_text()


def _sim(path):
    return sim_config(load_config(path))


def _overridden(*items, read=eval_params):
    return lambda path: read(apply_overrides(load_config(path), list(items)))


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
    "split_fraction_above_one": (
        MICRO,
        _overridden("split.fraction=1.5", read=split_params),
        "split.fraction: train_fraction must be in (0, 1), got 1.5",
    ),
    "class_count_below_two": (
        MICRO,
        _overridden("sim.class.0.count=1", read=sim_config),
        "sim.class.0.count: class 0 needs at least 2 sequences, got 1",
    ),
    "length_min_below_seven": (
        MICRO,
        _overridden("sim.length_min=3", read=sim_config),
        "sim.length_min, sim.length_max: need 7 <= min <= max <= 512, got (3, 24)",
    ),
    "length_min_above_max": (
        MICRO,
        _overridden("sim.length_min=30", read=sim_config),
        "sim.length_min, sim.length_max: need 7 <= min <= max <= 512, got (30, 24)",
    ),
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


def test_unknown_key_in_a_file_names_the_file_and_line(tmp_path, capsys):
    path = tmp_path / "typo.cfg"
    path.write_text(MICRO + "train.shufle true\n")
    out = tmp_path / "micro.ds"
    assert main(["gen", "--config", str(path), "--out", str(out)]) == 1
    line = len(MICRO.splitlines()) + 1
    assert f"{path}:{line}: unknown config key 'train.shufle'" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_set_key_names_set(tmp_path, capsys):
    out = tmp_path / "micro.ds"
    argv = ["gen", "--config", str(CONFIGS / "micro.cfg"), "--out", str(out)]
    assert main(argv + ["--set", "train.shufle=1"]) == 1
    assert "--set: unknown config key 'train.shufle'" in capsys.readouterr().err
    assert not out.exists()
