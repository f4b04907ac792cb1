import json
import runpy
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emitterclf import cli, train_eval
from emitterclf import config as cfgmod
from emitterclf.cli import main
from emitterclf.data_model import Dataset, dataset_fingerprint, load_dataset, save_dataset
from emitterclf.model import ModelConfig, build, load_checkpoint, save_checkpoint
from emitterclf.normalize import fit_domain_stats
from emitterclf.train_eval import BASELINES

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SCRIPTS = CONFIGS.parent / "scripts"
MICRO = str(CONFIGS / "micro.cfg")

SEPARABLE_CFG = """
sim.seed 3
sim.length_min 7
sim.length_max 14
sim.noise 0.01
sim.classes 2

sim.class.0.count 12
sim.class.0.pri stagger 100 140
sim.class.0.pw constant 5
sim.class.0.rf constant 9000

sim.class.1.count 12
sim.class.1.pri jitter 300 0.1
sim.class.1.pw constant 6
sim.class.1.rf constant 3000

model.arch attribute_specific_lstm
model.norm minmax+perseq
model.hidden 8
model.layers 2
model.dropout 0.0

train.epochs 30
train.batch 8
train.lr 0.005
train.seed 0

eval.replicates 2
eval.fractions 0 0.05
"""


@pytest.fixture
def sep_cfg(tmp_path):
    path = tmp_path / "sep.cfg"
    path.write_text(SEPARABLE_CFG)
    return str(path)


def test_gen_writes_dataset_and_summary(tmp_path, capsys):
    out = tmp_path / "d.ds"
    assert main(["gen", "--config", MICRO, "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "N=24 C=3" in printed
    ds = load_dataset(out)
    assert ds.n == 24 and ds.num_classes == 3


def test_gen_idempotent(tmp_path):
    a, b = tmp_path / "a.ds", tmp_path / "b.ds"
    assert main(["gen", "--config", MICRO, "--out", str(a)]) == 0
    assert main(["gen", "--config", MICRO, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_seed_override_changes_output(tmp_path):
    a, b = tmp_path / "a.ds", tmp_path / "b.ds"
    main(["gen", "--config", MICRO, "--out", str(a)])
    main(["gen", "--config", MICRO, "--out", str(b), "--seed", "99"])
    assert a.read_bytes() != b.read_bytes()


def test_train_eval_round_trip(tmp_path, sep_cfg, capsys):
    """Separable two-class set: the CLI pipeline reaches macro accuracy 1."""
    data = tmp_path / "d.ds"
    ckpt = tmp_path / "m.ckpt"
    rep = tmp_path / "rep"
    assert main(["gen", "--config", sep_cfg, "--out", str(data)]) == 0
    assert main(["train", "--config", sep_cfg, "--data", str(data), "--out", str(ckpt)]) == 0
    assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data), "--out-dir", str(rep)]) == 0
    printed = capsys.readouterr().out
    assert "macro_accuracy 1.000000" in printed
    payload = json.loads((rep / "report.json").read_text())
    assert payload["macro_accuracy"] == 1.0
    confusion_lines = (rep / "confusion.csv").read_text().splitlines()[1:]
    row_sums = [sum(int(v) for v in line.split(",")[1:]) for line in confusion_lines]
    assert row_sums == [12, 12]


def test_train_rejects_incompatible_arch_scheme(tmp_path, capsys):
    data = tmp_path / "d.ds"
    main(["gen", "--config", MICRO, "--out", str(data)])
    rc = main(
        [
            "train",
            "--config",
            MICRO,
            "--data",
            str(data),
            "--out",
            str(tmp_path / "m.ckpt"),
            "--set",
            "model.arch=gru_discretized",
        ]
    )
    assert rc == 1
    assert "require each other" in capsys.readouterr().err


def test_train_resume_continues_loss_history(tmp_path, sep_cfg):
    data = tmp_path / "d.ds"
    main(["gen", "--config", sep_cfg, "--out", str(data)])
    full_ckpt = tmp_path / "full.ckpt"
    main(
        ["train", "--config", sep_cfg, "--data", str(data), "--out", str(full_ckpt), "--set", "train.epochs=6"]
    )
    head = tmp_path / "head.ckpt"
    main(
        ["train", "--config", sep_cfg, "--data", str(data), "--out", str(head), "--set", "train.epochs=3"]
    )
    resumed = tmp_path / "resumed.ckpt"
    main(
        [
            "train",
            "--config",
            sep_cfg,
            "--data",
            str(data),
            "--out",
            str(resumed),
            "--resume",
            str(head),
            "--set",
            "train.epochs=6",
        ]
    )
    full = load_checkpoint(full_ckpt)
    cont = load_checkpoint(resumed)
    assert cont.meta["epoch_losses"] == full.meta["epoch_losses"]
    for name in full.model.params:
        assert np.array_equal(cont.model.params[name], full.model.params[name])


def test_eval_missing_checkpoint(tmp_path, capsys):
    data = tmp_path / "d.ds"
    main(["gen", "--config", MICRO, "--out", str(data)])
    rc = main(
        ["eval", "--checkpoint", str(tmp_path / "nope.ckpt"), "--data", str(data), "--out-dir", str(tmp_path)]
    )
    assert rc == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--config", "--seed", "--set"])
def test_eval_refuses_flags_it_would_ignore(tmp_path, capsys, flag):
    """eval takes its model and stats from the checkpoint and reads no config."""
    value = {"--config": MICRO, "--seed": "9", "--set": "train.seed=9"}[flag]
    data, model, stats = _micro_inputs(tmp_path)
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, model, stats)
    capsys.readouterr()
    assert main(_checkpoint_args("eval", ckpt, data, tmp_path / "out") + [flag, value]) == 1
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_ablate_outputs_and_determinism(tmp_path):
    data = tmp_path / "d.ds"
    main(["gen", "--config", MICRO, "--out", str(data)])
    args = ["ablate", "--config", MICRO, "--train", str(data), "--test", str(data)]
    assert main(args + ["--out-dir", str(tmp_path / "a1")]) == 0
    assert main(args + ["--out-dir", str(tmp_path / "a2")]) == 0
    assert main(args + ["--out-dir", str(tmp_path / "a4"), "--jobs", "4"]) == 0
    csv1 = (tmp_path / "a1" / "ablation.csv").read_bytes()
    assert csv1 == (tmp_path / "a2" / "ablation.csv").read_bytes()
    assert csv1 == (tmp_path / "a4" / "ablation.csv").read_bytes()
    runs1 = (tmp_path / "a1" / "ablation_runs.csv").read_bytes()
    assert runs1 == (tmp_path / "a2" / "ablation_runs.csv").read_bytes()
    assert runs1 == (tmp_path / "a4" / "ablation_runs.csv").read_bytes()
    lines = csv1.decode().splitlines()
    assert lines[0] == "scheme,architecture,median_macro_accuracy"
    assert len(lines) == 1 + 6
    assert len(runs1.decode().splitlines()) == 1 + 12  # 6 cells x 2 replicates


def test_baselines_outputs(tmp_path, capsys):
    data = tmp_path / "d.ds"
    main(["gen", "--config", MICRO, "--out", str(data)])
    out = tmp_path / "bl"
    assert (
        main(
            [
                "baselines",
                "--config",
                MICRO,
                "--train",
                str(data),
                "--test",
                str(data),
                "--out-dir",
                str(out),
                "--set",
                "eval.replicates=1",
            ]
        )
        == 0
    )
    lines = (out / "baselines.csv").read_text().splitlines()
    assert lines[0] == "method,scheme,median_macro_accuracy"
    assert len(lines) == 1 + 5
    methods = [line.split(",")[0] for line in lines[1:]]
    assert methods == [
        "gru_discretized_pripw",
        "gru_discretized_rf",
        "stats_mlp_minmax",
        "stats_mlp_standardize",
        "proposed",
    ]
    printed = capsys.readouterr().out.splitlines()[-5:]
    for line, csv_line in zip(printed, lines[1:]):
        method, scheme, median = csv_line.split(",")
        assert line == f"{method} | {scheme} | median M = {float(median):.4f}"


def test_grid_names_the_bad_dataset(tmp_path, capsys):
    good, bad = tmp_path / "good.ds", tmp_path / "bad.ds"
    main(["gen", "--config", MICRO, "--out", str(good)])
    bad.write_text(good.read_text().replace("seq 0 ", "seq x ", 1))
    capsys.readouterr()
    args = ["--config", MICRO, "--train", str(good), "--test", str(bad), "--out-dir", str(tmp_path)]
    assert main(["ablate"] + args) == 1
    assert f"error: {bad}: record 1: malformed seq line" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["ablate", "baselines"])
def test_grid_class_count_mismatch_names_both_files(tmp_path, capsys, command):
    train_path, _, _ = _micro_inputs(tmp_path, data_classes=3)
    test_path = tmp_path / "test.ds"
    save_dataset(Dataset(load_dataset(train_path).sequences, 5), test_path)
    capsys.readouterr()
    out = tmp_path / "out"
    args = [command, "--config", MICRO, "--train", str(train_path), "--test", str(test_path)]
    assert main(args + ["--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"error: {train_path} declares 3 classes but {test_path} declares 5" in err
    assert not out.exists()


@pytest.mark.parametrize("command,jobs", [("ablate", "0"), ("baselines", "-3")])
def test_grid_refuses_jobs_below_one(tmp_path, capsys, micro_data, command, jobs):
    out = tmp_path / "out"
    args = [command, "--config", MICRO, "--train", str(micro_data), "--test", str(micro_data)]
    capsys.readouterr()
    assert main(args + ["--out-dir", str(out), "--jobs", jobs]) == 1
    err = capsys.readouterr().err
    assert "--jobs" in err and jobs in err
    assert not out.exists()


@pytest.mark.parametrize(
    "fractions,named",
    [("0,0.7", "0.7"), ("-0.1", "-0.1"), ("0,nan", "nan"), ("inf", "inf"), ("0,0.1,0.1", "0.1")],
    ids=["above-0.5", "negative", "nan", "inf", "duplicate"],
)
def test_noise_sweep_refuses_bad_fractions(tmp_path, capsys, fractions, named):
    data, model, stats = _micro_inputs(tmp_path)
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, model, stats)
    capsys.readouterr()
    args = _checkpoint_args("noise-sweep", ckpt, data, tmp_path / "out")
    assert main(args + ["--set", f"eval.fractions={fractions}"]) == 1
    err = capsys.readouterr().err
    assert "eval.fractions" in err and named in err
    assert not (tmp_path / "out").exists()


def test_noise_sweep_outputs(tmp_path, sep_cfg):
    data = tmp_path / "d.ds"
    ckpt = tmp_path / "m.ckpt"
    main(["gen", "--config", sep_cfg, "--out", str(data)])
    main(["train", "--config", sep_cfg, "--data", str(data), "--out", str(ckpt), "--set", "train.epochs=2"])
    out = tmp_path / "ns"
    assert (
        main(
            ["noise-sweep", "--config", sep_cfg, "--data", str(data), "--checkpoint", str(ckpt), "--out-dir", str(out)]
        )
        == 0
    )
    csv_lines = (out / "noise_sweep.csv").read_text().splitlines()
    assert csv_lines[0] == "model,noise_fraction,macro_accuracy"
    fractions = [line.split(",")[1] for line in csv_lines[1:]]
    assert fractions == ["0.0", "0.05"]
    dat = (out / "noise_m.dat").read_text().splitlines()
    assert dat[0] == "# noise_fraction macro_accuracy"
    assert len(dat) == 3


def test_noise_sweep_refuses_two_checkpoints_with_one_stem(tmp_path, capsys):
    """Two files named m.ckpt would write one noise_m.dat holding both curves."""
    data, model, stats = _micro_inputs(tmp_path)
    paths = [tmp_path / "a" / "m.ckpt", tmp_path / "b" / "m.ckpt"]
    for ckpt in paths:
        ckpt.parent.mkdir()
        save_checkpoint(ckpt, model, stats)
    capsys.readouterr()
    out = tmp_path / "out"
    args = ["noise-sweep", "--data", str(data), "--checkpoint", *map(str, paths), "--out-dir", str(out)]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert str(paths[0]) in err and str(paths[1]) in err
    assert not out.exists()


def test_unknown_flag_is_usage_error(capsys):
    assert main(["gen", "--config", MICRO, "--out", "x", "--bogus"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("sim.classes 2\nsim.typo 5\n")
    assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "x.ds")]) == 1
    assert "unknown config key" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key,value",
    [
        ("sim.class.0.pri", "stagger,100,nan"),
        ("sim.class.0.pri", "stagger,100,inf"),
        ("sim.class.0.pri", "jitter,inf,0.1"),
        ("sim.class.0.pri", "jitter,nan,0.1"),
        ("sim.class.1.pri", "jitter,120,nan"),
        ("sim.class.0.pw", "constant,nan"),
        ("sim.class.0.pw", "constant,inf"),
        ("sim.class.2.rf", "hop,2,5000,inf"),
        ("sim.class.2.rf", "hop,2,nan,5500"),
    ],
)
def test_gen_refuses_non_finite_pattern_values(tmp_path, capsys, key, value):
    out = tmp_path / "d.ds"
    capsys.readouterr()
    assert main(["gen", "--config", MICRO, "--out", str(out), "--set", f"{key}={value}"]) == 1
    assert f"error: {key}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "value,named",
    [
        ("sim.noise=inf", "noise_fraction must lie in [0, 0.5], got inf"),
        ("sim.noise=0.6", "sim.noise: noise_fraction must lie in [0, 0.5], got 0.6"),
        # would draw values that overflow to inf
        ("sim.noise=1e306", "sim.noise: noise_fraction must lie in [0, 0.5], got 1e+306"),
        # the pattern's mean would overflow to inf, and with it the drawn PRI values
        ("sim.class.0.pri=stagger,1e308,1e308", "sim.class.0.pri: cycle pattern's mean"),
        # malformed patterns (a wrong count of values, a token that is not a
        # number) name their tokens and the expected form
        pytest.param(
            "sim.class.0.rf=hop",
            "sim.class.0.rf: malformed hop pattern 'hop': expected 'hop <dwell> <v1> <v2> ...'",
            id="malformed-hop-alone",
        ),
        pytest.param(
            "sim.class.0.pri=constant,1,2",
            "sim.class.0.pri: malformed constant pattern 'constant 1 2': expected 'constant <v>'",
            id="malformed-constant-two-values",
        ),
        pytest.param(
            "sim.class.0.pri=jitter,100",
            "sim.class.0.pri: malformed jitter pattern 'jitter 100': "
            "expected 'jitter <center> <deviation>'",
            id="malformed-jitter-one-value",
        ),
        pytest.param(
            "sim.class.0.pri=constant,abc",
            "sim.class.0.pri: malformed constant pattern 'constant abc': expected 'constant <v>'",
            id="malformed-constant-not-a-number",
        ),
        pytest.param(
            "sim.class.0.rf=hop,x,9000",
            "sim.class.0.rf: malformed hop pattern 'hop x 9000': expected 'hop <dwell> <v1>",
            id="malformed-hop-dwell-x",
        ),
    ],
)
def test_gen_refuses_a_dataset_that_load_would_refuse(tmp_path, capsys, value, named):
    out = tmp_path / "d.ds"
    capsys.readouterr()
    assert main(["gen", "--config", MICRO, "--out", str(out), "--set", value]) == 1
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "extra,named",
    [
        (["--config", MICRO, "--noise", "0.3"], "--noise"),
        (["--config", MICRO, "--set", "sim.class.01.pri=constant,999"], "sim.class.01.pri"),
    ],
    ids=["noise-without-from-dataset", "class-index-01"],
)
def test_gen_refuses_what_it_would_ignore(tmp_path, capsys, extra, named):
    out = tmp_path / "d.ds"
    capsys.readouterr()
    assert main(["gen", "--out", str(out)] + extra) == 1
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for sub in ("gen", "train", "eval", "ablate", "baselines", "noise-sweep"):
        assert sub in out


def test_subcommand_help_documents_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ablate", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for flag in ("--config", "--seed", "--jobs", "--out-dir", "--train", "--test", "--set"):
        assert flag in out


def test_train_norm_flag_overrides_scheme(tmp_path, sep_cfg):
    data = tmp_path / "d.ds"
    main(["gen", "--config", sep_cfg, "--out", str(data)])
    ckpt = tmp_path / "mm.ckpt"
    rc = main(
        [
            "train", "--config", sep_cfg, "--data", str(data), "--out", str(ckpt),
            "--set", "model.norm=minmax", "--set", "train.epochs=1",
        ]
    )
    assert rc == 0
    ck = load_checkpoint(ckpt)
    assert ck.model.config.scheme == "minmax"


def _micro_inputs(tmp_path, data_classes=3, model_classes=3):
    """A micro dataset declaring `data_classes`, an untrained model and its stats."""
    src = tmp_path / "micro.ds"
    main(["gen", "--config", MICRO, "--out", str(src)])
    ds = load_dataset(src)
    data = tmp_path / "d.ds"
    save_dataset(Dataset(ds.sequences, data_classes), data)
    cfg = ModelConfig(
        architecture="attribute_specific_lstm",
        scheme="minmax+perseq",
        num_classes=model_classes,
        hidden=4,
        layers=1,
    )
    model = build(cfg, seed=0)
    return data, model, fit_domain_stats(ds)


def _checkpoint_args(command, ckpt, data, out):
    if command == "train":
        return ["train", "--config", MICRO, "--data", str(data), "--out", str(out), "--resume", str(ckpt)]
    return [command, "--checkpoint", str(ckpt), "--data", str(data), "--out-dir", str(out)]


@pytest.mark.parametrize("command", ["eval", "noise-sweep", "train"])
@pytest.mark.parametrize("model_classes,data_classes", [(3, 5), (5, 3)])
def test_class_count_mismatch_refused(tmp_path, capsys, command, model_classes, data_classes):
    data, model, stats = _micro_inputs(tmp_path, data_classes, model_classes)
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, model, stats)
    capsys.readouterr()
    assert main(_checkpoint_args(command, ckpt, data, tmp_path / "out")) == 1
    err = capsys.readouterr().err
    assert str(ckpt) in err
    assert f"model has {model_classes} classes but the dataset declares {data_classes}" in err


@pytest.mark.parametrize("command", ["eval", "noise-sweep"])
def test_eval_refuses_an_empty_dataset(tmp_path, capsys, command):
    _, model, stats = _micro_inputs(tmp_path)
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, model, stats)
    empty = tmp_path / "empty.ds"
    empty.write_text("# emitter-dataset v1\nclasses 3\n")
    capsys.readouterr()
    assert main(_checkpoint_args(command, ckpt, empty, tmp_path / "out")) == 1
    err = capsys.readouterr().err
    assert f"{empty}: the test set holds no sequences to evaluate" in err


@pytest.mark.parametrize("command", ["eval", "noise-sweep"])
def test_eval_refuses_truncated_checkpoint(tmp_path, capsys, command):
    data, model, stats = _micro_inputs(tmp_path)
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, model, stats)
    ckpt.write_bytes(ckpt.read_bytes()[:-20])  # cut inside the last tensor by name, lstm0.b
    capsys.readouterr()
    assert main(_checkpoint_args(command, ckpt, data, tmp_path / "out")) == 1
    err = capsys.readouterr().err
    assert str(ckpt) in err
    assert "truncated inside tensor 'lstm0.b'" in err


def test_eval_refuses_wrong_shape_tensor(tmp_path, capsys):
    data, model, stats = _micro_inputs(tmp_path)
    model.params["lstm0.U"] = model.params["lstm0.U"][:, :3]
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, model, stats)
    capsys.readouterr()
    assert main(_checkpoint_args("eval", ckpt, data, tmp_path / "out")) == 1
    err = capsys.readouterr().err
    assert str(ckpt) in err
    assert "tensor 'lstm0.U' has shape (6, 3, 16), the config needs (6, 4, 16)" in err


def _nan_weight(model, stats, meta):
    model.params["fc.W"][0, 0] = np.nan
    return stats


def _bool_loss(model, stats, meta):
    meta["epoch_losses"] = [True]
    return stats


# fault -> (edit of the model, stats and meta before saving, what the refusal names)
_CHECKPOINT_FAULTS = {
    "nan_weight": (_nan_weight, "tensor 'fc.W' holds a non-finite value"),
    "no_stats": (lambda m, s, meta: None, "scheme 'minmax+perseq' needs domain stats"),
    "two_stats": (
        lambda m, s, meta: replace(s, mins=s.mins[:2]),
        "stats mins must hold 3 finite values",
    ),
    "nan_min": (
        lambda m, s, meta: replace(s, mins=np.array([np.nan, *s.mins[1:]])),
        "stats mins must hold 3 finite values",
    ),
    "max_not_above_min": (lambda m, s, meta: replace(s, maxs=s.mins.copy()), "must exceed its mins"),
    "zero_std": (lambda m, s, meta: replace(s, stds=np.array([0.0, *s.stds[1:]])), "must be > 0"),
    "bool_loss": (_bool_loss, "meta.epoch_losses must be a list of finite numbers"),
}


@pytest.mark.parametrize("command", ["eval", "noise-sweep", "train"])
@pytest.mark.parametrize("fault", sorted(_CHECKPOINT_FAULTS))
def test_checkpoint_that_inference_cannot_use_refused(tmp_path, capsys, command, fault):
    """A checkpoint with a non-finite tensor, domain stats that are missing
    or unusable, or a loss history that is not a list of numbers, is
    refused naming the file and the tensor or field."""
    data, model, stats = _micro_inputs(tmp_path)
    edit, named = _CHECKPOINT_FAULTS[fault]
    ckpt, meta = tmp_path / "m.ckpt", {}
    save_checkpoint(ckpt, model, edit(model, stats, meta), meta)
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(_checkpoint_args(command, ckpt, data, out)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {ckpt}: ") and named in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "gen"])
def test_non_utf8_input_refused_naming_the_file(tmp_path, capsys, command):
    data, model, stats = _micro_inputs(tmp_path)
    bad = tmp_path / "latin1"
    bad.write_bytes(b"\xff" + (data.read_bytes() if command == "eval" else Path(MICRO).read_bytes()))
    out = tmp_path / "out"
    if command == "eval":
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, model, stats)
        argv = _checkpoint_args("eval", ckpt, bad, out)
    else:
        argv = ["gen", "--config", str(bad), "--out", str(out)]
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: 'utf-8' codec can't decode byte 0xff in position 0")
    assert not out.exists()


def test_eval_warns_when_data_is_the_training_set(tmp_path, capsys):
    """Same fingerprint as the checkpoint's training data: warn, exit 0, same outputs."""
    data, model, stats = _micro_inputs(tmp_path)
    fingerprint = dataset_fingerprint(load_dataset(data))
    outputs = {}
    for name, train_fingerprint in (("seen", fingerprint), ("unseen", "0" * len(fingerprint))):
        ckpt = tmp_path / f"{name}.ckpt"
        save_checkpoint(ckpt, model, stats, {"train_fingerprint": train_fingerprint})
        capsys.readouterr()
        assert main(_checkpoint_args("eval", ckpt, data, tmp_path / name)) == 0
        outputs[name] = capsys.readouterr()
    assert outputs["seen"].err.startswith("warning: ")
    assert f"{data} is the dataset {tmp_path / 'seen.ckpt'} was trained on" in outputs["seen"].err
    assert outputs["unseen"].err == ""
    assert outputs["seen"].out == outputs["unseen"].out
    reports = [json.loads((tmp_path / name / "report.json").read_text()) for name in outputs]
    for report in reports:  # the rest is the same model scored on the same data
        meta = report.pop("metadata")
        assert sorted(meta) == ["checkpoint", "data_fingerprint", "evaluated_at", "train_fingerprint"]
    assert reports[0] == reports[1]
    assert (tmp_path / "seen" / "confusion.csv").read_bytes() == (
        tmp_path / "unseen" / "confusion.csv"
    ).read_bytes()


@pytest.fixture(scope="module")
def micro_data(tmp_path_factory):
    data = tmp_path_factory.mktemp("micro") / "d.ds"
    main(["gen", "--config", MICRO, "--out", str(data)])
    return data


_ARCH_OVERRIDES = {
    "attribute_specific_lstm": ["model.arch=attribute_specific_lstm", "model.norm=minmax+perseq"],
    "joint_lstm": ["model.arch=joint_lstm", "model.norm=minmax"],
    "gru_discretized": ["model.arch=gru_discretized", "model.norm=discretize"],
    "stats_mlp": ["model.arch=stats_mlp", "model.norm=minmax"],
}


def _train_args(data, out, overrides):
    args = ["train", "--config", MICRO, "--data", str(data), "--out", str(out)]
    for item in ["train.epochs=1"] + overrides:
        args += ["--set", item]
    return args


@pytest.mark.parametrize(
    "arch,override,field",
    [
        ("gru_discretized", "model.embed=0", "embed_dim"),
        ("stats_mlp", "model.mlp_hidden=8,0", "mlp_hidden"),
        ("gru_discretized", "model.bins=-1", "bins"),
        ("gru_discretized", "model.bins=1", "bins"),
        ("joint_lstm", "train.lr=nan", "learning_rate"),
        ("joint_lstm", "train.lr=0", "learning_rate"),
        ("joint_lstm", "train.beta1=1", "beta1"),
        ("joint_lstm", "train.beta2=-0.5", "beta2"),
        ("joint_lstm", "train.eps=0", "eps"),
        ("joint_lstm", "train.eps=inf", "eps"),
        ("joint_lstm", "train.clip=-1", "clip_norm"),
        ("joint_lstm", "train.clip=nan", "clip_norm"),
    ],
)
def test_train_refuses_values_that_break_training(tmp_path, capsys, micro_data, arch, override, field):
    out = tmp_path / "m.ckpt"
    capsys.readouterr()
    assert main(_train_args(micro_data, out, _ARCH_OVERRIDES[arch] + [override])) == 1
    assert field in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("arch", sorted(_ARCH_OVERRIDES))
@given(epochs=st.integers(2, 4), dropout=st.sampled_from(["0.0", "0.3"]), data=st.data())
@settings(max_examples=6, deadline=None)
def test_resume_equals_uninterrupted_run_property(
    tmp_path_factory, micro_data, arch, epochs, dropout, data
):
    """Train k epochs, save, `train --resume` to N epochs: the parameters, the
    optimizer state and the epoch losses are byte-equal to one N-epoch run."""
    k = data.draw(st.integers(1, epochs - 1), label="k")
    out = tmp_path_factory.mktemp("resume")

    def run(name, n, *resume):
        args = ["train", "--config", MICRO, "--data", str(micro_data), "--out", str(out / name)]
        for item in _ARCH_OVERRIDES[arch] + [f"model.dropout={dropout}", f"train.epochs={n}"]:
            args += ["--set", item]
        assert main(args + list(resume)) == 0
        return load_checkpoint(out / name)

    full = run("full.ckpt", epochs)
    run("head.ckpt", k)
    resumed = run("resumed.ckpt", epochs, "--resume", str(out / "head.ckpt"))
    assert len(full.meta["epoch_losses"]) == epochs
    losses = [np.array(ck.meta["epoch_losses"]).tobytes() for ck in (resumed, full)]
    assert losses[0] == losses[1]
    assert resumed.adam_t == full.adam_t
    for got, want in (
        (resumed.model.params, full.model.params),
        (resumed.opt_tensors, full.opt_tensors),
    ):
        assert sorted(got) == sorted(want)
        for name in want:
            assert got[name].tobytes() == want[name].tobytes(), name


_KEYS = [f"model.{k}" for k in "arch norm hidden layers dropout bins embed mlp_hidden".split()]
_KEYS += ["model.gru_use_rf"]
_KEYS += [f"train.{k}" for k in "epochs batch lr clip seed".split()]


@given(
    arch=st.sampled_from(sorted(_ARCH_OVERRIDES)),
    key=st.sampled_from(_KEYS),
    value=st.sampled_from(["0", "-1", "nan", "inf", "x", "0.5"]),
)
@settings(max_examples=100, deadline=None)
def test_config_values_exit_0_or_1(tmp_path_factory, micro_data, arch, key, value):
    """No model.*/train.* value makes `train` fail at run time (exit 2).

    The values are small or invalid, so no draw can allocate a large model.
    """
    out = tmp_path_factory.getbasetemp() / "property.ckpt"
    assert main(_train_args(micro_data, out, _ARCH_OVERRIDES[arch] + [f"{key}={value}"])) in (0, 1)


_REMOVED_KEYS = [
    "model.readout=last",
    "train.patience=2",
    "train.beta1=0.9",
    "train.beta2=0.999",
    "train.eps=1e-8",
    "train.shuffle=false",
]


@pytest.mark.parametrize(
    "argv,named",
    [
        *(
            (["train", "--config", MICRO, "--data", "{data}", "--out", "{out}", "--set", item], item)
            for item in _REMOVED_KEYS
        ),
        (["gen", "--config", MICRO, "--out", "{out}", "--from-dataset", "{data}"], "--from-dataset"),
        (["gen", "--config", MICRO, "--out", "{out}", "--noise", "0.1"], "--noise"),
    ],
    ids=[item.split("=")[0] for item in _REMOVED_KEYS] + ["--from-dataset", "--noise"],
)
def test_removed_settings_are_refused(tmp_path, capsys, micro_data, argv, named):
    """The readout choice, early stopping, Adam's betas and eps, the
    unshuffled batch order and gen's noisy-copy mode are gone: naming one is
    refused, not ignored."""
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([a.format(data=micro_data, out=out) for a in argv]) == 1
    assert named.split("=")[0] in capsys.readouterr().err
    assert not out.exists()


def _empty_dataset(tmp_path):
    path = tmp_path / "empty.ds"
    path.write_text("# emitter-dataset v1\nclasses 3\n")
    return path


def _without_class_2(tmp_path, micro_data):
    """The micro data minus its class-2 sequences, still declaring 3 classes."""
    ds = load_dataset(micro_data)
    path = tmp_path / "no_class_2.ds"
    save_dataset(Dataset([s for s in ds.sequences if s.label != 2], 3), path)
    return path


@pytest.mark.parametrize("command", ["ablate", "baselines"])
@pytest.mark.parametrize("flag", ["--train", "--test"])
def test_grid_refuses_an_empty_dataset_before_training(
    tmp_path, capsys, monkeypatch, micro_data, command, flag
):
    def no_task(tasks, jobs):
        raise AssertionError("a grid task started")  # would exit 2

    monkeypatch.setattr(train_eval, "_execute_tasks", no_task)
    empty = _empty_dataset(tmp_path)
    data = {"--train": micro_data, "--test": micro_data, flag: empty}
    out = tmp_path / "out"
    capsys.readouterr()
    args = [command, "--config", MICRO, "--train", str(data["--train"]), "--test", str(data["--test"])]
    assert main(args + ["--out-dir", str(out)]) == 1
    assert f"error: {flag} {empty}: the dataset holds no sequences" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command,fault,message",
    [
        ("train", "empty", "cannot fit domain stats on an empty dataset"),
        ("train", "no-class-2", "class 2 has no training sequences"),
        ("ablate", "no-class-2", "class 2 has no training sequences"),
        ("baselines", "no-class-2", "class 2 has no training sequences"),
    ],
)
def test_training_data_faults_name_the_file(tmp_path, capsys, micro_data, command, fault, message):
    bad = _empty_dataset(tmp_path) if fault == "empty" else _without_class_2(tmp_path, micro_data)
    out = tmp_path / "out"
    if command == "train":
        args = _train_args(bad, out, [])
    else:
        args = [command, "--config", MICRO, "--train", str(bad), "--test", str(micro_data)]
        args += ["--out-dir", str(out), "--set", "train.epochs=1"]
    capsys.readouterr()
    assert main(args) == 1
    assert f"error: {bad}: {message}" in capsys.readouterr().err
    assert not out.exists()


def _with_header(ckpt, path, edit):
    """A copy of ckpt whose JSON header `edit` has changed in place."""
    magic, header, rest = ckpt.read_bytes().split(b"\n", 2)
    fields = json.loads(header)
    edit(fields)
    path.write_bytes(b"\n".join([magic, json.dumps(fields, sort_keys=True).encode(), rest]))
    return path


def _with_readout(ckpt, path, readout):
    """A copy of ckpt whose config also carries `readout`, as checkpoints
    written while the readout was a setting do."""
    return _with_header(ckpt, path, lambda fields: fields["config"].update(readout=readout))


def test_checkpoint_with_last_readout_evaluates_and_resumes(tmp_path, capsys, micro_data):
    """A checkpoint that names the last-state readout scores and resumes to
    the bytes of the same checkpoint without it."""
    fresh = tmp_path / "fresh.ckpt"
    assert main(_train_args(micro_data, fresh, [])) == 0
    paths = {"fresh": fresh, "old": _with_readout(fresh, tmp_path / "old.ckpt", "last")}
    printed, resumed = {}, {}
    for name, ckpt in paths.items():
        capsys.readouterr()
        assert main(_checkpoint_args("eval", ckpt, micro_data, tmp_path / name)) == 0
        printed[name] = capsys.readouterr().out
        out = tmp_path / f"{name}_resumed.ckpt"
        resume = _checkpoint_args("train", ckpt, micro_data, out) + ["--set", "train.epochs=2"]
        assert main(resume) == 0
        resumed[name] = out.read_bytes()
    assert printed["old"] == printed["fresh"]
    reports = [json.loads((tmp_path / name / "report.json").read_text()) for name in paths]
    for report in reports:  # names its checkpoint and the time of the run
        del report["metadata"]["checkpoint"], report["metadata"]["evaluated_at"]
    assert reports[0] == reports[1]
    confusions = [(tmp_path / name / "confusion.csv").read_bytes() for name in paths]
    assert confusions[0] == confusions[1]
    assert resumed["old"] == resumed["fresh"]


@pytest.fixture(scope="module")
def micro_checkpoint(tmp_path_factory, micro_data):
    ckpt = tmp_path_factory.mktemp("ckpt") / "fresh.ckpt"
    assert main(_train_args(micro_data, ckpt, [])) == 0
    return ckpt


@pytest.mark.parametrize(
    "field,value",
    [
        ("adam_t", -1),
        ("adam_t", "x"),
        ("adam_t", 2.7),
        ("adam_t", True),
        ("meta.epoch_losses", "abc"),
        ("meta.epoch_losses", [float("nan")]),
        ("meta", []),
    ],
)
def test_resume_refuses_corrupt_optimizer_state(
    tmp_path, capsys, micro_data, micro_checkpoint, field, value
):
    """A resume refuses a step count that is not a non-negative integer, a
    meta that is not an object and a loss history that is not a list of
    finite numbers, naming the file and the field, and writes no checkpoint."""

    def edit(fields):
        *parents, key = field.split(".")
        for parent in parents:
            fields = fields[parent]
        fields[key] = value

    ckpt = _with_header(micro_checkpoint, tmp_path / "corrupt.ckpt", edit)
    out = tmp_path / "resumed.ckpt"
    capsys.readouterr()
    resume = _checkpoint_args("train", ckpt, micro_data, out) + ["--set", "train.epochs=2"]
    assert main(resume) == 1
    err = capsys.readouterr().err
    assert str(ckpt) in err and field in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "noise-sweep", "train"])
def test_checkpoint_with_mean_readout_refused(tmp_path, capsys, micro_data, command):
    fresh = tmp_path / "fresh.ckpt"
    assert main(_train_args(micro_data, fresh, [])) == 0
    ckpt = _with_readout(fresh, tmp_path / "mean.ckpt", "mean")
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(_checkpoint_args(command, ckpt, micro_data, out)) == 1
    err = capsys.readouterr().err
    assert str(ckpt) in err and "readout 'mean'" in err
    assert not out.exists()


@pytest.mark.parametrize("preset", sorted(p.name for p in CONFIGS.glob("*.cfg")))
def test_every_preset_builds_its_settings(preset):
    """Each shipped preset parses, and its sim, model, train, split and eval
    sections build; perfbench and the pipeline load them."""
    cfg = cfgmod.load_config(CONFIGS / preset)
    sim = cfgmod.sim_config(cfg)
    assert cfgmod.model_config(cfg, num_classes=len(sim.emitters)).num_classes == len(sim.emitters)
    cfgmod.train_config(cfg)
    cfgmod.split_params(cfg)
    cfgmod.eval_params(cfg)


def test_train_writes_identical_checkpoints(tmp_path, micro_data):
    """A checkpoint holds no timestamp: two identical runs write the same bytes."""
    overrides = _ARCH_OVERRIDES["attribute_specific_lstm"]
    for name in ("a.ckpt", "b.ckpt"):
        assert main(_train_args(micro_data, tmp_path / name, overrides)) == 0
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()
    meta = load_checkpoint(tmp_path / "a.ckpt").meta
    assert sorted(meta) == ["epoch_losses", "train_config", "train_fingerprint"]


@pytest.fixture(scope="module")
def micro_baselines(tmp_path_factory, micro_data):
    """The out dir of `baselines` on micro data (seeds 0 and 1)."""
    out = tmp_path_factory.mktemp("baselines")
    args = ["baselines", "--config", MICRO, "--train", str(micro_data), "--test", str(micro_data)]
    assert main(args + ["--out-dir", str(out)]) == 0
    return out


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("method", list(BASELINES))
def test_baselines_checkpoint_equals_train_run(tmp_path, micro_data, micro_baselines, method, seed):
    """The model `baselines` keeps for a method and seed is the one `train` makes
    with that method's BASELINES fields and that seed."""
    keys = {f: key for key, (f, _) in cfgmod._MODEL_KEYS.items()}
    args = ["train", "--config", MICRO, "--data", str(micro_data), "--seed", str(seed)]
    for f, value in BASELINES[method].items():
        args += ["--set", f"{keys[f]}={str(value).lower()}"]
    assert main(args + ["--out", str(tmp_path / "train.ckpt")]) == 0
    want = load_checkpoint(tmp_path / "train.ckpt")
    got = load_checkpoint(micro_baselines / "checkpoints" / f"seed{seed}" / f"{method}.ckpt")
    assert got.model.config == want.model.config
    assert got.stats.to_dict() == want.stats.to_dict()
    assert list(got.model.params) == list(want.model.params)
    for name, value in want.model.params.items():
        assert got.model.params[name].tobytes() == value.tobytes(), name
    assert got.meta == {k: want.meta[k] for k in ("train_fingerprint", "train_config")}
    assert got.opt_tensors is None and got.adam_t is None


def test_resume_refuses_a_grid_checkpoint(tmp_path, capsys, micro_data, micro_baselines):
    ckpt = micro_baselines / "checkpoints" / "seed0" / "proposed.ckpt"
    out = tmp_path / "m.ckpt"
    capsys.readouterr()
    args = ["train", "--config", MICRO, "--data", str(micro_data), "--out", str(out)]
    assert main(args + ["--resume", str(ckpt)]) == 1
    assert f"error: {ckpt}: checkpoint carries no optimizer state to resume" in capsys.readouterr().err
    assert not out.exists()


def test_reproduce_pipeline_trains_each_model_once(tmp_path, monkeypatch):
    """The micro pipeline sweeps three of the baseline grid's models and runs no `train`."""
    commands = []

    def recording_main(argv):
        commands.append(argv[0])
        return main(argv)

    monkeypatch.setattr(cli, "main", recording_main)
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends src/
    argv = ["reproduce_results.py", "--config", MICRO, "--out-dir", str(tmp_path), "--jobs", "1"]
    monkeypatch.setattr(sys, "argv", argv)
    runpy.run_path(str(SCRIPTS / "reproduce_results.py"), run_name="__main__")
    assert commands == ["gen", "ablate", "baselines", "noise-sweep"]
    curves = ("proposed", "gru_discretized_rf", "stats_mlp_minmax")
    rows = (tmp_path / "noise_sweep.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == list(curves) * 2
    assert sorted(p.name for p in tmp_path.glob("noise_*.dat")) == sorted(
        f"noise_{c}.dat" for c in curves
    )
