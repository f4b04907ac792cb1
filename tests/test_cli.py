import json
from pathlib import Path

import numpy as np
import pytest

from emitterclf.cli import main
from emitterclf.data_model import Dataset, load_dataset, save_dataset
from emitterclf.model import ModelConfig, build, load_checkpoint, save_checkpoint
from emitterclf.normalize import fit_domain_stats

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
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


def test_gen_noisy_copy_of_existing(tmp_path):
    src = tmp_path / "src.ds"
    main(["gen", "--config", MICRO, "--out", str(src)])
    noisy = tmp_path / "noisy.ds"
    assert (
        main(["gen", "--from-dataset", str(src), "--noise", "0.1", "--out", str(noisy), "--seed", "1"])
        == 0
    )
    a, b = load_dataset(src), load_dataset(noisy)
    assert [s.label for s in a.sequences] == [s.label for s in b.sequences]
    assert not np.array_equal(a.sequences[0].values, b.sequences[0].values)


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


def test_baselines_outputs(tmp_path):
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


def test_unknown_flag_is_usage_error(capsys):
    assert main(["gen", "--config", MICRO, "--out", "x", "--bogus"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("sim.classes 2\nsim.typo 5\n")
    assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "x.ds")]) == 1
    assert "unknown config key" in capsys.readouterr().err


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
