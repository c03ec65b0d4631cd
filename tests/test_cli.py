import argparse
import json

import numpy as np
import pytest

from conftest import tiny_bigat_spec
from bigatid import cli, data as D, model as MOD, training as T
from bigatid.cli import RUN_DEFAULTS, RunConfig, build_parser, derive_seed, main
from bigatid.model import build, load, predict
from bigatid.numerics import RngStream


def strip_timing(report: dict) -> dict:
    """Remove wall-clock measurements; everything else must be reproducible."""
    out = json.loads(json.dumps(report))
    out.pop("timing", None)
    if "eval" in out:
        out["eval"].pop("inference", None)
        out["eval"]["table_row"].pop("inference_sec_per_instance", None)
    if "artifacts" in out:
        out.pop("artifacts")
    if "config" in out:
        out["config"].pop("out_dir", None)
    return out


SMALL = ["--synth-classes", "3", "--synth-per-class", "40", "--synth-seq-len", "8",
         "--synth-separation", "6.0"]


def run_train(out_dir, seed="5", extra=()):
    return main(["train", "--synth", *SMALL, "--seed", seed, "--out-dir", str(out_dir),
                 "--epochs", "2", "--batch-size", "32", "--balancing", "ros", *extra])


class TestTrain:
    def test_smoke_produces_complete_report(self, tmp_path):
        assert run_train(tmp_path) == 0
        report = json.loads((tmp_path / "run_report.json").read_text())
        row = report["eval"]["table_row"]
        assert {"accuracy", "loss", "precision", "recall", "f1", "fpr",
                "inference_sec_per_instance"} == set(row)
        assert row["inference_sec_per_instance"] > 0
        assert (tmp_path / "checkpoint.bgid").exists()
        assert (tmp_path / "history.csv").exists()
        assert report["variant"]["id"] == 4
        assert report["config"]["seed"] == 5

    def test_deterministic_given_config_and_seed(self, tmp_path):
        run_train(tmp_path / "a")
        run_train(tmp_path / "b")
        a = json.loads((tmp_path / "a" / "run_report.json").read_text())
        b = json.loads((tmp_path / "b" / "run_report.json").read_text())
        assert strip_timing(a) == strip_timing(b)
        assert (tmp_path / "a" / "history.csv").read_text() == \
            (tmp_path / "b" / "history.csv").read_text()

    def test_different_seed_changes_results(self, tmp_path):
        run_train(tmp_path / "a", seed="5")
        run_train(tmp_path / "b", seed="6")
        a = json.loads((tmp_path / "a" / "run_report.json").read_text())
        b = json.loads((tmp_path / "b" / "run_report.json").read_text())
        assert a["history"] != b["history"]

    def test_missing_label_column_stage_attributed(self, tmp_path, capsys):
        csv = tmp_path / "x.csv"
        csv.write_text("a,b\n1,2\n")
        rc = main(["train", "--csv", str(csv), "--out-dir", str(tmp_path),
                   "--epochs", "1"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "stage=load" in err and "Label" in err

    def test_requires_exactly_one_source(self, tmp_path, capsys):
        rc = main(["train", "--out-dir", str(tmp_path)])
        assert rc == 1
        assert "data source" in capsys.readouterr().err

    def test_config_file_with_flag_override(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "synth": True, "synth_classes": 3, "synth_per_class": 40,
            "synth_seq_len": 8, "synth_separation": 6.0, "epochs": 1,
            "batch_size": 32, "seed": 7,
        }))
        rc = main(["train", "--config", str(cfg_path), "--out-dir", str(tmp_path),
                   "--epochs", "2"])
        assert rc == 0
        report = json.loads((tmp_path / "run_report.json").read_text())
        assert report["config"]["epochs"] == 2  # flag wins
        assert report["config"]["seed"] == 7    # file wins over default
        assert len(report["history"]) == 2

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"synth": True, "learning_pace": 1}))
        assert main(["train", "--config", str(cfg_path)]) == 1
        assert "unknown config keys" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("epochs", "2"), ("synth", 1),
                                            ("learning_rate", True), ("grad_clip", "1"),
                                            ("dropout", "0.3"), ("csv", 5),
                                            ("focal_alpha", "x"),
                                            ("synth_imbalance", [1, "x"])])
    def test_config_value_of_wrong_type_rejected(self, tmp_path, capsys, key, value):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"synth": True, key: value}))
        assert main(["train", "--config", str(cfg_path), "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert f"{cfg_path}: {key} must be of type" in err
        assert not (tmp_path / "run_report.json").exists()

    def test_config_file_must_hold_an_object(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(["synth"]))
        assert main(["train", "--config", str(cfg_path)]) == 1
        assert "must hold a JSON object" in capsys.readouterr().err

    def test_config_int_accepted_for_float(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"synth": True, "learning_rate": 1}))
        args = build_parser().parse_args(["train", "--config", str(cfg_path)])
        assert cli.merge_config(args).learning_rate == 1

    def test_config_echo_accepted_as_config_file(self, tmp_path):
        # an echo holds null for every key whose default is unset
        cfg_path = tmp_path / "cfg.json"
        echo = dict(RUN_DEFAULTS, synth=True)
        cfg_path.write_text(json.dumps(echo))
        args = build_parser().parse_args(["train", "--config", str(cfg_path)])
        assert cli.merge_config(args).echo() == echo

    def test_unknown_balancing_in_config_rejected(self, tmp_path, capsys):
        # argparse `choices` guards the flag; merging the config checks a
        # file's value against the same choices, before any stage runs
        cfg_path = tmp_path / "cfg.json"
        for key, value in [("balancing", "undersample"), ("loss", "mse")]:
            cfg_path.write_text(json.dumps({"synth": True, key: value}))
            rc = main(["train", "--config", str(cfg_path), *SMALL, "--epochs", "1",
                       "--out-dir", str(tmp_path)])
            assert rc == 1
            err = capsys.readouterr().err
            assert f"{key} must be one of" in err and value in err and "stage=" not in err

    @pytest.mark.parametrize("command, flag, value, message", [
        ("train", "--seed", "-1", "--seed: seed must be >= 0, got -1"),
        ("synth", "--seed", "-1", "--seed: seed must be >= 0, got -1"),
        ("train", "--synth-imbalance", "a,b", "synth_imbalance must be of type list"),
        ("train", "--epochs", "0", "--epochs: epochs must be >= 1, got 0"),
        ("train", "--batch-size", "0", "--batch-size: batch_size must be >= 1, got 0"),
        ("train", "--smote-k", "0", "--smote-k: smote_k must be >= 1, got 0"),
        ("synth", "--synth-classes", "1", "--synth-classes: synth_classes must be >= 2, got 1"),
        ("synth", "--synth-per-class", "0",
         "--synth-per-class: synth_per_class must be >= 1, got 0"),
        ("synth", "--synth-seq-len", "3", "--synth-seq-len: synth_seq_len must be >= 4, got 3"),
        ("bench", "--bench-warmup", "-1", "--bench-warmup: bench_warmup must be >= 0, got -1"),
        ("bench", "--bench-repeats", "0", "--bench-repeats: bench_repeats must be >= 1, got 0"),
        ("train", "--grad-clip", "-1", "--grad-clip: grad_clip must be > 0, got -1.0"),
        ("train", "--grad-clip", "0", "--grad-clip: grad_clip must be > 0, got 0.0"),
        ("train", "--learning-rate", "-1",
         "--learning-rate: learning_rate must be > 0, got -1.0"),
        ("train", "--focal-gamma", "-1", "--focal-gamma: focal_gamma must be >= 0, got -1.0"),
        ("train", "--dropout", "1", "--dropout: dropout must be in [0, 1), got 1.0"),
        ("train", "--train-frac", "1.5", "--train-frac: train_frac must be in (0, 1), got 1.5"),
        ("train", "--train-frac", "0", "--train-frac: train_frac must be in (0, 1), got 0.0"),
    ], ids=["train-seed", "synth-seed", "train-imbalance", "train-epochs", "train-batch-size",
            "train-smote-k", "synth-classes", "synth-per-class", "synth-seq-len",
            "bench-warmup", "bench-repeats", "train-grad-clip-negative", "train-grad-clip-zero",
            "train-learning-rate", "train-focal-gamma", "train-dropout", "train-frac-above",
            "train-frac-zero"])
    def test_flag_value_rejected_before_any_stage(self, tmp_path, capsys, command, flag,
                                                  value, message):
        # bench's checkpoint is never read: the merge rejects the value first
        checkpoint = ["--checkpoint", str(tmp_path / "m.bgid")] if command == "bench" else []
        rc = main([command, *checkpoint, "--synth", *SMALL, flag, value,
                   "--out-dir", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert message in err and "stage=" not in err
        assert list(tmp_path.iterdir()) == []

    def test_negative_seed_in_config_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"synth": True, "seed": -1}))
        assert main(["train", "--config", str(cfg_path),
                     "--out-dir", str(tmp_path / "out")]) == 1
        assert f"{cfg_path}: seed must be >= 0, got -1" in capsys.readouterr().err

    def test_comma_separated_imbalance_from_flag_and_config(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"synth": True, "synth_imbalance": "1,0.5,0.25"}))
        for argv in (["--synth", "--synth-imbalance", "1,0.5,0.25"],
                     ["--config", str(cfg_path)]):
            args = build_parser().parse_args(["train", *SMALL[:2], *argv])
            assert cli.merge_config(args).synth_imbalance == [1.0, 0.5, 0.25]


class TestSynthAndCsv:
    def test_synth_then_train_from_csv(self, tmp_path):
        rc = main(["synth", *SMALL, "--seed", "3", "--out-dir", str(tmp_path),
                   "--out", str(tmp_path / "data.csv")])
        assert rc == 0
        assert (tmp_path / "data.sidecar.json").exists()
        before = (tmp_path / "data.csv").read_bytes()
        rc = main(["train", "--csv", str(tmp_path / "data.csv"), "--seed", "3",
                   "--out-dir", str(tmp_path / "run"), "--epochs", "1",
                   "--batch-size", "32"])
        assert rc == 0
        assert (tmp_path / "data.csv").read_bytes() == before  # inputs untouched

    def test_synth_deterministic(self, tmp_path):
        main(["synth", *SMALL, "--seed", "3", "--out-dir", str(tmp_path),
              "--out", str(tmp_path / "a.csv")])
        main(["synth", *SMALL, "--seed", "3", "--out-dir", str(tmp_path),
              "--out", str(tmp_path / "b.csv")])
        assert (tmp_path / "a.csv").read_text() == (tmp_path / "b.csv").read_text()


class TestEvaluate:
    def test_round_trip_checkpoint(self, tmp_path):
        run_train(tmp_path)
        ckpt = tmp_path / "checkpoint.bgid"
        rc = main(["evaluate", "--checkpoint", str(ckpt), "--synth", *SMALL,
                   "--seed", "5", "--out-dir", str(tmp_path / "ev1")])
        assert rc == 0
        rc = main(["evaluate", "--checkpoint", str(ckpt), "--synth", *SMALL,
                   "--seed", "5", "--out-dir", str(tmp_path / "ev2")])
        assert rc == 0
        a = json.loads((tmp_path / "ev1" / "eval_report.json").read_text())
        b = json.loads((tmp_path / "ev2" / "eval_report.json").read_text())
        assert strip_timing(a) == strip_timing(b)

    def test_loaded_model_predicts_bit_identically(self, tmp_path):
        run_train(tmp_path)
        params, spec, _ = load(tmp_path / "checkpoint.bgid")
        x = np.linspace(0, 1, 2 * spec.seq_len).reshape(2, spec.seq_len, 1)
        once = predict(params, spec, x)
        params2, spec2, _ = load(tmp_path / "checkpoint.bgid")
        assert np.array_equal(once, predict(params2, spec2, x))

    def test_feature_width_mismatch_rejected(self, tmp_path, capsys):
        run_train(tmp_path)
        rc = main(["evaluate", "--checkpoint", str(tmp_path / "checkpoint.bgid"),
                   "--synth", "--synth-classes", "3", "--synth-per-class", "20",
                   "--synth-seq-len", "12", "--seed", "5",
                   "--out-dir", str(tmp_path / "ev")])
        assert rc == 1
        assert "expects 8" in capsys.readouterr().err

    def test_corrupted_checkpoint_rejected(self, tmp_path, capsys):
        run_train(tmp_path)
        ckpt = tmp_path / "checkpoint.bgid"
        blob = bytearray(ckpt.read_bytes())
        blob[-7] ^= 0x40
        ckpt.write_bytes(bytes(blob))
        rc = main(["evaluate", "--checkpoint", str(ckpt), "--synth", *SMALL,
                   "--seed", "5", "--out-dir", str(tmp_path / "ev")])
        assert rc == 1
        assert "checksum" in capsys.readouterr().err.lower()

    @pytest.mark.parametrize("command", ["evaluate", "explain", "bench"])
    def test_checkpoint_without_codec_rejected(self, tmp_path, capsys, command):
        spec = tiny_bigat_spec()
        ckpt = tmp_path / "no_codec.bgid"
        MOD.save(build(spec, RngStream(0)), spec, {}, ckpt)
        rc = main([command, "--checkpoint", str(ckpt), "--synth", *SMALL,
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert str(ckpt) in err and "'codec'" in err


class TestEvaluateModel:
    def test_one_forward_pass_over_the_test_split(self, monkeypatch):
        # the reported timing is that of the evaluation pass itself; the
        # model sees each test row exactly once
        ds = D.synth_generate(3, 40, 6, 6.0, RngStream(3))
        _train_ds, test_ds = D.stratified_split(ds, 0.8, RngStream(4))
        spec = tiny_bigat_spec()
        params = build(spec, RngStream(5))
        seen = []
        real_forward = MOD.forward

        def counting_forward(params, spec, x, *args, **kwargs):
            seen.append(len(x))
            return real_forward(params, spec, x, *args, **kwargs)

        for mod in (cli.T, cli.M):
            if getattr(mod, "forward", None) is real_forward:
                monkeypatch.setattr(mod, "forward", counting_forward)
        report = cli.evaluate_model(params, spec, test_ds, RunConfig(dict(RUN_DEFAULTS)))
        assert sum(seen) == len(test_ds)
        assert report.bench.repeats == 1 and report.bench.n_instances == len(test_ds)
        assert report.table_row()["inference_sec_per_instance"] > 0


class TestParser:
    @staticmethod
    def subparsers():
        action = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
        return action.choices

    def test_timing_flags_only_on_bench(self):
        timing = {"--bench-warmup", "--bench-repeats"}
        for name, sub in self.subparsers().items():
            flags = {opt for a in sub._actions for opt in a.option_strings}
            assert (timing <= flags) if name == "bench" else not (timing & flags), name

    def test_every_run_default_has_a_flag(self):
        # a config key no flag can set and no command reads is a dead knob;
        # focal_alpha is a per-class list and comes from a config file only
        dests = {a.dest for sub in self.subparsers().values() for a in sub._actions}
        assert set(RUN_DEFAULTS) - dests == {"focal_alpha"}


class TestLoao:
    def test_single_fold_report(self, tmp_path):
        rc = main(["loao", "--synth", *SMALL, "--seed", "5",
                   "--out-dir", str(tmp_path), "--epochs", "2", "--batch-size", "32",
                   "--balancing", "ros", "--held-out", "attack_01"])
        assert rc == 0
        report = json.loads((tmp_path / "loao_report.json").read_text())
        entry = report["results"][0]
        assert entry["held_out"] == "attack_01"
        assert entry["held_out_train_count"] == 0
        assert "attack_01" not in entry["retained_classes"]
        assert 0.0 <= entry["retained_accuracy"] <= 1.0
        assert 0.0 <= entry["zero_day_detection_rate"] <= 1.0
        assert "combined_accuracy_detection_counted" in entry

    def test_sweep_covers_every_attack(self, tmp_path):
        rc = main(["loao", "--synth", *SMALL, "--seed", "5",
                   "--out-dir", str(tmp_path), "--epochs", "1", "--batch-size", "32",
                   "--sweep"])
        assert rc == 0
        report = json.loads((tmp_path / "loao_report.json").read_text())
        assert [r["held_out"] for r in report["results"]] == ["attack_01", "attack_02"]

    def test_normal_class_cannot_be_held_out(self, tmp_path, capsys):
        rc = main(["loao", "--synth", *SMALL, "--seed", "5",
                   "--out-dir", str(tmp_path), "--held-out", "normal"])
        assert rc == 1
        assert "normal" in capsys.readouterr().err

    def test_unknown_class_rejected(self, tmp_path, capsys):
        rc = main(["loao", "--synth", *SMALL, "--seed", "5",
                   "--out-dir", str(tmp_path), "--held-out", "worm"])
        assert rc == 1
        assert "worm" in capsys.readouterr().err


class TestExplainBenchInspect:
    def test_explain_outputs(self, tmp_path):
        run_train(tmp_path)
        rc = main(["explain", "--checkpoint", str(tmp_path / "checkpoint.bgid"),
                   "--synth", *SMALL, "--seed", "5", "--out-dir", str(tmp_path / "ex"),
                   "--instances", "2", "--permutations", "16"])
        assert rc == 0
        lines = (tmp_path / "ex" / "attribution.csv").read_text().strip().splitlines()
        assert lines[0] == "feature,class,mean_abs_value"
        assert len(lines) == 1 + 8 * 3
        top = json.loads((tmp_path / "ex" / "attribution_topk.json").read_text())
        assert len(top["top_features"]) == 8

    @pytest.mark.parametrize("flag, setting", [("--instances", "n_instances"),
                                               ("--permutations", "n_permutations"),
                                               ("--top-k", "--top-k"),
                                               ("--batch", "--batch")])
    def test_setting_below_one_rejected(self, tmp_path, capsys, flag, setting):
        # checked before the checkpoint is read: this one lacks a codec
        spec = tiny_bigat_spec()
        ckpt = tmp_path / "m.bgid"
        MOD.save(build(spec, RngStream(0)), spec, {}, ckpt)
        command = "bench" if flag == "--batch" else "explain"
        rc = main([command, "--checkpoint", str(ckpt), "--synth", *SMALL,
                   "--out-dir", str(tmp_path / "ex"), flag, "0"])
        assert rc == 1
        err = capsys.readouterr().err
        assert setting in err and "'codec'" not in err

    def test_bench_outputs(self, tmp_path):
        run_train(tmp_path)
        rc = main(["bench", "--checkpoint", str(tmp_path / "checkpoint.bgid"),
                   "--synth", *SMALL, "--seed", "5", "--out-dir", str(tmp_path / "b"),
                   "--bench-repeats", "2"])
        assert rc == 0
        stats = json.loads((tmp_path / "b" / "bench.json").read_text())["bench"]
        assert stats["mean_sec_per_instance"] > 0
        assert stats["p95_sec_per_instance"] > 0

    def test_inspect_published_table(self, capsys):
        assert main(["inspect", "--variant", "4"]) == 0
        out = capsys.readouterr().out
        for token in ["Total parameters: 978,470", "(None, 83, 128)", "(None, 10624)",
                      "(None, 10656)", "BiGRU", "LayerNorm", "MHA", "Flatten",
                      "Concatenate"]:
            assert token in out, token

    def test_inspect_checkpoint(self, tmp_path, capsys):
        run_train(tmp_path)
        assert main(["inspect", "--checkpoint", str(tmp_path / "checkpoint.bgid")]) == 0
        assert "(None, 8, 1)" in capsys.readouterr().out

    def test_inspect_requires_one_target(self, capsys):
        assert main(["inspect"]) == 1


class TestAblate:
    def test_tiny_sweep_shape(self, tmp_path):
        rc = main(["ablate", "--synth", "--synth-classes", "3",
                   "--synth-per-class", "20", "--synth-seq-len", "8",
                   "--synth-separation", "6.0", "--seed", "5",
                   "--out-dir", str(tmp_path), "--epochs", "1", "--batch-size", "32"])
        assert rc == 0
        rows = json.loads((tmp_path / "ablation.json").read_text())["rows"]
        assert len(rows) == 24
        assert {r["setting"] for r in rows} == {"unbalanced", "balanced"}
        assert sorted({r["variant"] for r in rows}) == list(range(1, 13))
        assert all(r["status"] == "ok" for r in rows)
        assert all(r["param_total"] > 0 for r in rows)
        assert all(r["canonical"] == (r["variant"] == 4) for r in rows)
        csv_lines = (tmp_path / "ablation.csv").read_text().strip().splitlines()
        assert csv_lines[0] == \
            "variant,label,canonical,param_total,setting,status,accuracy,loss,fpr"
        assert len(csv_lines) == 25


class TestRunConfig:
    def test_config_echo_layout(self):
        # every report echoes the config in this key order
        assert list(RUN_DEFAULTS) == [
            "csv", "synth", "label_column", "synth_classes", "synth_per_class",
            "synth_seq_len", "synth_separation", "synth_imbalance", "train_frac", "scale",
            "balancing", "smote_k", "variant", "dropout", "learning_rate", "batch_size",
            "epochs", "loss", "focal_gamma", "focal_alpha", "grad_clip", "seed",
            "out_dir", "bench_warmup", "bench_repeats", "normal_class"]

    def test_training_defaults_are_train_configs(self):
        assert RunConfig(dict(RUN_DEFAULTS)).train_config() == T.TrainConfig()


class TestStage:
    @pytest.mark.parametrize("exc", [KeyboardInterrupt(), SystemExit(3)])
    def test_interrupt_and_exit_pass_through_unchanged(self, exc):
        with pytest.raises(type(exc)) as info:
            with cli._Stage("train"):
                raise exc
        assert info.value is exc


class TestSeedDerivation:
    def test_stable_and_distinct(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
        assert derive_seed(1, 2, 3) != derive_seed(1, 2, 4)


class TestEnvironmentVariables:
    def test_out_dir_and_seed_from_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BIGATID_OUT_DIR", str(tmp_path / "envout"))
        monkeypatch.setenv("BIGATID_SEED", "9")
        rc = main(["train", "--synth", *SMALL, "--epochs", "1", "--batch-size", "32"])
        assert rc == 0
        report = json.loads((tmp_path / "envout" / "run_report.json").read_text())
        assert report["config"]["seed"] == 9

    def test_non_integer_seed_rejected(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("BIGATID_SEED", "abc")
        assert main(["train", "--synth", "--out-dir", str(tmp_path)]) == 1
        assert "BIGATID_SEED must be an integer, got 'abc'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "synth"])
    def test_negative_seed_rejected(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.setenv("BIGATID_SEED", "-2")
        assert main([command, "--synth", "--out-dir", str(tmp_path)]) == 1
        assert "BIGATID_SEED: seed must be >= 0, got -2" in capsys.readouterr().err

    def test_flags_override_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BIGATID_OUT_DIR", str(tmp_path / "envout"))
        monkeypatch.setenv("BIGATID_SEED", "9")
        rc = main(["train", "--synth", *SMALL, "--epochs", "1", "--batch-size", "32",
                   "--seed", "4", "--out-dir", str(tmp_path / "flagout")])
        assert rc == 0
        report = json.loads((tmp_path / "flagout" / "run_report.json").read_text())
        assert report["config"]["seed"] == 4
