"""End-to-end command-line runs: files produced, precedence, exit codes."""

import argparse
import dataclasses
import json
import re
import typing
from pathlib import Path
from typing import Optional, Tuple

import numpy as np
import pytest

from gbsr import graph, trainer
from gbsr.cli import RunConfig, build_parser, main, read_config_file
from gbsr.data import (SyntheticSpec, generate_synthetic, interactions_text,
                       noise_labels_text, social_text)
from gbsr.errors import NumericError
from gbsr.trainer import TrainConfig

from test_ranges import SPEC_INTEGERS, SPEC_REALS, TRAIN_INTEGERS, TRAIN_REALS

SYNTH_FLAGS = ["--cluster-count", "2", "--users-per-cluster", "12",
               "--items-per-cluster", "10", "--interaction-rate", "0.4",
               "--intra-social-rate", "0.3", "--noise-edge-fraction", "0.5"]

CONFIG_TEXT = """\
# small model so the suite stays fast
embedding_dim=8
layers=2
learning_rate=0.05
batch_size=64
epochs=2
beta=0.5
"""


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("synth")
    assert main(["synth", "--out", str(d), "--seed", "0"] + SYNTH_FLAGS) == 0
    return d


@pytest.fixture(scope="module")
def train_dir(tmp_path_factory, data_dir):
    d = tmp_path_factory.mktemp("run")
    cfg = d / "run.cfg"
    cfg.write_text(CONFIG_TEXT, encoding="utf-8")
    code = main(["train", "--config", str(cfg),
                 "--interactions", str(data_dir / "interactions.tsv"),
                 "--social", str(data_dir / "social.tsv"),
                 "--out", str(d)])
    assert code == 0
    return d


@pytest.fixture(scope="module")
def two_seed_dir(tmp_path_factory, data_dir):
    """`train --seed 0,1` under a config file that says seed=5."""
    d = tmp_path_factory.mktemp("two_seeds")
    cfg = d / "run.cfg"
    cfg.write_text(CONFIG_TEXT + "seed=5\n", encoding="utf-8")
    code = main(["train", "--config", str(cfg), "--seed", "0,1", "--epochs", "1",
                 "--interactions", str(data_dir / "interactions.tsv"),
                 "--social", str(data_dir / "social.tsv"),
                 "--out", str(d / "run")])
    assert code == 0
    return d / "run"


def _no_files(path) -> bool:
    return not path.exists() or not any(path.iterdir())


class TestSynth:
    def test_outputs_and_manifest(self, data_dir):
        for name in ("interactions.tsv", "social.tsv", "noise_labels.tsv",
                     "manifest.json"):
            assert (data_dir / name).exists()
        manifest = json.loads((data_dir / "manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["outputs"] == ["interactions.tsv", "noise_labels.tsv",
                                       "social.tsv"]
        # the generator's fields, minus the seed that `seeds` records
        assert manifest["synthetic"] == {
            "cluster_count": 2, "users_per_cluster": 12, "items_per_cluster": 10,
            "interaction_rate": 0.4, "intra_social_rate": 0.3,
            "noise_edge_fraction": 0.5}
        assert manifest["seeds"] == [0]

    @pytest.mark.parametrize("command", ["train", "evaluate", "export-confidence"])
    def test_only_synth_records_the_generator(self, train_dir, data_dir, tmp_path,
                                              command):
        out = train_dir
        if command != "train":
            out = tmp_path
            assert main([command, "--checkpoint", str(train_dir / "checkpoint_seed0.bin"),
                         "--interactions", str(data_dir / "interactions.tsv"),
                         "--social", str(data_dir / "social.tsv"),
                         "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == command
        assert "synthetic" not in manifest

    @pytest.mark.parametrize("command", ["synth", "train", "evaluate", "export-confidence"])
    def test_manifest_records_the_thread_counts(self, train_dir, data_dir, tmp_path,
                                                command):
        out = {"synth": data_dir, "train": train_dir}.get(command, tmp_path)
        if out is tmp_path:
            assert main([command, "--checkpoint", str(train_dir / "checkpoint_seed0.bin"),
                         "--interactions", str(data_dir / "interactions.tsv"),
                         "--social", str(data_dir / "social.tsv"),
                         "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        # what the BLAS getter reported (null without a known setter) and the pool size
        assert manifest["blas_threads"] == graph.BLAS_THREADS
        assert manifest["workers"] == graph.WORKERS >= 1
        assert manifest["blas_threads"] in (None, 1)

    def test_defaults_are_the_spec_defaults(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path)]) == 0
        dataset, labels = generate_synthetic(SyntheticSpec())
        assert (tmp_path / "interactions.tsv").read_text() == interactions_text(dataset)
        assert (tmp_path / "social.tsv").read_text() == social_text(dataset)
        assert ((tmp_path / "noise_labels.tsv").read_text()
                == noise_labels_text(dataset, labels))

    def test_same_seed_same_bytes(self, data_dir, tmp_path):
        assert main(["synth", "--out", str(tmp_path), "--seed", "0"]
                    + SYNTH_FLAGS) == 0
        for name in ("interactions.tsv", "social.tsv", "noise_labels.tsv"):
            assert (tmp_path / name).read_bytes() == (data_dir / name).read_bytes()

    def test_other_seed_other_edges(self, data_dir, tmp_path):
        assert main(["synth", "--out", str(tmp_path), "--seed", "1"]
                    + SYNTH_FLAGS) == 0
        assert ((tmp_path / "social.tsv").read_bytes()
                != (data_dir / "social.tsv").read_bytes())

    def test_labels_file_shape(self, data_dir):
        lines = (data_dir / "noise_labels.tsv").read_text().strip().split("\n")
        social = (data_dir / "social.tsv").read_text().strip().split("\n")
        # one label per undirected social pair
        assert len(lines) == len(social)
        for line in lines:
            a, b, flag = line.split("\t")
            assert int(a) < int(b) and flag in ("0", "1")


class TestTrain:
    def test_expected_files(self, train_dir):
        for name in ("checkpoint_seed0.bin", "train_log_seed0.jsonl",
                     "metrics.json", "manifest.json"):
            assert (train_dir / name).exists()

    def test_log_is_jsonl(self, train_dir):
        lines = (train_dir / "train_log_seed0.jsonl").read_text().strip().split("\n")
        records = [json.loads(line) for line in lines]
        assert records[0]["event"] == "config"
        assert records[0]["embedding_dim"] == 8
        epochs = [r for r in records if "rec_loss" in r]
        assert [r["epoch"] for r in epochs] == [1, 2]
        for r in epochs:
            assert np.isfinite(r["total_loss"])

    def test_metrics_shape(self, train_dir):
        metrics = json.loads((train_dir / "metrics.json").read_text())
        assert set(metrics["cutoffs"]) == {"10", "20"}
        for block in metrics["cutoffs"].values():
            assert 0.0 <= block["recall"] <= 1.0
            assert 0.0 <= block["ndcg"] <= 1.0
        # a one-seed run's row is its mean, with the same string cutoff keys
        assert metrics["per_seed"] == [{
            "seed": 0,
            "recall": {n: b["recall"] for n, b in metrics["cutoffs"].items()},
            "ndcg": {n: b["ndcg"] for n, b in metrics["cutoffs"].items()}}]
        # users whose single interaction stayed in train are skipped
        assert 0 < metrics["evaluated_user_count"] <= 24

    def test_manifest_records_resolution(self, train_dir, data_dir):
        manifest = json.loads((train_dir / "manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["effective_config"]["epochs"] == 2
        assert manifest["effective_config"]["beta"] == 0.5
        assert manifest["inputs"]["interactions"] == str(data_dir / "interactions.tsv")
        assert manifest["seeds"] == [0]

    def test_flag_beats_config_file(self, data_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG_TEXT, encoding="utf-8")
        code = main(["train", "--config", str(cfg), "--epochs", "1",
                     "--beta", "0",
                     "--interactions", str(data_dir / "interactions.tsv"),
                     "--social", str(data_dir / "social.tsv"),
                     "--out", str(tmp_path)])
        assert code == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["effective_config"]["epochs"] == 1
        assert manifest["effective_config"]["beta"] == 0.0

    def test_beta_zero_kills_bottleneck_term(self, data_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG_TEXT, encoding="utf-8")
        code = main(["train", "--config", str(cfg), "--beta", "0",
                     "--epochs", "1",
                     "--interactions", str(data_dir / "interactions.tsv"),
                     "--social", str(data_dir / "social.tsv"),
                     "--out", str(tmp_path)])
        assert code == 0
        records = [json.loads(line) for line in
                   (tmp_path / "train_log_seed0.jsonl").read_text().strip().split("\n")]
        assert all(r["ib_loss"] == 0.0 for r in records if "ib_loss" in r)

    def test_social_free_synth_trains_and_evaluates(self, tmp_path):
        # no intra-cluster and no noise edges: synth writes an empty
        # social.tsv, which loads as the graph without social pairs
        data = tmp_path / "data"
        flags = [f if f not in ("0.3", "0.5") else "0" for f in SYNTH_FLAGS]
        assert main(["synth", "--out", str(data)] + flags) == 0
        assert (data / "social.tsv").read_text() == ""
        inputs = ["--interactions", str(data / "interactions.tsv"),
                  "--social", str(data / "social.tsv")]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG_TEXT, encoding="utf-8")
        assert main(["train", "--config", str(cfg), "--epochs", "1", "--out",
                     str(tmp_path / "run")] + inputs) == 0
        assert main(["evaluate", "--checkpoint",
                     str(tmp_path / "run" / "checkpoint_seed0.bin"),
                     "--out", str(tmp_path / "eval")] + inputs) == 0
        trained = json.loads((tmp_path / "run" / "metrics.json").read_text())
        evaluated = json.loads((tmp_path / "eval" / "metrics.json").read_text())
        assert evaluated["cutoffs"] == trained["cutoffs"]

    def test_interrupted_run_keeps_its_log_prefix(self, data_dir, tmp_path, monkeypatch,
                                                  capsys):
        # a run stopped at epoch 3 leaves the config record and epochs 1-2,
        # byte for byte as the full run wrote them, and no other file
        args = ["train", "--embedding-dim", "8", "--layers", "2", "--batch-size", "64",
                "--epochs", "5", "--interactions", str(data_dir / "interactions.tsv"),
                "--social", str(data_dir / "social.tsv"), "--out"]
        assert main(args + [str(tmp_path / "full")]) == 0
        train_epoch = trainer.train_epoch

        def fail_at_epoch_3(state, *rest):
            if state.epoch == 2:
                raise NumericError("epoch 3, batch 0: injected")
            return train_epoch(state, *rest)

        monkeypatch.setattr(trainer, "train_epoch", fail_at_epoch_3)
        cut = tmp_path / "cut"
        assert main(args + [str(cut)]) == 3
        assert "injected" in capsys.readouterr().err
        assert [p.name for p in cut.iterdir()] == ["train_log_seed0.jsonl"]
        log = (cut / "train_log_seed0.jsonl").read_bytes()
        assert [json.loads(line).get("epoch") for line in log.splitlines()] == [None, 1, 2]
        assert (tmp_path / "full" / "train_log_seed0.jsonl").read_bytes().startswith(log)

    def test_interrupted_rerun_leaves_no_manifest(self, data_dir, tmp_path, monkeypatch,
                                                  capsys):
        # a re-run into a finished directory removes the earlier manifest
        # before its log starts: a directory without one holds no whole run
        args = ["train", "--embedding-dim", "8", "--layers", "2", "--batch-size", "64",
                "--interactions", str(data_dir / "interactions.tsv"),
                "--social", str(data_dir / "social.tsv"), "--out", str(tmp_path)]
        assert main(args + ["--epochs", "1"]) == 0
        assert (tmp_path / "manifest.json").exists()
        train_epoch = trainer.train_epoch

        def fail_at_epoch_2(state, *rest):
            if state.epoch == 1:
                raise NumericError("epoch 2, batch 0: injected")
            return train_epoch(state, *rest)

        monkeypatch.setattr(trainer, "train_epoch", fail_at_epoch_2)
        assert main(args + ["--epochs", "3"]) == 3
        assert "injected" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()
        log = [json.loads(line) for line in
               (tmp_path / "train_log_seed0.jsonl").read_text().splitlines()]
        assert log[0]["event"] == "config" and log[0]["epochs"] == 3
        assert [record.get("epoch") for record in log] == [None, 1]

    def test_multi_seed_run(self, data_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG_TEXT, encoding="utf-8")
        code = main(["train", "--config", str(cfg), "--seed", "3,4",
                     "--epochs", "1",
                     "--interactions", str(data_dir / "interactions.tsv"),
                     "--social", str(data_dir / "social.tsv"),
                     "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "checkpoint_seed3.bin").exists()
        assert (tmp_path / "checkpoint_seed4.bin").exists()
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert [r["seed"] for r in metrics["per_seed"]] == [3, 4]
        mean = metrics["cutoffs"]["20"]["recall"]
        per = [r["recall"]["20"] for r in metrics["per_seed"]]
        assert mean == pytest.approx(sum(per) / 2, abs=1e-12)


class TestEvaluate:
    def test_reproduces_training_metrics(self, train_dir, data_dir, tmp_path):
        code = main(["evaluate",
                     "--checkpoint", str(train_dir / "checkpoint_seed0.bin"),
                     "--interactions", str(data_dir / "interactions.tsv"),
                     "--social", str(data_dir / "social.tsv"),
                     "--out", str(tmp_path)])
        assert code == 0
        got = json.loads((tmp_path / "metrics.json").read_text())
        want = json.loads((train_dir / "metrics.json").read_text())
        assert got["cutoffs"] == want["cutoffs"]

    def test_cutoff_override(self, train_dir, data_dir, tmp_path):
        code = main(["evaluate",
                     "--checkpoint", str(train_dir / "checkpoint_seed0.bin"),
                     "--interactions", str(data_dir / "interactions.tsv"),
                     "--social", str(data_dir / "social.tsv"),
                     "--cutoffs", "5",
                     "--out", str(tmp_path)])
        assert code == 0
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert list(metrics["cutoffs"]) == ["5"]

    @pytest.mark.parametrize("command", ["evaluate", "export-confidence"])
    @pytest.mark.parametrize("text, clash", [
        ("layers=1\n", "layers"),
        ("temperature=5.0\nepsilon=1.0\n", "epsilon"),
        ("embedding_dim=4\n", "embedding_dim"),
        (CONFIG_TEXT + "cutoffs=5\nseed=0\n", None),
    ])
    def test_config_must_match_checkpoint(self, train_dir, data_dir, tmp_path,
                                          command, text, clash, capsys):
        # the loaded state ignores every key but cutoffs and seed, so a
        # different value elsewhere would only mislabel the manifest
        cfg = tmp_path / "eval.cfg"
        cfg.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        code = main([command, "--config", str(cfg),
                     "--checkpoint", str(train_dir / "checkpoint_seed0.bin"),
                     "--interactions", str(data_dir / "interactions.tsv"),
                     "--social", str(data_dir / "social.tsv"),
                     "--out", str(out)])
        if clash is None:
            assert code == 0
            manifest = json.loads((out / "manifest.json").read_text())
            trained = json.loads((train_dir / "manifest.json").read_text())
            assert manifest["effective_config"] == dict(
                trained["effective_config"], cutoffs=[5])
        else:
            assert code == 1
            assert f"{clash}=" in capsys.readouterr().err
            assert not (out / "manifest.json").exists()

    def test_missing_checkpoint_flag(self, data_dir, tmp_path):
        code = main(["evaluate",
                     "--interactions", str(data_dir / "interactions.tsv"),
                     "--social", str(data_dir / "social.tsv"),
                     "--out", str(tmp_path)])
        assert code == 1

    def test_corrupt_checkpoint_is_exit_3(self, data_dir, tmp_path):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"garbage bytes, not a checkpoint")
        code = main(["evaluate", "--checkpoint", str(bad),
                     "--interactions", str(data_dir / "interactions.tsv"),
                     "--social", str(data_dir / "social.tsv"),
                     "--out", str(tmp_path)])
        assert code == 3

    @pytest.mark.parametrize("command", ["evaluate", "export-confidence"])
    @pytest.mark.parametrize("fault, message", [
        (lambda b: b"NOTMAGIC" + b[8:], "bad magic"),
        (lambda b: b[:8] + (1).to_bytes(4, "little") + b[12:],
         "unsupported checkpoint version 1"),
        (lambda b: b[:len(b) // 2], "checkpoint truncated"),
        (lambda b: b + b"XX", "2 trailing bytes"),
        (lambda b: b.replace(b'"embedding_dim"', b'"embeddingdim!"', 1),
         "bad checkpoint header"),
    ], ids=["magic", "version-1", "truncated", "trailing", "config"])
    def test_checkpoint_faults_are_exit_3(self, train_dir, data_dir, tmp_path,
                                          capsys, command, fault, message):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(fault((train_dir / "checkpoint_seed0.bin").read_bytes()))
        out = tmp_path / "out"
        code = main([command, "--checkpoint", str(bad),
                     "--interactions", str(data_dir / "interactions.tsv"),
                     "--social", str(data_dir / "social.tsv"),
                     "--out", str(out)])
        assert code == 3
        assert message in capsys.readouterr().err
        assert not (out / "metrics.json").exists()
        assert not (out / "confidence.csv").exists()


def _with_header(blob, edit):
    """A checkpoint's bytes with its JSON header changed in place by `edit`."""
    length = int.from_bytes(blob[12:20], "little")
    header = json.loads(blob[20:20 + length])
    edit(header)
    raw = json.dumps(header).encode("utf-8")
    return blob[:12] + len(raw).to_bytes(8, "little") + raw + blob[20 + length:]


def _with_header_config(blob, key, value):
    """A checkpoint's bytes with one key of its header's config replaced."""
    return _with_header(blob, lambda header: header["config"].__setitem__(key, value))


class TestCheckpointLabel:
    """A checkpoint fault exits 3 with the label `checkpoint error:`."""

    def run(self, data_dir, tmp_path, blob, command="evaluate"):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(blob)
        out = tmp_path / "out"
        code = main([command, "--checkpoint", str(bad),
                     "--interactions", str(data_dir / "interactions.tsv"),
                     "--social", str(data_dir / "social.tsv"), "--out", str(out)])
        assert not (out / "metrics.json").exists()
        assert not (out / "confidence.csv").exists()
        return code

    def test_truncated_checkpoint(self, train_dir, data_dir, tmp_path, capsys):
        blob = (train_dir / "checkpoint_seed0.bin").read_bytes()
        assert self.run(data_dir, tmp_path, blob[:len(blob) // 2]) == 3
        err = capsys.readouterr().err
        assert err.startswith("checkpoint error:") and "checkpoint truncated" in err

    @pytest.mark.parametrize("command", ["evaluate", "export-confidence"])
    @pytest.mark.parametrize("key, value, message", [
        ("layers", 2.0, "layers must be an integer in [1, 4], got 2.0"),
        ("seed", 0.5, "seed must be an integer in [0, inf), got 0.5"),
        ("embedding_dim", True, "embedding_dim must be an integer in [1, inf), got True"),
        ("detach_original", "false", "detach_original must be a bool, got 'false'"),
        ("cutoffs", [10, 2.5], "cutoff must be an integer in [1, inf), got 2.5"),
    ], ids=["layers-float", "seed-float", "dim-bool", "bool-string", "cutoff-float"])
    def test_header_value_of_the_wrong_type(self, train_dir, data_dir, tmp_path, capsys,
                                            command, key, value, message):
        blob = _with_header_config(
            (train_dir / "checkpoint_seed0.bin").read_bytes(), key, value)
        assert self.run(data_dir, tmp_path, blob, command) == 3
        err = capsys.readouterr().err
        assert err.startswith("checkpoint error:")
        assert f"bad checkpoint header: {message}\n" in err

    @pytest.mark.parametrize("dim", ["abc", None], ids=["word", "null"])
    def test_dimension_that_is_not_an_integer(self, train_dir, data_dir, tmp_path, capsys,
                                              dim):
        # every dimension is checked before any is used
        blob = _with_header((train_dir / "checkpoint_seed0.bin").read_bytes(),
                            lambda header: header["arrays"][2].__setitem__(1, [dim]))
        assert self.run(data_dir, tmp_path, blob) == 3
        err = capsys.readouterr().err
        assert (f"bad checkpoint header: array 'layer1_bias' has a dimension that is not "
                f"an integer: [{dim!r}]\n") in err


class TestSeed:
    """`seed` is one key: a comma-separated list whose first entry seeds the
    split and the generator; a flag beats the config file as for any key.
    Only train takes more than one entry."""

    def test_flag_list_beats_file_seed(self, two_seed_dir):
        manifest = json.loads((two_seed_dir / "manifest.json").read_text())
        assert manifest["effective_config"]["seed"] == 0
        assert manifest["seeds"] == [0, 1]

    def test_synth_flag_beats_file_seed(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=5\n", encoding="utf-8")
        flag, both = tmp_path / "flag", tmp_path / "both"
        assert main(["synth", "--out", str(flag), "--seed", "7"] + SYNTH_FLAGS) == 0
        assert main(["synth", "--config", str(cfg), "--out", str(both), "--seed", "7"]
                    + SYNTH_FLAGS) == 0
        for name in ("interactions.tsv", "social.tsv", "noise_labels.tsv"):
            assert (both / name).read_bytes() == (flag / name).read_bytes()

    def test_evaluate_manifest_names_the_checkpoint_seed(self, two_seed_dir, data_dir,
                                                         tmp_path):
        code = main(["evaluate",
                     "--checkpoint", str(two_seed_dir / "checkpoint_seed1.bin"),
                     "--interactions", str(data_dir / "interactions.tsv"),
                     "--social", str(data_dir / "social.tsv"),
                     "--out", str(tmp_path)])
        assert code == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["effective_config"]["seed"] == 1
        assert manifest["seeds"] == [1]

    @pytest.mark.parametrize("form", ["flag", "file"])
    @pytest.mark.parametrize("command", ["synth", "evaluate", "export-confidence"])
    def test_seed_list_outside_train_is_exit_1(self, tmp_path, command, form, capsys):
        # no input exists, so exit 1 shows the check runs before any read
        missing, out = tmp_path / "missing", tmp_path / "out"
        argv = [command, "--out", str(out)]
        if command != "synth":
            argv += ["--interactions", str(missing / "interactions.tsv"),
                     "--social", str(missing / "social.tsv"),
                     "--checkpoint", str(missing / "checkpoint_seed3.bin")]
        if form == "flag":
            argv += ["--seed", "3,4"]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("seed=3,4\n", encoding="utf-8")
            argv += ["--config", str(cfg)]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"config error: {command} takes one seed")
        assert not out.exists()


class TestExportConfidence:
    def test_csv_contents(self, train_dir, data_dir, tmp_path):
        code = main(["export-confidence",
                     "--checkpoint", str(train_dir / "checkpoint_seed0.bin"),
                     "--interactions", str(data_dir / "interactions.tsv"),
                     "--social", str(data_dir / "social.tsv"),
                     "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "confidence.csv").read_text().strip().split("\n")
        assert lines[0] == "user_a,user_b,confidence,relaxed_weight"
        assert lines[-1].startswith("# edges=")
        n_social = len((data_dir / "social.tsv").read_text().strip().split("\n"))
        assert len(lines) == 1 + n_social + 1
        for line in lines[1:-1]:
            a, b, w, rho = line.split(",")
            assert int(a) < int(b)
            assert 0.0 < float(w) < 1.0
            assert 0.0 <= float(rho) <= 1.0
        # summary stats agree with the rows
        stats = dict(part.split("=") for part in lines[-1][2:].split())
        ws = [float(line.split(",")[2]) for line in lines[1:-1]]
        assert float(stats["mean_confidence"]) == pytest.approx(
            sum(ws) / len(ws), abs=1e-12)
        assert float(stats["min"]) == min(ws)
        assert float(stats["max"]) == max(ws)
        assert int(stats["edges"]) == n_social

    @pytest.mark.parametrize("command", ["export-confidence", "evaluate"])
    def test_checkpoint_from_other_dataset_is_exit_2(self, train_dir, tmp_path,
                                                      command, capsys):
        # a smaller synthetic set: its user count alone would pass denoise
        other = tmp_path / "other"
        flags = SYNTH_FLAGS[:]
        flags[flags.index("--users-per-cluster") + 1] = "10"
        assert main(["synth", "--out", str(other), "--seed", "1"] + flags) == 0
        out = tmp_path / "out"
        code = main([command,
                     "--checkpoint", str(train_dir / "checkpoint_seed0.bin"),
                     "--interactions", str(other / "interactions.tsv"),
                     "--social", str(other / "social.tsv"),
                     "--out", str(out)])
        assert code == 2
        assert "embedding rows" in capsys.readouterr().err
        assert not (out / "confidence.csv").exists()
        assert not (out / "metrics.json").exists()


class TestErrors:
    def test_missing_data_file_is_exit_2(self, tmp_path):
        code = main(["train", "--interactions", str(tmp_path / "none.tsv"),
                     "--social", str(tmp_path / "none2.tsv"),
                     "--out", str(tmp_path)])
        assert code == 2

    @pytest.mark.filterwarnings("ignore")
    def test_id_outside_int64_is_exit_2(self, tmp_path, capsys):
        (tmp_path / "i.tsv").write_text("1\t5\n9223372036854775808\t6\n")
        (tmp_path / "s.tsv").write_text("1\t2\n")
        code = main(["train", "--interactions", str(tmp_path / "i.tsv"),
                     "--social", str(tmp_path / "s.tsv"),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "i.tsv:2: id outside the int64 range" in capsys.readouterr().err

    def test_unknown_flag_is_exit_1(self, tmp_path):
        assert main(["train", "--does-not-exist", "1"]) == 1

    def test_missing_command_is_exit_1(self):
        assert main([]) == 1

    def test_unknown_config_key_is_exit_1(self, data_dir, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("not_a_key=3\n", encoding="utf-8")
        code = main(["train", "--config", str(cfg),
                     "--interactions", str(data_dir / "interactions.tsv"),
                     "--social", str(data_dir / "social.tsv"),
                     "--out", str(tmp_path)])
        assert code == 1

    @pytest.mark.parametrize("make", [lambda p: p.mkdir(),
                                      lambda p: p.write_bytes(b"seed=\xe9\n")],
                             ids=["directory", "not-utf8"])
    def test_unreadable_config_file_is_exit_1(self, tmp_path, make, capsys):
        cfg = tmp_path / "run.cfg"
        make(cfg)
        out = tmp_path / "out"
        assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 1
        assert "cannot read config file" in capsys.readouterr().err
        assert _no_files(out)

    def test_bad_config_value_is_exit_1(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("epochs=soon\n", encoding="utf-8")
        assert main(["train", "--config", str(cfg)]) == 1

    @pytest.mark.parametrize("extra", [[], ["--epochs", "2", "--eval-every", "5"]],
                             ids=["evaluating_fit", "final_evaluation_only"])
    def test_empty_test_split_is_exit_2_before_training(self, data_dir, tmp_path,
                                                        extra, capsys):
        out = tmp_path / "out"
        code = main(["train", "--split-ratio", "1", "--embedding-dim", "8", "--layers", "2",
                     "--interactions", str(data_dir / "interactions.tsv"),
                     "--social", str(data_dir / "social.tsv"),
                     "--out", str(out)] + extra)
        assert code == 2
        assert "nothing to evaluate" in capsys.readouterr().err
        assert not out.exists() or list(out.iterdir()) == []

    def test_empty_validation_split_writes_nothing(self, tmp_path, capsys):
        # each user keeps one of two interactions for train, and a 10%
        # validation carve of one pair takes none: the run fails before
        # its first record, so no log file is opened
        data = tmp_path / "data"
        data.mkdir()
        (data / "interactions.tsv").write_text(
            "".join(f"{u}\t{u + k}\n" for u in range(10) for k in (0, 10)), encoding="utf-8")
        (data / "social.tsv").write_text(
            "".join(f"{u}\t{u + 1}\n" for u in range(9)), encoding="utf-8")
        out = tmp_path / "out"
        code = main(["train", "--validation-ratio", "0.1", "--embedding-dim", "8",
                     "--interactions", str(data / "interactions.tsv"),
                     "--social", str(data / "social.tsv"), "--out", str(out)])
        assert code == 2
        assert "nothing to evaluate" in capsys.readouterr().err
        assert _no_files(out)

    def test_export_needs_no_test_split(self, train_dir, data_dir, tmp_path):
        code = main(["export-confidence", "--split-ratio", "1",
                     "--checkpoint", str(train_dir / "checkpoint_seed0.bin"),
                     "--interactions", str(data_dir / "interactions.tsv"),
                     "--social", str(data_dir / "social.tsv"),
                     "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "confidence.csv").exists()

    def test_bad_split_ratio_is_exit_1(self, data_dir, tmp_path):
        code = main(["train", "--split-ratio", "0",
                     "--interactions", str(data_dir / "interactions.tsv"),
                     "--social", str(data_dir / "social.tsv"),
                     "--out", str(tmp_path)])
        assert code == 1

    def test_invalid_knob_is_exit_1(self, data_dir, tmp_path):
        code = main(["train", "--layers", "99",
                     "--interactions", str(data_dir / "interactions.tsv"),
                     "--social", str(data_dir / "social.tsv"),
                     "--out", str(tmp_path)])
        assert code == 1

    def test_single_user_batch_under_beta_is_exit_1(self, data_dir, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["train", "--batch-size", "1", "--epochs", "1",
                     "--interactions", str(data_dir / "interactions.tsv"),
                     "--social", str(data_dir / "social.tsv"),
                     "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "batch_size" in err and "beta" in err
        assert not out.exists() or not any(out.iterdir())

    def test_single_user_batch_without_beta_trains(self, data_dir, tmp_path):
        code = main(["train", "--batch-size", "1", "--beta", "0", "--epochs", "1",
                     "--embedding-dim", "8", "--layers", "1",
                     "--interactions", str(data_dir / "interactions.tsv"),
                     "--social", str(data_dir / "social.tsv"),
                     "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "metrics.json").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--learning-rate", "inf"), ("--reg-lambda", "inf"), ("--beta", "inf"),
        ("--sigma-sq", "inf"), ("--temperature", "inf"), ("--seed", "-1"),
        ("--seed", "0,-1"),
    ])
    def test_value_outside_domain_is_exit_1(self, data_dir, tmp_path, flag, value,
                                            capsys):
        out = tmp_path / "out"
        code = main(["train", flag, value,
                     "--interactions", str(data_dir / "interactions.tsv"),
                     "--social", str(data_dir / "social.tsv"),
                     "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith("config error:")
        assert _no_files(out)

    @pytest.mark.parametrize("seeds, repeated", [("0,0", 0), ("3,1,3", 3)])
    def test_repeated_seed_is_exit_1(self, data_dir, tmp_path, capsys, seeds, repeated):
        # one model per seed: a repeat would fit the same model twice into
        # the same files
        out = tmp_path / "out"
        code = main(["train", "--seed", seeds, "--epochs", "1",
                     "--interactions", str(data_dir / "interactions.tsv"),
                     "--social", str(data_dir / "social.tsv"), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: seed {repeated} is given more than once")
        assert _no_files(out)

    def test_negative_synth_seed_is_exit_1(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["synth", "--out", str(out), "--seed", "-1"]) == 1
        assert "seed must be an integer in [0, inf), got -1" in capsys.readouterr().err
        assert _no_files(out)

    @pytest.mark.parametrize("flags, message", [
        (["--cluster-count", "0"], "cluster_count must be an integer in [1, inf), got 0"),
        (["--users-per-cluster", "0"],
         "users_per_cluster must be an integer in [1, inf), got 0"),
        (["--interaction-rate", "1.5"], "interaction_rate must be a number in [0, 1], got 1.5"),
        (["--intra-social-rate", "nan"],
         "intra_social_rate must be a number in [0, 1], got nan"),
        (["--noise-edge-fraction", "inf"],
         "noise_edge_fraction must be a number in [0, inf), got inf"),
        (["--cluster-count", "1"], "needs cluster_count >= 2"),
    ], ids=["clusters-0", "users-0", "rate-1.5", "social-nan", "noise-inf",
            "noise-one-cluster"])
    def test_bad_generator_value_is_exit_1(self, tmp_path, flags, message, capsys):
        out = tmp_path / "out"
        assert main(["synth", "--out", str(out)] + flags) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err
        assert _no_files(out)

    def test_generator_key_in_config_file_is_checked_by_train(self, tmp_path, capsys):
        # no input exists, so exit 1 shows the check runs before any read
        cfg = tmp_path / "run.cfg"
        cfg.write_text("cluster_count=0\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg), "--out", str(out),
                     "--interactions", str(tmp_path / "missing.tsv"),
                     "--social", str(tmp_path / "missing.tsv")]) == 1
        assert capsys.readouterr().err.startswith("config error: cluster_count")
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--interaction-rate", "0"], "zero interactions"),
        (["--users-per-cluster", "2", "--intra-social-rate", "1",
          "--noise-edge-fraction", "10"], "could not place"),
    ], ids=["no-interactions", "no-room-for-noise"])
    def test_generator_outcome_is_exit_2(self, tmp_path, flags, message, capsys):
        out = tmp_path / "out"
        assert main(["synth", "--out", str(out)] + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and message in err
        assert _no_files(out)

    def test_edge_file_that_is_a_directory_is_exit_2(self, data_dir, tmp_path, capsys):
        (tmp_path / "edges").mkdir()
        out = tmp_path / "out"
        code = main(["train", "--interactions", str(tmp_path / "edges"),
                     "--social", str(data_dir / "social.tsv"), "--out", str(out)])
        assert code == 2
        assert "cannot read input file" in capsys.readouterr().err
        assert _no_files(out)

    def test_edge_file_not_utf8_is_exit_2(self, data_dir, tmp_path, capsys):
        social = tmp_path / "s.tsv"
        social.write_bytes(b"1\t2\n\xe9\t3\n")
        out = tmp_path / "out"
        code = main(["train", "--interactions", str(data_dir / "interactions.tsv"),
                     "--social", str(social), "--out", str(out)])
        assert code == 2
        assert f"cannot read input file {social}" in capsys.readouterr().err
        assert _no_files(out)

    @pytest.mark.parametrize("command", ["evaluate", "export-confidence"])
    @pytest.mark.parametrize("name", ["missing.bin", "."], ids=["missing", "directory"])
    def test_unreadable_checkpoint_is_exit_3(self, data_dir, tmp_path, command, name,
                                             capsys):
        out = tmp_path / "out"
        code = main([command, "--checkpoint", str(tmp_path / name),
                     "--interactions", str(data_dir / "interactions.tsv"),
                     "--social", str(data_dir / "social.tsv"), "--out", str(out)])
        assert code == 3
        assert "cannot read checkpoint" in capsys.readouterr().err
        assert _no_files(out)

    @pytest.mark.parametrize("command", ["train", "evaluate", "export-confidence",
                                         "synth"])
    @pytest.mark.parametrize("out_name", ["taken", "taken/sub"])
    def test_out_naming_a_file_is_exit_1(self, train_dir, data_dir, tmp_path, command,
                                         out_name, capsys):
        taken = tmp_path / "taken"
        taken.write_bytes(b"keep")
        argv = [command, "--out", str(tmp_path / out_name)]
        if command != "synth":
            argv += ["--interactions", str(data_dir / "interactions.tsv"),
                     "--social", str(data_dir / "social.tsv")]
        if command in ("evaluate", "export-confidence"):
            argv += ["--checkpoint", str(train_dir / "checkpoint_seed0.bin")]
        assert main(argv) == 1
        assert "exists and is not a directory" in capsys.readouterr().err
        assert taken.read_bytes() == b"keep"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]

    def test_config_file_seed_drives_run_seeds(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=5\n", encoding="utf-8")
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path)]
                    + SYNTH_FLAGS) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["seeds"] == [5]
        assert manifest["effective_config"]["seed"] == 5


_KEY_TYPES = {k: t for k, t in {**typing.get_type_hints(TrainConfig),
                                **typing.get_type_hints(SyntheticSpec),
                                **typing.get_type_hints(RunConfig)}.items()
              if k not in ("train", "synthetic", "explicit_train")}
# one config-file value and its parse per declared field type
_SAMPLES = {int: ("7", 7), float: ("0.25", 0.25), bool: ("yes", True),
            Tuple[int, ...]: ("5, 10", (5, 10)),
            Optional[str]: ("data/in.tsv", "data/in.tsv")}


README = Path(__file__).resolve().parents[1] / "README.md"


# flags that are not `--` plus a config key, among them names of earlier releases
_OLD_SPELLINGS = [
    ("train", ["--dim", "8"]), ("train", ["--lr", "0.1"]), ("train", ["--lambda", "0"]),
    ("train", ["--sigma2", "1"]), ("train", ["--no-kernel-normalize"]),
    ("train", ["--embed", "8"]), ("synth", ["--clusters", "2"]),
    ("synth", ["--social-rate", "0.1"]), ("synth", ["--noise-fraction", "0.5"]),
]


def _subparsers():
    (sub,) = [a for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


class TestFlags:
    def test_every_flag_is_its_key(self):
        dests = set()
        for command, sp in _subparsers().items():
            for action in sp._actions:
                if isinstance(action, argparse._HelpAction):
                    continue
                assert action.option_strings == ["--" + action.dest.replace("_", "-")]
                assert action.dest in _KEY_TYPES or action.dest == "config", command
                dests.add(action.dest)
        # and every config key can be set by a flag
        assert dests - {"config"} == set(_KEY_TYPES)

    @pytest.mark.parametrize("command, old", _OLD_SPELLINGS,
                             ids=[old[0] for _, old in _OLD_SPELLINGS])
    def test_other_spellings_are_unrecognized(self, command, old, capsys):
        assert main([command] + old) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_boolean_flags_take_a_value(self, data_dir, tmp_path):
        assert main(["train", "--detach-original"]) == 1
        code = main(["train", "--detach-original", "true", "--kernel-normalize", "false",
                     "--epochs", "1", "--embedding-dim", "8", "--layers", "1",
                     "--interactions", str(data_dir / "interactions.tsv"),
                     "--social", str(data_dir / "social.tsv"),
                     "--out", str(tmp_path)])
        assert code == 0
        config = json.loads((tmp_path / "manifest.json").read_text())["effective_config"]
        assert config["detach_original"] is True
        assert config["kernel_normalize"] is False


# each key's interval as the tables of test_ranges state it, plus the two
# that hold per entry of a list
_STATED_INTERVALS = {**dict(TRAIN_INTEGERS + TRAIN_REALS + SPEC_INTEGERS + SPEC_REALS),
              "split_ratio": "(0, 1]", "cutoffs": "[1, inf)"}


def _declaring_field(key):
    """The dataclass field that declares a config key (RunConfig's seed)."""
    for cls in (RunConfig, TrainConfig, SyntheticSpec):
        for f in dataclasses.fields(cls):
            if f.name == key:
                return f


class TestHelp:
    def test_every_key_declares_help(self):
        for key in _KEY_TYPES:
            assert _declaring_field(key).metadata.get("help"), key

    @pytest.mark.parametrize("command", ["train", "evaluate", "export-confidence", "synth"])
    def test_help_names_each_interval_and_default(self, command, capsys):
        with pytest.raises(SystemExit) as info:
            main([command, "--help"])
        assert info.value.code == 0
        printed = "".join(capsys.readouterr().out.split())
        for action in _subparsers()[command]._actions:
            if action.dest not in _KEY_TYPES:
                continue
            key, text = action.dest, action.help
            assert "".join(text.split()) in printed, key
            if key in _STATED_INTERVALS:
                assert f"in {_STATED_INTERVALS[key]}" in text, key
            default = _declaring_field(key).default
            written = re.search(r"; default (\S+)$", text)
            if default is None:
                assert written is None, key
            else:
                # the printed default, given to the flag, is the default
                flag = "--" + key.replace("_", "-")
                parsed = vars(build_parser().parse_args([command, flag, written[1]]))[key]
                assert parsed == default and type(parsed) is type(default), key


class TestConfigFile:
    @pytest.mark.parametrize("key", sorted(_KEY_TYPES))
    def test_value_parses_to_declared_type(self, key, tmp_path):
        raw, want = _SAMPLES[_KEY_TYPES[key]]
        cfg = tmp_path / "one.cfg"
        cfg.write_text(f"{key}={raw}\n", encoding="utf-8")
        got = read_config_file(cfg)[key]
        assert got == want and type(got) is type(want)

    def test_readme_names_exactly_the_config_keys(self, tmp_path):
        text = README.read_text(encoding="utf-8")
        section = text.split("\n## Configuration keys\n", 1)[1].split("\n## ", 1)[0]
        named = set(re.findall(r"`([a-z][a-z0-9_-]*)`", section))
        cfg = tmp_path / "one.cfg"
        for key in sorted(named):
            raw = _SAMPLES[_KEY_TYPES[key]][0] if key in _KEY_TYPES else "1"
            cfg.write_text(f"{key}={raw}\n", encoding="utf-8")
            assert key in read_config_file(cfg)
        assert named == set(_KEY_TYPES)
