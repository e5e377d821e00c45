"""End-to-end command-line runs: files produced, precedence, exit codes."""

import json
import typing
from typing import Optional, Tuple

import numpy as np
import pytest

from gbsr.cli import RunConfig, main, read_config_file
from gbsr.trainer import TrainConfig

SYNTH_FLAGS = ["--clusters", "2", "--users-per-cluster", "12",
               "--items-per-cluster", "10", "--interaction-rate", "0.4",
               "--social-rate", "0.3", "--noise-fraction", "0.5"]

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


class TestSynth:
    def test_outputs_and_manifest(self, data_dir):
        for name in ("interactions.tsv", "social.tsv", "noise_labels.tsv",
                     "manifest.json"):
            assert (data_dir / name).exists()
        manifest = json.loads((data_dir / "manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["outputs"] == ["interactions.tsv", "noise_labels.tsv",
                                       "social.tsv"]
        assert manifest["synthetic"]["noise_fraction"] == 0.5

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
        assert metrics["per_seed"][0]["seed"] == 0
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

    def test_bad_config_value_is_exit_1(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("epochs=soon\n", encoding="utf-8")
        assert main(["train", "--config", str(cfg)]) == 1

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

    def test_config_file_seed_drives_run_seeds(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=5\n", encoding="utf-8")
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path)]
                    + SYNTH_FLAGS) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["seeds"] == [5]
        assert manifest["effective_config"]["seed"] == 5


_KEY_TYPES = {k: t for k, t in {**typing.get_type_hints(TrainConfig),
                                **typing.get_type_hints(RunConfig)}.items()
              if k not in ("train", "explicit_train")}
# one config-file value and its parse per declared field type
_SAMPLES = {int: ("7", 7), float: ("0.25", 0.25), bool: ("yes", True),
            Tuple[int, ...]: ("5, 10", (5, 10)),
            Optional[str]: ("data/in.tsv", "data/in.tsv")}


class TestConfigFile:
    @pytest.mark.parametrize("key", sorted(_KEY_TYPES))
    def test_value_parses_to_declared_type(self, key, tmp_path):
        raw, want = _SAMPLES[_KEY_TYPES[key]]
        cfg = tmp_path / "one.cfg"
        cfg.write_text(f"{key}={raw}\n", encoding="utf-8")
        got = read_config_file(cfg)[key]
        assert got == want and type(got) is type(want)
