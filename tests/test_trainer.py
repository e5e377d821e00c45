"""Training loop, optimizer, reproducibility, and binary checkpoints."""

import json
import struct

import numpy as np
import pytest

from gbsr import objective, trainer
from gbsr.data import Dataset
from gbsr.errors import CheckpointError, ConfigError, NumericError
from gbsr.trainer import (CHECKPOINT_MAGIC, INIT_SCALE, Adam, TrainConfig,
                          TrainState, config_as_dict, config_from_dict,
                          evaluate_state, fit, init, load_checkpoint,
                          save_checkpoint, train_epoch)


def quick_config(**kw):
    base = dict(embedding_dim=8, layers=2, learning_rate=0.05, batch_size=64,
                epochs=3, patience=50, beta=0.5, seed=0)
    base.update(kw)
    return TrainConfig(**base)


class TestConfig:
    def test_defaults(self):
        c = TrainConfig()
        assert (c.embedding_dim, c.layers, c.learning_rate) == (64, 3, 0.001)
        assert (c.batch_size, c.reg_lambda, c.beta) == (2048, 1e-4, 1.0)
        assert (c.sigma_sq, c.temperature, c.epsilon) == (1.0, 0.2, 0.5)
        assert (c.epochs, c.eval_every, c.patience, c.seed) == (100, 1, 50, 0)
        assert c.cutoffs == (10, 20)
        assert not c.detach_original and c.kernel_normalize
        assert c.validation_ratio == 0.0

    @pytest.mark.parametrize("kw", [
        {"embedding_dim": 0}, {"layers": 0}, {"layers": 9},
        {"learning_rate": -0.1}, {"batch_size": 0}, {"reg_lambda": -1.0},
        {"beta": -0.5}, {"sigma_sq": 0.0}, {"temperature": 0.0},
        {"epsilon": 1.5}, {"epochs": -1}, {"eval_every": 0},
        {"patience": 0}, {"cutoffs": ()}, {"cutoffs": (0,)},
        {"validation_ratio": 1.0}, {"learning_rate": float("nan")},
        {"reg_lambda": float("nan")}, {"beta": float("nan")},
    ])
    def test_validate_rejects(self, kw):
        with pytest.raises(ConfigError):
            TrainConfig(**kw)

    def test_selection_cutoff(self):
        assert TrainConfig(cutoffs=(10, 20)).selection_cutoff == 20
        assert TrainConfig(cutoffs=(5,)).selection_cutoff == 5
        assert TrainConfig(cutoffs=(5, 50)).selection_cutoff == 50

    def test_dict_round_trip(self):
        c = quick_config(cutoffs=(5, 15))
        d = config_as_dict(c)
        assert d["cutoffs"] == [5, 15]  # JSON-friendly
        assert config_from_dict(d) == c

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="nope"):
            config_from_dict({"nope": 1})


class TestAdam:
    def test_two_steps_match_reference(self):
        rng = np.random.default_rng(0)
        params = {"a": rng.standard_normal((3, 2)), "b": rng.standard_normal(4)}
        ref = {k: v.copy() for k, v in params.items()}
        m = {k: np.zeros_like(v) for k, v in params.items()}
        v2 = {k: np.zeros_like(v) for k, v in params.items()}
        opt = Adam(0.01)
        for t in (1, 2):
            grads = {k: rng.standard_normal(p.shape) for k, p in params.items()}
            opt.step(params, grads)
            for k in ref:
                g = grads[k]
                m[k] = 0.9 * m[k] + 0.1 * g
                v2[k] = 0.999 * v2[k] + 0.001 * g * g
                mh = m[k] / (1.0 - 0.9 ** t)
                vh = v2[k] / (1.0 - 0.999 ** t)
                ref[k] = ref[k] - 0.01 * mh / (np.sqrt(vh) + 1e-8)
                np.testing.assert_allclose(params[k], ref[k], rtol=0, atol=1e-15)
        assert opt.step_count == 2

    def test_first_step_is_signlike(self):
        # zero moments: one step moves each entry by ~lr * sign(g)
        params = {"w": np.zeros(3)}
        Adam(0.1).step(params, {"w": np.array([5.0, -2.0, 1e-12])})
        np.testing.assert_allclose(params["w"][:2], [-0.1, 0.1], rtol=1e-6)
        assert abs(params["w"][2]) < 0.1  # eps damps the tiny gradient

    def test_updates_in_place(self):
        arr = np.ones(2)
        params = {"w": arr}
        Adam(0.1).step(params, {"w": np.ones(2)})
        assert params["w"] is arr
        assert (arr != 1.0).all()


class TestInit:
    def test_shapes_and_scale(self, small_synthetic):
        ds, _ = small_synthetic
        cfg = quick_config(embedding_dim=256)
        state = init(cfg, ds, np.random.default_rng(0))
        mat = state.embeddings.matrix
        assert mat.shape == (ds.node_count, 256)
        assert abs(mat.std() - INIT_SCALE) / INIT_SCALE < 0.03
        assert abs(mat.mean()) < 3 * INIT_SCALE / np.sqrt(mat.size)
        assert state.denoiser.dim == 256
        assert state.denoiser.temperature == cfg.temperature
        assert state.denoiser.observation_bias == cfg.epsilon
        assert state.epoch == 0 and state.best_metric == float("-inf")

    def test_parameters_are_live_views(self, small_synthetic):
        ds, _ = small_synthetic
        state = init(quick_config(), ds, np.random.default_rng(0))
        p = state.parameters()
        assert p["embeddings"] is state.embeddings.matrix
        assert p["layer1_weight"] is state.denoiser.layer1_weight


class TestTrainEpoch:
    def test_single_epoch_changes_all_blocks(self, small_synthetic):
        ds, _ = small_synthetic
        cfg = quick_config()
        rng = np.random.default_rng(cfg.seed)
        state = init(cfg, ds, rng)
        before = {k: v.copy() for k, v in state.parameters().items()}
        state, losses = train_epoch(state, ds, cfg, rng)
        assert state.epoch == 1
        assert np.isfinite(losses.total)
        assert losses.total == pytest.approx(
            (losses.rec_loss + cfg.reg_lambda * losses.reg_loss)
            + cfg.beta * losses.ib_loss, rel=1e-12)
        for k, v in state.parameters().items():
            assert not np.array_equal(v, before[k]), k

    def test_batch_count_is_ceil(self, small_synthetic):
        ds, _ = small_synthetic
        cfg = quick_config(batch_size=10 ** 6)  # 1 batch regardless of size
        rng = np.random.default_rng(0)
        state = init(cfg, ds, rng)
        state, _ = train_epoch(state, ds, cfg, rng)
        assert state.adam.step_count == 1

    def test_identical_seeds_identical_states(self, small_synthetic):
        ds, _ = small_synthetic
        cfg = quick_config()
        outs = []
        for _ in range(2):
            rng = np.random.default_rng(cfg.seed)
            state = init(cfg, ds, rng)
            state, losses = train_epoch(state, ds, cfg, rng)
            outs.append((state, losses))
        a, b = outs
        assert a[1] == b[1]
        for k in a[0].parameters():
            np.testing.assert_array_equal(a[0].parameters()[k],
                                          b[0].parameters()[k])

    @pytest.mark.filterwarnings("ignore:invalid value", "ignore:overflow")
    def test_numeric_failure_names_epoch_and_batch(self, small_synthetic):
        ds, _ = small_synthetic
        cfg = quick_config()
        rng = np.random.default_rng(0)
        state = init(cfg, ds, rng)
        state.embeddings.matrix[0, 0] = np.inf
        with pytest.raises(NumericError, match=r"epoch 1, batch 0"):
            train_epoch(state, ds, cfg, rng)


class TestFit:
    def test_log_structure_and_determinism(self, small_synthetic):
        ds, _ = small_synthetic
        cfg = quick_config(epochs=3, eval_every=1)
        s1, log1 = fit(cfg, ds)
        s2, log2 = fit(cfg, ds)
        assert log1 == log2  # bitwise-equal floats, same records
        assert log1[0]["event"] == "config"
        assert log1[0]["beta"] == cfg.beta
        epochs = [r for r in log1 if "epoch" in r and "event" not in r]
        assert [r["epoch"] for r in epochs] == [1, 2, 3]
        for r in epochs:
            for key in ("rec_loss", "ib_loss", "reg_loss", "total_loss",
                        "recall@10", "recall@20", "ndcg@10", "ndcg@20",
                        "improved", "best_metric"):
                assert key in r
        for k in s1.parameters():
            np.testing.assert_array_equal(s1.parameters()[k], s2.parameters()[k])

    def test_eval_every_skips_metrics(self, small_synthetic):
        ds, _ = small_synthetic
        _, log = fit(quick_config(epochs=4, eval_every=2), ds)
        with_metrics = [r["epoch"] for r in log if "recall@20" in r]
        assert with_metrics == [2, 4]

    def test_early_stop_with_frozen_learning(self, small_synthetic):
        ds, _ = small_synthetic
        cfg = quick_config(epochs=50, learning_rate=0.0, patience=1)
        state, log = fit(cfg, ds)
        stops = [r for r in log if r.get("event") == "early_stop"]
        assert len(stops) == 1 and stops[0]["epoch"] == 2
        trained = [r for r in log if "epoch" in r and "event" not in r]
        assert len(trained) == 2

    def test_returns_best_state(self, small_synthetic):
        ds, _ = small_synthetic
        cfg = quick_config(epochs=4)
        state, log = fit(cfg, ds)
        bests = [r["best_metric"] for r in log if "best_metric" in r
                 and r.get("event") != "early_stop"]
        assert state.best_metric == max(bests)
        # re-evaluating the returned state reproduces its recorded metric
        report = evaluate_state(state, ds, cfg)
        assert report.recall[cfg.selection_cutoff] == state.best_metric

    def test_zero_epochs_returns_init(self, small_synthetic):
        ds, _ = small_synthetic
        cfg = quick_config(epochs=0)
        state, log = fit(cfg, ds)
        assert state.epoch == 0
        assert [r for r in log if "epoch" in r and "event" not in r] == []

    def test_validation_split_changes_selection(self, small_synthetic):
        ds, _ = small_synthetic
        cfg = quick_config(epochs=2, validation_ratio=0.5)
        state, log = fit(cfg, ds)
        # the carved split holds out half of each user's training items
        work = trainer._carve_validation(ds, cfg)
        n_train = {u: ds.train_items_of(u).size for u in range(ds.user_count)}
        for u, n in n_train.items():
            assert work.train_items_of(u).size == max(1, int(0.5 * n + 1e-9))
            assert (work.train_items_of(u).size + work.test_items_of(u).size
                    == n)
        np.testing.assert_array_equal(work.social_pairs, ds.social_pairs)

    def test_ratio_zero_is_logged(self, small_synthetic):
        ds, _ = small_synthetic
        _, log = fit(quick_config(epochs=1, validation_ratio=0.0), ds)
        assert log[0]["validation_ratio"] == 0.0


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path, small_synthetic):
        ds, _ = small_synthetic
        cfg = quick_config(epochs=2)
        state, _ = fit(cfg, ds)
        path = tmp_path / "model.bin"
        save_checkpoint(state, cfg, path)
        loaded, cfg2 = load_checkpoint(path)
        assert cfg2 == cfg
        assert loaded.epoch == state.epoch
        assert loaded.best_metric == state.best_metric
        assert loaded.adam.step_count == state.adam.step_count
        for k, v in state.parameters().items():
            np.testing.assert_array_equal(loaded.parameters()[k], v)
            np.testing.assert_array_equal(loaded.adam.m[k], state.adam.m[k])
            np.testing.assert_array_equal(loaded.adam.v[k], state.adam.v[k])

    def test_loaded_state_evaluates_identically(self, tmp_path, small_synthetic):
        ds, _ = small_synthetic
        cfg = quick_config(epochs=2)
        state, _ = fit(cfg, ds)
        path = tmp_path / "model.bin"
        save_checkpoint(state, cfg, path)
        loaded, cfg2 = load_checkpoint(path)
        a = evaluate_state(state, ds, cfg)
        b = evaluate_state(loaded, ds, cfg2)
        assert a.recall == b.recall and a.ndcg == b.ndcg

    def test_same_fit_same_bytes(self, tmp_path, small_synthetic):
        ds, _ = small_synthetic
        cfg = quick_config(epochs=2)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        s1, _ = fit(cfg, ds)
        s2, _ = fit(cfg, ds)
        save_checkpoint(s1, cfg, p1)
        save_checkpoint(s2, cfg, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_fresh_state_round_trips_infinite_metric(self, tmp_path,
                                                     small_synthetic):
        ds, _ = small_synthetic
        cfg = quick_config()
        state = init(cfg, ds, np.random.default_rng(0))
        path = tmp_path / "fresh.bin"
        save_checkpoint(state, cfg, path)
        loaded, _ = load_checkpoint(path)
        assert loaded.best_metric == float("-inf")
        assert loaded.adam.step_count == 0

    def test_layout_is_json_header_plus_named_arrays(self, tmp_path,
                                                      small_synthetic):
        ds, _ = small_synthetic
        cfg = quick_config()
        state, _ = fit(cfg, ds)
        path = tmp_path / "model.bin"
        save_checkpoint(state, cfg, path)
        blob = path.read_bytes()
        assert blob[:12] == CHECKPOINT_MAGIC + struct.pack("<I", 2)
        header, start = _header(blob)
        assert header["config"] == config_as_dict(cfg)
        assert (header["epoch"], header["adam_step"], header["best_metric"]) == (
            state.epoch, state.adam.step_count, state.best_metric)
        names = [name for name, _ in header["arrays"]]
        assert names == [f"{prefix}{block}" for prefix in ("", "m.", "v.")
                         for block in objective.PARAM_BLOCKS]
        # arrays follow the header in header order as C-order <f8 bytes
        emb = state.embeddings.matrix
        assert header["arrays"][0] == ["embeddings", list(emb.shape)]
        assert blob[start:start + emb.nbytes] == emb.astype("<f8").tobytes()
        assert len(blob) == start + 8 * sum(int(np.prod(shape))
                                            for _, shape in header["arrays"])

    def test_magic_checked(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="bad magic, not a checkpoint file"):
            load_checkpoint(path)

    def test_version_checked(self, tmp_path):
        # twelve bytes suffice: the version comes before the header length
        path = tmp_path / "v9.bin"
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", 9))
        with pytest.raises(CheckpointError,
                           match="unsupported checkpoint version 9$"):
            load_checkpoint(path)

    def test_version_1_refused(self, tmp_path, small_synthetic):
        # a v2 file relabelled as v1: there is no reader for the old layout
        ds, _ = small_synthetic
        cfg = quick_config()
        path = tmp_path / "model.bin"
        save_checkpoint(init(cfg, ds, np.random.default_rng(0)), cfg, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:8] + struct.pack("<I", 1) + blob[12:])
        with pytest.raises(CheckpointError,
                           match="unsupported checkpoint version 1$"):
            load_checkpoint(path)

    def test_truncation_detected(self, tmp_path, small_synthetic):
        ds, _ = small_synthetic
        cfg = quick_config()
        state = init(cfg, ds, np.random.default_rng(0))
        path = tmp_path / "model.bin"
        save_checkpoint(state, cfg, path)
        blob = path.read_bytes()
        # inside the version, inside the arrays, one byte short
        for cut in (10, len(blob) // 2, len(blob) - 1):
            bad = tmp_path / "cut.bin"
            bad.write_bytes(blob[:cut])
            with pytest.raises(CheckpointError,
                               match=f"checkpoint truncated at {cut} bytes$"):
                load_checkpoint(bad)

    def test_trailing_garbage_detected(self, tmp_path, small_synthetic):
        ds, _ = small_synthetic
        cfg = quick_config()
        state = init(cfg, ds, np.random.default_rng(0))
        path = tmp_path / "model.bin"
        save_checkpoint(state, cfg, path)
        bad = tmp_path / "pad.bin"
        bad.write_bytes(path.read_bytes() + b"XX")
        with pytest.raises(CheckpointError,
                           match="2 trailing bytes after the last array$"):
            load_checkpoint(bad)

    def test_corrupt_config_detected(self, tmp_path, small_synthetic):
        ds, _ = small_synthetic
        cfg = quick_config()
        state = init(cfg, ds, np.random.default_rng(0))
        path = tmp_path / "model.bin"
        save_checkpoint(state, cfg, path)
        blob = bytearray(path.read_bytes())
        idx = blob.find(b'"embedding_dim":')
        assert idx >= 0
        blob[idx + 1:idx + 14] = b"embeddingdim!"
        bad = tmp_path / "conf.bin"
        bad.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match=(
                r"bad checkpoint header: unknown config keys: \['embeddingdim!'\]")):
            load_checkpoint(bad)

    @pytest.mark.parametrize("edit, message", [
        (lambda h: h.__setitem__("config", {**h["config"], "layers": 0}),
         r"bad checkpoint header: layers must lie in"),
        (lambda h: h.pop("adam_step"), r"bad checkpoint header: 'adam_step'"),
        (lambda h: h["arrays"].pop(), r"are not each of \[.*\] once$"),
        (lambda h: h["arrays"].append(["extra", [0]]), r"are not each of"),
        (lambda h: h["arrays"].__setitem__(1, h["arrays"][0]), r"are not each of"),
        (lambda h: h["arrays"][3].__setitem__(1, [-1, 1]),
         r"array 'layer2_weight' has a negative dimension \(-1, 1\)$"),
        (lambda h: h["arrays"][2].__setitem__(1, [float("inf")]),
         r"bad checkpoint header: cannot convert float infinity to integer"),
        (lambda h: h["arrays"][2].__setitem__(0, ["layer1_bias"]),
         r"bad checkpoint header: unhashable type"),
        (lambda h: h["arrays"][6].__setitem__(
            1, h["arrays"][6][1][::-1]),
         r"moment 'm.layer1_weight' has shape \(8, 24\), its block \(24, 8\)$"),
        (lambda h: [entry.__setitem__(1, [1, 1]) for entry in h["arrays"]
                    if entry[0].endswith("layer2_bias")],
         r"arrays do not form a model: layer2_bias must be \(1,\), got \(1, 1\)$"),
        (lambda h: h["config"].__setitem__("embedding_dim", 4),
         r"arrays do not form a model: embedding width 8, denoiser width 8 "
         r"and embedding_dim=4 differ$"),
    ], ids=["bad-config-value", "missing-counter", "missing-array",
            "unknown-array", "duplicate-array", "negative-dim",
            "infinite-dim", "unhashable-name", "moment-shape",
            "inconsistent-blocks", "config-width"])
    def test_bad_header_detected(self, tmp_path, small_synthetic, edit,
                                 message):
        ds, _ = small_synthetic
        cfg = quick_config()
        state = init(cfg, ds, np.random.default_rng(0))
        path = tmp_path / "model.bin"
        save_checkpoint(state, cfg, path)
        blob = path.read_bytes()
        header, start = _header(blob)
        edit(header)
        raw = json.dumps(header).encode("utf-8")
        # the array bytes stay as written: the header checks come first
        bad = tmp_path / "header.bin"
        bad.write_bytes(blob[:12] + struct.pack("<Q", len(raw)) + raw + blob[start:])
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(bad)

    def test_malformed_header_json_detected(self, tmp_path, small_synthetic):
        ds, _ = small_synthetic
        cfg = quick_config()
        path = tmp_path / "model.bin"
        save_checkpoint(init(cfg, ds, np.random.default_rng(0)), cfg, path)
        blob = bytearray(path.read_bytes())
        assert blob[20:21] == b"{"
        blob[20:21] = b"["
        bad = tmp_path / "json.bin"
        bad.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="bad checkpoint header: "):
            load_checkpoint(bad)


def _header(blob):
    """A checkpoint's parsed JSON header and the offset of its first array."""
    (length,) = struct.unpack_from("<Q", blob, 12)
    return json.loads(blob[20:20 + length]), 20 + length
