"""One range rule: `errors.check_number` at every config key and numeric
argument.

Integer keys take integers only (Python's or numpy's, never a bool), real
keys take numbers in their stated interval (never a bool or NaN), bool keys
take bools, and every accepted number is stored as the Python int or float
it serializes as.  Each table below walks one dataclass or argument.
"""

import dataclasses
import re

import numpy as np
import pytest

from gbsr import hsic, objective
from gbsr.backbone import EmbeddingTable, NodeRepresentations
from gbsr.cli import RunConfig
from gbsr.data import Dataset, SyntheticSpec, load_dataset, sample_batch_arrays
from gbsr.denoiser import DenoiserParams, relax_sample
from gbsr import autodiff as ad
from gbsr.errors import ConfigError, DataError, check_number
from gbsr.evaluation import check_cutoffs, evaluate, rank_user
from gbsr.trainer import (TrainConfig, config_as_dict, config_from_dict, init,
                          save_checkpoint)

from test_objective import make_instance

NAN, INF = float("nan"), float("inf")
# values no integer key takes, and no real key
NOT_INTEGERS = [2.5, True, "3"]
NOT_REALS = [True, NAN, "0.5"]


def _message(name, interval, integer, value):
    kind = "an integer" if integer else "a number"
    return re.escape(f"{name} must be {kind} in {interval}, got {value!r}")


class TestCheckNumber:
    def test_message_names_key_interval_and_value(self):
        with pytest.raises(ConfigError) as info:
            check_number("layers", 2.0, "[1, 4]", integer=True)
        assert str(info.value) == "layers must be an integer in [1, 4], got 2.0"

    @pytest.mark.parametrize("interval, inside, outside", [
        ("[0, 1]", [0, 0.5, 1], [-1e-12, 1.0 + 1e-12, INF]),
        ("[0, 1)", [0, 0.999], [1, 1.0, -0.1]),
        ("(0, 1]", [1e-300, 1], [0, 0.0, -1]),
        ("(0, inf)", [1e-300, 1e300, 7], [0, -1, INF, -INF]),
        ("[0, inf)", [0, 0.0, 10 ** 30], [-1, INF]),
    ])
    def test_endpoints(self, interval, inside, outside):
        for value in inside:
            assert check_number("x", value, interval) == value
        for value in outside:
            with pytest.raises(ConfigError):
                check_number("x", value, interval)

    @pytest.mark.parametrize("value", [True, False, NAN, "1", None, 1j, [1],
                                       np.bool_(True), np.array([1.0])])
    def test_no_number(self, value):
        with pytest.raises(ConfigError):
            check_number("x", value, "(-inf, inf)")

    @pytest.mark.parametrize("value", [2.0, 2.5, np.float64(2.0), True, "2"])
    def test_integer_refuses_non_integers(self, value):
        with pytest.raises(ConfigError, match="x must be an integer in"):
            check_number("x", value, "[0, inf)", integer=True)

    @pytest.mark.parametrize("value, stored", [
        (np.int64(3), 3), (np.uint8(3), 3), (np.float64(0.25), 0.25),
        (np.float32(0.25), 0.25), (3, 3), (0.25, 0.25)])
    def test_stores_python_numbers(self, value, stored):
        got = check_number("x", value, "[0, inf)")
        assert got == stored and type(got) is type(stored)

    def test_error_type_is_the_callers(self):
        with pytest.raises(DataError):
            check_number("x", -1, "[0, inf)", error=DataError)


# (key, interval) of every numeric TrainConfig key
TRAIN_INTEGERS = [("embedding_dim", "[1, inf)"), ("layers", "[1, 4]"),
                  ("batch_size", "[1, inf)"), ("epochs", "[0, inf)"),
                  ("eval_every", "[1, inf)"), ("patience", "[1, inf)"),
                  ("seed", "[0, inf)")]
TRAIN_REALS = [("learning_rate", "[0, inf)"), ("reg_lambda", "[0, inf)"),
               ("beta", "[0, inf)"), ("sigma_sq", "(0, inf)"),
               ("temperature", "(0, inf)"), ("epsilon", "[0, 1]"),
               ("validation_ratio", "[0, 1)")]


def _open_end(interval):
    """The open endpoints of an interval, inf included: values it refuses."""
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    return ([lo] if interval[0] == "(" else []) + ([hi] if interval[-1] == ")" else [])


class TestTrainConfig:
    @pytest.mark.parametrize("key, interval", TRAIN_INTEGERS)
    @pytest.mark.parametrize("value", NOT_INTEGERS)
    def test_integer_key(self, key, interval, value):
        with pytest.raises(ConfigError, match=_message(key, interval, True, value)):
            TrainConfig(**{key: value})

    @pytest.mark.parametrize("key, interval", TRAIN_REALS)
    def test_real_key(self, key, interval):
        for value in NOT_REALS + _open_end(interval):
            with pytest.raises(ConfigError, match=_message(key, interval, False, value)):
                TrainConfig(**{key: value})

    @pytest.mark.parametrize("key", ["detach_original", "kernel_normalize"])
    @pytest.mark.parametrize("value", ["false", 0, 1, None])
    def test_bool_key(self, key, value):
        with pytest.raises(ConfigError, match=f"{key} must be a bool"):
            TrainConfig(**{key: value})
        with pytest.raises(ConfigError, match=f"{key} must be a bool"):
            config_from_dict({key: value})

    @pytest.mark.parametrize("cutoffs", [(), (0,), (2.5,), (True, 20), ("10",), (10, None)])
    def test_cutoffs(self, cutoffs):
        with pytest.raises(ConfigError, match="cutoff"):
            TrainConfig(cutoffs=cutoffs)

    def test_every_numeric_key_is_in_a_table(self):
        numeric = {f.name for f in dataclasses.fields(TrainConfig)
                   if f.type in ("int", "float")}
        assert numeric == {k for k, _ in TRAIN_INTEGERS + TRAIN_REALS}

    def test_numpy_numbers_are_stored_as_python_numbers(self):
        cfg = TrainConfig(embedding_dim=np.int64(8), layers=np.int32(2),
                          beta=np.float64(0.5), seed=np.int64(3),
                          cutoffs=(np.int64(10), np.int16(20)))
        assert type(cfg.embedding_dim) is int and type(cfg.layers) is int
        assert type(cfg.seed) is int and type(cfg.beta) is float
        assert cfg.cutoffs == (10, 20) and all(type(n) is int for n in cfg.cutoffs)

    def test_numpy_integers_save_the_same_checkpoint(self, small_synthetic, tmp_path):
        ds, _ = small_synthetic
        plain = dict(embedding_dim=8, layers=2, batch_size=64, epochs=3, seed=0,
                     cutoffs=(10, 20))
        cfgs = [TrainConfig(**plain),
                TrainConfig(**{k: (tuple(np.int64(n) for n in v) if k == "cutoffs"
                                   else np.int64(v)) for k, v in plain.items()})]
        blobs = []
        for k, cfg in enumerate(cfgs):
            state = init(cfg, ds, np.random.default_rng(0))
            save_checkpoint(state, cfg, tmp_path / f"{k}.bin")
            blobs.append((tmp_path / f"{k}.bin").read_bytes())
        assert blobs[0] == blobs[1]
        assert config_as_dict(cfgs[0]) == config_as_dict(cfgs[1])

    def test_python_numbers_keep_their_type(self):
        # an int given for a real key stays an int, so logs and headers
        # written from it keep their bytes
        cfg = TrainConfig(beta=0, learning_rate=1)
        assert type(cfg.beta) is int and type(cfg.learning_rate) is int


# (field, interval) of every SyntheticSpec field
SPEC_INTEGERS = [("cluster_count", "[1, inf)"), ("users_per_cluster", "[1, inf)"),
                 ("items_per_cluster", "[1, inf)"), ("seed", "[0, inf)")]
SPEC_REALS = [("interaction_rate", "[0, 1]"), ("intra_social_rate", "[0, 1]"),
              ("noise_edge_fraction", "[0, inf)")]


class TestSyntheticSpec:
    @pytest.mark.parametrize("key, interval", SPEC_INTEGERS)
    @pytest.mark.parametrize("value", NOT_INTEGERS)
    def test_integer_field(self, key, interval, value):
        with pytest.raises(ConfigError, match=_message(key, interval, True, value)):
            SyntheticSpec(**{key: value})

    @pytest.mark.parametrize("key, interval", SPEC_REALS)
    def test_real_field(self, key, interval):
        for value in NOT_REALS + _open_end(interval):
            with pytest.raises(ConfigError, match=_message(key, interval, False, value)):
                SyntheticSpec(**{key: value})

    def test_every_field_is_in_a_table(self):
        names = {f.name for f in dataclasses.fields(SyntheticSpec)}
        assert names == {k for k, _ in SPEC_INTEGERS + SPEC_REALS}

    def test_numpy_integers_are_stored_as_python_ints(self):
        spec = SyntheticSpec(cluster_count=np.int64(3), seed=np.int64(1))
        assert type(spec.cluster_count) is int and type(spec.seed) is int


class TestRunConfig:
    def run_config(self, **kw):
        return RunConfig(train=TrainConfig(), synthetic=SyntheticSpec(), **kw)

    @pytest.mark.parametrize("value", NOT_REALS + [0, 0.0, 1.5])
    def test_split_ratio(self, value):
        with pytest.raises(ConfigError, match=_message("split_ratio", "(0, 1]", False, value)):
            self.run_config(split_ratio=value)

    @pytest.mark.parametrize("value", NOT_INTEGERS + [-1])
    def test_each_seed(self, value):
        with pytest.raises(ConfigError, match=_message("seed", "[0, inf)", True, value)):
            self.run_config(seed=(0, value))

    def test_repeated_seed(self):
        with pytest.raises(ConfigError, match=r"seed 1 is given more than once in \[1, 2, 1\]"):
            self.run_config(seed=(1, 2, 1))

    def test_numpy_seeds_are_stored_as_python_ints(self):
        cfg = self.run_config(seed=(np.int64(4), np.int64(5)))
        assert cfg.seed == (4, 5) and all(type(s) is int for s in cfg.seed)


class TestDeclarations:
    """Each numeric key declares on its field the interval stated above."""

    @pytest.mark.parametrize("cls, table", [(TrainConfig, TRAIN_INTEGERS + TRAIN_REALS),
                                            (SyntheticSpec, SPEC_INTEGERS + SPEC_REALS)])
    def test_numeric_fields(self, cls, table):
        declared = {f.name: f.metadata.get("interval") for f in dataclasses.fields(cls)
                    if f.type in ("int", "float")}
        assert declared == dict(table)

    def test_split_ratio(self):
        (split,) = [f for f in dataclasses.fields(RunConfig) if f.name == "split_ratio"]
        assert split.metadata.get("interval") == "(0, 1]"


def _denoiser(**kw):
    return DenoiserParams(np.zeros((12, 4)), np.zeros(4), np.zeros((4, 1)), np.zeros(1), **kw)


# (argument, interval, values refused) of the relaxation's two constants
RELAXATION = [("temperature", "(0, inf)", NOT_REALS + [0.0, -1.0, INF]),
              ("observation_bias", "[0, 1]", NOT_REALS + [-0.1, 1.5, INF])]


class TestRelaxation:
    @pytest.mark.parametrize("key, interval, values", RELAXATION)
    def test_denoiser_params(self, key, interval, values):
        for value in values:
            with pytest.raises(ConfigError, match=_message(key, interval, False, value)):
                _denoiser(**{key: value})

    @pytest.mark.parametrize("key, interval, values", RELAXATION)
    def test_relax_sample(self, key, interval, values):
        knobs = {"temperature": 0.2, "observation_bias": 0.0}
        for value in values:
            with pytest.raises(ConfigError, match=_message(key, interval, False, value)):
                relax_sample(ad.constant(np.full(3, 0.5)), np.full(3, 0.5),
                             **{**knobs, key: value})


class TestEmbeddingTable:
    @pytest.mark.parametrize("value", NOT_INTEGERS + [0, 5, np.float64(2.0)])
    def test_layer_count(self, value):
        with pytest.raises(ConfigError, match=_message("layer_count", "[1, 4]", True, value)):
            EmbeddingTable(np.zeros((3, 2)), value)

    def test_numpy_layer_count_is_stored_as_python_int(self):
        assert type(EmbeddingTable(np.zeros((3, 2)), np.int64(2)).layer_count) is int


class TestObjective:
    @pytest.mark.parametrize("key, interval", [("beta", "[0, inf)"),
                                               ("reg_lambda", "[0, inf)"),
                                               ("sigma_sq", "(0, inf)")])
    def test_scalar_knobs(self, key, interval):
        ds, layout, E, params, batch, deltas = make_instance()
        for value in NOT_REALS + _open_end(interval) + [-1.0]:
            knobs = {"beta": 0.5, "reg_lambda": 0.0, "sigma_sq": 1.0, key: value}
            with pytest.raises(ConfigError, match=_message(key, interval, False, value)):
                objective.gradients(E, params, layout, batch, deltas, layers=2, **knobs)

    @pytest.mark.parametrize("value", NOT_REALS + [0.0, -1.0, INF])
    def test_rbf_kernel_bandwidth(self, value):
        # an infinite bandwidth would flatten the kernel to all ones
        with pytest.raises(ConfigError, match=_message("sigma_sq", "(0, inf)", False, value)):
            hsic.rbf_kernel(np.eye(3), value)


@pytest.fixture
def two_users():
    ds = Dataset(2, 3, train=[(0, 0), (1, 1)], test=[(0, 1), (1, 2)], social=[(0, 1)])
    readout = np.arange(10.0).reshape(5, 2)
    return NodeRepresentations([readout], readout, 2), ds


class TestEvaluation:
    @pytest.mark.parametrize("cutoff", NOT_INTEGERS + [0, None])
    def test_cutoff(self, two_users, cutoff):
        reps, ds = two_users
        message = _message("cutoff", "[1, inf)", True, cutoff)
        with pytest.raises(DataError, match=message):
            evaluate(reps, ds, (10, cutoff))
        with pytest.raises(DataError, match=message):
            rank_user(reps, ds, 0, cutoff)

    def test_no_cutoff(self, two_users):
        with pytest.raises(DataError, match="cutoffs must hold one or more integers"):
            evaluate(*two_users, ())

    def test_check_cutoffs_takes_the_callers_error(self):
        assert check_cutoffs([np.int64(5), 7], ConfigError) == (5, 7)
        with pytest.raises(ConfigError):
            check_cutoffs((0,), ConfigError)

    @pytest.mark.parametrize("user", [True, False, 1.0, "0", -1, 2])
    def test_rank_user_user(self, two_users, user):
        # True once ranked user 1
        with pytest.raises(DataError, match=_message("user", "[0, 2)", True, user)):
            rank_user(*two_users, user, 2)

    def test_numpy_user(self, two_users):
        assert rank_user(*two_users, np.int64(1), 2).tolist() == \
            rank_user(*two_users, 1, 2).tolist()


class TestDataArguments:
    @pytest.mark.parametrize("value", NOT_REALS + [0.0, 1.5])
    def test_load_dataset_split_ratio(self, tmp_path, value):
        # the ratio is checked before either file is read
        with pytest.raises(DataError, match=_message("split_ratio", "(0, 1]", False, value)):
            load_dataset(tmp_path / "missing.tsv", tmp_path / "missing.tsv", split_ratio=value)

    @pytest.mark.parametrize("value", NOT_INTEGERS + [-1])
    def test_load_dataset_seed(self, tmp_path, value):
        # checked before either file is read; True once split with seed 1
        with pytest.raises(DataError, match=_message("seed", "[0, inf)", True, value)):
            load_dataset(tmp_path / "missing.tsv", tmp_path / "missing.tsv", seed=value)

    @pytest.mark.parametrize("key", ["user_count", "item_count"])
    @pytest.mark.parametrize("value", NOT_INTEGERS + [2.7, -1])
    def test_dataset_counts(self, key, value):
        counts = {"user_count": 2, "item_count": 3, key: value}
        with pytest.raises(DataError, match=_message(key, "[0, inf)", True, value)):
            Dataset(**counts, train=[], test=[], social=[])

    def test_numpy_dataset_counts_are_stored_as_python_ints(self):
        ds = Dataset(np.int64(2), np.uint8(3), [], [], [])
        assert (ds.user_count, ds.item_count) == (2, 3)
        assert type(ds.user_count) is int and type(ds.item_count) is int

    @pytest.mark.parametrize("value", NOT_INTEGERS + [0])
    def test_batch_size(self, tiny_dataset, value):
        with pytest.raises(DataError, match=_message("batch_size", "[1, inf)", True, value)):
            sample_batch_arrays(tiny_dataset, value, np.random.default_rng(0))
