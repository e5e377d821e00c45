"""Each config key is declared once, on its dataclass field (`config_field`):
default, interval and help.  `check_fields` checks a config against them,
and `check_declared` checks a library argument that takes a key's value
(`layer_count`, `observation_bias`, each `cutoff`) against the key's field.
Of the gbsr modules this one imports only `errors`, so all others can read it.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterable
from dataclasses import dataclass
from typing import Optional, Tuple

from .errors import ConfigError, DataError, check_number

MAX_LAYERS = 4

# the relaxation's defaults, shared by `DenoiserParams` and the train config
DEFAULT_TEMPERATURE = 0.2
DEFAULT_EPSILON = 0.5


def config_field(default, interval=None, help=None, *, each=None):
    """A dataclass field declaring a config key: its default, the interval
    `check_number` holds it to (or None), the interval of each entry of a
    tuple key (or None), and its flag help (or None), which names `each`."""
    help = f"{help}, each in {each}" if each else help
    return dataclasses.field(default=default,
                             metadata={"interval": interval, "each": each, "help": help})


def check_declared(owner, key, value, *, name=None, error=ConfigError):
    """`value` as `check_number` returns it, checked against the interval
    and integer-ness declared on `owner`'s field `key` (a tuple key's: each
    entry's); an error names `name`, or `key` when it is None."""
    f = owner.__dataclass_fields__[key]
    return check_number(name or key, value, f.metadata["interval"] or f.metadata["each"],
                        integer=f.type in ("int", "Tuple[int, ...]"), error=error)


def check_fields(config) -> None:
    """Check each field of a config dataclass against its declaration and
    keep the Python number `check_number` returns: an `int` field with an
    interval takes an integer, and a `bool` field takes a bool."""
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if f.metadata.get("interval") is not None:
            value = check_declared(type(config), f.name, value)
        elif f.type == "bool" and not isinstance(value, bool):
            raise ConfigError(f"{f.name} must be a bool, got {value!r}")
        object.__setattr__(config, f.name, value)


def check_cutoffs(cutoffs, error=DataError) -> Tuple[int, ...]:
    """`cutoffs` as a tuple of Python ints; raises `error` unless it holds
    one or more integers, each as `TrainConfig.cutoffs` declares."""
    checked = tuple(cutoffs) if isinstance(cutoffs, Iterable) else ()
    if not checked:
        raise error(f"cutoffs must hold one or more integers, got {cutoffs!r}")
    return tuple(check_declared(TrainConfig, "cutoffs", n, name="cutoff", error=error)
                 for n in checked)


@dataclass(frozen=True)
class TrainConfig:
    embedding_dim: int = config_field(64, "[1, inf)", "width of each embedding row")
    layers: int = config_field(3, f"[1, {MAX_LAYERS}]", "propagation depth")
    learning_rate: float = config_field(0.001, "[0, inf)", "Adam step size")
    batch_size: int = config_field(2048, "[1, inf)", "training triples per batch")
    reg_lambda: float = config_field(1e-4, "[0, inf)", "L2 weight on the embedding table")
    beta: float = config_field(1.0, "[0, inf)", "bottleneck weight")
    sigma_sq: float = config_field(1.0, "(0, inf)", "RBF kernel bandwidth (sigma squared)")
    temperature: float = config_field(DEFAULT_TEMPERATURE, "(0, inf)", "relaxation temperature")
    epsilon: float = config_field(DEFAULT_EPSILON, "[0, 1]", "additive floor on relaxed weights")
    epochs: int = config_field(100, "[0, inf)", "passes over the train interactions")
    eval_every: int = config_field(1, "[1, inf)", "epochs between evaluations")
    patience: int = config_field(50, "[1, inf)", "evaluations without a gain before stopping")
    seed: int = config_field(0, "[0, inf)")
    cutoffs: Tuple[int, ...] = config_field((10, 20), help="ranking cutoffs", each="[1, inf)")
    detach_original: bool = config_field(
        False, help="hold the original-graph branch constant in the bottleneck")
    kernel_normalize: bool = config_field(
        True, help="L2-normalize rows before the kernels (false feeds raw rows)")
    validation_ratio: float = config_field(
        0.0, "[0, 1)", "carve this per-user train fraction out for model selection")

    def __post_init__(self):
        check_fields(self)
        object.__setattr__(self, "cutoffs", check_cutoffs(self.cutoffs, ConfigError))
        if self.beta > 0.0 and self.batch_size < 2:
            # the HSIC term compares at least two distinct batch users
            raise ConfigError(f"batch_size must be >= 2 when beta > 0, got batch_size="
                              f"{self.batch_size} and beta={self.beta}")

    @property
    def selection_cutoff(self) -> int:
        return 20 if 20 in self.cutoffs else max(self.cutoffs)


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters for the planted-noise cluster generator.

    Users and items are partitioned into `cluster_count` blocks.  Interactions
    and genuine social edges stay within a block; `noise_edge_fraction` (eta)
    controls how many cross-block social edges are planted on top, as a
    fraction of the genuine edge count.

    Every field but `seed` is also a `gbsr synth` config key; a value out of
    range raises ConfigError, like any other bad configuration.
    """

    cluster_count: int = config_field(2, "[1, inf)", "user and item clusters")
    users_per_cluster: int = config_field(100, "[1, inf)", "users in each cluster")
    items_per_cluster: int = config_field(100, "[1, inf)", "items in each cluster")
    interaction_rate: float = config_field(0.15, "[0, 1]", "in-cluster interaction probability")
    intra_social_rate: float = config_field(0.1, "[0, 1]", "in-cluster social edge probability")
    noise_edge_fraction: float = config_field(0.5, "[0, inf)", "noise edges per genuine edge")
    seed: int = config_field(0, "[0, inf)")

    def __post_init__(self):
        check_fields(self)
        if self.noise_edge_fraction > 0 and self.cluster_count < 2:
            # a planted noise edge crosses from one cluster to another
            raise ConfigError("noise_edge_fraction > 0 needs cluster_count >= 2")


@dataclass
class RunConfig:
    train: TrainConfig
    synthetic: SyntheticSpec
    interactions: Optional[str] = config_field(None, help="user-item edge file (TSV)")
    social: Optional[str] = config_field(None, help="user-user edge file (TSV)")
    out: Optional[str] = config_field(None, help="output directory")
    checkpoint: Optional[str] = config_field(None, help="checkpoint file from train")
    # only train takes several, one model each; the first seeds split and synth
    seed: Tuple[int, ...] = config_field((0,), help="comma-separated seeds", each="[0, inf)")
    split_ratio: float = config_field(0.8, "(0, 1]", "per-user train fraction")
    # train-config keys the user set explicitly (file or flag); evaluate and
    # export check them against a checkpoint's embedded config
    explicit_train: frozenset = frozenset()

    def __post_init__(self):
        check_fields(self)
        self.seed = tuple(check_declared(RunConfig, "seed", s) for s in self.seed)
        repeats = [s for s in self.seed if self.seed.count(s) > 1]
        if repeats:  # one model per seed: a repeat would overwrite its files
            raise ConfigError(f"seed {repeats[0]} is given more than once in {list(self.seed)}")
