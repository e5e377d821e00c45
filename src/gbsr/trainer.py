"""Training loop: Adam on the recorded objective, periodic evaluation,
best-checkpoint tracking with patience-based early stopping, and a binary
checkpoint format.

Reproducibility contract: a fixed config seed fully determines parameter
init, batch draws, relaxation draws, and therefore the training log and the
checkpoint bytes.  All randomness flows through one generator in a fixed
order: init first, then per epoch (batch draw, relaxation draw) per batch.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import backbone
from . import data as data_mod
from . import evaluation, objective
from .backbone import EmbeddingTable, MAX_LAYERS
from .data import Dataset
from .denoiser import DenoiserParams, denoise
from .errors import CheckpointError, ConfigError, NumericError
from .graph import build_adjacency, layout_for
from .ioutil import atomic_write_bytes

INIT_SCALE = 0.01  # std of the Gaussian embedding and MLP init

CHECKPOINT_MAGIC = b"GBSRCKPT"
CHECKPOINT_VERSION = 2


@dataclass(frozen=True)
class TrainConfig:
    embedding_dim: int = 64
    layers: int = 3
    learning_rate: float = 0.001
    batch_size: int = 2048
    reg_lambda: float = 1e-4
    beta: float = 1.0
    sigma_sq: float = 1.0
    temperature: float = 0.2
    epsilon: float = 0.5
    epochs: int = 100
    eval_every: int = 1
    patience: int = 50
    seed: int = 0
    cutoffs: Tuple[int, ...] = (10, 20)
    detach_original: bool = False
    kernel_normalize: bool = True
    validation_ratio: float = 0.0

    def __post_init__(self):
        if self.embedding_dim < 1:
            raise ConfigError(f"embedding_dim must be >= 1, got {self.embedding_dim}")
        if not (1 <= self.layers <= MAX_LAYERS):
            raise ConfigError(f"layers must lie in [1, {MAX_LAYERS}], got {self.layers}")
        if not (self.learning_rate >= 0.0):  # also rejects NaN
            raise ConfigError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not (self.reg_lambda >= 0.0):
            raise ConfigError(f"reg_lambda must be >= 0, got {self.reg_lambda}")
        if not (self.beta >= 0.0):
            raise ConfigError(f"beta must be >= 0, got {self.beta}")
        if not (self.sigma_sq > 0.0):
            raise ConfigError(f"sigma_sq must be > 0, got {self.sigma_sq}")
        if not (self.temperature > 0.0):
            raise ConfigError(f"temperature must be > 0, got {self.temperature}")
        if not (0.0 <= self.epsilon <= 1.0):
            raise ConfigError(f"epsilon must lie in [0, 1], got {self.epsilon}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.eval_every < 1:
            raise ConfigError(f"eval_every must be >= 1, got {self.eval_every}")
        if self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")
        if not self.cutoffs or any((not isinstance(n, int)) or n < 1 for n in self.cutoffs):
            raise ConfigError(f"cutoffs must be positive integers, got {self.cutoffs}")
        if not (0.0 <= self.validation_ratio < 1.0):
            raise ConfigError(f"validation_ratio must lie in [0, 1), got {self.validation_ratio}")

    @property
    def selection_cutoff(self) -> int:
        return 20 if 20 in self.cutoffs else max(self.cutoffs)


class Adam:
    """Per-block moment estimates with bias correction."""

    def __init__(self, learning_rate: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m: Dict[str, np.ndarray] = {}
        self.v: Dict[str, np.ndarray] = {}

    def step(self, params: Dict[str, np.ndarray], grads: Dict[str, np.ndarray]) -> None:
        self.step_count += 1
        correction1 = 1.0 - self.beta1 ** self.step_count
        correction2 = 1.0 - self.beta2 ** self.step_count
        for name, value in params.items():
            g = grads[name]
            m = self.m.setdefault(name, np.zeros_like(value))
            v = self.v.setdefault(name, np.zeros_like(value))
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            value -= self.learning_rate * (m / correction1) / (
                np.sqrt(v / correction2) + self.eps)


@dataclass
class TrainState:
    embeddings: EmbeddingTable
    denoiser: DenoiserParams
    adam: Adam
    epoch: int = 0
    best_metric: float = float("-inf")

    def parameters(self) -> Dict[str, np.ndarray]:
        return {
            "embeddings": self.embeddings.matrix,
            "layer1_weight": self.denoiser.layer1_weight,
            "layer1_bias": self.denoiser.layer1_bias,
            "layer2_weight": self.denoiser.layer2_weight,
            "layer2_bias": self.denoiser.layer2_bias,
        }


def init(config: TrainConfig, dataset: Dataset, rng: np.random.Generator) -> TrainState:
    matrix = rng.normal(0.0, INIT_SCALE, size=(dataset.node_count, config.embedding_dim))
    table = EmbeddingTable(matrix, config.layers)
    den = DenoiserParams.init(config.embedding_dim, rng, scale=INIT_SCALE,
                              temperature=config.temperature,
                              observation_bias=config.epsilon)
    return TrainState(table, den, Adam(config.learning_rate))


def train_epoch(state: TrainState, dataset: Dataset, config: TrainConfig,
                rng: np.random.Generator) -> Tuple[TrainState, objective.LossBreakdown]:
    """One pass of ceil(|train| / batch_size) sampled batches; returns the
    state (updated in place) and the batch-averaged loss breakdown."""
    layout = layout_for(dataset)
    n_batches = max(1, math.ceil(dataset.train_pairs.shape[0] / config.batch_size))
    sums = np.zeros(4)  # rec, ib, reg, total
    for b in range(n_batches):
        batch = data_mod.sample_batch_arrays(dataset, config.batch_size, rng)
        deltas = rng.uniform(size=layout.social_count)
        try:
            breakdown, grads = objective.gradients(
                state.embeddings.matrix, state.denoiser, layout, batch, deltas,
                layers=config.layers, beta=config.beta,
                reg_lambda=config.reg_lambda, sigma_sq=config.sigma_sq,
                detach_original=config.detach_original,
                kernel_normalize=config.kernel_normalize)
        except NumericError as err:
            raise NumericError(f"epoch {state.epoch + 1}, batch {b}: {err}") from err
        state.adam.step(state.parameters(), grads)
        sums += (breakdown.rec_loss, breakdown.ib_loss,
                 breakdown.reg_loss, breakdown.total)
    state.epoch += 1
    rec, ib, reg, total = (sums / n_batches).tolist()
    return state, objective.LossBreakdown(rec, ib, reg, total,
                                          config.beta, config.reg_lambda)


def evaluate_state(state: TrainState, dataset: Dataset,
                   config: TrainConfig) -> "evaluation.MetricsReport":
    """Deterministic-mode denoise, forward, rank: the evaluation readout."""
    cmap = denoise(state.denoiser, state.embeddings.matrix, dataset,
                   mode="deterministic")
    adj = build_adjacency(dataset, cmap)
    reps = backbone.forward(state.embeddings, adj)
    return evaluation.evaluate(reps, dataset, config.cutoffs)


def _carve_validation(dataset: Dataset, config: TrainConfig) -> Dataset:
    """Move a per-user slice of train into a held-out selection split."""
    vrng = np.random.default_rng([config.seed, 0x5E1EC7])
    items_by_user = [list(dataset.train_items_of(u)) for u in range(dataset.user_count)]
    train, val = data_mod._split_per_user(items_by_user, 1.0 - config.validation_ratio, vrng)
    return Dataset(dataset.user_count, dataset.item_count, train, val,
                   dataset.social_pairs)


def fit(config: TrainConfig, dataset: Dataset) -> Tuple[TrainState, List[dict]]:
    """Train to completion; returns the best-selection-metric state and the
    structured training log (one dict per record, JSON-serializable)."""
    work = _carve_validation(dataset, config) if config.validation_ratio > 0 else dataset
    rng = np.random.default_rng(config.seed)
    state = init(config, work, rng)
    log: List[dict] = [{"event": "config", **config_as_dict(config)}]
    best: Optional[TrainState] = None
    evals_since_best = 0
    for epoch in range(1, config.epochs + 1):
        state, losses = train_epoch(state, work, config, rng)
        record = {"epoch": epoch, "rec_loss": losses.rec_loss,
                  "ib_loss": losses.ib_loss, "reg_loss": losses.reg_loss,
                  "total_loss": losses.total}
        if epoch % config.eval_every == 0:
            report = evaluate_state(state, work, config)
            for n in config.cutoffs:
                record[f"recall@{n}"] = report.recall[n]
                record[f"ndcg@{n}"] = report.ndcg[n]
            metric = report.recall[config.selection_cutoff]
            if metric > state.best_metric:
                state.best_metric = metric
                best = copy.deepcopy(state)
                evals_since_best = 0
                record["improved"] = True
            else:
                evals_since_best += 1
                record["improved"] = False
            record["best_metric"] = state.best_metric
            log.append(record)
            if evals_since_best >= config.patience:
                log.append({"event": "early_stop", "epoch": epoch,
                            "best_metric": state.best_metric})
                break
        else:
            log.append(record)
    return (best if best is not None else state), log


# -- config serialization ----------------------------------------------------


def config_as_dict(config: TrainConfig) -> dict:
    out = {}
    for f in fields(config):
        value = getattr(config, f.name)
        out[f.name] = list(value) if isinstance(value, tuple) else value
    return out


def config_from_dict(values: dict) -> TrainConfig:
    known = {f.name for f in fields(TrainConfig)}
    unknown = set(values) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    kwargs = dict(values)
    if "cutoffs" in kwargs:
        kwargs["cutoffs"] = tuple(kwargs["cutoffs"])
    return TrainConfig(**kwargs)


# -- binary checkpoints ------------------------------------------------------


def save_checkpoint(state: TrainState, config: TrainConfig, path) -> None:
    """Magic, u32 version, u64 header length, a UTF-8 JSON header (config,
    counters, [name, shape] per array), then each array as C-order <f8."""
    params = state.parameters()
    arrays = dict(params)
    for prefix, store in (("m", state.adam.m), ("v", state.adam.v)):
        for name, value in params.items():
            arrays[f"{prefix}.{name}"] = store.get(name, np.zeros_like(value))
    header = json.dumps({
        "config": config_as_dict(config), "epoch": state.epoch,
        "adam_step": state.adam.step_count, "best_metric": state.best_metric,
        "arrays": [[name, list(arr.shape)] for name, arr in arrays.items()],
    }).encode("utf-8")
    chunks = [CHECKPOINT_MAGIC, CHECKPOINT_VERSION.to_bytes(4, "little"),
              len(header).to_bytes(8, "little"), header]
    chunks += [np.asarray(arr, dtype="<f8").tobytes(order="C") for arr in arrays.values()]
    atomic_write_bytes(path, b"".join(chunks))


def load_checkpoint(path) -> Tuple[TrainState, TrainConfig]:
    with open(path, "rb") as fh:
        blob = fh.read()
    at = len(CHECKPOINT_MAGIC)
    if blob[:at] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad magic, not a checkpoint file")
    version = int.from_bytes(blob[at:at + 4], "little")
    if len(blob) >= at + 4 and version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    truncated = CheckpointError(f"{path}: checkpoint truncated at {len(blob)} bytes")
    start = at + 12 + int.from_bytes(blob[at + 4:at + 12], "little")
    if len(blob) < start:  # also covers a file shorter than the fixed fields
        raise truncated
    try:
        header = json.loads(blob[at + 12:start].decode("utf-8"))
        config = config_from_dict(header["config"])
        epoch, adam_step = int(header["epoch"]), int(header["adam_step"])
        best_metric = float(header["best_metric"])
        entries = [(name, tuple(int(d) for d in shape)) for name, shape in header["arrays"]]
        shapes = dict(entries)
    except (ValueError, TypeError, KeyError, OverflowError, ConfigError) as err:
        raise CheckpointError(f"{path}: bad checkpoint header: {err}") from err

    blocks = objective.PARAM_BLOCKS
    expected = {f"{prefix}{name}" for prefix in ("", "m.", "v.") for name in blocks}
    if len(shapes) != len(entries) or set(shapes) != expected:
        raise CheckpointError(
            f"{path}: checkpoint arrays {[name for name, _ in entries]} are not "
            f"each of {sorted(expected)} once")
    for name, shape in entries:
        if any(d < 0 for d in shape):
            raise CheckpointError(f"{path}: array {name!r} has a negative dimension {shape}")
        block = name.partition(".")[2]
        if block and shape != shapes[block]:
            raise CheckpointError(
                f"{path}: moment {name!r} has shape {shape}, its block {shapes[block]}")
    end = start + 8 * sum(math.prod(shape) for _, shape in entries)
    if len(blob) < end:
        raise truncated
    if len(blob) > end:
        raise CheckpointError(f"{path}: {len(blob) - end} trailing bytes after the last array")

    arrays = {}
    for name, shape in entries:
        size = math.prod(shape)
        data = np.frombuffer(blob, dtype="<f8", count=size, offset=start)
        arrays[name] = data.reshape(shape).astype(np.float64)
        start += 8 * size
    try:
        table = EmbeddingTable(arrays["embeddings"], config.layers)
        den = DenoiserParams(arrays["layer1_weight"], arrays["layer1_bias"],
                             arrays["layer2_weight"], arrays["layer2_bias"],
                             config.temperature, config.epsilon)
        if not (table.matrix.shape[1] == den.dim == config.embedding_dim):
            raise ConfigError(
                f"embedding width {table.matrix.shape[1]}, denoiser width {den.dim} "
                f"and embedding_dim={config.embedding_dim} differ")
    except ConfigError as err:
        raise CheckpointError(f"{path}: arrays do not form a model: {err}") from err
    adam = Adam(config.learning_rate)
    adam.step_count = adam_step
    adam.m = {name: arrays[f"m.{name}"] for name in blocks}
    adam.v = {name: arrays[f"v.{name}"] for name in blocks}
    return TrainState(table, den, adam, epoch, best_metric), config
