"""Training: `epochs` is the one epoch loop (Adam on the recorded objective,
periodic evaluation, best-state tracking, patience-based early stopping) and
yields each log record as it is made; `fit` collects them.  Binary checkpoints.

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
from typing import Dict, Iterator, List, Tuple

import numpy as np

from . import backbone
from . import data as data_mod
from . import evaluation, objective
from .backbone import EmbeddingTable
from .config import TrainConfig
from .data import Dataset
from .denoiser import DenoiserParams, denoise
from .errors import CheckpointError, ConfigError, NumericError, check_number
from .graph import EdgeLayout, build_adjacency, layout_for
from .ioutil import atomic_write_bytes

INIT_SCALE = 0.01  # std of the Gaussian embedding and MLP init

# Adam's moment decay rates and denominator guard
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

CHECKPOINT_MAGIC = b"GBSRCKPT"
CHECKPOINT_VERSION = 2


class Adam:
    """Per-block moment estimates with bias correction."""

    def __init__(self, learning_rate: float):
        self.learning_rate = learning_rate
        self.step_count = 0
        self.m: Dict[str, np.ndarray] = {}
        self.v: Dict[str, np.ndarray] = {}

    def step(self, params: Dict[str, np.ndarray], grads: Dict[str, np.ndarray]) -> None:
        self.step_count += 1
        correction1 = 1.0 - ADAM_BETA1 ** self.step_count
        correction2 = 1.0 - ADAM_BETA2 ** self.step_count
        for name, value in params.items():
            g = grads[name]
            if name not in self.m:
                self.m[name], self.v[name] = np.zeros_like(value), np.zeros_like(value)
            m, v = self.m[name], self.v[name]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * (g * g)
            value -= self.learning_rate * (m / correction1) / (
                np.sqrt(v / correction2) + ADAM_EPS)


@dataclass
class TrainState:
    embeddings: EmbeddingTable
    denoiser: DenoiserParams
    adam: Adam
    epoch: int = 0
    best_metric: float = float("-inf")

    def parameters(self) -> Dict[str, np.ndarray]:
        return dict(zip(objective.PARAM_BLOCKS,
                        (self.embeddings.matrix,) + self.denoiser.head()))


def init(config: TrainConfig, dataset: Dataset, rng: np.random.Generator) -> TrainState:
    matrix = rng.normal(0.0, INIT_SCALE, size=(dataset.node_count, config.embedding_dim))
    table = EmbeddingTable(matrix, config.layers)
    den = DenoiserParams.init(config.embedding_dim, rng, scale=INIT_SCALE,
                              temperature=config.temperature,
                              observation_bias=config.epsilon)
    return TrainState(table, den, Adam(config.learning_rate))


def train_step(state: TrainState, layout: EdgeLayout, batch, deltas,
               config: TrainConfig) -> objective.LossBreakdown:
    """One update: the objective's gradients on one batch and relaxation
    draw, then an Adam step on the state in place; returns the batch's loss
    breakdown."""
    breakdown, grads = objective.gradients(
        state.embeddings.matrix, state.denoiser, layout, batch, deltas,
        layers=config.layers, beta=config.beta,
        reg_lambda=config.reg_lambda, sigma_sq=config.sigma_sq,
        detach_original=config.detach_original,
        kernel_normalize=config.kernel_normalize)
    state.adam.step(state.parameters(), grads)
    return breakdown


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
            breakdown = train_step(state, layout, batch, deltas, config)
        except NumericError as err:
            raise NumericError(f"epoch {state.epoch + 1}, batch {b}: {err}") from err
        sums += (breakdown.rec_loss, breakdown.ib_loss,
                 breakdown.reg_loss, breakdown.total)
    state.epoch += 1
    return state, objective.LossBreakdown(*(sums / n_batches).tolist())


def evaluate_state(state: TrainState, dataset: Dataset,
                   config: TrainConfig) -> "evaluation.MetricsReport":
    """Denoise at the fixed draw, forward, rank: the evaluation readout."""
    cmap = denoise(state.denoiser, state.embeddings.matrix, dataset)
    adj = build_adjacency(dataset, cmap)
    reps = backbone.forward(state.embeddings, adj)
    return evaluation.evaluate(reps, dataset, config.cutoffs)


def _carve_validation(dataset: Dataset, config: TrainConfig) -> Dataset:
    """Move a per-user slice of train into a held-out selection split."""
    vrng = np.random.default_rng([config.seed, 0x5E1EC7])
    train, val = data_mod._split_per_user(dataset.train_pairs, 1.0 - config.validation_ratio, vrng)
    return Dataset(dataset.user_count, dataset.item_count, train, val,
                   dataset.social_pairs)


def epochs(config: TrainConfig, dataset: Dataset) -> Iterator[Tuple[dict, TrainState]]:
    """The training loop: yields (record, best) per log record as it is made.  `best`
    is the best-selection-metric state so far, the live state until an evaluation
    improves; the input checks run at the first `next()`, before any record."""
    work = _carve_validation(dataset, config) if config.validation_ratio > 0 else dataset
    if config.eval_every <= config.epochs:
        evaluation.require_test_pairs(work)
    rng = np.random.default_rng(config.seed)
    state = best = init(config, work, rng)
    yield {"event": "config", **config_as_dict(config)}, best
    evals_since_best = 0
    for epoch in range(1, config.epochs + 1):
        _, losses = train_epoch(state, work, config, rng)  # updates state in place
        record = {"epoch": epoch, "rec_loss": losses.rec_loss, "ib_loss": losses.ib_loss,
                  "reg_loss": losses.reg_loss, "total_loss": losses.total}
        if epoch % config.eval_every == 0:
            report = evaluate_state(state, work, config)
            record.update({f"{kind}@{n}": getattr(report, kind)[n]
                           for n in config.cutoffs for kind in ("recall", "ndcg")})
            metric = report.recall[config.selection_cutoff]
            record["improved"] = metric > state.best_metric
            evals_since_best = 0 if record["improved"] else evals_since_best + 1
            if record["improved"]:
                state.best_metric = metric
                best = copy.deepcopy(state)
            record["best_metric"] = state.best_metric
        yield record, best
        if evals_since_best >= config.patience:
            yield {"event": "early_stop", "epoch": epoch, "best_metric": state.best_metric}, best
            return


def fit(config: TrainConfig, dataset: Dataset) -> Tuple[TrainState, List[dict]]:
    """Train to completion; returns the last `best` and every record `epochs` yields."""
    log = []
    for record, best in epochs(config, dataset):
        log.append(record)
    return best, log


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
    return TrainConfig(**values)


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
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as err:
        raise CheckpointError(f"{path}: cannot read checkpoint: {err}") from None
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
        epoch, adam_step = (check_number(k, header[k], "[0, inf)", integer=True)
                            for k in ("epoch", "adam_step"))
        best_metric = check_number("best_metric", header["best_metric"], "[-inf, 1]")
        for name, shape in header["arrays"]:
            if not all(type(d) is int for d in shape):  # no bool, float, string or null
                raise ValueError(f"array {name!r} has a dimension that is not an integer: {shape}")
        entries = [(name, tuple(shape)) for name, shape in header["arrays"]]
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
        matrix, *head = (arrays[name] for name in blocks)
        table = EmbeddingTable(matrix, config.layers)
        den = DenoiserParams(*head, config.temperature, config.epsilon)
        if not (table.matrix.shape[1] == den.dim == config.embedding_dim):
            raise ConfigError(
                f"embedding width {table.matrix.shape[1]}, denoiser width {den.dim} "
                f"and embedding_dim={config.embedding_dim} differ")
    except ConfigError as err:
        raise CheckpointError(f"{path}: arrays do not form a model: {err}") from err
    adam = Adam(config.learning_rate)
    adam.step_count = adam_step
    adam.m, adam.v = ({name: arrays[f"{moment}.{name}"] for name in blocks} for moment in "mv")
    return TrainState(table, den, adam, epoch, best_metric), config
