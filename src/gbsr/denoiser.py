"""Preference-guided edge confidence and concrete relaxation of edge keep/drop.

Each unordered social pair (a, b), a < b, gets a confidence
    w = logistic(MLP([e_a ; e_b ; e_a * e_b]))
computed from the trainable user embedding rows, pair always fed in canonical
order.  A relaxed Bernoulli sample turns the confidence into a differentiable
edge weight:
    relax(w, delta, t) = logistic((log(delta / (1 - delta)) + w) / t)
with w clamped to [1e-6, 1 - 1e-6] first, and the final weight is
    rho = min(1, relax + epsilon).
Stochastic mode draws delta uniformly per pair; deterministic mode fixes
delta = 0.5, which makes rho a monotone function of w alone.
`confidences` and `relax_sample` are written on the autodiff tape; training
records them on the parameter leaves and `denoise` runs them on constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from .data import Dataset
from .errors import ConfigError, DataError

CONFIDENCE_CLAMP = 1e-6
DELTA_CLAMP = 1e-12


@dataclass
class DenoiserParams:
    """Two affine layers (3d -> d -> 1) plus the relaxation constants."""

    layer1_weight: np.ndarray  # (3d, d)
    layer1_bias: np.ndarray    # (d,)
    layer2_weight: np.ndarray  # (d, 1)
    layer2_bias: np.ndarray    # (1,)
    temperature: float = 0.2
    observation_bias: float = 0.5  # epsilon added to every relaxed weight

    def __post_init__(self):
        self.layer1_weight = np.asarray(self.layer1_weight, dtype=np.float64)
        self.layer1_bias = np.asarray(self.layer1_bias, dtype=np.float64)
        self.layer2_weight = np.asarray(self.layer2_weight, dtype=np.float64)
        self.layer2_bias = np.asarray(self.layer2_bias, dtype=np.float64)
        d = self.layer1_weight.shape[1] if self.layer1_weight.ndim == 2 else -1
        if self.layer1_weight.ndim != 2 or self.layer1_weight.shape[0] != 3 * d:
            raise ConfigError(f"layer1_weight must be (3d, d), got {self.layer1_weight.shape}")
        if self.layer1_bias.shape != (d,):
            raise ConfigError(f"layer1_bias must be (d,), got {self.layer1_bias.shape}")
        if self.layer2_weight.shape != (d, 1):
            raise ConfigError(f"layer2_weight must be (d, 1), got {self.layer2_weight.shape}")
        if self.layer2_bias.shape != (1,):
            raise ConfigError(f"layer2_bias must be (1,), got {self.layer2_bias.shape}")
        for name in ("layer1_weight", "layer1_bias", "layer2_weight", "layer2_bias"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ConfigError(f"{name} contains non-finite values")
        if not (self.temperature > 0.0):
            raise ConfigError(f"temperature must be > 0, got {self.temperature}")
        if not (0.0 <= self.observation_bias <= 1.0):
            raise ConfigError(f"observation_bias must lie in [0, 1], got {self.observation_bias}")

    @property
    def dim(self) -> int:
        return self.layer1_weight.shape[1]

    @classmethod
    def init(cls, dim: int, rng: np.random.Generator, scale: float = 0.01,
             temperature: float = 0.2, observation_bias: float = 0.5) -> "DenoiserParams":
        return cls(
            layer1_weight=rng.normal(0.0, scale, size=(3 * dim, dim)),
            layer1_bias=np.zeros(dim),
            layer2_weight=rng.normal(0.0, scale, size=(dim, 1)),
            layer2_bias=np.zeros(1),
            temperature=temperature,
            observation_bias=observation_bias,
        )


def confidences(embeddings: ad.Tensor, head, first, second) -> ad.Tensor:
    """Confidence of every pair (first[k], second[k]) in canonical order.

    head is the (layer1_weight, layer1_bias, layer2_weight, layer2_bias)
    tensors; training passes leaves, evaluation passes constants.
    """
    W1, b1, W2, b2 = head
    ea = ad.gather(embeddings, first)
    eb = ad.gather(embeddings, second)
    x = ad.concat([ea, eb, ea * eb], axis=1)
    h = ad.tanh(x @ W1 + b1)
    return ad.sigmoid((h @ W2 + b2).reshape(-1))


def relax_sample(w: ad.Tensor, delta, temperature: float,
                 observation_bias: float) -> ad.Tensor:
    """Relaxed Bernoulli reparameterization plus the observation floor:
    min(1, relax(w, delta, t) + epsilon) for confidences w and draws delta."""
    if not (temperature > 0.0):
        raise ConfigError(f"temperature must be > 0, got {temperature}")
    w = ad.clip(w, CONFIDENCE_CLAMP, 1.0 - CONFIDENCE_CLAMP)
    d = np.clip(delta, DELTA_CLAMP, 1.0 - DELTA_CLAMP)
    relaxed = ad.sigmoid((w + np.log(d / (1.0 - d))) / temperature)
    return ad.minimum(relaxed + observation_bias, 1.0)


class EdgeConfidenceMap:
    """Per-social-pair confidence and relaxed weight, aligned to a dataset's
    canonical (sorted, a < b) pair order."""

    def __init__(self, pairs: np.ndarray, confidence: np.ndarray,
                 relaxed: np.ndarray):
        self.pairs = np.asarray(pairs, dtype=np.int64)
        self.confidence = np.asarray(confidence, dtype=np.float64)
        self.relaxed = np.asarray(relaxed, dtype=np.float64)
        n = self.pairs.shape[0]
        if self.confidence.shape != (n,) or self.relaxed.shape != (n,):
            raise DataError("confidence map arrays must align with the pair list")
        if n and (self.relaxed.min() < 0.0 or self.relaxed.max() > 1.0):
            raise DataError("relaxed weights must lie in [0, 1]")

    def __len__(self) -> int:
        return self.pairs.shape[0]


def denoise(params: DenoiserParams, user_embeddings: np.ndarray,
            dataset: Dataset, mode: str = "deterministic",
            rng: Optional[np.random.Generator] = None) -> EdgeConfidenceMap:
    """Score every social pair and attach relaxed keep-weights.

    mode "stochastic" draws one delta per pair from rng; "deterministic"
    fixes delta = 0.5 for reproducible evaluation and export.
    """
    if mode not in ("stochastic", "deterministic"):
        raise ConfigError(f"mode must be 'stochastic' or 'deterministic', got {mode!r}")
    emb = np.asarray(user_embeddings, dtype=np.float64)
    if emb.ndim != 2 or emb.shape[0] < dataset.user_count:
        raise DataError(
            f"user embedding matrix needs at least {dataset.user_count} rows, got {emb.shape}")
    if emb.shape[1] != params.dim:
        raise ConfigError(
            f"embedding dimension mismatch: params expect {params.dim}, got {emb.shape[1]}")
    pairs = dataset.social_pairs
    if pairs.shape[0] == 0:
        return EdgeConfidenceMap(pairs, np.empty(0), np.empty(0))
    head = tuple(ad.constant(p) for p in (params.layer1_weight, params.layer1_bias,
                                         params.layer2_weight, params.layer2_bias))
    w = confidences(ad.constant(emb), head, pairs[:, 0], pairs[:, 1])
    if mode == "stochastic":
        if rng is None:
            raise ConfigError("stochastic mode needs an rng")
        delta = rng.uniform(size=pairs.shape[0])
    else:
        delta = np.full(pairs.shape[0], 0.5)
    relaxed = relax_sample(w, delta, params.temperature, params.observation_bias)
    return EdgeConfidenceMap(pairs, w.data, relaxed.data)


def confidence_csv(cmap: EdgeConfidenceMap) -> str:
    """Header, one row per pair, then a `# edges=...` summary line."""
    lines = ["user_a,user_b,confidence,relaxed_weight"]
    for (a, b), w, rho in zip(cmap.pairs, cmap.confidence, cmap.relaxed):
        lines.append(f"{int(a)},{int(b)},{float(w)!r},{float(rho)!r}")
    conf = cmap.confidence
    lines.append(f"# edges={len(cmap)} mean_confidence={float(conf.mean())!r} "
                 f"min={float(conf.min())!r} max={float(conf.max())!r}"
                 if len(cmap) else "# edges=0")
    return "\n".join(lines) + "\n"

