"""Preference-guided edge confidence and concrete relaxation of edge keep/drop.

Each unordered social pair (a, b), a < b, gets a confidence
    w = logistic(MLP([e_a ; e_b ; e_a * e_b]))
computed from the trainable user embedding rows, pair always fed in canonical
order.  A relaxed Bernoulli sample turns the confidence into a differentiable
edge weight:
    relax(w, delta, t) = logistic((log(delta / (1 - delta)) + w) / t)
with w clamped to [1e-6, 1 - 1e-6] first, and the final weight is
    rho = min(1, relax + epsilon).
Training draws delta uniformly per pair; `denoise`, the evaluation and
export readout, fixes delta = 0.5, which makes rho a monotone function of w
alone.
`confidences` (one fused tape op over all pairs, walked in blocks of
`graph.PAIR_BLOCK` pairs through `graph.span_map` forward and
`graph.ordered_map` backward, keeping no per-pair hidden layer) and
`relax_sample` are written on the autodiff tape; training records them on
the parameter leaves and `denoise` runs them on constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from . import autodiff as ad
from . import graph
from .data import Dataset
from .errors import ConfigError, DataError
from .graph import EdgeLayout, layout_for

CONFIDENCE_CLAMP = 1e-6
DELTA_CLAMP = 1e-12

# the relaxation's defaults, shared by `DenoiserParams` and the train config
DEFAULT_TEMPERATURE = 0.2
DEFAULT_EPSILON = 0.5


@dataclass
class DenoiserParams:
    """Two affine layers (3d -> d -> 1) plus the relaxation constants."""

    layer1_weight: np.ndarray  # (3d, d)
    layer1_bias: np.ndarray    # (d,)
    layer2_weight: np.ndarray  # (d, 1)
    layer2_bias: np.ndarray    # (1,)
    temperature: float = DEFAULT_TEMPERATURE
    observation_bias: float = DEFAULT_EPSILON  # added to every relaxed weight

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
        # the comparisons also reject NaN
        if not (0.0 < self.temperature < math.inf):
            raise ConfigError(f"temperature must be finite and > 0, got {self.temperature}")
        if not (0.0 <= self.observation_bias <= 1.0):
            raise ConfigError(f"observation_bias must lie in [0, 1], got {self.observation_bias}")

    @property
    def dim(self) -> int:
        return self.layer1_weight.shape[1]

    @classmethod
    def init(cls, dim: int, rng: np.random.Generator, scale: float = 0.01,
             temperature: float = DEFAULT_TEMPERATURE,
             observation_bias: float = DEFAULT_EPSILON) -> "DenoiserParams":
        return cls(
            layer1_weight=rng.normal(0.0, scale, size=(3 * dim, dim)),
            layer1_bias=np.zeros(dim),
            layer2_weight=rng.normal(0.0, scale, size=(dim, 1)),
            layer2_bias=np.zeros(1),
            temperature=temperature,
            observation_bias=observation_bias,
        )


def confidences(embeddings: ad.Tensor, head, layout: EdgeLayout) -> ad.Tensor:
    """Confidence of every social pair (a, b) of `layout`, as one tape node.

    head is the (layer1_weight, layer1_bias, layer2_weight, layer2_bias)
    tensors; training passes leaves, evaluation passes constants.  With W1
    split into row blocks Wa, Wb, Wc, the hidden layer
    [e_a; e_b; e_a * e_b] W1 + b1 is computed as
    (E Wa + b1)[a] + (E Wb)[b] + (e_a * e_b) Wc, so no pairs x 3d block is
    built.  Both passes walk the pairs in blocks of `graph.PAIR_BLOCK`, and
    a block runs only gathers, GEMMs and in-place ufuncs on a few
    block-sized buffers, so no pairs x d array exists: the forward keeps
    only its output, E Wa + b1 and E Wb.  The forward runs its blocks
    through `graph.span_map`; a block writes only its own rows of the
    output.

    The backward recomputes each block's hidden rows h with the forward's
    ops in the forward's order, so h is bitwise the forward's.  With s the
    output's gradient through the logistic, the hidden layer's gradient is
    gz = u diag(w2) with u = (1 - h^2) * s per row, so the backward works
    on u and scales by w2 where it is cheap:
    gWc = ((e_a * e_b)^T u) diag(w2) and gq = gz Wc^T = u (Wc diag(w2))^T,
    reusing the gathers e_a, e_b and e_a * e_b of the recomputation.  The
    per-user sums of u and of the d-wide gq * e_b and gq * e_a over the
    pairs' first and second users are taken block by block through the
    block's one-hot matrices (`layout.pair_blocks`).  The blocks run
    through `graph.ordered_map`, each returning its gW2 and gWc partials
    (in its slot) and its four per-user sums; the calling thread adds them
    into gW2, gWc and the per-user totals in block order, the serial loop's
    order, so the worker count never changes a bit.
    """
    W1, b1, W2, b2 = head
    E, W = embeddings.data, W1.data
    d = W.shape[1]
    M, n = layout.user_count, layout.social_count
    Wa, Wb, Wc = W[:d], W[d:2 * d], W[2 * d:]
    a, b = layout.social_a, layout.social_b
    users = E[:M]
    UA, UB = users @ Wa, users @ Wb
    UA += b1.data
    block = min(n, graph.PAIR_BLOCK)
    out = np.empty(n)

    def hidden(lo, hi, ea, eb, p, y, h):
        """Block lo..hi's hidden rows into h, with e_a, e_b and e_a * e_b
        left in ea, eb and p; y is scratch.  A caller that needs only h
        may pass ea as p and eb as y.  `Dataset` range-checks every social
        pair, so the gathers skip numpy's bounds check (mode="clip"), which
        would first copy into a temporary."""
        ca, cb = a[lo:hi], b[lo:hi]
        np.take(E, ca, axis=0, out=ea, mode="clip")
        np.take(E, cb, axis=0, out=eb, mode="clip")
        np.multiply(ea, eb, out=p)
        np.matmul(p, Wc, out=y)
        np.take(UA, ca, axis=0, out=h, mode="clip")
        h += y
        np.take(UB, cb, axis=0, out=y, mode="clip")
        h += y
        np.tanh(h, out=h)

    def forward_block(lo, hi, buffers):
        x, y, h = (buffer[:hi - lo] for buffer in buffers)
        hidden(lo, hi, x, y, x, y, h)
        expit((h @ W2.data + b2.data).reshape(-1), out=out[lo:hi])

    # the work counted is each pair's (e_a * e_b) Wc product
    graph.span_map(forward_block, n, graph.PAIR_BLOCK,
                   lambda: [np.empty((block, d)) for _ in range(3)], n * d * d)

    def backward(g):
        s = g * out * (1.0 - out)
        w2 = W2.data[:, 0]
        Wq = (Wc * w2).T
        gW2, gWc = np.zeros((d, 1)), np.zeros((d, d))
        ga, gb = np.zeros((M, d)), np.zeros((M, d))
        half_a, half_b = np.zeros((M, d)), np.zeros((M, d))

        def backward_block(pairs, slot):
            lo, hi, users_a, to_a, users_b, to_b = pairs
            buffers, pW2, pWc = slot
            ea, eb, p, gq, u = (x[:hi - lo] for x in buffers)
            hidden(lo, hi, ea, eb, p, gq, u)
            sb = s[lo:hi, None]
            np.matmul(u.T, sb, out=pW2)
            # u = (1 - h^2) * s, in h's buffer
            u *= u
            np.subtract(1.0, u, out=u)
            u *= sb
            np.matmul(p.T, u, out=pWc)
            np.matmul(u, Wq, out=gq)
            ea *= gq
            eb *= gq
            return (pW2, pWc, users_a, to_a @ u, to_a @ eb,
                    users_b, to_b @ u, to_b @ ea)

        # the partials are added here, in block order, as the serial loop
        # adds them; the work counted is each pair's three d x d products
        for pW2, pWc, users_a, ua, qa, users_b, ub, qb in graph.ordered_map(
                backward_block, layout.pair_blocks(),
                lambda: ([np.empty((block, d)) for _ in range(5)],
                         np.empty((d, 1)), np.empty((d, d))), 3 * n * d * d):
            gW2 += pW2
            gWc += pWc
            ga[users_a] += ua
            half_a[users_a] += qa
            gb[users_b] += ub
            half_b[users_b] += qb
        ga *= w2
        gb *= w2
        gE = np.zeros_like(E)
        gE[:M] = ga @ Wa.T + gb @ Wb.T + half_a + half_b
        gW1 = np.concatenate([users.T @ ga, users.T @ gb, gWc * w2])
        # every pair's gz is in exactly one first user's sum
        return gE, gW1, ga.sum(axis=0), gW2, s.sum(keepdims=True)

    return ad._make(out, (embeddings, W1, b1, W2, b2), backward)


def relax_sample(w: ad.Tensor, delta, temperature: float,
                 observation_bias: float) -> ad.Tensor:
    """Relaxed Bernoulli reparameterization plus the observation floor:
    min(1, relax(w, delta, t) + epsilon) for confidences w and draws delta.

    The sum is never negative, so clipping it to [0, 1] is that minimum,
    with the same zero gradient where it clamps."""
    if not (0.0 < temperature < math.inf):
        raise ConfigError(f"temperature must be finite and > 0, got {temperature}")
    w = ad.clip(w, CONFIDENCE_CLAMP, 1.0 - CONFIDENCE_CLAMP)
    d = np.clip(delta, DELTA_CLAMP, 1.0 - DELTA_CLAMP)
    relaxed = ad.sigmoid((w + np.log(d / (1.0 - d))) / temperature)
    return ad.clip(relaxed + observation_bias, 0.0, 1.0)


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
        # written so that NaN fails too
        if n and not (self.relaxed.min() >= 0.0 and self.relaxed.max() <= 1.0):
            raise DataError("relaxed weights must lie in [0, 1]")

    def __len__(self) -> int:
        return self.pairs.shape[0]


def denoise(params: DenoiserParams, user_embeddings: np.ndarray,
            dataset: Dataset, mode: str = "deterministic") -> EdgeConfidenceMap:
    """Score every social pair and attach relaxed keep-weights at the fixed
    draw delta = 0.5, for reproducible evaluation and export.  `mode`
    accepts only "deterministic".
    """
    if mode != "deterministic":
        raise ConfigError(f"mode must be 'deterministic', got {mode!r}")
    emb = np.asarray(user_embeddings, dtype=np.float64)
    if emb.ndim != 2 or emb.shape[0] < dataset.user_count:
        raise DataError(
            f"user embedding matrix needs at least {dataset.user_count} rows, got {emb.shape}")
    if emb.shape[1] != params.dim:
        raise ConfigError(
            f"embedding dimension mismatch: params expect {params.dim}, got {emb.shape[1]}")
    pairs = dataset.social_pairs
    head = tuple(ad.constant(p) for p in (params.layer1_weight, params.layer1_bias,
                                         params.layer2_weight, params.layer2_bias))
    w = confidences(ad.constant(emb), head, layout_for(dataset))
    relaxed = relax_sample(w, np.full(pairs.shape[0], 0.5), params.temperature,
                           params.observation_bias)
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

