"""Training objective: pairwise ranking loss, kernel bottleneck, L2 anchor.

`gradients` records the entire training computation on the autodiff tape,
composing the stage functions of `denoiser`, `backbone` and `hsic` (the same
functions evaluation runs on constants):

    E0 rows -> pair confidences -> relaxed social weights -> degree
    renormalization, L-layer propagation and readout (denoised graph) ->
    batch scores -> BPR;  E0 -> the same propagation with every social
    weight 1 (original graph) -> HSIC against the denoised user rows;  plus
    the L2 term on E0.

The confidences, the renormalized propagation and the HSIC bottleneck are
one tape op each (`denoiser.confidences`, `backbone.propagate`,
`hsic.bottleneck`) with a hand-written backward, so every parameter
gradient, including the path through the confidence MLP into the graph
normalization, is exact.  The original-graph branch contributes gradients
too unless detach_original is set, in which case `plain_original_readout`
computes it off the tape, it is held constant and the bottleneck's backward
skips that side.  With beta == 0 the HSIC branch is never built or
evaluated.  A graph without social pairs runs the same ops on empty pair
arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from . import autodiff as ad
from . import backbone, denoiser, hsic
from .config import TrainConfig, check_declared
from .denoiser import DenoiserParams
from .errors import ConfigError, DataError, NumericError
from .graph import EdgeLayout

# BPR margin clamp: softplus(40) ~ 4e-18, so wider margins change nothing
MARGIN_CLAMP = 40.0

PARAM_BLOCKS = ("embeddings",) + denoiser.HEAD_BLOCKS


@dataclass(frozen=True)
class LossBreakdown:
    rec_loss: float
    ib_loss: float
    reg_loss: float
    total: float


def plain_original_readout(embeddings: np.ndarray, layout: EdgeLayout,
                           layers: int) -> np.ndarray:
    """Readout on the all-ones social graph without touching the tape."""
    ones = ad.constant(np.ones(layout.social_count))
    return backbone.propagate(ones, ad.constant(embeddings), layout, layers).data


def gradients(embeddings: np.ndarray, params: DenoiserParams,
              layout: EdgeLayout, batch, deltas, *,
              layers: int, beta: float, reg_lambda: float, sigma_sq: float,
              detach_original: bool = False, kernel_normalize: bool = True,
              with_grads: bool = True
              ) -> Tuple[LossBreakdown, Optional[Dict[str, np.ndarray]]]:
    """Run the recorded training pipeline for one batch.

    batch is (users, positives, negatives) int arrays; deltas is the per-pair
    relaxation draw aligned with the layout's social pairs.  Returns the loss
    breakdown and, when with_grads, a dict of gradients per parameter block.
    """
    users, positives, negatives = (np.asarray(x, dtype=np.int64) for x in batch)
    if not (users.shape == positives.shape == negatives.shape) or users.ndim != 1 or users.size == 0:
        raise DataError("batch arrays must be equal-length nonempty int vectors")
    if users.min() < 0 or users.max() >= layout.user_count:
        raise DataError("batch users outside the graph's user range")
    for name, arr in (("positive", positives), ("negative", negatives)):
        if arr.min() < 0 or arr.max() >= layout.item_count:
            raise DataError(f"batch {name} items outside the graph's item range")
    deltas = np.asarray(deltas, dtype=np.float64)
    if deltas.shape != (layout.social_count,):
        raise DataError("delta vector must align with the social pairs")
    for key, value in (("beta", beta), ("reg_lambda", reg_lambda), ("sigma_sq", sigma_sq)):
        check_declared(TrainConfig, key, value)

    M = layout.user_count
    E0 = ad.Tensor(embeddings, requires_grad=with_grads)
    if E0.data.ndim != 2 or E0.shape[1] != params.dim:
        raise ConfigError(f"embedding dimension mismatch: params expect {params.dim}, "
                          f"got an embedding matrix of shape {E0.shape}")
    if E0.shape[0] != layout.node_count:
        raise DataError(f"embedding matrix has {E0.shape[0]} rows but the graph has "
                        f"{layout.node_count} nodes")
    head = tuple(ad.Tensor(p, requires_grad=with_grads) for p in params.head())

    # social confidences and relaxed weights, then the denoised graph
    conf = denoiser.confidences(E0, head, layout)
    rho = denoiser.relax_sample(conf, deltas, params.temperature,
                                params.observation_bias)
    readout = backbone.propagate(rho, E0, layout, layers)

    # ranking loss on the batch
    u = ad.gather(readout, users)
    pi = ad.gather(readout, M + positives)
    ni = ad.gather(readout, M + negatives)
    margins = (u * pi).sum(axis=1) - (u * ni).sum(axis=1)
    margins = ad.clip(margins, -MARGIN_CLAMP, MARGIN_CLAMP)
    rec = ad.softplus(-margins).mean()
    reg = (E0 * E0).sum()

    if beta > 0.0:
        if detach_original:
            orig = ad.constant(plain_original_readout(embeddings, layout, layers))
        else:
            ones = ad.constant(np.ones(layout.social_count))
            orig = backbone.propagate(ones, E0, layout, layers)
        ib = hsic.bottleneck(readout, orig, users, sigma_sq, kernel_normalize)
        total = (rec + reg * reg_lambda) + ib * beta
        ib_value = float(ib.data)
    else:
        total = rec + reg * reg_lambda
        ib_value = 0.0

    breakdown = LossBreakdown(float(rec.data), ib_value, float(reg.data),
                              float(total.data))
    if not np.isfinite(breakdown.total):
        raise NumericError(
            f"non-finite training loss: rec={breakdown.rec_loss} "
            f"ib={breakdown.ib_loss} reg={breakdown.reg_loss}")
    if not with_grads:
        return breakdown, None

    total.backward()
    grads: Dict[str, np.ndarray] = {}
    for name, leaf in zip(PARAM_BLOCKS, (E0,) + head):
        g = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient in block '{name}'")
        grads[name] = g
    return breakdown, grads
