"""Training objective: pairwise ranking loss, kernel bottleneck, L2 anchor.

`gradients` records the entire training computation on the autodiff tape,
composing the stage functions of `denoiser`, `backbone` and `hsic` (the same
functions evaluation runs on constants):

    E0 rows -> pair confidences -> relaxed social weights -> degree
    renormalization, L-layer propagation and readout (denoised graph) ->
    batch scores -> BPR;  E0 -> propagation (original graph) -> HSIC against
    the denoised user rows;  plus the L2 term on E0.

The confidences, the renormalized propagation and the HSIC bottleneck are
one tape op each (`denoiser.confidences`, `backbone.propagate`,
`hsic.bottleneck`) with a hand-written backward, so every parameter
gradient, including the path through the confidence MLP into the graph
normalization, is exact.  The original-graph branch contributes gradients
too unless detach_original is set, in which case `plain_original_readout`
computes it off the tape, it is held constant and the bottleneck's backward
skips that side.  With beta == 0 the HSIC branch is never built or
evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from . import autodiff as ad
from . import backbone, denoiser, hsic
from .denoiser import DenoiserParams
from .errors import ConfigError, DataError, NumericError
from .graph import EdgeLayout

# BPR margin clamp: softplus(40) ~ 4e-18, so wider margins change nothing
MARGIN_CLAMP = 40.0

PARAM_BLOCKS = ("embeddings", "layer1_weight", "layer1_bias",
                "layer2_weight", "layer2_bias")


@dataclass(frozen=True)
class LossBreakdown:
    rec_loss: float
    ib_loss: float
    reg_loss: float
    total: float


def plain_original_readout(embeddings: np.ndarray, layout: EdgeLayout,
                           layers: int) -> np.ndarray:
    """Readout on the all-ones social graph without touching the tape."""
    return backbone.propagate(None, ad.constant(embeddings), layout, layers).data


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
    if users.size and (users.min() < 0 or users.max() >= layout.user_count):
        raise DataError("batch users outside the graph's user range")
    for name, arr in (("positive", positives), ("negative", negatives)):
        if arr.min() < 0 or arr.max() >= layout.item_count:
            raise DataError(f"batch {name} items outside the graph's item range")
    deltas = np.asarray(deltas, dtype=np.float64)
    if deltas.shape != (layout.social_count,):
        raise DataError("delta vector must align with the social pairs")
    if beta < 0.0:
        raise ConfigError(f"beta must be >= 0, got {beta}")
    if reg_lambda < 0.0:
        raise ConfigError(f"reg_lambda must be >= 0, got {reg_lambda}")
    if beta > 0.0 and not (sigma_sq > 0.0):
        raise ConfigError(f"sigma_sq must be > 0, got {sigma_sq}")

    M = layout.user_count
    E0 = ad.Tensor(embeddings, requires_grad=with_grads)
    W1 = ad.Tensor(params.layer1_weight, requires_grad=with_grads)
    b1 = ad.Tensor(params.layer1_bias, requires_grad=with_grads)
    W2 = ad.Tensor(params.layer2_weight, requires_grad=with_grads)
    b2 = ad.Tensor(params.layer2_bias, requires_grad=with_grads)

    # social confidences and relaxed weights, then the denoised graph
    if layout.social_count:
        conf = denoiser.confidences(E0, (W1, b1, W2, b2), layout)
        rho = denoiser.relax_sample(conf, deltas, params.temperature,
                                    params.observation_bias)
    else:
        rho = ad.constant(np.empty(0))
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
            orig = backbone.propagate(None, E0, layout, layers)
        ib = hsic.bottleneck(readout, orig, users, sigma_sq, kernel_normalize)
        total = (rec + reg * reg_lambda) + ib * beta
        ib_value = float(ib.data)
    else:
        total = rec + reg * reg_lambda
        ib_value = 0.0

    rec_value, reg_value = float(rec.data), float(reg.data)
    breakdown = LossBreakdown(rec_value, ib_value, reg_value,
                              (rec_value + reg_lambda * reg_value) + beta * ib_value)
    if not np.isfinite(breakdown.total):
        raise NumericError(
            f"non-finite training loss: rec={breakdown.rec_loss} "
            f"ib={breakdown.ib_loss} reg={breakdown.reg_loss}")
    if not with_grads:
        return breakdown, None

    total.backward()
    leaves = {"embeddings": E0, "layer1_weight": W1, "layer1_bias": b1,
              "layer2_weight": W2, "layer2_bias": b2}
    grads: Dict[str, np.ndarray] = {}
    for name, leaf in leaves.items():
        g = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient in block '{name}'")
        grads[name] = g
    return breakdown, grads
