"""Multi-layer propagation over the joint graph with mean readout.

Layer 0 is the trainable embedding table itself; layer l+1 is one normalized
aggregation of layer l.  The readout averages layers 0..L, and preference
scores are plain inner products between user and item readout rows.
`layer_readout` is the one definition of that loop.  `propagate` records
degree renormalization, the loop and the readout as one tape node for
training; `forward` runs the same loop on a `build_adjacency` operator for
evaluation.  Both renormalize through `graph.renormalize` and multiply by
the operator through `graph.row_split`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from . import autodiff as ad
from . import graph
from .errors import ConfigError, DataError
from .graph import DEGREE_FLOOR, EdgeLayout, WeightedAdjacency, renormalize

MAX_LAYERS = 4


@dataclass
class EmbeddingTable:
    """Stacked user and item embeddings: rows [0, M) users, [M, M+N) items."""

    matrix: np.ndarray
    layer_count: int

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.float64)
        if self.matrix.ndim != 2:
            raise ConfigError(f"embedding matrix must be 2-D, got shape {self.matrix.shape}")
        if not np.all(np.isfinite(self.matrix)):
            raise ConfigError("embedding matrix contains non-finite values")
        if not (1 <= self.layer_count <= MAX_LAYERS):
            raise ConfigError(
                f"layer_count must lie in [1, {MAX_LAYERS}], got {self.layer_count}")


@dataclass
class NodeRepresentations:
    """Per-layer states plus their mean; user_count splits the row space."""

    layers: List[np.ndarray]
    readout: np.ndarray
    user_count: int


def layer_readout(embeddings: np.ndarray, layers: int, multiply):
    """Layer states E, A E, ..., A^L E and their mean (the readout), with
    `multiply` the product X -> A X (`graph.row_split`)."""
    states = [embeddings]
    acc = embeddings
    for _ in range(layers):
        states.append(multiply(states[-1]))
        acc = acc + states[-1]
    return states, acc / float(layers + 1)


def propagate(rho: ad.Tensor, embeddings: ad.Tensor,
              layout: EdgeLayout, layers: int) -> ad.Tensor:
    """Readout of `layers` propagations over the graph whose social weights
    are rho, as one tape node; the original graph is rho = ones.

    With A the normalized adjacency, X_l the layer states, G the readout's
    gradient and g_l the gradient of X_l, A's symmetry gives
        g_L = G / (L + 1),   g_l = G / (L + 1) + A g_{l+1}.
    The degree chain needs, per node r,
        T_r = sum_l <g_{l+1}, X_{l+1}>_r + <A g_{l+1}, X_l>_r
    and gives dLoss/d degree_r = -T_r / (2 max(degree_r, floor)) where the
    degree is not floored.  Social pair (a, b) adds
    dinv_a dinv_b sum_l (<g_{l+1}[a], X_l[b]> + <g_{l+1}[b], X_l[a]>),
    the only per-entry products needed.  Both ends of a social pair are
    users, so that sum is one row-wise dot <Z1[a], Z2[b]> of the user rows
    Z1 = [g_1 .. g_L | X_0 .. X_{L-1}] and Z2 = [X_0 .. X_{L-1} | g_1 .. g_L],
    taken in blocks of `graph.SDDMM_BLOCK` pairs.  The products A X_l and
    A g_{l+1} run on the worker pool (`graph.row_split`), and the SDDMM
    blocks through `graph.span_map`; a block writes only its own pairs'
    values.
    """
    degrees, dinv, operator = renormalize(rho.data, layout)
    multiply = graph.row_split(operator, embeddings.data.shape[1])
    states, readout = layer_readout(embeddings.data, layers, multiply)

    def backward(G):
        share = G / float(layers + 1)
        g, upper, T = share, [], 0.0
        for lower, state in zip(states[-2::-1], states[:0:-1]):
            Ag = multiply(g)
            if rho.requires_grad:
                upper.append(g)
                T = T + np.einsum("nd,nd->n", g, state) + np.einsum("nd,nd->n", Ag, lower)
            g = share + Ag
        if not rho.requires_grad:
            return None, g
        g_degree = np.where(degrees >= DEGREE_FLOOR, -0.5 * T * dinv * dinv, 0.0)
        M = layout.user_count
        grads = [x[:M] for x in upper[::-1]]    # g_1 .. g_L
        lowers = [x[:M] for x in states[:-1]]   # X_0 .. X_{L-1}
        Z1 = np.concatenate(grads + lowers, axis=1)
        Z2 = np.concatenate(lowers + grads, axis=1)
        a, b, n = layout.social_a, layout.social_b, layout.social_count
        pair = np.empty(n)
        block = min(n, graph.SDDMM_BLOCK)

        def sddmm_block(lo, hi, buffers):
            x1, x2 = (z[:hi - lo] for z in buffers)
            # `Dataset` range-checks every social pair, so the gathers skip
            # numpy's bounds check (mode="clip"), which would first copy into a temporary
            np.take(Z1, a[lo:hi], axis=0, out=x1, mode="clip")
            np.take(Z2, b[lo:hi], axis=0, out=x2, mode="clip")
            np.einsum("kd,kd->k", x1, x2, out=pair[lo:hi])

        graph.span_map(sddmm_block, n, graph.SDDMM_BLOCK,
                       lambda: (np.empty((block, Z1.shape[1])), np.empty((block, Z2.shape[1]))),
                       n * Z1.shape[1])
        return pair * dinv[a] * dinv[b] + g_degree[a] + g_degree[b], g

    return ad._make(readout, (rho, embeddings), backward)


def forward(table: EmbeddingTable, adj: WeightedAdjacency) -> NodeRepresentations:
    if table.matrix.shape[0] != adj.node_count:
        raise DataError(
            f"embedding matrix has {table.matrix.shape[0]} rows but the graph has "
            f"{adj.node_count} nodes")
    states, readout = layer_readout(table.matrix, table.layer_count,
                                    graph.row_split(adj.operator, table.matrix.shape[1]))
    return NodeRepresentations(states, readout, adj.layout.user_count)

