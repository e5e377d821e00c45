"""Multi-layer propagation over the joint graph with mean readout.

Layer 0 is the trainable embedding table itself; layer l+1 is one normalized
aggregation of layer l.  The readout averages layers 0..L, and preference
scores are plain inner products between user and item readout rows.
`layer_readout` is the one definition of that loop; training records it on the
tape and `forward` runs it on constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, DataError
from .graph import EdgeLayout, WeightedAdjacency

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

    @property
    def item_count(self) -> int:
        return self.readout.shape[0] - self.user_count


def layer_readout(embeddings, layers: int, step):
    """Layer states E, step(E), ..., step^L(E) and their mean (the readout).

    step is one normalized aggregation.  Training and evaluation pass
    `aggregation` on tape tensors; the detached original-graph branch passes
    its cached operator on plain arrays.
    """
    states = [embeddings]
    acc = embeddings
    for _ in range(layers):
        states.append(step(states[-1]))
        acc = acc + states[-1]
    return states, acc / float(layers + 1)


def aggregation(normalized: ad.Tensor, layout: EdgeLayout):
    """One propagation step over the normalized entry values of `layout`."""
    shape = (layout.node_count, layout.node_count)
    return lambda state: ad.spmm(normalized, layout.rows, layout.cols, shape, state)


def forward(table: EmbeddingTable, adj: WeightedAdjacency) -> NodeRepresentations:
    if table.matrix.shape[0] != adj.node_count:
        raise DataError(
            f"embedding matrix has {table.matrix.shape[0]} rows but the graph has "
            f"{adj.node_count} nodes")
    step = aggregation(ad.constant(adj.normalized_weights), adj.layout)
    states, readout = layer_readout(ad.constant(table.matrix), table.layer_count, step)
    return NodeRepresentations([s.data for s in states], readout.data,
                               adj.layout.user_count)


def score_all_items(reps: NodeRepresentations, user: int) -> np.ndarray:
    if not (0 <= user < reps.user_count):
        raise DataError(f"user id {user} outside [0, {reps.user_count})")
    return reps.readout[reps.user_count:] @ reps.readout[user]
