"""Joint social + interaction adjacency with symmetric degree normalization.

Users and items share one node space: user a is node a, item i is node
user_count + i.  The adjacency holds both directions of every social pair and
every train interaction; social entries carry a per-pair weight in [0, 1]
(1 when no weights are supplied), interaction entries carry weight 1.
Entries are normalized as w / sqrt(d_row * d_col) where degrees are weighted
row sums floored at DEGREE_FLOOR, so fully down-weighted rows stay finite.
`renormalize` is that step on the autodiff tape; training records it on the
relaxed weights and `build_adjacency` runs it on constants.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from .data import Dataset
from .errors import DataError

DEGREE_FLOOR = 1e-12


class EdgeLayout:
    """Fixed COO ordering shared by every adjacency build for a dataset.

    Entry order: social pairs (a -> b), social pairs (b -> a), interactions
    (user -> item), interactions (item -> user).  A weight vector for the
    social pairs expands into the full entry value vector via values().
    """

    def __init__(self, dataset: Dataset):
        M = dataset.user_count
        soc = dataset.social_pairs
        inter = dataset.train_pairs
        self.social_a = soc[:, 0].copy()
        self.social_b = soc[:, 1].copy()
        u, it = inter[:, 0], M + inter[:, 1]
        self.rows = np.concatenate([self.social_a, self.social_b, u, it])
        self.cols = np.concatenate([self.social_b, self.social_a, it, u])
        self.social_count = soc.shape[0]
        self.interaction_count = inter.shape[0]
        self.node_count = dataset.node_count
        self.user_count = M
        self.item_count = dataset.item_count
        self._original_values: Optional[np.ndarray] = None
        self._original_csr: Optional[sp.csr_matrix] = None

    def values(self, social_weights: ad.Tensor) -> ad.Tensor:
        if social_weights.shape != (self.social_count,):
            raise DataError("social weight vector does not match the social pair count")
        ones = ad.constant(np.ones(self.interaction_count))
        return ad.concat([social_weights, social_weights, ones, ones], axis=0)

    def original_values(self) -> ad.Tensor:
        """Normalized entry values with every social weight at 1, computed
        once per layout and handed out as a read-only constant."""
        if self._original_values is None:
            ones = ad.constant(np.ones(self.social_count))
            self._original_values = renormalize(self.values(ones), self)[1].data
            self._original_values.flags.writeable = False
        return ad.constant(self._original_values)

    def original_normalized_csr(self) -> sp.csr_matrix:
        """The all-ones graph's normalized operator, built once per layout."""
        if self._original_csr is None:
            self._original_csr = sp.csr_matrix(
                (self.original_values().data, (self.rows, self.cols)),
                shape=(self.node_count, self.node_count))
        return self._original_csr


def renormalize(values: ad.Tensor, layout: EdgeLayout):
    """(degrees, normalized entry values) for entry values in layout order."""
    degrees = ad.scatter_sum(values, layout.rows, layout.node_count)
    dinv = ad.maximum(degrees, DEGREE_FLOOR) ** -0.5
    return degrees, (values * ad.gather(dinv, layout.rows)) * ad.gather(dinv, layout.cols)


class WeightedAdjacency:
    """Symmetric weighted adjacency plus its normalized entry values."""

    def __init__(self, layout: EdgeLayout, weights: np.ndarray):
        self.layout = layout
        self.node_count = layout.node_count
        self.rows = layout.rows
        self.cols = layout.cols
        self.weights = weights
        degrees, normalized = renormalize(ad.constant(weights), layout)
        self.degrees = degrees.data
        self.normalized_weights = normalized.data


def layout_for(dataset: Dataset) -> EdgeLayout:
    """The dataset's edge layout, built once and cached on the instance."""
    layout = getattr(dataset, "_edge_layout", None)
    if layout is None:
        layout = EdgeLayout(dataset)
        dataset._edge_layout = layout
    return layout


def build_adjacency(dataset: Dataset, social_weights=None) -> WeightedAdjacency:
    """Assemble the joint adjacency, optionally re-weighting social pairs.

    social_weights may be an EdgeConfidenceMap (its relaxed weights are used)
    or a plain array aligned with dataset.social_pairs; omitted means all 1.
    """
    layout = layout_for(dataset)
    if social_weights is None:
        w = np.ones(layout.social_count)
    else:
        w = _extract_social_weights(dataset, social_weights)
    if w.size and (np.min(w) < 0.0 or np.max(w) > 1.0):
        raise DataError("social weights must lie in [0, 1]")
    return WeightedAdjacency(layout, layout.values(ad.constant(w)).data)


def _extract_social_weights(dataset: Dataset, social_weights) -> np.ndarray:
    pairs = getattr(social_weights, "pairs", None)
    if pairs is not None:
        if not np.array_equal(np.asarray(pairs), dataset.social_pairs):
            raise DataError("edge confidence map does not cover exactly the dataset's social pairs")
        return np.asarray(social_weights.relaxed, dtype=np.float64)
    w = np.asarray(social_weights, dtype=np.float64)
    if w.shape != (dataset.social_pairs.shape[0],):
        raise DataError("social weight vector does not match the social pair count")
    return w
