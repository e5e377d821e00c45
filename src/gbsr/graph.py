"""Joint social + interaction adjacency with symmetric degree normalization.

Users and items share one node space: user a is node a, item i is node
user_count + i.  The adjacency holds both directions of every social pair and
every train interaction; social entries carry a per-pair weight in [0, 1]
(1 when no weights are supplied), interaction entries carry weight 1.
Entries are normalized as w / sqrt(d_row * d_col) where degrees are weighted
row sums floored at DEGREE_FLOOR, so fully down-weighted rows stay finite.
`renormalize` is that step on plain arrays; `backbone.propagate` runs it
inside its fused tape op and `build_adjacency` runs it for evaluation.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.sparse as sp

from .data import Dataset
from .errors import DataError

DEGREE_FLOOR = 1e-12


class EdgeLayout:
    """Fixed COO ordering shared by every adjacency build for a dataset.

    Entry order: social pairs (a -> b), social pairs (b -> a), interactions
    (user -> item), interactions (item -> user).  A weight vector for the
    social pairs expands into the full entry weight vector via
    entry_weights().  The CSR structure of the adjacency and the one-hot
    pair matrices are built on first use, so evaluation never pays for the
    ones only a backward pass needs.
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
        self._csr_structure = None
        self._pair_scatter = None
        self._original_csr: Optional[sp.csr_matrix] = None

    def entry_weights(self, social_weights: np.ndarray) -> np.ndarray:
        """Weights of every entry in layout order; interactions weigh 1."""
        if social_weights.shape != (self.social_count,):
            raise DataError("social weight vector does not match the social pair count")
        ones = np.ones(2 * self.interaction_count)
        return np.concatenate([social_weights, social_weights, ones])

    def operator(self, normalized: np.ndarray) -> sp.csr_matrix:
        """The matrix with entry values `normalized` (layout order) on the
        layout's one CSR structure.  Entries are ordered by (row, column), as
        `csr_matrix((values, (rows, cols)))` orders them, so products match
        that construction bit for bit."""
        shape = (self.node_count, self.node_count)
        if self._csr_structure is None:
            order = np.lexsort((self.cols, self.rows))
            indptr = np.zeros(self.node_count + 1, dtype=np.int64)
            np.cumsum(np.bincount(self.rows, minlength=self.node_count), out=indptr[1:])
            template = sp.csr_matrix((np.zeros(order.size), self.cols[order], indptr),
                                     shape=shape)
            self._csr_structure = (order, template.indices, template.indptr)
        order, indices, indptr = self._csr_structure
        return sp.csr_matrix((normalized[order], indices, indptr), shape=shape)

    def original_normalized_csr(self) -> sp.csr_matrix:
        """The all-ones graph's normalized operator, built once per layout."""
        if self._original_csr is None:
            ones = self.entry_weights(np.ones(self.social_count))
            self._original_csr = self.operator(renormalize(ones, self)[2])
            self._original_csr.data.flags.writeable = False
        return self._original_csr

    def pair_scatter(self):
        """One-hot (user_count x social_count) matrices of the pairs' first
        and second users: `P @ X` sums the rows of X per user."""
        if self._pair_scatter is None:
            k = np.arange(self.social_count)
            shape = (self.user_count, self.social_count)
            self._pair_scatter = tuple(
                sp.csr_matrix((np.ones(k.size), (users, k)), shape=shape)
                for users in (self.social_a, self.social_b))
        return self._pair_scatter


def renormalize(weights: np.ndarray, layout: EdgeLayout):
    """(degrees, floored degrees^-1/2, normalized entry values) for entry
    weights in layout order."""
    degrees = np.bincount(layout.rows, weights=weights, minlength=layout.node_count)
    dinv = np.power(np.maximum(degrees, DEGREE_FLOOR), -0.5)
    return degrees, dinv, (weights * dinv[layout.rows]) * dinv[layout.cols]


class WeightedAdjacency:
    """Symmetric weighted adjacency plus its normalized entry values."""

    def __init__(self, layout: EdgeLayout, weights: np.ndarray):
        self.layout = layout
        self.node_count = layout.node_count
        self.rows = layout.rows
        self.cols = layout.cols
        self.weights = weights
        self.degrees, _, self.normalized_weights = renormalize(weights, layout)


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
    # written so that NaN fails too
    if w.size and not (np.min(w) >= 0.0 and np.max(w) <= 1.0):
        raise DataError("social weights must lie in [0, 1]")
    return WeightedAdjacency(layout, layout.entry_weights(w))


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
