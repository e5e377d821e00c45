"""Dataset ingestion, splitting, negative sampling, and synthetic generation.

File format for both interaction and social inputs: one edge per line, two
integer ids separated by a tab.  Raw ids are re-indexed densely in order of
first appearance (interaction file first, then the social file), so arbitrary
id spaces are accepted.  Social edges are undirected: lines are symmetrized
into unordered pairs, duplicates collapse, self-loops are dropped.

The train/test split is per user: each user's interactions are shuffled and
the first max(1, floor(ratio * n)) go to train, the rest to test.  A user with
a single interaction therefore always keeps it in train.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, List, Tuple

import numpy as np

from .errors import DataError, ParseError

# negative sampling redraws an item at most this many times per triple
NEGATIVE_RETRY_BOUND = 100

# guards float fuzz in floor(ratio * n): 0.7 * 10 must count as 7, not 6
_FLOOR_EPS = 1e-9


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters for the planted-noise cluster generator.

    Users and items are partitioned into `cluster_count` blocks.  Interactions
    and genuine social edges stay within a block; `noise_edge_fraction` (eta)
    controls how many cross-block social edges are planted on top, as a
    fraction of the genuine edge count.
    """

    cluster_count: int
    users_per_cluster: int
    items_per_cluster: int
    interaction_rate: float
    intra_social_rate: float
    noise_edge_fraction: float
    seed: int

    def __post_init__(self):
        if self.cluster_count < 1:
            raise DataError("cluster_count must be >= 1")
        if self.users_per_cluster < 1 or self.items_per_cluster < 1:
            raise DataError("users_per_cluster and items_per_cluster must be >= 1")
        for name in ("interaction_rate", "intra_social_rate"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise DataError(f"{name} must lie in [0, 1], got {v}")
        if not (0.0 <= self.noise_edge_fraction):
            raise DataError("noise_edge_fraction must be >= 0")
        if self.noise_edge_fraction > 0 and self.cluster_count < 2:
            raise DataError("planting cross-cluster noise needs at least 2 clusters")


class Dataset:
    """Immutable view of a user/item universe with train/test interactions
    and undirected social pairs.

    Users occupy ids [0, user_count), items [0, item_count).  Social pairs are
    stored canonically as (a, b) with a < b, sorted; interactions are sorted
    (user, item) pairs.
    """

    def __init__(self, user_count: int, item_count: int,
                 train: Iterable[Tuple[int, int]],
                 test: Iterable[Tuple[int, int]],
                 social: Iterable[Tuple[int, int]]):
        self.user_count = int(user_count)
        self.item_count = int(item_count)
        self.train_pairs = _as_pair_array(train)
        self.test_pairs = _as_pair_array(test)
        self.social_pairs = _as_pair_array(social)
        self._validate()
        # membership key u * item_count + i, sorted for binary search
        self._train_keys = np.sort(
            self.train_pairs[:, 0].astype(np.int64) * self.item_count
            + self.train_pairs[:, 1])
        self._train_by_user = _group_by_first(self.train_pairs, self.user_count)
        self._test_by_user = _group_by_first(self.test_pairs, self.user_count)

    def _validate(self) -> None:
        for name, pairs, hi in (("train", self.train_pairs, self.item_count),
                                ("test", self.test_pairs, self.item_count)):
            if pairs.size and (pairs[:, 0].min() < 0 or pairs[:, 0].max() >= self.user_count):
                raise DataError(f"{name} interactions reference users outside [0, {self.user_count})")
            if pairs.size and (pairs[:, 1].min() < 0 or pairs[:, 1].max() >= hi):
                raise DataError(f"{name} interactions reference items outside [0, {hi})")
        sp = self.social_pairs
        if sp.size:
            if sp.min() < 0 or sp.max() >= self.user_count:
                raise DataError(f"social pairs reference users outside [0, {self.user_count})")
            if np.any(sp[:, 0] >= sp[:, 1]):
                raise DataError("social pairs must satisfy a < b (no self-loops)")
        if self.train_pairs.size and self.test_pairs.size:
            overlap = np.intersect1d(
                self.train_pairs[:, 0] * self.item_count + self.train_pairs[:, 1],
                self.test_pairs[:, 0] * self.item_count + self.test_pairs[:, 1])
            if overlap.size:
                raise DataError("train and test interactions overlap")

    # -- views ---------------------------------------------------------------

    def train_items_of(self, user: int) -> np.ndarray:
        return self._train_by_user[user]

    def test_items_of(self, user: int) -> np.ndarray:
        return self._test_by_user[user]

    def without_social(self) -> "Dataset":
        """Same interactions, empty social graph (ablation baseline)."""
        return Dataset(self.user_count, self.item_count,
                       self.train_pairs, self.test_pairs, np.empty((0, 2), dtype=np.int64))

    @property
    def node_count(self) -> int:
        return self.user_count + self.item_count


def _as_pair_array(pairs) -> np.ndarray:
    arr = np.asarray(list(pairs) if not isinstance(pairs, np.ndarray) else pairs,
                     dtype=np.int64)
    if arr.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise DataError("edge collection must be a sequence of (int, int) pairs")
    arr = np.unique(arr, axis=0)  # sorts lexicographically and drops duplicates
    return arr


def _group_by_first(pairs: np.ndarray, count: int) -> List[np.ndarray]:
    out = [np.empty(0, dtype=np.int64) for _ in range(count)]
    if pairs.size == 0:
        return out
    # pairs are sorted by user, so contiguous runs slice cleanly
    users, starts = np.unique(pairs[:, 0], return_index=True)
    bounds = np.append(starts, pairs.shape[0])
    for u, lo, hi in zip(users, bounds[:-1], bounds[1:]):
        out[u] = pairs[lo:hi, 1].copy()
    return out


# -- ingestion ---------------------------------------------------------------


def _read_edge_file(path) -> List[Tuple[int, int]]:
    p = Path(path)
    if not p.exists():
        raise DataError(f"missing input file: {p}")
    pairs: List[Tuple[int, int]] = []
    seen = set()
    for lineno, line in enumerate(p.read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ParseError(p, lineno, f"expected two tab-separated integers, got {line!r}")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(p, lineno, f"expected two tab-separated integers, got {line!r}") from None
        if (a, b) not in seen:
            seen.add((a, b))
            pairs.append((a, b))
    if not pairs:
        raise DataError(f"empty input file: {p}")
    return pairs


def _split_per_user(items_by_user: List[List[int]], ratio: float,
                    rng: np.random.Generator):
    train, test = [], []
    for user, items in enumerate(items_by_user):
        if not items:
            continue
        k = max(1, math.floor(ratio * len(items) + _FLOOR_EPS))
        k = min(k, len(items))
        perm = rng.permutation(len(items))
        for idx in perm[:k]:
            train.append((user, items[idx]))
        for idx in perm[k:]:
            test.append((user, items[idx]))
    return train, test


def load_dataset(interactions_path, social_path, split_ratio: float = 0.8,
                 seed: int = 0) -> Dataset:
    """Read the two edge files, re-index densely, split, and symmetrize.

    Dense user ids follow first appearance in the interaction file and then
    the social file; item ids follow first appearance in the interaction file.
    """
    if not (0.0 < split_ratio <= 1.0):
        raise DataError(f"split_ratio must lie in (0, 1], got {split_ratio}")
    inter_raw = _read_edge_file(interactions_path)
    social_raw = _read_edge_file(social_path)

    user_index, item_index = {}, {}
    for u, i in inter_raw:
        if u not in user_index:
            user_index[u] = len(user_index)
        if i not in item_index:
            item_index[i] = len(item_index)
    for a, b in social_raw:
        for raw in (a, b):
            if raw not in user_index:
                user_index[raw] = len(user_index)

    items_by_user: List[List[int]] = [[] for _ in range(len(user_index))]
    for u, i in inter_raw:
        items_by_user[user_index[u]].append(item_index[i])

    rng = np.random.default_rng(seed)
    train, test = _split_per_user(items_by_user, split_ratio, rng)

    social = set()
    for a, b in social_raw:
        da, db = user_index[a], user_index[b]
        if da == db:
            continue  # self-loops carry no information in an undirected graph
        social.add((min(da, db), max(da, db)))

    return Dataset(len(user_index), len(item_index), train, test, sorted(social))


# -- negative sampling -------------------------------------------------------


def sample_batch_arrays(dataset: Dataset, batch_size: int,
                        rng: np.random.Generator):
    """Vectorized batch draw: (users, positives, negatives) int64 arrays.

    Positives are uniform over train interactions; each negative is redrawn
    until it lies outside the user's train set, up to NEGATIVE_RETRY_BOUND
    redraws per slot.
    """
    if dataset.train_pairs.shape[0] == 0:
        raise DataError("cannot sample training triples: train set is empty")
    if batch_size < 1:
        raise DataError(f"batch_size must be >= 1, got {batch_size}")
    idx = rng.integers(0, dataset.train_pairs.shape[0], size=batch_size)
    users = dataset.train_pairs[idx, 0].copy()
    positives = dataset.train_pairs[idx, 1].copy()
    negatives = rng.integers(0, dataset.item_count, size=batch_size)
    keys = dataset._train_keys

    def _is_positive(neg):
        cand = users * dataset.item_count + neg
        pos = np.minimum(np.searchsorted(keys, cand), keys.size - 1)
        return keys[pos] == cand

    for _ in range(NEGATIVE_RETRY_BOUND):
        bad = _is_positive(negatives)
        if not bad.any():
            break
        negatives[bad] = rng.integers(0, dataset.item_count, size=int(bad.sum()))
    if _is_positive(negatives).any():
        raise DataError(
            f"negative sampling failed after {NEGATIVE_RETRY_BOUND} redraws; "
            "some user interacts with nearly every item")
    return users, positives, negatives


# -- synthetic generator -----------------------------------------------------


def generate_synthetic(spec: SyntheticSpec):
    """Clustered dataset with planted cross-cluster social noise.

    Returns (Dataset, noise_labels) where noise_labels is a boolean array
    aligned with dataset.social_pairs: True marks a planted noise edge.
    """
    rng = np.random.default_rng(spec.seed)
    C, U, I = spec.cluster_count, spec.users_per_cluster, spec.items_per_cluster
    M = C * U

    interactions = []
    for u in range(M):
        c = u // U
        hits = np.nonzero(rng.random(I) < spec.interaction_rate)[0]
        for i in hits:
            interactions.append((u, c * I + int(i)))
    if not interactions:
        raise DataError("interaction_rate produced zero interactions; raise it or the sizes")

    genuine = []
    for c in range(C):
        base = c * U
        draws = rng.random((U, U))
        ia, ib = np.triu_indices(U, k=1)
        mask = draws[ia, ib] < spec.intra_social_rate
        for a, b in zip(ia[mask], ib[mask]):
            genuine.append((base + int(a), base + int(b)))

    noise = set()
    target = math.ceil(spec.noise_edge_fraction * len(genuine))
    attempts = 0
    while len(noise) < target:
        attempts += 1
        if attempts > 1000 * max(target, 1):
            raise DataError("could not place the requested number of cross-cluster noise edges")
        a = int(rng.integers(0, M))
        b = int(rng.integers(0, M))
        if a == b or a // U == b // U:
            continue
        noise.add((min(a, b), max(a, b)))

    items_by_user: List[List[int]] = [[] for _ in range(M)]
    for u, i in interactions:
        items_by_user[u].append(i)
    train, test = _split_per_user(items_by_user, 0.8, rng)

    social = sorted(set(genuine) | noise)
    dataset = Dataset(M, C * I, train, test, social)
    labels = np.array([pair in noise for pair in map(tuple, dataset.social_pairs)],
                      dtype=bool)
    return dataset, labels


# -- export ------------------------------------------------------------------


def interactions_text(dataset: Dataset) -> str:
    both = np.vstack([dataset.train_pairs, dataset.test_pairs])
    both = np.unique(both, axis=0)
    return "".join(f"{u}\t{i}\n" for u, i in both)


def social_text(dataset: Dataset) -> str:
    return "".join(f"{a}\t{b}\n" for a, b in dataset.social_pairs)


def noise_labels_text(dataset: Dataset, labels: np.ndarray) -> str:
    if labels.shape[0] != dataset.social_pairs.shape[0]:
        raise DataError("noise label array does not match the social pair count")
    return "".join(f"{a}\t{b}\t{int(flag)}\n"
                   for (a, b), flag in zip(dataset.social_pairs, labels))
