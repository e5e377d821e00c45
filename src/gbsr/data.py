"""Dataset ingestion, splitting, negative sampling, and synthetic generation.

File format for both interaction and social inputs: one edge per line, two
integer ids in the int64 range separated by a tab.  Raw ids are re-indexed
densely in order of first appearance (interaction file first, then the social
file), so arbitrary id spaces within int64 are accepted.  Social edges are
undirected: lines are symmetrized into unordered pairs, duplicates collapse,
self-loops are dropped.

Interactions and social edges stay (n, 2) int64 arrays from the file reader
to the split; a Dataset stores them sorted and read-only, and its per-user
item arrays are views into that storage.  The reader parses a file in one
np.loadtxt call when it can, and line by line with Python's int()
otherwise; only the line loop reports a ParseError, so both give the same
rows and the same errors.  Repeated interaction lines are dropped after the
re-indexing, which moves no id: a repeat's ids appeared on its first copy.

A Dataset orders and deduplicates each pair array by one stable sort of the
int64 key a * width + b (width item_count for interactions, user_count for
social pairs), which is the rows' (a, b) order.  So that every such key fits
int64, user_count + item_count may not exceed MAX_NODES = isqrt(2 ** 63);
larger counts raise DataError before anything sized by them is allocated.

The train/test split is per user: each user's interactions are shuffled and
the first max(1, floor(ratio * n)) go to train, the rest to test.  A user with
a single interaction therefore always keeps it in train, and draws nothing
from the generator.
"""

from __future__ import annotations

import math
import warnings
from pathlib import Path
from typing import Iterable, List, Tuple

import numpy as np

from .config import RunConfig, SyntheticSpec, TrainConfig, check_declared
from .errors import DataError, ParseError, check_number

# negative sampling redraws an item at most this many times per triple
NEGATIVE_RETRY_BOUND = 100

# guards float fuzz in floor(ratio * n): 0.7 * 10 must count as 7, not 6
_FLOOR_EPS = 1e-9

# the most users + items a Dataset holds: every pair key a * width + b with
# a, b below the node count is then below MAX_NODES ** 2 <= 2 ** 63
MAX_NODES = math.isqrt(2 ** 63)


class Dataset:
    """Immutable view of a user/item universe with train/test interactions
    and undirected social pairs.

    Users occupy ids [0, user_count), items [0, item_count).  Social pairs are
    stored canonically as (a, b) with a < b, sorted; interactions are sorted
    (user, item) pairs.  All three pair arrays are read-only, and the per-user
    item arrays are views into them.
    """

    def __init__(self, user_count: int, item_count: int,
                 train: Iterable[Tuple[int, int]],
                 test: Iterable[Tuple[int, int]],
                 social: Iterable[Tuple[int, int]]):
        self.user_count, self.item_count = (
            check_number(name, count, "[0, inf)", integer=True, error=DataError)
            for name, count in (("user_count", user_count), ("item_count", item_count)))
        if self.node_count > MAX_NODES:
            raise DataError(f"user_count {self.user_count} + item_count {self.item_count} "
                            f"exceeds {MAX_NODES} nodes: pair keys would overflow int64")
        train, test, social = (_as_pair_array(p) for p in (train, test, social))
        _validate(self.user_count, self.item_count, train, test, social)
        # membership key u * item_count + i; sorted because the pairs are
        self.train_pairs, self._train_keys = _canonical(train, self.item_count)
        self.test_pairs, test_keys = _canonical(test, self.item_count)
        self.social_pairs, _ = _canonical(social, self.user_count)
        if np.intersect1d(self._train_keys, test_keys, assume_unique=True).size:
            raise DataError("train and test interactions overlap")
        # user u's items are rows [starts[u], starts[u + 1]) of the pair array
        users = np.arange(self.user_count + 1)
        self._train_starts = np.searchsorted(self.train_pairs[:, 0], users)
        self._test_starts = np.searchsorted(self.test_pairs[:, 0], users)

    # -- views ---------------------------------------------------------------

    def train_items_of(self, user: int) -> np.ndarray:
        return self.train_pairs[self._train_starts[user]:self._train_starts[user + 1], 1]

    def test_items_of(self, user: int) -> np.ndarray:
        return self.test_pairs[self._test_starts[user]:self._test_starts[user + 1], 1]

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
    return arr


def _validate(user_count: int, item_count: int, train: np.ndarray,
              test: np.ndarray, social: np.ndarray) -> None:
    """Range checks of the raw pair arrays; neither order nor repeats
    change a verdict."""
    for name, pairs in (("train", train), ("test", test)):
        if pairs.size and (pairs[:, 0].min() < 0 or pairs[:, 0].max() >= user_count):
            raise DataError(f"{name} interactions reference users outside [0, {user_count})")
        if pairs.size and (pairs[:, 1].min() < 0 or pairs[:, 1].max() >= item_count):
            raise DataError(f"{name} interactions reference items outside [0, {item_count})")
    if social.size:
        if social.min() < 0 or social.max() >= user_count:
            raise DataError(f"social pairs reference users outside [0, {user_count})")
        if np.any(social[:, 0] >= social[:, 1]):
            raise DataError("social pairs must satisfy a < b (no self-loops)")


def _canonical(pairs: np.ndarray, width: int) -> Tuple[np.ndarray, np.ndarray]:
    """(distinct rows of an in-range pair array in (a, b) order, read-only,
    and their keys a * width + b)."""
    keys = pairs[:, 0] * width + pairs[:, 1]
    first = _distinct(keys)
    pairs = pairs[first]
    pairs.flags.writeable = False
    return pairs, keys[first]


def _distinct(keys: np.ndarray) -> np.ndarray:
    """Index of each distinct key's first appearance, in increasing key
    order."""
    # a stable sort, so each run of equal keys starts at its first index
    order = np.argsort(keys, kind="stable")
    return order[_run_starts(keys[order])]


def _run_starts(ordered: np.ndarray) -> np.ndarray:
    """True where an entry of a sorted 1-D array differs from the one
    before it."""
    starts = np.ones(ordered.size, dtype=bool)
    starts[1:] = ordered[1:] != ordered[:-1]
    return starts


# -- ingestion ---------------------------------------------------------------

# raw ids must fit int64 (python ints, so the per-line check stays cheap)
_ID_MIN, _ID_MAX = -2 ** 63, 2 ** 63 - 1

# the bytes a file may hold for the vectorized parse: digits, signs, space,
# tab and line ends; anything else (underscores, other whitespace, non-ASCII
# digits) goes to the line loop, which applies int()'s own rules.  Within
# them np.loadtxt rejects what int() rejects or what overflows int64, except
# that some numpy releases parse an overflowing field as a float and only
# warn; _parse_vectorized turns that warning into a fall-back as well
_VECTOR_BYTES = b"0123456789+- \t\r\n"


def _parse_vectorized(text: str, lines: List[str]):
    """The non-blank lines as (n, 2) int64 rows, or None when the line loop
    must decide: bytes outside the vectorized set, no rows, a line
    np.loadtxt rejects, or a row count other than the non-blank lines'."""
    if not text.isascii() or text.encode("ascii").translate(None, _VECTOR_BYTES):
        return None
    count = sum(map(bool, map(str.strip, lines)))
    if count == 0:
        return None
    try:
        # any warning (such as an integer read via a float) means a field
        # np.loadtxt did not parse as int64, whatever the caller's filters
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = np.loadtxt(lines, dtype=np.int64, delimiter="\t", comments=None, ndmin=2)
    except (ValueError, Warning):
        return None
    return rows if rows.shape == (count, 2) else None


def _parse_lines(p: Path, lines: List[str]) -> np.ndarray:
    """The non-blank lines as (n, 2) int64 rows, one line at a time; raises
    ParseError with the number of the first malformed line."""
    values: List[int] = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ParseError(p, lineno, f"expected two tab-separated integers, got {line!r}")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(p, lineno, f"expected two tab-separated integers, got {line!r}") from None
        if not (_ID_MIN <= a <= _ID_MAX and _ID_MIN <= b <= _ID_MAX):
            raise ParseError(p, lineno, f"id outside the int64 range "
                                        f"[{_ID_MIN}, {_ID_MAX}] in {line!r}")
        values += (a, b)
    return np.array(values, dtype=np.int64).reshape(-1, 2)


def _read_edge_file(path, allow_empty: bool = False) -> np.ndarray:
    """The (a, b) rows of an edge file as an (n, 2) int64 array, in file
    order; a file without rows is an error unless allow_empty."""
    p = Path(path)
    if not p.exists():
        raise DataError(f"missing input file: {p}")
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise DataError(f"cannot read input file {p}: {err}") from None
    lines = text.splitlines()
    rows = _parse_vectorized(text, lines)
    if rows is None:
        rows = _parse_lines(p, lines)
    if not (rows.size or allow_empty):
        raise DataError(f"empty input file: {p}")
    return rows


def _first_appearance_ids(raw: np.ndarray) -> Tuple[np.ndarray, int]:
    """Dense ids numbering the distinct values of `raw` in order of first
    appearance, and how many there are."""
    order = np.argsort(raw)
    new_value = _run_starts(raw[order])
    # the sort is unstable, so a value's first index is its run's minimum
    first = np.minimum.reduceat(order, np.flatnonzero(new_value))
    rank = np.empty(first.size, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(first.size)
    ids = np.empty(raw.size, dtype=np.int64)
    ids[order] = rank[np.cumsum(new_value) - 1]
    return ids, first.size


def _split_per_user(pairs: np.ndarray, ratio: float,
                    rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
    """(train, test) rows of a (user, item) pair array.

    Each user's items keep their order in `pairs`; users with two or more
    items draw one shuffle each, in increasing user order, the same draws
    as rng.permutation of their item count.
    """
    pairs = pairs[np.argsort(pairs[:, 0], kind="stable")]
    starts = np.flatnonzero(_run_starts(pairs[:, 0]))
    counts = np.diff(starts, append=pairs.shape[0])
    keep = np.minimum(np.maximum(1, np.floor(ratio * counts + _FLOOR_EPS)), counts)
    # user u owns slots starts[u] .. starts[u] + counts[u] - 1; its shuffle
    # permutes the row indices held there, and the rows in its first
    # keep[u] slots go to train
    slots = np.arange(pairs.shape[0])
    for lo, n in zip(starts[counts > 1].tolist(), counts[counts > 1].tolist()):
        rng.shuffle(slots[lo:lo + n])
    rank = np.arange(pairs.shape[0]) - np.repeat(starts, counts)
    in_train = np.zeros(pairs.shape[0], dtype=bool)
    in_train[slots[rank < np.repeat(keep, counts)]] = True
    return pairs[in_train], pairs[~in_train]


def load_dataset(interactions_path, social_path, split_ratio: float = RunConfig.split_ratio,
                 seed: int = TrainConfig.seed) -> Dataset:
    """Read the two edge files, re-index densely, split, and symmetrize.

    Dense user ids follow first appearance in the interaction file and then
    the social file; item ids follow first appearance in the interaction file.
    """
    split_ratio = check_declared(RunConfig, "split_ratio", split_ratio, error=DataError)
    seed = check_declared(TrainConfig, "seed", seed, error=DataError)
    inter_raw = _read_edge_file(interactions_path)
    # an empty social file is the social-free graph
    social_raw = _read_edge_file(social_path, allow_empty=True)

    n_inter = inter_raw.shape[0]
    user_ids, user_count = _first_appearance_ids(
        np.concatenate([inter_raw[:, 0], social_raw.ravel()]))
    item_ids, item_count = _first_appearance_ids(inter_raw[:, 1])
    inter = np.stack([user_ids[:n_inter], item_ids], axis=1)
    # a repeated interaction would change its user's split.  A repeated
    # line's ids appeared on its first copy, so dropping it after the
    # re-indexing moves no id; `Dataset` collapses repeated social pairs
    # once they are oriented
    inter = inter[np.sort(_distinct(inter[:, 0] * item_count + inter[:, 1]))]

    rng = np.random.default_rng(seed)
    train, test = _split_per_user(inter, split_ratio, rng)

    social = np.sort(user_ids[n_inter:].reshape(-1, 2), axis=1)
    # self-loops carry no information in an undirected graph
    social = social[social[:, 0] != social[:, 1]]
    return Dataset(user_count, item_count, train, test, social)


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
    batch_size = check_declared(TrainConfig, "batch_size", batch_size, error=DataError)
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

    hit = rng.random((M, I)) < spec.interaction_rate
    users, items = np.nonzero(hit)
    if users.size == 0:
        raise DataError("interaction_rate produced zero interactions; raise it or the sizes")
    interactions = np.stack([users, users // U * I + items], axis=1)

    ia, ib = np.triu_indices(U, k=1)
    upper = np.stack([ia, ib], axis=1)
    genuine = np.concatenate([
        c * U + upper[rng.random((U, U))[ia, ib] < spec.intra_social_rate]
        for c in range(C)])

    target = math.ceil(spec.noise_edge_fraction * genuine.shape[0])
    cross = M * (M - 1) // 2 - C * (U * (U - 1) // 2)
    if target > cross:
        raise DataError(f"could not place {target} cross-cluster noise edges: only "
                        f"{cross} cross-cluster pairs exist")
    # the target fits, so rejection sampling ends
    noise = set()
    while len(noise) < target:
        a = int(rng.integers(0, M))
        b = int(rng.integers(0, M))
        if a == b or a // U == b // U:
            continue
        noise.add((min(a, b), max(a, b)))
    noise = np.array(list(noise), dtype=np.int64).reshape(-1, 2)

    train, test = _split_per_user(interactions, 0.8, rng)
    dataset = Dataset(M, C * I, train, test, np.concatenate([genuine, noise]))
    sp = dataset.social_pairs
    labels = np.isin(sp[:, 0] * M + sp[:, 1], noise[:, 0] * M + noise[:, 1])
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
