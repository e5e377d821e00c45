"""Ingestion, splitting, sampling, and synthetic-generation contracts."""

import warnings

import numpy as np
import pytest

from gbsr import data
from gbsr.data import (NEGATIVE_RETRY_BOUND, Dataset, SyntheticSpec,
                       generate_synthetic, interactions_text, load_dataset,
                       noise_labels_text, sample_batch_arrays, social_text)
from gbsr.errors import DataError, ParseError


def write_edges(path, pairs):
    path.write_text("".join(f"{a}\t{b}\n" for a, b in pairs), encoding="utf-8")


@pytest.fixture
def simple_files(tmp_path):
    inter = tmp_path / "inter.tsv"
    social = tmp_path / "social.tsv"
    write_edges(inter, [(10, 100), (10, 101), (20, 100), (30, 102), (20, 103)])
    write_edges(social, [(10, 20), (20, 30), (40, 10)])
    return inter, social


class TestLoadDataset:
    def test_dense_reindex_in_appearance_order(self, simple_files):
        ds = load_dataset(*simple_files, split_ratio=1.0, seed=0)
        # users: 10 -> 0, 20 -> 1, 30 -> 2, then 40 (social only) -> 3
        assert ds.user_count == 4
        # items: 100 -> 0, 101 -> 1, 102 -> 2, 103 -> 3
        assert ds.item_count == 4
        assert set(map(tuple, ds.train_pairs)) == {(0, 0), (0, 1), (1, 0), (2, 2), (1, 3)}

    def test_social_symmetrized_and_sorted(self, simple_files):
        ds = load_dataset(*simple_files, seed=0)
        assert ds.social_pairs.tolist() == [[0, 1], [0, 3], [1, 2]]

    def test_directed_duplicate_collapses(self, tmp_path):
        inter = tmp_path / "i.tsv"
        social = tmp_path / "s.tsv"
        write_edges(inter, [(1, 5)])
        write_edges(social, [(1, 2), (2, 1), (1, 2)])
        ds = load_dataset(inter, social, seed=0)
        assert ds.social_pairs.tolist() == [[0, 1]]

    def test_self_loop_social_dropped(self, tmp_path):
        inter = tmp_path / "i.tsv"
        social = tmp_path / "s.tsv"
        write_edges(inter, [(1, 5)])
        write_edges(social, [(1, 1), (1, 2)])
        ds = load_dataset(inter, social, seed=0)
        assert ds.social_pairs.tolist() == [[0, 1]]

    def test_duplicate_interactions_collapse(self, tmp_path):
        inter = tmp_path / "i.tsv"
        social = tmp_path / "s.tsv"
        write_edges(inter, [(1, 5), (1, 5), (1, 5), (2, 5)])
        write_edges(social, [(1, 2)])
        ds = load_dataset(inter, social, split_ratio=1.0, seed=0)
        assert ds.train_pairs.shape[0] == 2

    def test_crlf_lines_accepted(self, tmp_path):
        inter = tmp_path / "i.tsv"
        social = tmp_path / "s.tsv"
        inter.write_bytes(b"1\t5\r\n2\t6\r\n")
        write_edges(social, [(1, 2)])
        ds = load_dataset(inter, social, split_ratio=1.0, seed=0)
        assert ds.train_pairs.shape[0] == 2

    def test_malformed_line_reports_number(self, tmp_path):
        inter = tmp_path / "i.tsv"
        social = tmp_path / "s.tsv"
        inter.write_text("1\t5\nnot-a-pair\n", encoding="utf-8")
        write_edges(social, [(1, 2)])
        with pytest.raises(ParseError, match=r"i\.tsv:2"):
            load_dataset(inter, social)

    def test_three_fields_is_malformed(self, tmp_path):
        inter = tmp_path / "i.tsv"
        social = tmp_path / "s.tsv"
        inter.write_text("1\t5\t9\n", encoding="utf-8")
        write_edges(social, [(1, 2)])
        with pytest.raises(ParseError, match=r"i\.tsv:1"):
            load_dataset(inter, social)

    def test_empty_file_rejected(self, tmp_path):
        inter = tmp_path / "i.tsv"
        social = tmp_path / "s.tsv"
        inter.write_text("", encoding="utf-8")
        write_edges(social, [(1, 2)])
        with pytest.raises(DataError, match="empty"):
            load_dataset(inter, social)

    def test_missing_file_names_path(self, tmp_path):
        social = tmp_path / "s.tsv"
        write_edges(social, [(1, 2)])
        with pytest.raises(DataError, match="nowhere"):
            load_dataset(tmp_path / "nowhere.tsv", social)

    def test_ids_must_fit_int64(self, tmp_path):
        inter = tmp_path / "i.tsv"
        social = tmp_path / "s.tsv"
        lo, hi = -2 ** 63, 2 ** 63 - 1
        write_edges(inter, [(lo, hi), (hi, lo)])
        write_edges(social, [(lo, hi)])
        ds = load_dataset(inter, social, split_ratio=1.0, seed=0)
        assert (ds.user_count, ds.item_count) == (2, 2)
        for bad in (hi + 1, lo - 1):
            write_edges(inter, [(1, 5), (1, bad)])
            with pytest.raises(ParseError, match=r"i\.tsv:2: id outside the int64 range"):
                load_dataset(inter, social)

    def test_bad_split_ratio(self, simple_files):
        with pytest.raises(DataError):
            load_dataset(*simple_files, split_ratio=0.0)
        with pytest.raises(DataError):
            load_dataset(*simple_files, split_ratio=1.5)


def reference_load(inter_lines, social_lines, ratio, seed):
    """load_dataset's contract replayed with dicts and per-user loops."""
    users, items = {}, {}
    inter = list(dict.fromkeys(inter_lines))  # distinct lines, first appearance
    for u, i in inter:
        users.setdefault(u, len(users))
        items.setdefault(i, len(items))
    for a, b in social_lines:
        users.setdefault(a, len(users))
        users.setdefault(b, len(users))
    by_user = [[] for _ in users]
    for u, i in inter:
        by_user[users[u]].append(items[i])
    rng = np.random.default_rng(seed)
    train, test = [], []
    for u, its in enumerate(by_user):
        if not its:
            continue
        k = min(max(1, int(np.floor(ratio * len(its) + 1e-9))), len(its))
        perm = rng.permutation(len(its))
        train += [[u, its[j]] for j in perm[:k]]
        test += [[u, its[j]] for j in perm[k:]]
    social = {tuple(sorted((users[a], users[b]))) for a, b in social_lines
              if users[a] != users[b]}
    return len(users), len(items), sorted(train), sorted(test), sorted(map(list, social))


class TestReferenceLoad:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("ratio", [0.5, 0.8, 1.0])
    def test_messy_input_matches_reference(self, tmp_path, seed, ratio):
        r = np.random.default_rng(seed)
        ids = [-7, -1, 0, 3, 10 ** 13, -(10 ** 13), 2 ** 62]
        # duplicate lines, negative and huge ids
        inter = [(int(r.choice(ids)), int(r.choice([-2, 0, 9, 10 ** 12])))
                 for _ in range(40)]
        # users only in the social file, reversed and self-loop lines
        social = [(int(r.choice(ids + [-99, 555])), int(r.choice(ids + [-99, 555])))
                  for _ in range(25)]
        social += [(b, a) for a, b in social[:5]] + [(555, 555), (-99, 4242)]
        write_edges(tmp_path / "i.tsv", inter)
        write_edges(tmp_path / "s.tsv", social)
        ds = load_dataset(tmp_path / "i.tsv", tmp_path / "s.tsv",
                          split_ratio=ratio, seed=seed)
        users, items, train, test, soc = reference_load(inter, social, ratio, seed)
        assert (ds.user_count, ds.item_count) == (users, items)
        assert ds.train_pairs.tolist() == train
        assert ds.test_pairs.tolist() == test
        assert ds.social_pairs.tolist() == soc
        for u in range(users):
            assert ds.train_items_of(u).tolist() == [i for v, i in train if v == u]
            assert ds.test_items_of(u).tolist() == [i for v, i in test if v == u]


def line_loop(text):
    """An edge file read one line at a time with Python's int(): its rows,
    or the number of its first malformed line."""
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            a, b = (int(field) for field in line.split("\t"))
        except ValueError:
            return lineno
        if not all(-2 ** 63 <= v < 2 ** 63 for v in (a, b)):
            return lineno
        rows.append((a, b))
    return rows


# interaction file contents; the vectorized parse must take the cases in
# VECTORIZED and leave the rest to the line loop
INGEST_CASES = {
    "hash_line": "1\t5\n# comment\n2\t6\n",
    "hash_after_value": "1\t5 # note\n",
    "plus_sign": "+3\t5\n1\t+6\n",
    "underscore": "1_0\t5\n2\t6\n",
    "padded_spaces": " 3 \t  5\n2\t6 \n  -4\t 7\n",
    "trailing_tab": "1\t5\n2\t6\t\n",
    "one_column": "1\n2\n",
    "overflow": "1\t5\n9223372036854775808\t6\n",
    "negative_overflow": "1\t-9223372036854775809\n",
    "int64_extremes": "-9223372036854775808\t9223372036854775807\n",
    "float": "1\t5\n1.0\t6\n",
    "form_feed_break": "1\t5\x0c2\t6\n",
    "form_feed_trailing": "1\t5\x0c\n2\t6\n",
    "vertical_tab_break": "1\x0b\t5\n",
    "unit_separator": "1\x1f\t5\n",
    "no_break_space": "\xa01\t5\n",
    "arabic_indic_digit": "\u0661\t5\n",
    "crlf": "1\t5\r\n2\t6\r\n",
    "cr_only": "1\t5\r2\t6\r",
    "empty_lines": "\n\n1\t5\n\n2\t6\n\n",
    "blank_lines": "1\t5\n  \n\t\n2\t6\n",
    "duplicates": "1\t5\n2\t6\n1\t5\n2\t6\n3\t5\n",
}
VECTORIZED = {"plus_sign", "padded_spaces", "int64_extremes", "crlf", "cr_only",
              "empty_lines", "duplicates"}


class TestIngestionPaths:
    @pytest.mark.parametrize("name", sorted(INGEST_CASES))
    def test_matches_line_loop(self, tmp_path, name):
        text = INGEST_CASES[name]
        inter, social = tmp_path / "i.tsv", tmp_path / "s.tsv"
        inter.write_bytes(text.encode("utf-8"))
        write_edges(social, [(1, 2)])
        want = line_loop(text)
        if isinstance(want, int):
            with pytest.raises(ParseError, match=rf"i\.tsv:{want}: "):
                load_dataset(inter, social, split_ratio=1.0, seed=0)
        else:
            ds = load_dataset(inter, social, split_ratio=1.0, seed=0)
            users, items, train, test, soc = reference_load(want, [(1, 2)], 1.0, 0)
            assert (ds.user_count, ds.item_count) == (users, items)
            assert ds.train_pairs.tolist() == train and test == []
            assert ds.social_pairs.tolist() == soc

        fast = data._parse_vectorized(text, text.splitlines())
        assert (fast is not None) == (name in VECTORIZED)
        if fast is not None:
            assert fast.tolist() == [list(row) for row in want]

    # python ignores DeprecationWarning outside __main__, so the command line
    # runs with the "ignore" filter, not the suite's "error"
    @pytest.mark.filterwarnings("ignore")
    @pytest.mark.parametrize("name", ["overflow", "negative_overflow"])
    def test_overflow_is_parse_error_when_warnings_are_ignored(self, tmp_path, name):
        inter, social = tmp_path / "i.tsv", tmp_path / "s.tsv"
        inter.write_text(INGEST_CASES[name])
        write_edges(social, [(1, 2)])
        with pytest.raises(ParseError, match=r"id outside the int64 range"):
            load_dataset(inter, social)

    @pytest.mark.filterwarnings("ignore")
    def test_loadtxt_warning_sends_file_to_line_loop(self, tmp_path, monkeypatch):
        # numpy releases that read an overflowing integer through a float
        # warn and return a wrapped value; the loader must not keep it
        def loadtxt_via_float(*args, **kwargs):
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated",
                          DeprecationWarning)
            return np.array([[1, 5], [-2 ** 63, 6]], dtype=np.int64)

        monkeypatch.setattr(np, "loadtxt", loadtxt_via_float)
        text = INGEST_CASES["overflow"]
        assert data._parse_vectorized(text, text.splitlines()) is None
        inter, social = tmp_path / "i.tsv", tmp_path / "s.tsv"
        inter.write_text(text)
        write_edges(social, [(1, 2)])
        with pytest.raises(ParseError, match=r"i\.tsv:2: id outside the int64 range"):
            load_dataset(inter, social)

    def test_distinct_rows_keep_first_appearance(self, tmp_path):
        rows = [(5, 1), (2, 9), (5, 1), (-3, 4), (2, 9), (2, 8), (-3, 4)]
        write_edges(tmp_path / "i.tsv", rows)
        np.testing.assert_array_equal(data._read_edge_file(tmp_path / "i.tsv"),
                                      list(dict.fromkeys(rows)))


class TestSplit:
    def _make(self, tmp_path, n_items, ratio, seed=0):
        inter = tmp_path / "i.tsv"
        social = tmp_path / "s.tsv"
        write_edges(inter, [(1, i) for i in range(n_items)] + [(2, 0)])
        write_edges(social, [(1, 2)])
        return load_dataset(inter, social, split_ratio=ratio, seed=seed)

    def test_eighty_twenty_on_ten(self, tmp_path):
        ds = self._make(tmp_path, 10, 0.8)
        assert ds.train_items_of(0).size == 8
        assert ds.test_items_of(0).size == 2

    def test_floor_fuzz_seven_tenths(self, tmp_path):
        # 0.7 * 10 must floor to 7, not 6
        ds = self._make(tmp_path, 10, 0.7)
        assert ds.train_items_of(0).size == 7

    def test_single_interaction_stays_in_train(self, tmp_path):
        ds = self._make(tmp_path, 1, 0.8)
        assert ds.train_items_of(0).size == 1
        assert ds.test_items_of(0).size == 0

    def test_partition_exact(self, tmp_path):
        ds = self._make(tmp_path, 37, 0.8, seed=3)
        train = set(map(tuple, ds.train_pairs))
        test = set(map(tuple, ds.test_pairs))
        assert not (train & test)
        assert {(u, i) for u, i in train | test if u == 0} == {(0, i) for i in range(37)}

    def test_same_seed_same_split(self, tmp_path):
        a = self._make(tmp_path, 20, 0.8, seed=9)
        b = self._make(tmp_path, 20, 0.8, seed=9)
        assert np.array_equal(a.train_pairs, b.train_pairs)
        assert np.array_equal(a.test_pairs, b.test_pairs)

    def test_different_seed_different_split(self, tmp_path):
        a = self._make(tmp_path, 20, 0.8, seed=1)
        b = self._make(tmp_path, 20, 0.8, seed=2)
        assert not np.array_equal(a.train_pairs, b.train_pairs)


class TestDatasetValidation:
    def test_out_of_range_user(self):
        with pytest.raises(DataError):
            Dataset(2, 2, [(5, 0)], [], [])

    def test_out_of_range_item(self):
        with pytest.raises(DataError):
            Dataset(2, 2, [(0, 7)], [], [])

    def test_train_test_overlap(self):
        with pytest.raises(DataError, match="overlap"):
            Dataset(2, 2, [(0, 0)], [(0, 0)], [])

    def test_social_self_loop_rejected(self):
        with pytest.raises(DataError):
            Dataset(2, 2, [(0, 0)], [], [(1, 1)])

    def test_storage_is_read_only(self, tiny_dataset):
        for view in (tiny_dataset.train_pairs, tiny_dataset.test_pairs,
                     tiny_dataset.social_pairs, tiny_dataset.train_items_of(0),
                     tiny_dataset.test_items_of(1)):
            with pytest.raises(ValueError, match="read-only"):
                view[...] = 0

    def test_without_social(self, tiny_dataset):
        bare = tiny_dataset.without_social()
        assert bare.social_pairs.shape == (0, 2)
        assert np.array_equal(bare.train_pairs, tiny_dataset.train_pairs)


class TestSampling:
    def test_triples_avoid_train_items(self, tiny_dataset):
        rng = np.random.default_rng(0)
        train = set(map(tuple, tiny_dataset.train_pairs.tolist()))
        for _ in range(50):
            users, pos, neg = sample_batch_arrays(tiny_dataset, 16, rng)
            for u, p, n in zip(users.tolist(), pos.tolist(), neg.tolist()):
                assert (u, n) not in train
                assert (u, p) in train

    def test_fixed_seed_reproduces_batches(self, tiny_dataset):
        a = sample_batch_arrays(tiny_dataset, 8, np.random.default_rng(4))
        b = sample_batch_arrays(tiny_dataset, 8, np.random.default_rng(4))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_positives_uniform_over_train(self, tiny_dataset):
        rng = np.random.default_rng(1)
        users, pos, _ = sample_batch_arrays(tiny_dataset, 4000, rng)
        seen = set(zip(users.tolist(), pos.tolist()))
        assert seen == set(map(tuple, tiny_dataset.train_pairs))

    def test_user_with_every_item_errors(self):
        ds = Dataset(1, 2, [(0, 0), (0, 1)], [], [])
        with pytest.raises(DataError, match=str(NEGATIVE_RETRY_BOUND)):
            sample_batch_arrays(ds, 4, np.random.default_rng(0))

    def test_empty_train_errors(self):
        ds = Dataset(2, 2, [], [], [(0, 1)])
        with pytest.raises(DataError):
            sample_batch_arrays(ds, 4, np.random.default_rng(0))

    def test_bad_batch_size(self, tiny_dataset):
        with pytest.raises(DataError):
            sample_batch_arrays(tiny_dataset, 0, np.random.default_rng(0))


class TestSynthetic:
    def test_structure_invariants(self, small_synthetic):
        ds, labels = small_synthetic
        U = 12
        assert ds.user_count == 24 and ds.item_count == 20
        for (a, b), noisy in zip(ds.social_pairs, labels):
            same_cluster = (a // U) == (b // U)
            assert noisy != same_cluster  # noise crosses clusters, genuine never
        for u, i in np.vstack([ds.train_pairs, ds.test_pairs]):
            assert u // U == i // 10  # interactions stay inside the cluster

    def test_noise_count_is_ceil_of_fraction(self):
        spec = SyntheticSpec(2, 10, 8, 0.5, 0.4, 0.3, seed=5)
        ds, labels = generate_synthetic(spec)
        genuine = int((~labels).sum())
        assert int(labels.sum()) == int(np.ceil(0.3 * genuine))

    def test_same_seed_reproduces(self):
        spec = SyntheticSpec(2, 10, 8, 0.5, 0.4, 0.5, seed=5)
        a, la = generate_synthetic(spec)
        b, lb = generate_synthetic(spec)
        assert np.array_equal(a.train_pairs, b.train_pairs)
        assert np.array_equal(a.social_pairs, b.social_pairs)
        assert np.array_equal(la, lb)

    def test_seeds_vary_edges_but_not_scale(self):
        # edge sets differ across seeds; counts stay near binomial expectation
        specs = [SyntheticSpec(2, 10, 20, 0.3, 0.25, 0.0, seed=s) for s in range(20)]
        results = [generate_synthetic(s) for s in specs]
        inter_counts = [d.train_pairs.shape[0] + d.test_pairs.shape[0] for d, _ in results]
        social_counts = [d.social_pairs.shape[0] for d, _ in results]
        edge_sets = {tuple(map(tuple, d.social_pairs)) for d, _ in results}
        assert len(edge_sets) == 20
        mean_inter = 20 * 20 * 0.3      # users * items_per_cluster * rate
        mean_social = 2 * 45 * 0.25     # clusters * C(10,2) * rate
        sd_inter = np.sqrt(20 * 20 * 0.3 * 0.7)
        sd_social = np.sqrt(2 * 45 * 0.25 * 0.75)
        assert abs(np.mean(inter_counts) - mean_inter) < 4 * sd_inter / np.sqrt(20)
        assert abs(np.mean(social_counts) - mean_social) < 4 * sd_social / np.sqrt(20)

    def test_zero_interactions_rejected(self):
        spec = SyntheticSpec(2, 3, 3, 0.0, 0.5, 0.0, seed=0)
        with pytest.raises(DataError, match="zero interactions"):
            generate_synthetic(spec)

    def test_noise_needs_two_clusters(self):
        with pytest.raises(DataError, match="clusters"):
            SyntheticSpec(1, 5, 5, 0.5, 0.5, 0.5, seed=0)

    def test_rate_bounds_validated(self):
        with pytest.raises(DataError):
            SyntheticSpec(2, 5, 5, 1.5, 0.5, 0.5, seed=0)

    def test_export_round_trip_bytes(self, tmp_path, small_synthetic):
        ds, labels = small_synthetic
        t1 = interactions_text(ds), social_text(ds), noise_labels_text(ds, labels)
        t2 = interactions_text(ds), social_text(ds), noise_labels_text(ds, labels)
        assert t1 == t2
        inter = tmp_path / "i.tsv"
        social = tmp_path / "s.tsv"
        inter.write_text(t1[0], encoding="utf-8")
        social.write_text(t1[1], encoding="utf-8")
        ds2 = load_dataset(inter, social, seed=0)
        assert ds2.user_count == ds.user_count
        assert ds2.item_count == ds.item_count
        # the loader relabels ids by first appearance; recover both maps from
        # the text itself and compare under them
        umap, imap = {}, {}
        for line in t1[0].splitlines():
            u, i = line.split("\t")
            umap.setdefault(int(u), len(umap))
            imap.setdefault(int(i), len(imap))
        for line in t1[1].splitlines():
            for u in line.split("\t"):
                umap.setdefault(int(u), len(umap))
        ulut = np.array([umap[u] for u in range(ds.user_count)])
        ilut = np.array([imap[i] for i in range(ds.item_count)])

        def canon(pairs, lu, li):
            m = np.stack([lu[pairs[:, 0]], li[pairs[:, 1]]], axis=1)
            return m[np.lexsort((m[:, 1], m[:, 0]))]

        soc = np.sort(np.stack([ulut[ds.social_pairs[:, 0]],
                                ulut[ds.social_pairs[:, 1]]], axis=1), axis=1)
        soc = soc[np.lexsort((soc[:, 1], soc[:, 0]))]
        assert np.array_equal(soc, ds2.social_pairs)
        both = np.vstack([ds.train_pairs, ds.test_pairs])
        both2 = np.unique(np.vstack([ds2.train_pairs, ds2.test_pairs]), axis=0)
        assert np.array_equal(canon(both, ulut, ilut), both2)
