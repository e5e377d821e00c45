"""Full-ranking metrics: hand cases, tie rules, and a sort-based oracle."""

import json
import math

import numpy as np
import pytest

from gbsr import evaluation
from gbsr.backbone import NodeRepresentations
from gbsr.data import Dataset
from gbsr.errors import DataError
from gbsr.evaluation import MetricsReport, evaluate, rank_user


def reps_from(readout, user_count):
    readout = np.asarray(readout, dtype=np.float64)
    return NodeRepresentations([readout], readout, user_count)


def one_user(item_scores, train=(), test=()):
    """1 user whose item scores are exactly `item_scores`."""
    n = len(item_scores)
    readout = np.zeros((1 + n, 2))
    readout[0] = [1.0, 0.0]
    for i, s in enumerate(item_scores):
        readout[1 + i] = [s, 0.0]
    ds = Dataset(1, n, [(0, i) for i in train], [(0, i) for i in test], [])
    return reps_from(readout, 1), ds


def reps_for_scores(scores):
    """Readout whose item block is the identity, so that user u scores item i
    exactly scores[u, i] in any summation order."""
    M, N = scores.shape
    return reps_from(np.vstack([scores, np.eye(N)]), M)


def sorted_top(scores, dataset, user, cutoff):
    train = set(dataset.train_items_of(user).tolist())
    candidates = [i for i in range(dataset.item_count) if i not in train]
    return sorted(candidates, key=lambda i: (-scores[user, i], i))[:cutoff]


def reference_metrics(scores, dataset, cutoffs):
    """Mean Recall/NDCG per cutoff, accumulated user by user with explicit
    `+=` loops: builtin sum() compensates float rounding from Python 3.12 on,
    so only plain loops give one reference on every version."""
    cutoffs = list(dict.fromkeys(cutoffs))
    recall = {n: 0.0 for n in cutoffs}
    ndcg = {n: 0.0 for n in cutoffs}
    users = 0
    for u in range(dataset.user_count):
        test = set(dataset.test_items_of(u).tolist())
        if not test:
            continue
        top = sorted_top(scores, dataset, u, max(cutoffs))
        for n in cutoffs:
            hits, dcg, idcg = 0, 0.0, 0.0
            for p, item in enumerate(top[:n]):
                if item in test:
                    hits += 1
                    dcg += 1.0 / math.log2(p + 2)
            for p in range(min(n, len(test))):
                idcg += 1.0 / math.log2(p + 2)
            recall[n] += hits / len(test)
            ndcg[n] += dcg / idcg
        users += 1
    return ({n: v / users for n, v in recall.items()},
            {n: v / users for n, v in ndcg.items()}, users)


class TestHandCases:
    def test_ndcg_second_position(self):
        # test item lands at rank 2 of 3: DCG = 1/log2(3), IDCG = 1
        reps, ds = one_user([0.5, 0.9, 0.2], test=[0])
        report = evaluate(reps, ds, cutoffs=(1, 3))
        assert report.recall[3] == 1.0
        assert report.ndcg[3] == pytest.approx(1.0 / math.log2(3.0), abs=1e-12)
        assert report.recall[1] == 0.0 and report.ndcg[1] == 0.0
        assert report.evaluated_user_count == 1

    def test_perfect_ranking(self):
        reps, ds = one_user([0.9, 0.5, 0.2], test=[0])
        report = evaluate(reps, ds, cutoffs=(1,))
        assert report.recall[1] == 1.0 and report.ndcg[1] == 1.0

    def test_idcg_truncates_at_cutoff(self):
        # 3 test items, cutoff 2, top 2 both hits:
        # DCG = 1 + 1/log2(3) = IDCG(2), so NDCG = 1 while recall = 2/3
        reps, ds = one_user([0.9, 0.8, 0.7, 0.1], test=[0, 1, 2])
        report = evaluate(reps, ds, cutoffs=(2,))
        assert report.recall[2] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert report.ndcg[2] == pytest.approx(1.0, abs=1e-12)

    def test_train_items_never_ranked(self):
        # the top-scoring item is in train, so it must not appear at all
        reps, ds = one_user([0.5, 0.9, 0.2], train=[1], test=[0])
        top = rank_user(reps, ds, 0, 10)
        assert top.tolist() == [0, 2]
        report = evaluate(reps, ds, cutoffs=(1,))
        assert report.recall[1] == 1.0

    def test_ties_break_to_smaller_id(self):
        reps, ds = one_user([0.4, 0.4, 0.4], test=[2])
        assert rank_user(reps, ds, 0, 3).tolist() == [0, 1, 2]
        report = evaluate(reps, ds, cutoffs=(2,))
        assert report.recall[2] == 0.0

    def test_duplicate_cutoff_counts_once(self):
        reps, ds = one_user([0.9, 0.5, 0.2], test=[0, 2])
        assert evaluate(reps, ds, cutoffs=(2, 2)) == evaluate(reps, ds, cutoffs=(2,))

    def test_user_average(self):
        # two users, one ranked perfectly, one at rank 2 of 2
        readout = np.zeros((4, 2))
        readout[0] = [1.0, 0.0]   # user 0
        readout[1] = [0.0, 1.0]   # user 1
        readout[2] = [0.9, 0.1]   # item 0
        readout[3] = [0.1, 0.9]   # item 1
        ds = Dataset(2, 2, [], [(0, 0), (1, 0)], [])
        report = evaluate(reps_from(readout, 2), ds, cutoffs=(1, 2))
        # user 0 hits item 0 at rank 1; user 1 ranks item 1 first
        assert report.recall[1] == 0.5
        assert report.ndcg[2] == pytest.approx((1.0 + 1.0 / math.log2(3.0)) / 2.0,
                                               abs=1e-12)
        assert report.evaluated_user_count == 2


class TestAgainstSortOracle:
    def test_random_instances_with_forced_ties(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            M, N = int(rng.integers(1, 5)), int(rng.integers(3, 12))
            # low-resolution scores force frequent exact ties
            readout = np.vstack([
                np.eye(1, 3, 0).repeat(M, axis=0),
                np.hstack([rng.integers(0, 3, size=(N, 1)) / 2.0,
                           np.zeros((N, 2))])])
            train = sorted({(u, int(rng.integers(0, N)))
                            for u in range(M) if rng.uniform() < 0.5})
            ds = Dataset(M, N, train, [], [])
            reps = reps_from(readout, M)
            for u in range(M):
                got = rank_user(reps, ds, u, int(rng.integers(1, N + 2)))
                scores = readout[M:, 0]
                cand = [i for i in range(N)
                        if i not in set(ds.train_items_of(u).tolist())]
                want = sorted(cand, key=lambda i: (-scores[i], i))
                assert got.tolist() == want[:len(got)]
                assert len(got) == min(len(want), len(got))

    def test_recall_monotone_in_cutoff(self):
        rng = np.random.default_rng(29)
        readout = rng.standard_normal((12, 4))
        ds = Dataset(4, 8, [(u, u) for u in range(4)],
                     [(u, u + 4) for u in range(4)], [])
        report = evaluate(reps_from(readout, 4), ds, cutoffs=(1, 3, 8))
        assert report.recall[1] <= report.recall[3] <= report.recall[8]
        assert report.recall[8] == 1.0  # cutoff covers every candidate


class TestBlockedRanking:
    """Blocks of 1, 2 and 3 users against an exhaustive sort."""

    @staticmethod
    def instance(rng, items):
        M, N = int(rng.integers(5, 10)), int(rng.integers(*items))
        # a coarse grid puts exact ties on the k-th best score
        scores = rng.integers(0, 4, size=(M, N)) * 0.5
        train, test = [], []
        for u in range(M):
            items = rng.permutation(N)
            # no train items for the first and last user and at random; every
            # item in train for some users
            kind = 0 if u in (0, M - 1) else int(rng.integers(0, 3))
            k_train = (0, N, int(rng.integers(1, N)))[kind]
            k_test = int(rng.integers(1 if u == 0 else 0, N - k_train + 1))
            train += [(u, int(i)) for i in items[:k_train]]
            test += [(u, int(i)) for i in items[k_train:k_train + k_test]]
        return scores, Dataset(M, N, train, test, [])

    # 3-8 items, or 40-64 items on the same 4-value grid: ~10-16 candidates
    # tied on every score, ordered by item id only through the stable sort
    @pytest.mark.parametrize("block_users, items", [
        *(pytest.param(b, (3, 9), id=str(b)) for b in (1, 2, 3)),
        *(pytest.param(b, (40, 65), id=f"{b}-wide") for b in (1, 2, 3))])
    def test_against_exhaustive_sort(self, block_users, items, monkeypatch):
        blocks = []
        ranked_block = evaluation._ranked_block

        def spy(readout, dataset, lo, hi, cutoff, *buffers):
            blocks.append(hi - lo)
            return ranked_block(readout, dataset, lo, hi, cutoff, *buffers)

        monkeypatch.setattr(evaluation, "_ranked_block", spy)
        rng = np.random.default_rng(100 + block_users)
        for _ in range(40):
            scores, ds = self.instance(rng, items)
            M, N = scores.shape
            budget = block_users * 8 * N
            monkeypatch.setattr(evaluation, "SCORE_BLOCK_BYTES", budget)
            blocks.clear()
            c = int(rng.integers(1, N + 1))
            # a cutoff beyond the item count, and a duplicate
            cutoffs = (c, N + 2, c)
            reps = reps_for_scores(scores)
            got = evaluate(reps, ds, cutoffs)
            assert max(blocks) <= budget // (8 * N)
            assert sum(blocks) == M
            recall, ndcg, users = reference_metrics(scores, ds, cutoffs)
            assert got.recall == recall and got.ndcg == ndcg
            assert got.evaluated_user_count == users
            for u in range(M):
                for n in (c, N + 2):
                    assert rank_user(reps, ds, u, n).tolist() == sorted_top(scores, ds, u, n)

    def test_summation_order_is_pinned(self):
        rng = np.random.default_rng(31)
        M, N = 300, 200
        scores = rng.random((M, N))
        draw = rng.random((M, N))
        train = np.argwhere(draw < 0.1)
        test = np.argwhere(draw > 0.95)
        ds = Dataset(M, N, train, test, [])
        cutoffs = (1, 5, 10, 20)
        got = evaluate(reps_for_scores(scores), ds, cutoffs)
        recall, ndcg, users = reference_metrics(scores, ds, cutoffs)
        assert got.evaluated_user_count == users
        for n in cutoffs:
            assert got.recall[n] == recall[n], n
            assert got.ndcg[n] == ndcg[n], n


class TestReadoutShape:
    """A readout must have the dataset's user count and node rows."""

    @pytest.mark.parametrize("rows, user_count", [(2 + 3, 2), (2 + 6, 2), (6, 1)])
    def test_mismatch_is_data_error(self, rows, user_count):
        ds = Dataset(2, 4, [(0, 0)], [(0, 1), (1, 2)], [])
        readout = np.random.default_rng(3).standard_normal((rows, 3))
        reps = reps_from(readout, user_count)
        with pytest.raises(DataError, match="readout"):
            evaluate(reps, ds, (2,))
        with pytest.raises(DataError, match="readout"):
            rank_user(reps, ds, 0, 2)


class TestEdges:
    def test_users_without_test_skipped(self):
        readout = np.ones((5, 2))
        ds = Dataset(3, 2, [(1, 0)], [(0, 0)], [])
        report = evaluate(reps_from(readout, 3), ds, cutoffs=(1,))
        assert report.evaluated_user_count == 1

    def test_no_test_users_at_all(self):
        readout = np.ones((4, 2))
        ds = Dataset(2, 2, [(0, 0)], [], [])
        with pytest.raises(DataError, match="test"):
            evaluate(reps_from(readout, 2), ds)

    def test_cutoff_validation(self):
        reps, ds = one_user([0.5], test=[0])
        with pytest.raises(DataError):
            evaluate(reps, ds, cutoffs=())
        with pytest.raises(DataError):
            evaluate(reps, ds, cutoffs=(0,))
        with pytest.raises(DataError):
            rank_user(reps, ds, 0, 0)

    @pytest.mark.parametrize("cutoff", [2.5, 2.0, "2", None, True])
    def test_cutoff_that_is_not_an_integer(self, cutoff):
        # TrainConfig's rule: a data error, not numpy's TypeError
        reps, ds = one_user([0.5, 0.4], test=[0])
        with pytest.raises(DataError, match=r"cutoff must be an integer in \[1, inf\)"):
            evaluate(reps, ds, (cutoff,))
        with pytest.raises(DataError, match=r"cutoff must be an integer in \[1, inf\)"):
            rank_user(reps, ds, 0, cutoff)

    def test_numpy_integer_cutoffs(self):
        reps, ds = one_user([0.5, 0.4], test=[0])
        assert evaluate(reps, ds, (np.int64(1),)).recall == {1: 1.0}
        assert rank_user(reps, ds, 0, np.int64(1)).tolist() == [0]

    def test_all_items_in_train(self):
        reps, ds = one_user([0.5, 0.4], train=[0, 1])
        assert rank_user(reps, ds, 0, 5).size == 0

    def test_cutoff_beyond_candidates(self):
        reps, ds = one_user([0.5, 0.4, 0.3], test=[1])
        assert rank_user(reps, ds, 0, 50).tolist() == [0, 1, 2]


class TestReportShape:
    def test_json_dict(self):
        report = MetricsReport(
            recall={20: 0.5, 10: 0.25}, ndcg={20: 0.4, 10: 0.2},
            evaluated_user_count=7)
        d = report.to_json_dict()
        assert list(d["cutoffs"]) == ["10", "20"]
        assert d["cutoffs"]["20"] == {"recall": 0.5, "ndcg": 0.4}
        assert d["evaluated_user_count"] == 7
        assert set(d) == {"cutoffs", "evaluated_user_count"}
        json.dumps(d)  # must be serializable as-is


class TestMultiSeed:
    """Per-seed rows and their means, as `gbsr train --seed a,b` writes them."""

    SYNTH = ["--cluster-count", "2", "--users-per-cluster", "12",
             "--items-per-cluster", "10", "--interaction-rate", "0.4",
             "--intra-social-rate", "0.3", "--noise-edge-fraction", "0.5"]
    TRAIN = ["--embedding-dim", "8", "--layers", "2", "--learning-rate", "0.05",
             "--batch-size", "64", "--epochs", "2", "--beta", "0.5", "--cutoffs", "5,10"]

    def _train(self, tmp_path, name, seeds):
        from gbsr.cli import main

        data = tmp_path / "data"
        if not data.exists():
            assert main(["synth", "--out", str(data), "--seed", "0"] + self.SYNTH) == 0
        out = tmp_path / name
        code = main(["train", "--interactions", str(data / "interactions.tsv"),
                     "--social", str(data / "social.tsv"), "--out", str(out),
                     "--seed", seeds] + self.TRAIN)
        assert code == 0
        return json.loads((out / "metrics.json").read_text())

    def test_means_and_per_run(self, tmp_path):
        report = self._train(tmp_path, "both", "0,1")
        runs = report["per_seed"]
        assert [r["seed"] for r in runs] == [0, 1]
        for n in ("5", "10"):
            want = (runs[0]["recall"][n] + runs[1]["recall"][n]) / 2
            assert report["cutoffs"][n]["recall"] == pytest.approx(want, abs=1e-15)
        # a per-run row must match an independent single-seed fit on the same split
        solo = self._train(tmp_path, "solo", "0")
        assert solo["per_seed"][0] == runs[0]

    def test_empty_seeds_rejected(self, tmp_path):
        from gbsr.cli import main

        assert main(["train", "--interactions", "x", "--social", "y",
                     "--out", str(tmp_path), "--seed", ""]) == 1
