"""Full-ranking metrics: hand cases, tie rules, and a sort-based oracle."""

import json
import math

import numpy as np
import pytest

from gbsr.backbone import NodeRepresentations
from gbsr.data import Dataset
from gbsr.errors import DataError
from gbsr.evaluation import MetricsReport, RunMetrics, evaluate, rank_user


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
            evaluated_user_count=7,
            per_run=(RunMetrics(3, {10: 0.25, 20: 0.5}, {10: 0.2, 20: 0.4}),))
        d = report.to_json_dict()
        assert list(d["cutoffs"]) == ["10", "20"]
        assert d["cutoffs"]["20"] == {"recall": 0.5, "ndcg": 0.4}
        assert d["evaluated_user_count"] == 7
        assert d["per_seed"][0]["seed"] == 3
        assert d["per_seed"][0]["recall"]["10"] == 0.25
        json.dumps(d)  # must be serializable as-is

    def test_json_dict_omits_empty_runs(self):
        d = MetricsReport({10: 0.1}, {10: 0.1}, 1).to_json_dict()
        assert "per_seed" not in d


class TestMultiSeed:
    """Per-seed rows and their means, as `gbsr train --seed a,b` writes them."""

    SYNTH = ["--clusters", "2", "--users-per-cluster", "12",
             "--items-per-cluster", "10", "--interaction-rate", "0.4",
             "--social-rate", "0.3", "--noise-fraction", "0.5"]
    TRAIN = ["--dim", "8", "--layers", "2", "--lr", "0.05", "--batch-size", "64",
             "--epochs", "2", "--beta", "0.5", "--cutoffs", "5,10"]

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
