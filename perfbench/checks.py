"""Output checks, run outside the timed region, valid for any workload seed.

Each check re-derives a result through a route written here, not through
the library's helpers, and returns a list of failure messages (empty when
the output is correct).
"""

from __future__ import annotations

import math

import numpy as np

LOSS_RTOL = 1e-9
METRIC_ATOL = 1e-12
ORACLE_USERS = 200


def _dense_readout(dataset, social_weights, embeddings, layers):
    """Mean of E, A E, ..., A^L E with A the dense normalized adjacency."""
    M, n = dataset.user_count, dataset.node_count
    A = np.zeros((n, n))
    a, b = dataset.social_pairs[:, 0], dataset.social_pairs[:, 1]
    A[a, b] = social_weights
    A[b, a] = social_weights
    u, i = dataset.train_pairs[:, 0], M + dataset.train_pairs[:, 1]
    A[u, i] = 1.0
    A[i, u] = 1.0
    dinv = np.maximum(A.sum(axis=1), 1e-12) ** -0.5
    A *= dinv[:, None]
    A *= dinv[None, :]
    acc = state = embeddings
    for _ in range(layers):
        state = A @ state
        acc = acc + state
    return acc / (layers + 1)


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _hsic_trace_form(X, Y, sigma_sq, normalize):
    """(n-1)^-2 trace(Kx H Ky H) with an explicit centering matrix."""
    def kernel(Z):
        if normalize:
            Z = Z / np.sqrt((Z * Z).sum(axis=1, keepdims=True) + 1e-24)
        sq = (Z * Z).sum(axis=1)
        d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (Z @ Z.T), 0.0)
        np.fill_diagonal(d2, 0.0)
        return np.exp(-d2 / (2.0 * sigma_sq))

    n = X.shape[0]
    H = np.eye(n) - 1.0 / n
    return float(np.trace(kernel(X) @ H @ kernel(Y) @ H)) / (n - 1) ** 2


def expected_losses(dataset, state, config, batch, deltas):
    """rec, ib and reg losses of one batch, recomputed with dense numpy."""
    E = state.embeddings.matrix
    den = state.denoiser
    pairs = dataset.social_pairs
    ea, eb = E[pairs[:, 0]], E[pairs[:, 1]]
    h = np.tanh(np.hstack([ea, eb, ea * eb]) @ den.layer1_weight + den.layer1_bias)
    conf = _sigmoid(h @ den.layer2_weight[:, 0] + den.layer2_bias[0])
    conf = np.clip(conf, 1e-6, 1.0 - 1e-6)
    d = np.clip(deltas, 1e-12, 1.0 - 1e-12)
    rho = np.minimum(_sigmoid((conf + np.log(d / (1.0 - d))) / den.temperature)
                     + den.observation_bias, 1.0)

    users, pos, neg = batch
    M = dataset.user_count
    R = _dense_readout(dataset, rho, E, config.layers)
    margins = ((R[users] * R[M + pos]).sum(axis=1)
               - (R[users] * R[M + neg]).sum(axis=1))
    rec = float(np.mean(np.logaddexp(0.0, -np.clip(margins, -40.0, 40.0))))
    reg = float((E * E).sum())
    batch_users = np.unique(users)
    R_orig = _dense_readout(dataset, np.ones(len(pairs)), E, config.layers)
    ib = _hsic_trace_form(R[batch_users], R_orig[batch_users], config.sigma_sq,
                          config.kernel_normalize)
    return {"rec_loss": rec, "ib_loss": ib, "reg_loss": reg}


def check_losses(got, want):
    failures = []
    for name, value in want.items():
        actual = getattr(got, name)
        if not math.isfinite(actual) or abs(actual - value) > LOSS_RTOL * abs(value):
            failures.append(f"{name}: program {actual!r}, dense recomputation {value!r}")
    return failures


def oracle_top(reps, dataset, user, cutoff):
    """Exhaustive stable sort of all non-train items by (-score, item id)."""
    scores = reps.readout[reps.user_count:] @ reps.readout[user]
    allowed = np.ones(dataset.item_count, dtype=bool)
    allowed[dataset.train_items_of(user)] = False
    candidates = np.flatnonzero(allowed)  # ascending ids: ties keep id order
    return candidates[np.argsort(-scores[candidates], kind="stable")[:cutoff]]


def oracle_metrics(reps, dataset, cutoffs):
    n_max = max(cutoffs)
    recall = {n: 0.0 for n in cutoffs}
    ndcg = {n: 0.0 for n in cutoffs}
    users = 0
    for user in range(dataset.user_count):
        test = set(dataset.test_items_of(user).tolist())
        if not test:
            continue
        users += 1
        top = oracle_top(reps, dataset, user, n_max).tolist()
        for n in cutoffs:
            ranks = [p for p, item in enumerate(top[:n]) if item in test]
            recall[n] += len(ranks) / len(test)
            idcg = sum(1.0 / math.log2(p + 2) for p in range(min(n, len(test))))
            ndcg[n] += sum(1.0 / math.log2(p + 2) for p in ranks) / idcg
    return ({n: v / users for n, v in recall.items()},
            {n: v / users for n, v in ndcg.items()}, users)


def check_ranking(reps, dataset, rank_user, cutoff, rng):
    """rank_user against the oracle on a sample of users."""
    failures = []
    sample = rng.choice(dataset.user_count, size=min(ORACLE_USERS, dataset.user_count),
                        replace=False)
    for user in sample:
        got = rank_user(reps, dataset, int(user), cutoff)
        want = oracle_top(reps, dataset, int(user), cutoff)
        if not np.array_equal(got, want):
            failures.append(f"user {user}: rank_user {got[:5]}..., oracle {want[:5]}...")
    return failures


def check_report(report, expected):
    recall, ndcg, users = expected
    failures = []
    if report.evaluated_user_count != users:
        failures.append(f"evaluated {report.evaluated_user_count} users, oracle {users}")
    for n in recall:
        if abs(report.recall[n] - recall[n]) > METRIC_ATOL:
            failures.append(f"recall@{n}: program {report.recall[n]!r}, oracle {recall[n]!r}")
        if abs(report.ndcg[n] - ndcg[n]) > METRIC_ATOL:
            failures.append(f"ndcg@{n}: program {report.ndcg[n]!r}, oracle {ndcg[n]!r}")
    return failures
