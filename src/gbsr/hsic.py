"""Biased HSIC estimator between two representation batches.

Dependence between the denoised and original user representations is scored
as HSIC(X, Y) = (n - 1)^-2 * trace(Kx H Ky H) with H = I - (1/n) 11^T and
RBF kernels K_ij = exp(-||x_i - x_j||^2 / (2 sigma^2)).  Because H is
idempotent, trace(Kx H Ky H) is the inner product of the two double-centered
kernels, so H is never materialized here; the test suite holds this against
the definitional trace form.

The work is a few passes over n x n buffers, so each kernel lives in one
buffer from its product to its centering:

- one GEMM of the augmented rows [z_i, -|z_i|^2/2, 1] / sigma^2 and
  [z_j, 1, -|z_j|^2/2] gives the exponent -d2_ij / (2 sigma^2) directly;
  it is clamped at 0 (where d2 < 0 from cancellation), set to an exact 0 on
  the diagonal (so K_ii = 1) and exponentiated in place.  The clamp only
  undoes rounding, so the backward treats clamped entries like any other:
  the exact d2 is never negative, and the gradient term of a pair,
  G_ij (x_i - x_j), is taken from the rows themselves;
- the kernel is centered in place from its row sums r and total S as
  K_ij + c_i + c_j with c = S / (2 n^2) - r / n, which is H K H for a
  symmetric K and exactly 0 for a constant one;
- the value is one BLAS dot of the two centered kernels.

The forward builds the two kernels concurrently on `graph`'s worker pool,
each into an n x n buffer the calling thread makes.  The backward makes no
n x n buffer: it overwrites each kernel that a gradient route needs with
that route's G, in row chunks, and runs the routes concurrently.

Kernel rows are L2-normalized first by default, which puts squared distances
on the [0, 4] scale regardless of embedding magnitude.

Each stage is one numpy function, written once: the training objective
records `bottleneck` on its readouts as a single tape node with a
hand-written backward, and `rbf_kernel` and `hsic_estimate` return the same
functions' plain arrays.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from . import graph
from .errors import ConfigError, DataError


def _normalize_rows(Z: np.ndarray):
    """Rows of Z scaled to unit L2 norm, and the scale factors r as an
    (n, 1) column."""
    # 1e-24 under the root keeps all-zero rows finite without moving others
    r = np.power((Z * Z).sum(axis=1, keepdims=True) + 1e-24, -0.5)
    return Z * r, r


def _rbf(Z: np.ndarray, sigma_sq: float, K: np.ndarray) -> np.ndarray:
    """RBF kernel of the rows of Z, written into the n x n buffer K."""
    half_sq = -0.5 * (Z * Z).sum(axis=1, keepdims=True)
    one = np.ones_like(half_sq)
    # row i of the product is -d2_i. / (2 sigma^2)
    np.matmul(np.hstack([Z, half_sq, one]) / sigma_sq, np.hstack([Z, one, half_sq]).T, out=K)
    np.minimum(K, 0.0, out=K)  # d2 < 0 only from cancellation between near-equal rows
    np.fill_diagonal(K, 0.0)  # exact zero diagonal -> K_ii = 1
    return np.exp(K, out=K)


def _center(K: np.ndarray) -> np.ndarray:
    """Double-center the symmetric K in place; returns the c with
    centered K_ij = K_ij + c_i + c_j."""
    n = K.shape[0]
    r = K.sum(axis=1)
    c = r.sum() / float(2 * n * n) - r / float(n)
    K += c[:, None]
    K += c
    return c


def _dependence(Kxc: np.ndarray, Kyc: np.ndarray) -> float:
    n = Kxc.shape[0]
    return np.dot(Kxc.ravel(), Kyc.ravel()) / float((n - 1) ** 2)


def _side(T: ad.Tensor, K: np.ndarray, users: np.ndarray, sigma_sq: float,
          normalize: bool):
    """Centered kernel of T's batch rows, written into the n x n buffer K,
    and, when T carries a gradient, what its backward needs: the gathered
    rows Z, their inverse norms r (None without normalization), the
    kernel's input rows, the centered kernel, and its centering vector c."""
    Z = T.data[users]
    Zn, r = _normalize_rows(Z) if normalize else (Z, None)
    _rbf(Zn, sigma_sq, K)
    c = _center(K)
    if not T.requires_grad:
        return K, None
    return K, (Z, r, Zn, K, c)


# kernel rows per chunk of `bottleneck`'s in-place gradient kernels
GRADIENT_CHUNK_ROWS = 64


def bottleneck(X: ad.Tensor, Y: ad.Tensor, batch_users, sigma_sq: float,
               normalize: bool = True) -> ad.Tensor:
    """HSIC between rows of X and Y restricted to the distinct batch users,
    as one tape node.

    H is idempotent, so dHSIC/dKx = H Ky H / (n-1)^2 is the already-centered
    Kyc / (n-1)^2.  Through the RBF, with W the raw kernel Kx = Kxc - c_i -
    c_j zeroed on its diagonal, G = Kyc * W and
    s = -1 / ((n-1)^2 2 sigma^2), s G is the gradient of the squared
    distances and dHSIC/dXn = 4 s (diag(G 1) - G) Xn; one GEMM of [Xn | 1]^T
    and G gives G Xn and G 1 together.  Row normalization Xn = r Z with
    r = (|z|^2 + 1e-24)^-1/2 then gives dHSIC/dZ = r gXn - Z r^3 <gXn, Z>.
    The users are distinct, so the rows are written into the gradient by
    assignment.  The Y side is the same with the roles swapped and runs
    only when Y carries a gradient.  Each side's G is written into its own
    kernel's buffer, GRADIENT_CHUNK_ROWS rows at a time, and every side's
    chunk is taken from intact rows before any is written back, so no n x n
    buffer is made.  The sides' routes then run concurrently on the worker
    pool (`graph.parallel_map`, when the kernels are large enough), and the
    calling thread makes each full-size gradient.
    """
    users = np.unique(np.asarray(batch_users, dtype=np.int64))
    if users.size < 2:
        raise DataError("HSIC needs at least 2 distinct users in the batch")
    n = users.size
    # the two kernels are built concurrently, each into a buffer made here.
    # The work counted is the kernels' entries, not the n^2 d multiply-adds
    # of their BLAS products, which cost a fraction of a gathered or sparse
    # one's: a kernel's elementwise passes set its time
    (Kxc, x_saved), (Kyc, y_saved) = graph.parallel_map(
        lambda task: _side(*task, users, sigma_sq, normalize),
        [(T, np.empty((n, n))) for T in (X, Y)], 2 * n * n)
    value = _dependence(Kxc, Kyc)

    def route(saved, full, scale):
        Z, r, Zn, G, _ = saved
        np.fill_diagonal(G, 0.0)
        # G is symmetric up to rounding, so [Xn | 1]^T G gives the
        # transposed [G Xn | G 1]; this operand order is the faster GEMM
        M = np.vstack([Zn.T, np.ones(n)]) @ G
        gZ = scale * (M[-1][:, None] * Zn - M[:-1].T)
        if r is not None:
            gZ = r * gZ - Z * (r ** 3 * np.einsum("nd,nd->n", gZ, Z)[:, None])
        full[users] = gZ

    def backward(g):
        scale = -4.0 * float(g) / (float((n - 1) ** 2) * 2.0 * sigma_sq)
        sides = [(saved, other, None if saved is None else np.zeros_like(T.data))
                 for T, saved, other in ((X, x_saved, Kyc), (Y, y_saved, Kxc))]
        live = [side for side in sides if side[0] is not None]
        for lo in range(0, n, GRADIENT_CHUNK_ROWS):
            hi = min(lo + GRADIENT_CHUNK_ROWS, n)
            chunks = [(K[lo:hi] - c[lo:hi, None] - c) * other[lo:hi]
                      for (*_, K, c), other, _ in live]
            for ((*_, K, _), _, _), G in zip(live, chunks):
                K[lo:hi] = G
        graph.parallel_map(lambda side: route(side[0], side[2], scale), live,
                           len(live) * n * n)
        return tuple(full for _, _, full in sides)

    return ad._make(value, (X, Y), backward)


def rbf_kernel(X: np.ndarray, sigma_sq: float) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 2:
        raise DataError(f"kernel input must be (n >= 2, d), got shape {X.shape}")
    if not (sigma_sq > 0.0):
        raise ConfigError(f"sigma_sq must be > 0, got {sigma_sq}")
    return _rbf(X, sigma_sq, np.empty((X.shape[0], X.shape[0])))


def hsic_estimate(Kx: np.ndarray, Ky: np.ndarray) -> float:
    # copies: the kernels are centered in place
    Kx = np.array(Kx, dtype=np.float64, order="C")
    Ky = np.array(Ky, dtype=np.float64, order="C")
    if Kx.shape != Ky.shape or Kx.ndim != 2 or Kx.shape[0] != Kx.shape[1]:
        raise DataError(
            f"kernel matrices must be square and equal-sized, got {Kx.shape} and {Ky.shape}")
    if Kx.shape[0] < 2:
        raise DataError("HSIC needs at least 2 samples")
    _center(Kx)
    _center(Ky)
    return float(_dependence(Kx, Ky))
