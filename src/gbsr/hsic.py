"""Biased HSIC estimator between two representation batches.

Dependence between the denoised and original user representations is scored
as HSIC(X, Y) = (n - 1)^-2 * trace(Kx H Ky H) with H = I - (1/n) 11^T and
RBF kernels K_ij = exp(-||x_i - x_j||^2 / (2 sigma^2)).  Because H is
idempotent, trace(Kx H Ky H) equals the elementwise sum of the two
double-centered kernels, so H is never materialized here; the test suite
holds this against the definitional trace form.

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
from .errors import ConfigError, DataError


def _normalize_rows(Z: np.ndarray):
    """Rows of Z scaled to unit L2 norm, and the scale factors r as an
    (n, 1) column."""
    # 1e-24 under the root keeps all-zero rows finite without moving others
    r = np.power((Z * Z).sum(axis=1, keepdims=True) + 1e-24, -0.5)
    return Z * r, r


def _rbf(Z: np.ndarray, sigma_sq: float):
    """RBF kernel of the rows of Z, and the mask of the entries whose squared
    distance carries a gradient: off the diagonal and not clamped at 0."""
    sq = (Z * Z).sum(axis=1, keepdims=True)
    gram = Z @ Z.T
    gram *= 2.0
    d2 = sq + sq.T
    d2 -= gram
    del gram
    live = d2 >= 0.0
    np.maximum(d2, 0.0, out=d2)  # tiny negatives from cancellation
    np.fill_diagonal(d2, 0.0)  # exact zero diagonal -> K_ii = 1
    np.fill_diagonal(live, False)
    d2 /= -2.0 * sigma_sq  # (-d2) / s, bit for bit
    return np.exp(d2, out=d2), live


def _center(K: np.ndarray) -> np.ndarray:
    n = K.shape[0]
    Kc = K - K.sum(axis=0, keepdims=True) / float(n)
    Kc -= K.sum(axis=1, keepdims=True) / float(n)
    Kc += K.sum() / float(n * n)
    return Kc


def _dependence(Kxc: np.ndarray, Kyc: np.ndarray) -> float:
    n = Kxc.shape[0]
    return (Kxc * Kyc).sum() / float((n - 1) ** 2)


def _side(T: ad.Tensor, users: np.ndarray, sigma_sq: float, normalize: bool):
    """Centered kernel of T's batch rows and, when T carries a gradient, what
    its backward needs: the gathered rows Z, their inverse norms r (None
    without normalization), the kernel's input rows and the kernel masked
    to its live entries."""
    Z = T.data[users]
    Zn, r = _normalize_rows(Z) if normalize else (Z, None)
    K, live = _rbf(Zn, sigma_sq)
    Kc = _center(K)
    if not T.requires_grad:
        return Kc, None
    K *= live
    return Kc, (Z, r, Zn, K)


def bottleneck(X: ad.Tensor, Y: ad.Tensor, batch_users, sigma_sq: float,
               normalize: bool = True) -> ad.Tensor:
    """HSIC between rows of X and Y restricted to the distinct batch users,
    as one tape node.

    H is idempotent, so dHSIC/dKx = H Ky H / (n-1)^2 is the already-centered
    Kyc / (n-1)^2.  Through the RBF, with P that gradient and W the kernel
    masked to its live entries, G = -(P * W) / (2 sigma^2) is the gradient
    of the squared distances and dHSIC/dXn = 4 (diag(G 1) - G) Xn.  Row
    normalization Xn = r Z with r = (|z|^2 + 1e-24)^-1/2 then gives
    dHSIC/dZ = r gXn - Z r^3 <gXn, Z>.  The users are distinct, so the rows
    are written into the gradient by assignment.  The Y side is the same
    with the roles swapped and runs only when Y carries a gradient.
    """
    users = np.unique(np.asarray(batch_users, dtype=np.int64))
    if users.size < 2:
        raise DataError("HSIC needs at least 2 distinct users in the batch")
    n = users.size
    Kxc, x_saved = _side(X, users, sigma_sq, normalize)
    Kyc, y_saved = _side(Y, users, sigma_sq, normalize)
    value = _dependence(Kxc, Kyc)
    # each differentiable side needs its own saved arrays and the other
    # side's centered kernel
    routes = [(T, saved, other) for T, saved, other in
              ((X, x_saved, Kyc), (Y, y_saved, Kxc)) if saved is not None]

    def backward(g):
        scale = -float(g) / (float((n - 1) ** 2) * 2.0 * sigma_sq)
        G = None
        for T, (Z, r, Zn, W), other in routes:
            G = np.multiply(other, W, out=G)
            G *= scale
            gZ = 4.0 * (G.sum(axis=1, keepdims=True) * Zn - G @ Zn)
            if r is not None:
                gZ = r * gZ - Z * (r ** 3 * np.einsum("nd,nd->n", gZ, Z)[:, None])
            full = np.zeros_like(T.data)
            full[users] = gZ
            T._accumulate(full)

    return ad._make(value, (X, Y), backward)


def rbf_kernel(X: np.ndarray, sigma_sq: float) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 2:
        raise DataError(f"kernel input must be (n >= 2, d), got shape {X.shape}")
    if not (sigma_sq > 0.0):
        raise ConfigError(f"sigma_sq must be > 0, got {sigma_sq}")
    return _rbf(X, sigma_sq)[0]


def hsic_estimate(Kx: np.ndarray, Ky: np.ndarray) -> float:
    Kx = np.asarray(Kx, dtype=np.float64)
    Ky = np.asarray(Ky, dtype=np.float64)
    if Kx.shape != Ky.shape or Kx.ndim != 2 or Kx.shape[0] != Kx.shape[1]:
        raise DataError(
            f"kernel matrices must be square and equal-sized, got {Kx.shape} and {Ky.shape}")
    if Kx.shape[0] < 2:
        raise DataError("HSIC needs at least 2 samples")
    return float(_dependence(_center(Kx), _center(Ky)))
