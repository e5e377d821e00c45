"""Biased HSIC estimator between two representation batches.

Dependence between the denoised and original user representations is scored
as HSIC(X, Y) = (n - 1)^-2 * trace(Kx H Ky H) with H = I - (1/n) 11^T and
RBF kernels K_ij = exp(-||x_i - x_j||^2 / (2 sigma^2)).  Because H is
idempotent, trace(Kx H Ky H) equals the elementwise sum of the two
double-centered kernels, so H is never materialized here; the test suite
holds this against the definitional trace form.

Kernel rows are L2-normalized first by default, which puts squared distances
on the [0, 4] scale regardless of embedding magnitude.

Each stage is written once on the autodiff tape: the training objective
records `bottleneck` on its readouts, and `rbf_kernel` and `hsic_estimate`
run the same functions on constants.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, DataError


def normalize_rows(X: ad.Tensor) -> ad.Tensor:
    # 1e-24 under the root keeps all-zero rows finite without moving others
    sq = (X * X).sum(axis=1, keepdims=True)
    return X * (sq + 1e-24) ** -0.5


def rbf(X: ad.Tensor, sigma_sq: float) -> ad.Tensor:
    n = X.shape[0]
    sq = (X * X).sum(axis=1, keepdims=True)
    d2 = sq + sq.T - (X @ X.T) * 2.0
    d2 = ad.maximum(d2, 0.0)  # tiny negatives from cancellation
    d2 = d2 * (np.ones((n, n)) - np.eye(n))  # exact zero diagonal -> K_ii = 1
    return ad.exp(-d2 / (2.0 * sigma_sq))


def center(K: ad.Tensor) -> ad.Tensor:
    return K - K.mean(axis=0, keepdims=True) - K.mean(axis=1, keepdims=True) + K.mean()


def dependence(Kx: ad.Tensor, Ky: ad.Tensor) -> ad.Tensor:
    n = Kx.shape[0]
    return (center(Kx) * center(Ky)).sum() / float((n - 1) ** 2)


def bottleneck(X: ad.Tensor, Y: ad.Tensor, batch_users, sigma_sq: float,
               normalize: bool = True) -> ad.Tensor:
    """HSIC between rows of X and Y restricted to the distinct batch users."""
    users = np.unique(np.asarray(batch_users, dtype=np.int64))
    if users.size < 2:
        raise DataError("HSIC needs at least 2 distinct users in the batch")
    X = ad.gather(X, users)
    Y = ad.gather(Y, users)
    if normalize:
        X = normalize_rows(X)
        Y = normalize_rows(Y)
    return dependence(rbf(X, sigma_sq), rbf(Y, sigma_sq))


def rbf_kernel(X: np.ndarray, sigma_sq: float) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 2:
        raise DataError(f"kernel input must be (n >= 2, d), got shape {X.shape}")
    if not (sigma_sq > 0.0):
        raise ConfigError(f"sigma_sq must be > 0, got {sigma_sq}")
    return rbf(ad.constant(X), sigma_sq).data


def hsic_estimate(Kx: np.ndarray, Ky: np.ndarray) -> float:
    Kx = np.asarray(Kx, dtype=np.float64)
    Ky = np.asarray(Ky, dtype=np.float64)
    if Kx.shape != Ky.shape or Kx.ndim != 2 or Kx.shape[0] != Kx.shape[1]:
        raise DataError(
            f"kernel matrices must be square and equal-sized, got {Kx.shape} and {Ky.shape}")
    if Kx.shape[0] < 2:
        raise DataError("HSIC needs at least 2 samples")
    return float(dependence(ad.constant(Kx), ad.constant(Ky)).data)

