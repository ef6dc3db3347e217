"""Point-forecast paths, loss metrics and the Diebold-Mariano test.

The multivariate MAE/MSE sum the L1 / squared-L2 norm of the d-dimensional
error vector over origins and horizons and divide by N*H only; there is no
division by d, so a unit error in every one of d components at a single
(origin, horizon) scores d, not 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateVarianceError, InvalidInputError


@dataclass(frozen=True, eq=False)
class ForecastPath:
    """H x d matrix of point forecasts issued from one origin.

    ``origin_index`` is the time index of the last known observation in
    whatever indexing the producer used: history length - 1 unless the
    caller passes one. Backtest cells forecast from their window, so their
    paths carry ``window.n_obs - 1``, not the absolute panel index.
    """

    values: np.ndarray
    origin_index: int

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2 or values.shape[0] < 1:
            raise InvalidInputError("forecast path must be H x d with H >= 1")
        if not np.isfinite(values).all():
            raise InvalidInputError("forecast path contains non-finite values")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


def _stack_errors(errors: Sequence[np.ndarray] | np.ndarray) -> np.ndarray:
    try:
        cube = np.asarray(errors, dtype=float)  # (N, H, d)
    except ValueError:
        raise InvalidInputError(
            "error matrices must be numeric and share one H x d shape"
        ) from None
    if not cube.size:
        raise InvalidInputError("empty error collection")
    if cube.ndim != 3:
        raise InvalidInputError(f"errors must form an (N, H, d) cube, got shape {cube.shape}")
    return cube


def mae(errors: Sequence[np.ndarray] | np.ndarray) -> float:
    """Multivariate mean absolute error over per-origin H x d error matrices.

    sum_n sum_h ||e[n, h, :]||_1 / (N * H).
    """
    e = _stack_errors(errors)
    n, h = e.shape[0], e.shape[1]
    return float(np.abs(e).sum() / (n * h))


def mse(errors: Sequence[np.ndarray] | np.ndarray) -> float:
    """Multivariate mean squared error: squared L2 norms averaged over N*H."""
    e = _stack_errors(errors)
    n, h = e.shape[0], e.shape[1]
    return float((e**2).sum() / (n * h))


def per_origin_loss(errors: Sequence[np.ndarray] | np.ndarray, kind: str) -> np.ndarray:
    """One aggregated loss per origin: norms summed over horizons.

    ``kind`` is "absolute" (L1) or "squared" (squared L2). This is the
    granularity fed to the Diebold-Mariano test: one exchangeable draw per
    sampled origin.
    """
    e = _stack_errors(errors)
    if kind == "absolute":
        return np.abs(e).sum(axis=(1, 2))
    if kind == "squared":
        return (e**2).sum(axis=(1, 2))
    raise InvalidInputError(f"unknown loss kind {kind!r}")


@dataclass(frozen=True)
class DmTestResult:
    """Diebold-Mariano comparison of two per-origin loss series."""

    statistic: float
    p_value: float
    n_effective: int


def dm_test(loss_a: np.ndarray, loss_b: np.ndarray) -> DmTestResult:
    """Test the mean of the loss differential loss_a - loss_b against zero.

    Losses must be computed on the same origins, in the same order, and be
    finite. The long-run variance is the plain sample variance of the
    differential, the right estimator when origins are randomly sampled and
    the differential has no natural serial ordering. Two-sided normal p-value.
    """
    a = np.asarray(loss_a, dtype=float)
    b = np.asarray(loss_b, dtype=float)
    if a.ndim != 1 or b.ndim != 1 or a.shape != b.shape:
        raise InvalidInputError("loss series must be 1-D and equally long")
    n = a.shape[0]
    if n < 10:
        raise InvalidInputError(f"need at least 10 paired losses, got {n}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise InvalidInputError("loss series contain NaN or infinite entries")

    delta = a - b
    mean = delta.mean()
    centered = delta - mean
    lrv = float(centered @ centered) / n
    if not math.isfinite(lrv):
        raise InvalidInputError("loss differential overflows")
    if lrv <= 0.0:
        raise DegenerateVarianceError(
            "loss differential has no variance; the forecasters are identical"
        )
    statistic = float(mean / np.sqrt(lrv / n))
    p_value = math.erfc(abs(statistic) * math.sqrt(0.5))  # 2 * normal sf
    return DmTestResult(statistic=statistic, p_value=p_value, n_effective=n)
