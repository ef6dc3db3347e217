"""Shared multivariate least-squares solve with a condition guard.

Every coefficient estimate (the VAR fit and the final regression of the VECM
fit) routes through :func:`solve_ls` so that near-singular designs fail
identically everywhere: a rank-revealing (SVD) solve is used, and when the
condition number exceeds `CONDITION_LIMIT` (1e10) the solve is rejected
instead of silently regularized. The one exception is an exactly consistent
system (residuals numerically zero), where the minimum-norm solution
reproduces the data and every forecast derived from it; such
degenerate-but-exact fits are accepted so that noiseless panels remain
usable.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularDesignError

#: Designs with condition number above this raise SingularDesignError.
CONDITION_LIMIT = 1e10

#: Residual tolerance (relative to response scale) for the exact-fit escape.
_CONSISTENT_RTOL = 1e-9


def solve_ls(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares solve of ``x @ b = y`` for matrix right-hand sides.

    Returns ``(b, residuals)`` where ``residuals = y - x @ b``. Raises
    `SingularDesignError`, carrying the condition number of ``x``, when that
    number exceeds `CONDITION_LIMIT` and the system is not exactly
    consistent.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n, k = x.shape
    # No columns, no singular values: the condition number below is undefined.
    if k == 0:
        return np.zeros((0, y.shape[1])), y.copy()

    b, _, rank, sv = np.linalg.lstsq(x, y, rcond=None)
    if sv[-1] > 0 and rank == k:
        cond = float(sv[0] / sv[-1])
    else:
        cond = float("inf")
    resid = y - x @ b
    if cond > CONDITION_LIMIT:
        scale = max(1.0, float(np.max(np.abs(y))) if y.size else 1.0)
        if float(np.max(np.abs(resid))) > _CONSISTENT_RTOL * scale:
            raise SingularDesignError(
                f"regressor matrix is rank deficient or ill-conditioned "
                f"(condition {cond:.3e} > {CONDITION_LIMIT:.1e})",
                condition=cond,
            )
    return b, resid
