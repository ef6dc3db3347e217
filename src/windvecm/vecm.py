"""Reduced-rank (Johansen) estimation of error-correction models.

The model for the differenced series is

    dY_t = psi x_t + alpha beta' Y_{t-1} + sum_k gamma[k] dY_{t-k} + eps_t

with ``Pi = alpha beta'`` of rank r. Estimation follows the maximum
likelihood recipe: concentrate out the short-run terms, solve the resulting
generalized eigenproblem on the residual product-moment matrices, keep the r
directions with the largest eigenvalues as the cointegrating space, then
recover the remaining coefficients by least squares given beta.

``r = d`` leaves Pi unrestricted (equivalent to a levels VAR(p)); ``r = 0``
drops the level term entirely (a VAR(p-1) on differences). Both limits run
through the same code path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._blas import one_blas_thread
from .errors import InvalidInputError, InvalidRankError, SingularMomentError
from .lstsq import CONDITION_LIMIT, solve_ls
from .metrics import ForecastPath
from .panel import DeterministicSpec, TimeSeriesPanel, build_design
from .var import VarModel, _set_shared_fields, forecast_var


@dataclass(frozen=True, eq=False)
class VecmModel:
    """Fitted (or converted) error-correction model.

    ``alpha`` (loadings) and ``beta`` (cointegrating vectors) are d x r;
    both are empty for r = 0. ``gamma`` holds the p-1 short-run matrices.
    The sizes d, r and p are read off these arrays. ``eigenvalues`` are the
    d Johansen eigenvalues sorted descending in [0, 1); they are None for
    models obtained by conversion from a VAR (no eigenproblem was solved)
    or when the moment matrices were degenerate in an r = 0 fit.
    """

    alpha: np.ndarray
    beta: np.ndarray
    gamma: tuple[np.ndarray, ...]
    psi: np.ndarray
    det: DeterministicSpec
    eigenvalues: np.ndarray | None
    resid_cov: np.ndarray
    r: int = field(init=False)
    p: int = field(init=False)
    d: int = field(init=False)

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=float)
        beta = np.asarray(self.beta, dtype=float)
        if alpha.ndim != 2 or beta.ndim != 2:
            raise InvalidInputError("alpha and beta must be 2-D (d x r)")
        d, r = alpha.shape
        if r > d:
            raise InvalidRankError(f"rank {r} outside [0, {d}]")
        if beta.shape != alpha.shape:
            raise InvalidInputError(
                f"alpha/beta must both be d x r, got {alpha.shape} and {beta.shape}"
            )
        gamma = tuple(np.asarray(g, dtype=float) for g in self.gamma)
        for g in gamma:
            if g.shape != (d, d):
                raise InvalidInputError("every gamma matrix must be d x d")
        _set_shared_fields(self, d)
        eig = self.eigenvalues
        if eig is not None:
            eig = np.asarray(eig, dtype=float)
            if eig.shape != (d,):
                raise InvalidInputError(f"expected {d} eigenvalues, got {eig.shape}")
            if not np.all((eig >= 0.0) & (eig < 1.0)):  # also false for NaN
                raise InvalidInputError("eigenvalues must lie in [0, 1)")
            if np.any(np.diff(eig) > 0.0):
                raise InvalidInputError("eigenvalues must be sorted descending")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "eigenvalues", eig)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "p", len(gamma) + 1)

    @property
    def pi(self) -> np.ndarray:
        """Long-run impact matrix alpha @ beta' (rank <= r)."""
        return self.alpha @ self.beta.T


def _moment_cholesky(s: np.ndarray, name: str) -> np.ndarray:
    """Cholesky factor L of a product-moment matrix ``s`` (s = L L').

    The squared pivot l_ii^2 is the part of series i's variance s_ii that
    the series before it leave unexplained. A pivot below 1/`CONDITION_LIMIT`
    of its variance marks a series that is a linear combination of the
    others up to rounding, so the matrix is rejected as singular, whatever
    the scale of each series.
    """
    try:
        chol = np.linalg.cholesky(s)
    except np.linalg.LinAlgError:
        raise SingularMomentError(f"product-moment matrix {name} is singular") from None
    if np.min(np.diag(chol) ** 2 / np.diag(s)) * CONDITION_LIMIT < 1.0:
        raise SingularMomentError(
            f"product-moment matrix {name} is singular up to rounding"
        )
    return chol


def _johansen_eigen(
    s00: np.ndarray, s01: np.ndarray, s11: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Solve lambda S11 v = S10 S00^-1 S01 v via symmetrization.

    S11 is Cholesky-factored (S11 = L L') and the problem reduced to an
    ordinary symmetric eigenproblem on L^-1 S10 S00^-1 S01 L^-T, which is
    far better behaved at small sample sizes than a direct nonsymmetric
    solve. Returns eigenvalues sorted descending (clipped into [0, 1)) and
    eigenvector columns v normalized so that v' S11 v = I. An S00 or S11
    that is singular, also up to rounding (see `_moment_cholesky`), and an
    eigenproblem that does not converge raise `SingularMomentError`.
    """
    d = s11.shape[0]
    l11 = _moment_cholesky(s11, "S11")
    l00 = _moment_cholesky(s00, "S00")
    half = np.linalg.solve(l00, s01)
    mid = half.T @ half  # S10 S00^-1 S01
    l_inv = np.linalg.solve(l11, np.eye(d))
    sym = l_inv @ mid @ l_inv.T
    sym = 0.5 * (sym + sym.T)
    try:
        lam, w = np.linalg.eigh(sym)
    except np.linalg.LinAlgError:
        raise SingularMomentError("reduced-rank eigenproblem did not converge") from None
    order = np.argsort(-lam, kind="stable")
    lam = lam[order]
    w = w[:, order]
    vectors = l_inv.T @ w
    lam = np.clip(lam, 0.0, np.nextafter(1.0, 0.0))
    return lam, vectors


@one_blas_thread()
def fit_vecm(
    panel: TimeSeriesPanel,
    p: int,
    r: int,
    det: DeterministicSpec = DeterministicSpec.CONSTANT,
) -> VecmModel:
    """Johansen reduced-rank fit with fixed cointegrating rank ``r``.

    Steps: (i) regress dY_t and Y_{t-1} on the short-run regressors
    z = [lagged differences, deterministic term] keeping residuals R0, R1;
    (ii) form S00, S01, S11; (iii) solve the generalized eigenproblem;
    (iv) beta = eigenvectors of the r largest eigenvalues (beta' S11 beta
    = I); (v)-(vi) alpha, gamma, psi by least squares of dY_t on
    [lagged differences, det, beta' Y_{t-1}].

    One QR factorization [z | Y_{t-1} | dY_t] = QR serves all three
    regressions: each runs on R's column blocks, which have
    min(n_obs - p, columns) rows, and keeps the solution, singular values
    and residual cross-products of the same regression on the tall data.

    The eigenvalues are computed for every rank (including r = 0, where
    they are purely diagnostic); if the moment matrices are degenerate the
    fit proceeds without them for r = 0 and fails for r > 0.

    A window with fewer than 2d rows beyond z (n_obs - p - k < 2d, k the
    columns of z) has 2d - (n_obs - p - k) eigenvalues equal to 1, so
    beta is not determined for 0 < r below that count; those ranks raise
    `SingularMomentError`.
    """
    d = panel.d
    if not 0 <= r <= d:
        raise InvalidRankError(f"rank {r} outside [0, {d}]")
    a = build_design(panel, p, det, levels=False)
    eff = a.shape[0]
    n_sr = d * (p - 1)
    k = n_sr + det.n_terms
    n_unit = 2 * d - (eff - k)
    if 0 < r < n_unit:
        raise SingularMomentError(
            f"rank {r} is not identified: {n_unit} eigenvalues equal 1 on "
            f"{eff - k} rows beyond the short-run regressors (< 2d = {2 * d})"
        )
    # A = [z | Y_{t-1} | dY_t]; every regression below runs on its R factor.
    qr_r = np.linalg.qr(a, mode="r")
    r_z, r_y1, r_dy = qr_r[:, :k], qr_r[:, k : k + d], qr_r[:, k + d :]
    # Residuals of the concentration step. The projection onto span(z) is
    # well defined even for rank-deficient z, so no condition guard here.
    if k:
        r0 = r_dy - r_z @ np.linalg.lstsq(r_z, r_dy, rcond=None)[0]
        r1 = r_y1 - r_z @ np.linalg.lstsq(r_z, r_y1, rcond=None)[0]
    else:
        r0, r1 = r_dy, r_y1
    s00 = r0.T @ r0 / eff
    s01 = r0.T @ r1 / eff
    s11 = r1.T @ r1 / eff

    eigenvalues: np.ndarray | None
    try:
        eigenvalues, vectors = _johansen_eigen(s00, s01, s11)
    except SingularMomentError:
        if r > 0:
            raise
        eigenvalues, vectors = None, np.zeros((d, d))
    beta = vectors[:, :r].copy()

    b, resid = solve_ls(np.hstack((r_z, r_y1 @ beta)), r_dy)
    gamma = tuple(b[j * d : (j + 1) * d, :].T for j in range(p - 1))
    psi = b[n_sr:k, :].T
    alpha = b[k:, :].T
    resid_cov = resid.T @ resid / eff
    return VecmModel(
        alpha=alpha,
        beta=beta,
        gamma=gamma,
        psi=psi,
        det=det,
        eigenvalues=eigenvalues,
        resid_cov=resid_cov,
    )


def vecm_to_var(model: VecmModel) -> VarModel:
    """Exact levels-VAR representation of an error-correction model.

    phi_1 = I + Pi + gamma_1, phi_k = gamma_k - gamma_{k-1} for
    2 <= k <= p-1, phi_p = -gamma_{p-1}; for p = 1 simply phi_1 = I + Pi.
    """
    d, p = model.d, model.p
    pi = model.pi
    eye = np.eye(d)
    if p == 1:
        phi: tuple[np.ndarray, ...] = (eye + pi,)
    else:
        g = model.gamma
        mats = [eye + pi + g[0]]
        for k in range(2, p):
            mats.append(g[k - 1] - g[k - 2])
        mats.append(-g[p - 2])
        phi = tuple(mats)
    return VarModel(
        phi=phi, psi=model.psi.copy(), det=model.det, resid_cov=model.resid_cov.copy()
    )


def var_to_vecm(model: VarModel) -> VecmModel:
    """Error-correction form of a levels VAR.

    Pi = -I + sum_k phi_k and gamma_k = -sum_{j=k+1}^p phi_j. The long-run
    matrix is carried as the trivial full-rank factorization alpha = Pi,
    beta = I (only the product alpha beta' matters downstream); no
    eigenproblem is solved, so ``eigenvalues`` is None.
    """
    d, p = model.d, model.p
    pi = -np.eye(d) + sum(model.phi)
    gamma = tuple(
        -sum(model.phi[j] for j in range(k, p)) for k in range(1, p)
    )
    return VecmModel(
        alpha=pi,
        beta=np.eye(d),
        gamma=gamma,
        psi=model.psi.copy(),
        det=model.det,
        eigenvalues=None,
        resid_cov=model.resid_cov.copy(),
    )


def forecast_vecm(
    model: VecmModel,
    history: TimeSeriesPanel,
    horizon: int,
    origin_index: int | None = None,
    clip_nonnegative: bool = False,
) -> ForecastPath:
    """Forecast by converting to the levels-VAR representation."""
    return forecast_var(
        vecm_to_var(model),
        history,
        horizon,
        origin_index=origin_index,
        clip_nonnegative=clip_nonnegative,
    )
