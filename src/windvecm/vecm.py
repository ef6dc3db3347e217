"""Reduced-rank (Johansen) estimation of error-correction models.

The model for the differenced series is

    dY_t = psi x_t + alpha beta' Y_{t-1} + sum_k gamma[k] dY_{t-k} + eps_t

with ``Pi = alpha beta'`` of rank r. Estimation follows the maximum
likelihood recipe: concentrate out the short-run terms, solve the resulting
generalized eigenproblem on the residual product-moment matrices, keep the r
directions with the largest eigenvalues as the cointegrating space, then
recover the remaining coefficients by least squares given beta. The
eigenproblem is solved without forming those matrices: its eigenvalues are
the squared canonical correlations of the two residual blocks, read off one
SVD of their QR factors' Q0' Q1 (Doornik & O'Brien, 2002).

``r = d`` leaves Pi unrestricted (equivalent to a levels VAR(p)); ``r = 0``
drops the level term entirely (a VAR(p-1) on differences). Both limits run
through the same code path.
"""

from __future__ import annotations

import weakref
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
    or when S00 or S11 was singular in an r = 0 fit.
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


def _johansen_eigen(
    r0: np.ndarray, r1: np.ndarray, eff: int, ss: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Solve lambda S11 v = S10 S00^-1 S01 v, S_ij = r_i' r_j / eff.

    With r0 = Q0 T0 and r1 = Q1 T1, the eigenvalues are the squared
    singular values of Q0' Q1 = U diag(sigma) V' (the squared canonical
    correlations of r0 and r1) and the eigenvectors are sqrt(eff) T1^-1 V,
    so that v' S11 v = I. Returns the eigenvalues sorted descending
    (clipped into [0, 1)) and the eigenvector columns.

    T' T is r' r, so t_ii^2 is the part of column i's sum of squares that
    z and the columns before it leave unexplained. ``ss`` holds each
    column's sum of squares before z was concentrated out (the Y_{t-1} row,
    then the dY_t row). A zero column, or a t_ii^2 below 1/`CONDITION_LIMIT`
    of its entry of ``ss``, marks a series that z and the others explain up
    to rounding, so S11 (checked first) or S00 is rejected as singular,
    whatever the scale or level of each series. (Measured against r's own
    sum of squares, a column that z explains, such as a series constant
    over the window beside the constant term, would pass: what is left of
    it is rounding noise.) That and an SVD that does not converge raise
    `SingularMomentError`.
    """
    pair = np.stack((r1, r0))
    (q1, q0), t = np.linalg.qr(pair)
    t_diag = np.diagonal(t, axis1=1, axis2=2)
    ok = np.all((ss > 0.0) & (t_diag**2 * CONDITION_LIMIT >= ss), axis=1)
    if not ok.all():
        name = "S11" if not ok[0] else "S00"
        raise SingularMomentError(f"product-moment matrix {name} is singular")
    try:
        _, sigma, vt = np.linalg.svd(q0.T @ q1)
    except np.linalg.LinAlgError:
        raise SingularMomentError("reduced-rank eigenproblem did not converge") from None
    lam = np.clip(sigma**2, 0.0, np.nextafter(1.0, 0.0))
    return lam, np.sqrt(eff) * np.linalg.solve(t[0], vt.T)


#: Per window object: (p, det) -> (eff, R, ss). An entry dies with its window.
_factors: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _design_r(
    panel: TimeSeriesPanel, p: int, det: DeterministicSpec
) -> tuple[int, np.ndarray, np.ndarray]:
    """Rows, R factor and column sums of squares of the VECM design.

    The design is [z | Y_{t-1} - c | dY_t], c the window's last reading under
    a constant (z's last column) and 0 otherwise, so that its condition
    checks do not see the data's level. ``ss`` holds the sums of squares of
    its Y_{t-1} - c columns (row 0) and dY_t columns (row 1). Every rank
    fitted on one window and order uses these, so they are kept, read-only,
    while the window object lives (a panel hashes by identity, and its
    values are read-only); a call that raises, such as
    `InsufficientDataError` on a short window, keeps nothing.
    """
    key = (p, det)
    if key not in _factors.get(panel, {}):
        d = panel.d
        a = build_design(panel, p, det, levels=False)
        if det is DeterministicSpec.CONSTANT:
            a[:, -2 * d : -d] -= panel.values[-1]
        qr_r = np.linalg.qr(a, mode="r")
        ss = (qr_r[:, -2 * d :] ** 2).sum(axis=0).reshape(2, d)
        qr_r.setflags(write=False)
        ss.setflags(write=False)
        _factors.setdefault(panel, {})[key] = a.shape[0], qr_r, ss
    return _factors[panel][key]


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
    (ii) take thin QR factors R1 = Q1 T1 and R0 = Q0 T0, which reject a
    singular S11 or S00 (S_ij = R_i' R_j / eff); (iii) solve the
    generalized eigenproblem by one SVD of Q0' Q1, whose squared singular
    values are the eigenvalues; (iv) beta = eigenvectors of the r largest
    eigenvalues (beta' S11 beta = I); (v)-(vi) alpha, gamma, psi by least
    squares of dY_t on [lagged differences, det, beta' Y_{t-1}].

    One QR factorization [z | Y_{t-1} - c | dY_t] = QR serves all three
    regressions: each runs on R's column blocks, which have
    min(n_obs - p, columns) rows, and keeps the solution, singular values
    and residual cross-products of the same regression on the tall data.
    Fits on the same window object and order (the ranks of one grid
    cell's origin) reuse one R factor, kept while that object lives. Under
    a constant, c is the window's last reading, so a constant offset on
    every reading changes no failure and moves the estimates only by
    rounding; under det none c is 0, and no such promise is made.

    The eigenvalues are computed for every rank (including r = 0, where
    they are purely diagnostic); if S00 or S11 is degenerate the fit
    proceeds without them for r = 0 and fails for r > 0.

    A window with fewer than 2d rows beyond z (n_obs - p - k < 2d, k the
    columns of z) has 2d - (n_obs - p - k) eigenvalues equal to 1, so
    beta is not determined for 0 < r below that count; those ranks raise
    `SingularMomentError`.
    """
    d = panel.d
    if not 0 <= r <= d:
        raise InvalidRankError(f"rank {r} outside [0, {d}]")
    eff, qr_r, ss = _design_r(panel, p, det)
    n_sr = d * (p - 1)
    k = n_sr + det.n_terms
    n_unit = 2 * d - (eff - k)
    if 0 < r < n_unit:
        raise SingularMomentError(
            f"rank {r} is not identified: {n_unit} eigenvalues equal 1 on "
            f"{eff - k} rows beyond the short-run regressors (< 2d = {2 * d})"
        )
    # Every regression below runs on the R factor of A = [z | Y_{t-1} - c | dY_t].
    r_z, r_y1, r_dy = qr_r[:, :k], qr_r[:, k : k + d], qr_r[:, k + d :]
    # Residuals of the concentration step. The projection onto span(z) is
    # well defined even for rank-deficient z, so no condition guard here.
    r0 = r_dy - r_z @ np.linalg.lstsq(r_z, r_dy, rcond=None)[0]
    r1 = r_y1 - r_z @ np.linalg.lstsq(r_z, r_y1, rcond=None)[0]

    eigenvalues: np.ndarray | None
    try:
        eigenvalues, vectors = _johansen_eigen(r0, r1, eff, ss)
    except SingularMomentError:
        if r > 0:
            raise
        eigenvalues, vectors = None, np.zeros((d, d))
    beta = vectors[:, :r].copy()

    b, resid = solve_ls(np.hstack((r_z, r_y1 @ beta)), r_dy)
    gamma = tuple(b[j * d : (j + 1) * d, :].T for j in range(p - 1))
    alpha = b[k:, :].T
    psi = b[n_sr:k, :].T
    if det is DeterministicSpec.CONSTANT:
        # the constant absorbed -alpha beta' c; psi takes it back
        psi = psi - (alpha @ (beta.T @ panel.values[-1]))[:, None]
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


def _levels_phi(pi: np.ndarray, gamma: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
    """The levels-VAR matrices phi_1 .. phi_p of `vecm_to_var`."""
    # gamma_p is -0.0: x + (-0.0) is x and (-0.0) - x is -x, bit for bit.
    g = (*gamma, np.full_like(pi, -0.0))
    return (np.eye(len(pi)) + pi + g[0], *(g[k] - g[k - 1] for k in range(1, len(g))))


def vecm_to_var(model: VecmModel) -> VarModel:
    """Exact levels-VAR representation of an error-correction model.

    phi_1 = I + Pi + gamma_1 and phi_k = gamma_k - gamma_{k-1} for
    2 <= k <= p, with gamma_p = 0 (so phi_1 = I + Pi at p = 1).
    """
    phi = _levels_phi(model.pi, model.gamma)
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
) -> ForecastPath:
    """Forecast by converting to the levels-VAR representation."""
    return forecast_var(vecm_to_var(model), history, horizon, origin_index=origin_index)
