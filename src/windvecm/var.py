"""VAR(p) estimation by multivariate least squares and recursive forecasting.

This is the workhorse behind both the full-rank (levels VAR) and zero-rank
(differenced VAR) limit cases of the error-correction models, so the fitting
and forecasting paths here are deliberately free of any special-casing: the
same recursion produces the persistence path when the estimated dynamics are
the identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._blas import one_blas_thread
from .errors import InsufficientHistoryError, InvalidInputError, NonFiniteForecastError
from .lstsq import solve_ls
from .metrics import ForecastPath
from .panel import MAX_ABS_VALUE, DeterministicSpec, TimeSeriesPanel, build_design


@dataclass(frozen=True, eq=False)
class VarModel:
    """Levels VAR(p): Y_t = psi x_t + sum_k phi[k] Y_{t-k} + eps_t.

    ``phi`` holds p coefficient matrices (d x d each); ``psi`` is d x m with
    m the number of deterministic terms; ``resid_cov`` is the maximum
    likelihood residual covariance (divisor = effective sample size).
    """

    phi: tuple[np.ndarray, ...]
    psi: np.ndarray
    det: DeterministicSpec
    resid_cov: np.ndarray
    p: int = field(init=False)
    d: int = field(init=False)

    def __post_init__(self):
        phi = tuple(np.asarray(m, dtype=float) for m in self.phi)
        if not phi:
            raise InvalidInputError("phi must contain at least one matrix")
        d = phi[0].shape[0]
        for m in phi:
            if m.shape != (d, d):
                raise InvalidInputError("every phi matrix must be d x d")
        _set_shared_fields(self, d)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "p", len(phi))


def _set_shared_fields(model, d: int) -> None:
    """Check and store what `VarModel` and `VecmModel` share.

    ``psi`` must be d x m (m deterministic terms of ``model.det``) and
    ``resid_cov`` d x d; both are stored as float arrays, along with ``d``.
    """
    psi = np.asarray(model.psi, dtype=float)
    if psi.shape != (d, model.det.n_terms):
        raise InvalidInputError(
            f"psi must be d x m = {d} x {model.det.n_terms}, got {psi.shape}"
        )
    cov = np.asarray(model.resid_cov, dtype=float)
    if cov.shape != (d, d):
        raise InvalidInputError("resid_cov must be d x d")
    object.__setattr__(model, "psi", psi)
    object.__setattr__(model, "resid_cov", cov)
    object.__setattr__(model, "d", d)


def companion_matrix(phi: tuple[np.ndarray, ...] | list[np.ndarray]) -> np.ndarray:
    """Block companion matrix of a VAR(p); its eigenvalues decide stability."""
    phi = [np.asarray(m, dtype=float) for m in phi]
    d = phi[0].shape[0]
    p = len(phi)
    comp = np.zeros((d * p, d * p))
    for k, m in enumerate(phi):
        comp[:d, k * d : (k + 1) * d] = m
    if p > 1:
        comp[d:, : d * (p - 1)] = np.eye(d * (p - 1))
    return comp


@one_blas_thread()
def fit_var(
    panel: TimeSeriesPanel,
    p: int,
    det: DeterministicSpec = DeterministicSpec.CONSTANT,
) -> VarModel:
    """Estimate a VAR(p) equation-by-equation by least squares.

    Requires the rows `build_design` asks for. Raises `SingularDesignError`
    (with the condition diagnostic) on rank-deficient designs rather than
    regularizing.
    """
    a = build_design(panel, p, det, levels=True)
    d = panel.d
    b, resid = solve_ls(a[:, :-d], a[:, -d:])
    phi = tuple(b[k * d : (k + 1) * d, :].T for k in range(p))
    psi = b[d * p :, :].T
    resid_cov = resid.T @ resid / a.shape[0]
    return VarModel(phi=phi, psi=psi, det=det, resid_cov=resid_cov)


def forecast_var(
    model: VarModel,
    history: TimeSeriesPanel,
    horizon: int,
    origin_index: int | None = None,
    clip_nonnegative: bool = False,
) -> ForecastPath:
    """Recursive plug-in point forecasts for ``horizon`` steps.

    Predicted values replace unobserved lags as the recursion advances. The
    returned path is H x d. ``clip_nonnegative`` floors the *reported* path
    at 0 MW; the recursion itself is never clipped, so the linear model the
    metrics evaluate is unchanged except for the final floor. A recursion
    that leaves `MAX_ABS_VALUE` in magnitude or yields NaN raises
    `NonFiniteForecastError`, before the floor could hide it.
    """
    if horizon < 1:
        raise InvalidInputError(f"horizon must be >= 1, got {horizon}")
    if history.d != model.d:
        raise InvalidInputError(
            f"history has {history.d} series but the model expects {model.d}"
        )
    if history.n_obs < model.p:
        raise InsufficientHistoryError(
            f"need at least p={model.p} rows of history, have {history.n_obs}"
        )
    d, p = model.d, model.p
    # Rows p.. of ``path`` are the forecasts; rows h .. h+p-1, raveled, are
    # the state [Y_{t-p} | ... | Y_{t-1}] of step h, oldest lag first, which
    # the stacked d x dp coefficients [phi_p | ... | phi_1] advance.
    path = np.empty((p + horizon, d))
    path[:p] = history.values[-p:]
    coef = np.hstack(model.phi[::-1])
    const = model.psi[:, 0] if model.det.n_terms else None
    # An explosive model overflows here; that is reported just below.
    with np.errstate(over="ignore", invalid="ignore"):
        for h in range(horizon):
            step = coef @ path[h : h + p].ravel()
            if const is not None:
                step += const
            path[p + h] = step
    out = path[p:]
    if not (np.abs(out) <= MAX_ABS_VALUE).all():  # also false for NaN
        raise NonFiniteForecastError(f"forecast is NaN or beyond {MAX_ABS_VALUE:g} in magnitude")
    if clip_nonnegative:
        out = np.maximum(out, 0.0)
    origin = history.n_obs - 1 if origin_index is None else origin_index
    return ForecastPath(out, origin)
