"""The levels VAR(p) model and the recursive forecast every model uses.

The recursion is deliberately free of any special-casing: it produces the
persistence path when the dynamics are the identity. `windvecm.vecm.fit_var`
estimates the model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientHistoryError, InvalidInputError, NonFiniteForecastError
from .metrics import ForecastPath
from .panel import MAX_ABS_VALUE, DeterministicSpec, TimeSeriesPanel


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

    ``d`` must be at least 1, ``psi`` d x m (m deterministic terms of
    ``model.det``) and ``resid_cov`` d x d; both are stored as float arrays,
    along with ``d``.
    """
    if d < 1:
        raise InvalidInputError(f"a model needs d >= 1 series, got {d}")
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
    comp[d:, : d * (p - 1)] = np.eye(d * (p - 1))
    return comp


def _recurse(phi: tuple[np.ndarray, ...], start, add: np.ndarray) -> np.ndarray:
    """The len(add) x d rows Y_t = [phi_p | ... | phi_1] [Y_{t-p}; ...; Y_{t-1}] + add[t].

    ``start`` broadcasts to the p rows before the first step, oldest first.
    An explosive recursion overflows to inf or NaN without a warning;
    callers bound-check the rows they keep.
    """
    p = len(phi)
    path = np.empty((p + len(add), phi[0].shape[0]))
    path[:p] = start
    coef = np.hstack(phi[::-1])
    with np.errstate(over="ignore", invalid="ignore"):
        for h in range(len(add)):
            np.add(coef @ path[h : h + p].ravel(), add[h], out=path[p + h])
    return path[p:]


def forecast_var(
    model: VarModel,
    history: TimeSeriesPanel,
    horizon: int,
    origin_index: int | None = None,
) -> ForecastPath:
    """Recursive plug-in point forecasts for ``horizon`` steps.

    Predicted values replace unobserved lags as the recursion advances. The
    returned path is H x d. A recursion that leaves `MAX_ABS_VALUE` in
    magnitude or yields NaN raises `NonFiniteForecastError`.
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
    const = np.broadcast_to(model.psi.sum(axis=1), (horizon, model.d))  # 0 without det terms
    out = _recurse(model.phi, history.values[-model.p :], const)
    if not (np.abs(out) <= MAX_ABS_VALUE).all():  # also false for NaN
        raise NonFiniteForecastError(f"forecast is NaN or beyond {MAX_ABS_VALUE:g} in magnitude")
    origin = history.n_obs - 1 if origin_index is None else origin_index
    return ForecastPath(out, origin)
