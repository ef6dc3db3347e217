"""Multivariate time-series container and lag/difference design construction.

The panel is a dense (n_obs x d) matrix of simultaneously observed series on
a uniform clock. All estimators consume the regressor arrays built here, so
the column convention is fixed in one place: lags are ordered lag-major,
region-minor, i.e. ``[lag 1 | lag 2 | ... | lag p]`` with each lag a d-wide
group in region order.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InsufficientDataError, InvalidInputError

QUARTER_HOUR = np.timedelta64(15, "m")

# Bound on |reading| and |forecast|: a squared difference is then <= 4e200, so
# every moment, covariance and loss (a sum of < 1e100 such terms) is finite.
MAX_ABS_VALUE = 1e100


class DeterministicSpec(Enum):
    """Deterministic regressor choice: nothing, or an unrestricted constant."""

    NONE = "none"
    CONSTANT = "constant"

    @property
    def n_terms(self) -> int:
        """Number of deterministic columns (0 or 1)."""
        return 0 if self is DeterministicSpec.NONE else 1


def quarter_hour_range(n: int) -> np.ndarray:
    """Quarter-hourly timestamps of length ``n`` from 2015-01-01T00:00."""
    t0 = np.datetime64("2015-01-01T00:00", "s")
    return t0 + np.arange(n) * QUARTER_HOUR.astype("timedelta64[s]")


@dataclass(frozen=True, eq=False)
class TimeSeriesPanel:
    """Uniformly spaced d-dimensional observation matrix.

    Parameters
    ----------
    values : ndarray, shape (n_obs, d)
        Observations in MW, one column per region, |value| <= `MAX_ABS_VALUE`.
    timestamps : ndarray of datetime64, shape (n_obs,)
        Strictly increasing, constant spacing.
    labels : tuple of str, length d
        Region identifiers in column order.

    The panel keeps read-only copies of ``values`` and ``timestamps``.
    """

    values: np.ndarray
    timestamps: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise InvalidInputError("values must be 2-dimensional (n_obs x d)")
        n, d = values.shape
        if n < 1 or d < 1:
            raise InvalidInputError("panel needs n_obs >= 1 and d >= 1")
        if not (np.abs(values) <= MAX_ABS_VALUE).all():  # also false for NaN
            raise InvalidInputError(f"values must be at most {MAX_ABS_VALUE:g} in magnitude")
        ts = np.asarray(self.timestamps)
        if ts.shape != (n,):
            raise InvalidInputError("timestamps must have one entry per row")
        if n > 1:
            deltas = np.diff(ts)
            if not (deltas > np.timedelta64(0, "s")).all():
                raise InvalidInputError("timestamps must be strictly increasing")
            if not (deltas == deltas[0]).all():
                raise InvalidInputError("timestamps must have constant spacing")
        labels = tuple(str(x) for x in self.labels)
        if len(labels) != d:
            raise InvalidInputError(f"expected {d} labels, got {len(labels)}")
        values = values.copy()
        values.setflags(write=False)
        ts = ts.copy()
        ts.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "labels", labels)

    @property
    def n_obs(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]

    def window(self, start: int, stop: int) -> "TimeSeriesPanel":
        """Sub-panel over rows [start, stop).

        The window shares read-only views of this panel's values and
        timestamps. A row slice of a validated panel meets every invariant,
        so nothing is copied or checked again.
        """
        if not (0 <= start < stop <= self.n_obs):
            raise InvalidInputError(f"window [{start}, {stop}) out of range")
        view = object.__new__(type(self))
        object.__setattr__(view, "values", self.values[start:stop])
        object.__setattr__(view, "timestamps", self.timestamps[start:stop])
        object.__setattr__(view, "labels", self.labels)
        return view

    @classmethod
    def from_values(
        cls, values, labels: tuple[str, ...] | None = None
    ) -> "TimeSeriesPanel":
        """Panel from a value matrix on a quarter-hourly clock from 2015-01-01.

        1-D input is treated as a single series (one column).
        """
        values = np.asarray(values, dtype=float)
        if values.ndim == 1:
            values = values.reshape(-1, 1)
        n, d = values.shape
        if labels is None:
            labels = tuple(f"s{i}" for i in range(d))
        return cls(values, quarter_hour_range(n), labels)


def difference(panel: TimeSeriesPanel) -> TimeSeriesPanel:
    """First differences, timestamps shifted to the later instant.

    Row t of the output equals ``Y[t+1] - Y[t]``; the result has n_obs - 1
    rows. The difference of readings near `MAX_ABS_VALUE` can exceed it,
    which raises `InvalidInputError`.
    """
    if panel.n_obs < 2:
        raise InvalidInputError("differencing needs at least 2 observations")
    dv = panel.values[1:] - panel.values[:-1]
    return TimeSeriesPanel(dv, panel.timestamps[1:], panel.labels)


@dataclass(frozen=True, eq=False)
class RegressionDesign:
    """Aligned regression arrays of a panel for lag order p, built on use.

    Row i of every array corresponds to time index t = p + i of the source
    panel. ``response`` (Y_t) and ``lagged_level`` (Y_{t-1}) are views of
    the panel's values, ``diff_response`` (dY_t) is computed when read, and
    ``regressors`` builds the one regressor array of a fit.
    """

    levels: np.ndarray            # (n_obs, d) source panel values
    p: int = 1
    det: DeterministicSpec = DeterministicSpec.NONE

    @property
    def effective_n(self) -> int:
        return self.levels.shape[0] - self.p

    @property
    def d(self) -> int:
        return self.levels.shape[1]

    @property
    def response(self) -> np.ndarray:
        """(effective_n, d) Y_t."""
        return self.levels[self.p :]

    @property
    def lagged_level(self) -> np.ndarray:
        """(effective_n, d) Y_{t-1}."""
        return self.levels[self.p - 1 : -1]

    @property
    def diff_response(self) -> np.ndarray:
        """(effective_n, d) Y_t - Y_{t-1}, a new array on every read."""
        return self.response - self.lagged_level

    def regressors(self, levels: bool, extra: int = 0) -> np.ndarray:
        """One new array ``[lags | deterministic terms | extra columns]``.

        The lags are the levels ``[Y_{t-1} | ... | Y_{t-p}]`` when ``levels``
        is true (the VAR design) and the differences
        ``[dY_{t-1} | ... | dY_{t-p+1}]`` otherwise (the short-run block of
        the VECM). The deterministic terms are one constant column for
        `DeterministicSpec.CONSTANT` and none otherwise. The ``extra``
        trailing columns are zero, for the caller to fill.
        """
        y, p, d, eff = self.levels, self.p, self.d, self.effective_n
        n_lags = p if levels else p - 1
        out = np.zeros((eff, d * n_lags + self.det.n_terms + extra))
        for k in range(1, n_lags + 1):
            block = out[:, (k - 1) * d : k * d]
            if levels:
                block[:] = y[p - k : p - k + eff]
            else:
                # dY_{t-k} = Y_{t-k} - Y_{t-k-1}
                np.subtract(y[p - k : p - k + eff], y[p - k - 1 : p - k - 1 + eff], out=block)
        if self.det.n_terms:
            out[:, d * n_lags] = 1.0
        return out


def build_design(
    panel: TimeSeriesPanel, p: int, det: DeterministicSpec = DeterministicSpec.NONE
) -> RegressionDesign:
    """Lag/difference design of ``panel`` for lag order ``p``.

    Requires p >= 1 and n_obs > p; effective_n = n_obs - p. The arrays are
    built when read (see `RegressionDesign`).
    """
    if p < 1:
        raise InvalidInputError(f"lag order must be >= 1, got {p}")
    n = panel.n_obs
    if n <= p:
        raise InsufficientDataError(f"need more than p={p} observations, have {n}")
    return RegressionDesign(panel.values, p, det)
