"""Multivariate time-series container and lag/difference design construction.

The panel is a dense (n_obs x d) matrix of simultaneously observed series on
a uniform clock. Every fit solves on the one design array built here, so
the row alignment and the column convention are fixed in one place: lags
are ordered lag-major, region-minor, i.e. ``[lag 1 | lag 2 | ... | lag p]``
with each lag a d-wide group in region order.
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


def build_design(
    panel: TimeSeriesPanel,
    p: int,
    det: DeterministicSpec = DeterministicSpec.NONE,
    *,
    levels: bool,
) -> np.ndarray:
    """The one new array a fit solves on, ``[lags | det | targets]``.

    Row i holds time t = p + i of ``panel``. With ``levels`` (the VAR) the
    array is ``[Y_{t-1} | ... | Y_{t-p} | det | Y_t]``; otherwise (the VECM)
    it is ``[dY_{t-1} | ... | dY_{t-p+1} | det | Y_{t-1} | dY_t]``. The
    deterministic terms are one constant column for
    `DeterministicSpec.CONSTANT` and none otherwise.

    Requires p >= 1 and n_obs - p >= d*p + m + 1 rows (m deterministic
    terms), one more than the regressors of either fit's coefficient
    regression.
    """
    if p < 1:
        raise InvalidInputError(f"lag order must be >= 1, got {p}")
    y = panel.values
    (n, d), m = y.shape, det.n_terms
    eff, need = n - p, d * p + m + 1
    if eff < need:
        raise InsufficientDataError(
            f"need n_obs - p >= {need} rows for d={d}, p={p}, m={m}; have {max(eff, 0)}"
        )
    n_lags = p if levels else p - 1
    k = d * n_lags + m
    # column-major, the layout LAPACK takes without a copy
    out = np.empty((eff, k + (d if levels else 2 * d)), order="F")
    for j in range(1, n_lags + 1):
        block = out[:, (j - 1) * d : j * d]
        if levels:
            block[:] = y[p - j : n - j]
        else:
            # dY_{t-j} = Y_{t-j} - Y_{t-j-1}
            np.subtract(y[p - j : n - j], y[p - j - 1 : n - j - 1], out=block)
    out[:, d * n_lags : k] = 1.0
    if levels:
        out[:, k:] = y[p:]
    else:
        out[:, k : k + d] = y[p - 1 : -1]
        np.subtract(y[p:], y[p - 1 : -1], out=out[:, k + d :])
    return out
