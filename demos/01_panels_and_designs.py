"""Panels, differencing, and regression designs.

The TimeSeriesPanel is the one data container everything else consumes: a
dense (n_obs x d) matrix on a strictly uniform clock. This walkthrough
builds one by hand, differences it, and inspects the design arrays the
estimators are fitted on.
"""

import numpy as np

from windvecm import (
    DeterministicSpec,
    InsufficientDataError,
    TimeSeriesPanel,
    build_design,
    difference,
)

# ---------------------------------------------------------------------------
# A tiny two-region panel on the quarter-hourly clock
# ---------------------------------------------------------------------------
values = np.array([
    [12.0, 40.0],
    [13.5, 38.0],
    [15.0, 39.5],
    [14.0, 41.0],
    [16.5, 42.5],
    [18.0, 41.5],
])
panel = TimeSeriesPanel.from_values(values, labels=("offshore", "onshore"))
print("panel shape:", panel.values.shape)
print("labels:     ", panel.labels)
print("clock:      ", panel.timestamps[0], "->", panel.timestamps[-1])

# ---------------------------------------------------------------------------
# First differences: one row shorter, timestamps move to the later instant
# ---------------------------------------------------------------------------
diffed = difference(panel)
print("\nfirst differences:")
print(diffed.values)

# ---------------------------------------------------------------------------
# The design arrays for lag order p = 1
#
# Each fit solves on one array [lags | deterministic terms | targets], row i
# at time index t = p + i. The VAR stacks levels lag-major and ends with its
# response Y_t; the VECM stacks lagged differences (none at p = 1) and ends
# with [Y_{t-1} | dY_t]. The deterministic term is a constant column here.
# A fit needs n_obs - p >= d*p + m + 1 rows: 4 for this panel at p = 1.
# ---------------------------------------------------------------------------
var_design = build_design(panel, p=1, det=DeterministicSpec.CONSTANT, levels=True)
print("\neffective rows:", var_design.shape[0])
print("VAR design [Y_t-1 | 1 | Y_t]:")
print(var_design)
vecm_design = build_design(panel, p=1, det=DeterministicSpec.CONSTANT, levels=False)
print("VECM design [1 | Y_t-1 | dY_t]:")
print(vecm_design)

# The identity dY_t = Y_t - Y_{t-1} holds row by row, exactly:
y_t, y_lag = var_design[:, -2:], var_design[:, :2]
assert np.array_equal(vecm_design[:, -2:], y_t - y_lag)
print("\ndifference identity holds exactly")

# One row fewer than the rule asks for is refused:
try:
    build_design(panel.window(0, 4), p=1, det=DeterministicSpec.CONSTANT, levels=True)
except InsufficientDataError as err:
    print("too short:", err)
