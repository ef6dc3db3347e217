"""Panels, differencing, and the regression design.

The TimeSeriesPanel is the one data container everything else consumes: a
dense (n_obs x d) matrix on a strictly uniform clock. This walkthrough
builds one by hand, differences it, and inspects the one design array
every estimator is fitted on.
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
# The design array for lag order p = 1
#
# Every fit, the VECM at any rank and the levels VAR alike, solves on one
# array [lagged differences | deterministic terms | Y_{t-1} | dY_t], row i at
# time index t = p + i. At p = 1 there are no lagged differences, and the
# deterministic term is a constant column here. The levels VAR is the
# regression of dY_t on all the other columns. A fit needs
# n_obs - p >= d*p + m + 1 rows: 4 for this panel at p = 1.
# ---------------------------------------------------------------------------
design = build_design(panel, p=1, det=DeterministicSpec.CONSTANT)
print("\neffective rows:", design.shape[0])
print("design [1 | Y_t-1 | dY_t]:")
print(design)

# Row by row, exactly: the level block is Y_{t-1} and dY_t = Y_t - Y_{t-1}.
assert np.array_equal(design[:, 1:3], values[:-1])
assert np.array_equal(design[:, -2:], values[1:] - values[:-1])
print("\ndifference identity holds exactly")

# One row fewer than the rule asks for is refused:
try:
    build_design(panel.window(0, 4), p=1, det=DeterministicSpec.CONSTANT)
except InsufficientDataError as err:
    print("too short:", err)
