"""Panels, differencing, and regression designs.

The TimeSeriesPanel is the one data container everything else consumes: a
dense (n_obs x d) matrix on a strictly uniform clock. This walkthrough
builds one by hand, differences it, and inspects the regressor arrays the
estimators are fitted on.
"""

import numpy as np

from windvecm import DeterministicSpec, TimeSeriesPanel, build_design, difference

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
# The regression design for lag order p = 2
#
# Row i of every array corresponds to time index t = p + i. A fit reads one
# regressor array: the VAR stacks levels lag-major ([Y_{t-1} | Y_{t-2}]),
# the VECM's short-run block stacks lagged differences, and both end with
# the deterministic term, a constant column here.
# ---------------------------------------------------------------------------
design = build_design(panel, p=2, det=DeterministicSpec.CONSTANT)
print("\neffective rows:", design.effective_n)
print("response (Y_t):")
print(design.response)
print("VAR regressors [Y_t-1 | Y_t-2 | 1]:")
print(design.regressors(levels=True))
print("VECM short-run regressors [dY_t-1 | 1]:")
print(design.regressors(levels=False))

# The identity dY_t = Y_t - Y_{t-1} holds row by row, exactly:
assert np.array_equal(design.diff_response, design.response - design.lagged_level)
print("\ndifference identity holds exactly")
