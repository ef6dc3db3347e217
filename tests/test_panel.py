import numpy as np
import pytest

from windvecm import (
    DeterministicSpec,
    InsufficientDataError,
    InvalidInputError,
    TimeSeriesPanel,
    build_design,
    difference,
)
from windvecm.panel import MAX_ABS_VALUE


def test_difference_constant_panel_is_zero():
    panel = TimeSeriesPanel.from_values([5.0, 5.0, 5.0])
    out = difference(panel)
    assert out.n_obs == 2
    assert np.array_equal(out.values, np.zeros((2, 1)))


def test_difference_arithmetic():
    out = difference(TimeSeriesPanel.from_values([1.0, 2.0, 4.0]))
    assert np.array_equal(out.values.ravel(), [1.0, 2.0])


def test_difference_shifts_timestamps_to_later_instant():
    panel = TimeSeriesPanel.from_values([1.0, 2.0, 4.0])
    out = difference(panel)
    assert np.array_equal(out.timestamps, panel.timestamps[1:])


def test_difference_roundtrip_exact_on_integer_walk():
    # Integer-valued walk: differences and cumulative sums are exact floats,
    # so the reconstruction must be bit-identical.
    rng = np.random.default_rng(11)
    steps = rng.integers(-3, 4, size=(400, 3)).astype(float)
    walk = np.cumsum(steps, axis=0)
    panel = TimeSeriesPanel.from_values(walk)
    diffed = difference(panel)
    rebuilt = panel.values[0] + np.cumsum(diffed.values, axis=0)
    assert np.array_equal(rebuilt, panel.values[1:])


def test_difference_requires_two_rows():
    with pytest.raises(InvalidInputError):
        difference(TimeSeriesPanel.from_values([1.0]))


def test_second_difference_matches_brute_force():
    rng = np.random.default_rng(5)
    values = rng.normal(size=(60, 2))
    panel = TimeSeriesPanel.from_values(values)
    twice = difference(difference(panel))
    assert twice.n_obs == panel.n_obs - 2
    brute = np.array(
        [values[t + 2] - 2 * values[t + 1] + values[t] for t in range(58)]
    )
    assert np.allclose(twice.values, brute, atol=1e-12, rtol=0)


def test_build_design_p1_shift():
    panel = TimeSeriesPanel.from_values([1.0, 2.0, 3.0, 4.0])
    # VAR: [Y_{t-1} | Y_t]
    var = build_design(panel, 1, DeterministicSpec.NONE, levels=True)
    assert np.array_equal(var, [[1.0, 2.0], [2.0, 3.0], [3.0, 4.0]])
    # VECM: p = 1 without deterministic terms has no short-run regressors,
    # only the targets [Y_{t-1} | dY_t]
    vecm = build_design(panel, 1, DeterministicSpec.NONE, levels=False)
    assert np.array_equal(vecm, [[1.0, 1.0], [2.0, 1.0], [3.0, 1.0]])


def test_build_design_p2_difference_blocks():
    panel = TimeSeriesPanel.from_values([1.0, 2.0, 4.0, 7.0, 11.0])
    # [dY_{t-1} | Y_{t-1} | dY_t] at t = 2, 3, 4
    vecm = build_design(panel, 2, DeterministicSpec.NONE, levels=False)
    assert np.array_equal(vecm, [[1.0, 2.0, 2.0], [2.0, 4.0, 3.0], [3.0, 7.0, 4.0]])


def test_build_design_rows_align_with_source_panel():
    # Brute-force index check over every row and lag, plus the constant
    # column and the target columns that follow the lags.
    rng = np.random.default_rng(7)
    values = rng.normal(size=(40, 2))
    panel = TimeSeriesPanel.from_values(values)
    for p in (1, 2, 3, 5):
        levels = build_design(panel, p, DeterministicSpec.CONSTANT, levels=True)
        diffs = build_design(panel, p, DeterministicSpec.CONSTANT, levels=False)
        assert levels.shape == (40 - p, 2 * p + 1 + 2)
        assert diffs.shape == (40 - p, 2 * (p - 1) + 1 + 4)
        for x, n_lags in ((levels, p), (diffs, p - 1)):
            assert np.array_equal(x[:, 2 * n_lags], np.ones(40 - p))
        for i in range(40 - p):
            t = p + i
            assert np.array_equal(levels[i, -2:], values[t])
            assert np.array_equal(diffs[i, -4:-2], values[t - 1])
            assert np.array_equal(diffs[i, -2:], values[t] - values[t - 1])
            for k in range(1, p + 1):
                block = levels[i, (k - 1) * 2 : k * 2]
                assert np.array_equal(block, values[t - k])
            for k in range(1, p):
                block = diffs[i, (k - 1) * 2 : k * 2]
                assert np.array_equal(block, values[t - k] - values[t - k - 1])


def test_design_difference_identity():
    rng = np.random.default_rng(3)
    panel = TimeSeriesPanel.from_values(rng.normal(size=(30, 3)))
    levels = build_design(panel, 2, DeterministicSpec.NONE, levels=True)
    diffs = build_design(panel, 2, DeterministicSpec.NONE, levels=False)
    response, lagged_level = levels[:, -3:], levels[:, :3]
    # the VECM targets are exactly [Y_{t-1} | Y_t - Y_{t-1}] of the VAR's
    # lag-1 group and response, and its short-run block is Y_{t-1} - Y_{t-2}
    assert np.array_equal(diffs[:, 3:6], lagged_level)
    assert np.array_equal(diffs[:, 6:], response - lagged_level)
    assert np.array_equal(diffs[:, :3], levels[:, :3] - levels[:, 3:6])


def test_region_permutation_permutes_columns():
    rng = np.random.default_rng(9)
    values = rng.normal(size=(25, 3))
    perm = [2, 0, 1]
    for levels in (True, False):
        a = build_design(
            TimeSeriesPanel.from_values(values), 2, DeterministicSpec.NONE, levels=levels
        )
        b = build_design(
            TimeSeriesPanel.from_values(values[:, perm]), 2, DeterministicSpec.NONE,
            levels=levels,
        )
        # every column group is d = 3 wide, lags and targets alike
        for g in range(a.shape[1] // 3):
            assert np.array_equal(
                b[:, g * 3 : (g + 1) * 3], a[:, g * 3 : (g + 1) * 3][:, perm]
            )


def test_build_design_insufficient_rows():
    # d = 1, p = 2, m = 0 needs n_obs - p >= 3 rows
    for levels in (True, False):
        with pytest.raises(InsufficientDataError):
            build_design(TimeSeriesPanel.from_values([1.0, 2.0]), 2, levels=levels)
        with pytest.raises(InsufficientDataError):
            build_design(TimeSeriesPanel.from_values([1.0, 2.0, 3.0, 4.0]), 2, levels=levels)
        assert build_design(
            TimeSeriesPanel.from_values([1.0, 2.0, 3.0, 4.0, 5.0]), 2, levels=levels
        ).shape[0] == 3
        with pytest.raises(InvalidInputError):
            build_design(TimeSeriesPanel.from_values([1.0, 2.0, 3.0]), 0, levels=levels)


def test_panel_invariant_validation():
    # A value is usable up to MAX_ABS_VALUE in magnitude, and no further.
    for bad in (np.nan, np.inf, 1e160, -1e160):
        with pytest.raises(InvalidInputError):
            TimeSeriesPanel.from_values([[1.0, bad]])
    edge = TimeSeriesPanel.from_values([[MAX_ABS_VALUE, -MAX_ABS_VALUE]])
    assert edge.values.tolist() == [[MAX_ABS_VALUE, -MAX_ABS_VALUE]]
    ts = np.array(["2020-01-01T00:00", "2020-01-01T00:15", "2020-01-01T00:45"],
                  dtype="datetime64[s]")
    with pytest.raises(InvalidInputError):
        TimeSeriesPanel(np.zeros((3, 1)), ts, ("a",))
    with pytest.raises(InvalidInputError):
        TimeSeriesPanel(np.zeros((2, 1)), ts[[1, 0]], ("a",))
    with pytest.raises(InvalidInputError, match="2-dimensional"):
        TimeSeriesPanel(np.zeros((3, 1, 1)), ts, ("a",))
    with pytest.raises(InvalidInputError, match="n_obs >= 1 and d >= 1"):
        TimeSeriesPanel(np.zeros((0, 1)), ts[:0], ("a",))
    with pytest.raises(InvalidInputError, match="one entry per row"):
        TimeSeriesPanel(np.zeros((2, 1)), ts, ("a",))
    with pytest.raises(InvalidInputError, match="expected 1 labels, got 2"):
        TimeSeriesPanel(np.zeros((2, 1)), ts[:2], ("a", "b"))


def test_panel_values_are_immutable():
    panel = TimeSeriesPanel.from_values([1.0, 2.0, 3.0, 4.0])
    values, stamps = panel.values.copy(), panel.timestamps.copy()
    window = panel.window(1, 3)
    for target in (panel, window):
        with pytest.raises(ValueError):
            target.values[0, 0] = 9.0
        with pytest.raises(ValueError):
            target.timestamps[0] = np.datetime64("2000-01-01T00:00")
    assert np.array_equal(panel.values, values)
    assert np.array_equal(panel.timestamps, stamps)
    assert np.array_equal(window.values, values[1:3])
    assert np.array_equal(window.timestamps, stamps[1:3])
    assert window.labels == panel.labels
    for start, stop in ((-1, 2), (2, 2), (0, 5)):
        with pytest.raises(InvalidInputError, match="out of range"):
            panel.window(start, stop)


def test_deterministic_spec_term_counts():
    assert DeterministicSpec.NONE.n_terms == 0
    assert DeterministicSpec.CONSTANT.n_terms == 1
    panel = TimeSeriesPanel.from_values([1.0, 2.0, 3.0, 5.0])
    for det in DeterministicSpec:
        # [det | Y_{t-1} | dY_t]: the deterministic block is n_terms wide
        vecm = build_design(panel, 1, det, levels=False)
        assert vecm.shape == (3, det.n_terms + 2)
        assert np.array_equal(vecm[:, : det.n_terms], np.ones((3, det.n_terms)))
        assert np.array_equal(vecm[:, det.n_terms :], [[1.0, 1.0], [2.0, 1.0], [3.0, 2.0]])
