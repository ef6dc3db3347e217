import dataclasses
import gc
import warnings
import weakref

import numpy as np
import pytest

from helpers import clipped_panel

from windvecm import (
    BacktestConfig,
    DeterministicSpec,
    InsufficientDataError,
    InsufficientRangeError,
    InvalidInputError,
    TimeSeriesPanel,
    TSummary,
    cointegrated_spec,
    fit_var,
    fit_vecm,
    forecast_var,
    forecast_vecm,
    generate,
    load_panel,
    mae,
    mse,
    per_origin_loss,
    random_walk_spec,
    run_cell,
    run_combination,
    run_grid,
    sample_origins,
    summarize_best,
)
from windvecm.backtest import data_fingerprint
from windvecm.cli import _summary_csv_lines, _summary_table
from windvecm.panel import MAX_ABS_VALUE

NONE = DeterministicSpec.NONE
CONST = DeterministicSpec.CONSTANT


# --------------------------------------------------------------------------
# origin sampling
# --------------------------------------------------------------------------

def test_forced_single_origin():
    # n_obs = T_max + H + 1 leaves exactly one feasible index, whatever seed
    for seed in (0, 1, 99):
        origins = sample_origins(n_obs=105, t_max=96, horizon=8,
                                 n_origins=1, seed=seed)
        assert origins.tolist() == [96]


def test_origin_sampling_deterministic():
    a = sample_origins(5000, 384, 8, 200, seed=7)
    b = sample_origins(5000, 384, 8, 200, seed=7)
    assert np.array_equal(a, b)
    c = sample_origins(5000, 384, 8, 200, seed=8)
    assert not np.array_equal(a, c)


def test_origin_sampling_full_study_scale():
    # ~192k quarter-hours (about 4.5 years), N=1000 draws
    origins = sample_origins(192_000, 3072, 8, 1000, seed=1)
    assert origins.size == 1000
    assert np.unique(origins).size == 1000
    assert origins.min() >= 3072
    assert origins.max() <= 192_000 - 8 - 1


def test_origin_sampling_insufficient_range():
    with pytest.raises(InsufficientRangeError):
        sample_origins(104, 96, 8, 1, seed=0)
    with pytest.raises(InsufficientRangeError):
        sample_origins(110, 96, 8, 10, seed=0)


@pytest.mark.parametrize("horizon", [0, -3])
def test_origin_sampling_rejects_horizon_below_one(horizon):
    with pytest.raises(InvalidInputError, match="horizon must be >= 1"):
        sample_origins(700, 96, horizon, 3, seed=0)


# --------------------------------------------------------------------------
# single cells
# --------------------------------------------------------------------------

def test_constant_panel_zero_errors_for_rank_zero_cells():
    # Noiseless persistence data: every surviving fit must forecast exactly.
    # The reduced-rank eigenproblem is undefined on a constant panel, so
    # r > 0 cells report failures while r = 0 cells score exactly zero.
    panel = TimeSeriesPanel.from_values(np.full((80, 2), 3.25))
    origins = np.array([40, 50, 60])
    for p in (1, 2, 3):
        cell = run_cell(panel, T=30, p=p, r=0, origins=origins,
                        horizon=6, det=NONE)
        assert not cell.failures
        assert np.array_equal(cell.errors, np.zeros((3, 6, 2)))
    degenerate = run_cell(panel, T=30, p=2, r=1, origins=origins,
                          horizon=6, det=NONE)
    assert degenerate.origins_ok.size == 0
    assert {reason for _, reason in degenerate.failures} == {"SingularMomentError"}


def test_single_origin_matches_standalone_fit():
    spec = cointegrated_spec(d=3, r_true=1, n_obs=600, seed=3)
    panel = generate(spec)
    origin, T, p, r, h = 400, 192, 2, 1, 8
    cell = run_cell(panel, T, p, r, np.array([origin]), h, det=CONST)
    window = panel.window(origin - T + 1, origin + 1)
    model = fit_vecm(window, p, r, det=CONST)
    path = forecast_vecm(model, window, h)
    expected = panel.values[origin + 1 : origin + 1 + h] - path.values
    assert np.array_equal(cell.errors[0], expected)


def test_full_rank_cell_matches_direct_var_cell():
    spec = cointegrated_spec(d=3, r_true=1, n_obs=700, seed=6)
    panel = generate(spec)
    origins = sample_origins(panel.n_obs, 192, 8, 25, seed=5)
    cell = run_cell(panel, 192, 2, 3, origins, 8, det=CONST)
    # oracle: independent loop fitting plain VARs on the same windows
    direct = []
    for o in origins:
        window = panel.window(o - 192 + 1, o + 1)
        model = fit_var(window, 2, CONST)
        path = forecast_var(model, window, 8)
        direct.append(panel.values[o + 1 : o + 9] - path.values)
    assert np.abs(cell.errors - np.asarray(direct)).max() <= 1e-8


def test_overflowing_forecast_is_a_recorded_failure():
    # An explosive stretch fitted at origin 39 forecasts past float range
    # at horizon 200, and to a finite ~1e203 at horizon 100, whose squared
    # error would overflow the MSE; either way that origin must be
    # recorded, not abort the cell or the grid.
    rng = np.random.default_rng(1)
    values = rng.standard_normal((260, 2)).cumsum(axis=0)
    k = np.arange(20)[:, None]
    noise = np.random.default_rng(2).standard_normal((20, 2))
    values[20:40] = np.array([50.0, 40.0]) ** k * (1 + 0.01 * noise)
    panel = TimeSeriesPanel.from_values(values)
    for horizon in (200, 100):
        # The overflow is reported as a failure, not as a numpy warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cell = run_cell(panel, T=20, p=1, r=1, origins=[39, 45], horizon=horizon)
            assert cell.failures == ((39, "NonFiniteForecastError"),)
            assert cell.origins_ok.tolist() == [45]
            config = BacktestConfig(T_grid=(20,), p_grid=(1,), r_grid=(1,),
                                    horizon=horizon, n_origins=1, seed=0)
            result = run_grid(panel, config)
        assert len(result.records) == 1


def _corrupted_reading_panel() -> TimeSeriesPanel:
    panel = generate(cointegrated_spec(d=3, r_true=1, n_obs=700, seed=3))
    values = panel.values.copy()
    values[450, 1] = MAX_ABS_VALUE
    return TimeSeriesPanel(values, panel.timestamps, panel.labels)


def test_corrupted_reading_is_a_recorded_failure():
    # One reading at the value bound keeps every moment and loss finite; the
    # p = 2 windows that hold it have an ill-conditioned design and are
    # recorded, and the grid finishes with finite scores.
    panel = _corrupted_reading_panel()
    config = BacktestConfig(T_grid=(96,), p_grid=(1, 2), horizon=4, n_origins=40)
    # Nothing overflows, so numpy reports no warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_grid(panel, config)
    hit = {int(o) for o in result.origins if o - 95 <= 450 <= o}
    assert len(hit) == 6
    for rec in result.records:
        assert rec.n_ok + rec.n_failed == 40
        assert np.all(np.isfinite(rec.mae)) and np.all(np.isfinite(rec.mse))
        if rec.p == 2:
            assert rec.failures == tuple((o, "SingularDesignError") for o in sorted(hit))


@pytest.mark.parametrize("third", ["copy", "combination"])
def test_collinear_regions_fail_every_cointegrated_fit(third):
    # A third region that copies the second, or equals 2 Y1 - Y2, leaves S11
    # singular up to rounding noise; no r > 0 fit may be scored on that noise.
    panel = generate(cointegrated_spec(d=3, r_true=1, n_obs=700, seed=3))
    values = panel.values.copy()
    if third == "copy":
        values[:, 2] = values[:, 1]
    else:
        values[:, 2] = 2 * values[:, 0] - values[:, 1]
    panel = TimeSeriesPanel(values, panel.timestamps, panel.labels)
    config = BacktestConfig(T_grid=(96,), p_grid=(1, 2, 3), horizon=4, n_origins=40)
    result = run_grid(panel, config)
    for rec in result.records:
        if rec.r > 0:
            assert rec.failures == tuple(
                (int(o), "SingularMomentError") for o in result.origins
            )
    (base,) = [rec for rec in result.records if (rec.p, rec.r) == (1, 0)]
    assert base.n_ok == 40
    assert np.all(np.isfinite(base.mae)) and np.all(np.isfinite(base.mse))


def _shifted(panel: TimeSeriesPanel, c: float) -> TimeSeriesPanel:
    return TimeSeriesPanel(panel.values + c, panel.timestamps, panel.labels)


def test_constant_offset_changes_no_failure_and_no_loss():
    # Under det constant a level shift only moves psi. Without centring the
    # levels in the fit, 1e5 turned 792 of these 2352 clean fits into
    # SingularDesignError, and 1e3 failed 24 floored T = 384 fits at origin
    # 19405. The shifted readings carry about 1e5 * 2**-53 of rounding, so
    # losses agree only to that: measured 2.1e-10 (clean), 2.9e-11 (floored).
    config = BacktestConfig(n_origins=8, seed=1)
    clean = generate(cointegrated_spec(d=6, r_true=3, n_obs=4000, seed=1))
    base, moved = run_grid(clean, config), run_grid(_shifted(clean, 1e5), config)
    assert sum(rec.n_failed for rec in base.records) == 0
    for a, b in zip(base.records, moved.records, strict=True):
        assert b.failures == a.failures
        assert np.array_equal(b.origins_ok, a.origins_ok)
        np.testing.assert_allclose(b.per_origin_abs, a.per_origin_abs, rtol=1e-9, atol=0.0)
        np.testing.assert_allclose(b.per_origin_sq, a.per_origin_sq, rtol=1e-9, atol=0.0)

    floored = clipped_panel(cointegrated_spec(d=6, r_true=3, n_obs=35040, seed=1), 0.25)
    origins = sample_origins(floored.n_obs, 3072, 8, 8, seed=0)  # the default grid's
    assert 19405 in origins
    moved = _shifted(floored, 1e3)
    for p in (4, 5, 6, 7):
        for r in range(7):
            a, b = (run_cell(x, 384, p, r, origins, 8) for x in (floored, moved))
            assert b.failures == a.failures
            assert np.array_equal(b.origins_ok, a.origins_ok)
            for loss in ("absolute", "squared"):
                np.testing.assert_allclose(
                    per_origin_loss(b.errors, loss), per_origin_loss(a.errors, loss),
                    rtol=1e-9, atol=0.0,
                )


def test_run_cell_validates_origin_range():
    panel = generate(random_walk_spec(2, 120, seed=0))
    with pytest.raises(InvalidInputError):
        run_cell(panel, T=50, p=1, r=0, origins=np.array([20]), horizon=4)
    with pytest.raises(InvalidInputError):
        run_cell(panel, T=50, p=1, r=0, origins=np.array([119]), horizon=4)


# --------------------------------------------------------------------------
# grids
# --------------------------------------------------------------------------

def test_persistence_grid_matches_handrolled_loop():
    panel = generate(random_walk_spec(2, 500, seed=12))
    config = BacktestConfig(T_grid=(96,), p_grid=(1,), r_grid=(0,),
                            horizon=8, n_origins=40, seed=9, det=NONE)
    result = run_grid(panel, config)
    rec = result.records[0]

    origins = sample_origins(500, 96, 8, 40, seed=9)
    errors = [
        panel.values[o + 1 : o + 9] - np.tile(panel.values[o], (8, 1))
        for o in origins
    ]
    assert abs(rec.mae - mae(errors)) <= 1e-12
    assert abs(rec.mse - mse(errors)) <= 1e-12


def test_one_cell_grid_equals_run_cell_composition():
    spec = cointegrated_spec(d=2, r_true=1, n_obs=400, seed=4)
    panel = generate(spec)
    config = BacktestConfig(T_grid=(96,), p_grid=(2,), r_grid=(1,),
                            horizon=4, n_origins=20, seed=2, det=CONST)
    result = run_grid(panel, config)
    rec = result.records[0]
    origins = sample_origins(400, 96, 4, 20, seed=2)
    cell = run_cell(panel, 96, 2, 1, origins, 4, det=CONST)
    assert rec.mae == mae(list(cell.errors))
    assert rec.mse == mse(list(cell.errors))
    assert rec.n_failed == len(cell.failures)


def test_grid_deterministic_and_shared_origins():
    spec = cointegrated_spec(d=2, r_true=1, n_obs=500, seed=10)
    panel = generate(spec)
    config = BacktestConfig(T_grid=(96, 192), p_grid=(1, 2), r_grid=(0, 1, 2),
                            horizon=4, n_origins=15, seed=3, det=CONST)
    a = run_grid(panel, config)
    b = run_grid(panel, config)
    assert np.array_equal(a.origins, b.origins)
    for ra, rb in zip(a.records, b.records):
        assert (ra.T, ra.p, ra.r) == (rb.T, rb.p, rb.r)
        assert ra.mae == rb.mae and ra.mse == rb.mse
    assert a.metadata["data_fingerprint"] == b.metadata["data_fingerprint"]


def test_fingerprint_tells_comma_labels_apart(tmp_path):
    # Semicolon-delimited headers carry labels with commas in them.
    rows = ["2020-01-01T00:00;1;2", "2020-01-01T00:15;3;4"]
    panels = []
    for header in ("timestamp;a,b;c", "timestamp;a;b,c"):
        path = tmp_path / f"{len(panels)}.csv"
        path.write_text("\n".join([header, *rows]) + "\n")
        panels.append(load_panel(path)[0])
    assert [p.labels for p in panels] == [("a,b", "c"), ("a", "b,c")]
    assert np.array_equal(panels[0].values, panels[1].values)
    assert data_fingerprint(panels[0]) != data_fingerprint(panels[1])


def _partly_constant_panel() -> TimeSeriesPanel:
    # A random walk with a constant stretch: fits whose window lies in the
    # stretch fail, so grid cells and combinations see partial failures.
    values = np.random.default_rng(3).standard_normal((400, 2)).cumsum(axis=0)
    values[100:200] = 5.0
    return TimeSeriesPanel.from_values(values)


def test_grid_parallel_matches_serial():
    # The second input exercises the whole config in the pool: no constant,
    # clipped paths, and failing origins. The third, a wind-like panel
    # floored at 0, fails fits with both singular classes. In the fourth, one
    # reading at the value bound: p = 1 cells score with a residual
    # covariance near 1e197 and p = 2 cells fail.
    cases = [
        (generate(cointegrated_spec(d=2, r_true=1, n_obs=400, seed=1)),
         BacktestConfig(T_grid=(96,), p_grid=(1, 2), r_grid=(0, 1, 2),
                        horizon=4, n_origins=10, seed=1, det=CONST)),
        (_partly_constant_panel(),
         BacktestConfig(T_grid=(30,), p_grid=(1, 2), r_grid=(0, 1, 2),
                        horizon=8, n_origins=40, seed=4, det=NONE,
                        clip_nonnegative=True)),
        (clipped_panel(cointegrated_spec(d=3, r_true=1, n_obs=3000, seed=11), 0.25),
         BacktestConfig(T_grid=(96, 192), p_grid=(1, 2), horizon=4, n_origins=20,
                        seed=3, det=CONST)),
        (_corrupted_reading_panel(),
         BacktestConfig(T_grid=(96,), p_grid=(1, 2), horizon=4, n_origins=40)),
    ]
    failed = []   # the failure classes of each input
    for panel, config in cases:
        serial = run_grid(panel, config, workers=1)
        parallel = run_grid(panel, config, workers=2)
        for ra, rb in zip(serial.records, parallel.records, strict=True):
            assert (ra.T, ra.p, ra.r) == (rb.T, rb.p, rb.r)
            assert ra.n_ok == rb.n_ok and ra.failures == rb.failures
            assert ra.mae == rb.mae and ra.mse == rb.mse
            assert np.array_equal(ra.per_origin_abs, rb.per_origin_abs)
            assert np.array_equal(ra.per_origin_sq, rb.per_origin_sq)
        failed.append({name for rec in serial.records for _, name in rec.failures})
    assert failed[1]
    assert {"SingularDesignError", "SingularMomentError"} <= failed[2]
    assert failed[3] == {"SingularDesignError"}


@pytest.mark.parametrize("case", ["clipped", "corrupted-reading", "minimal-T"])
def test_grid_cells_match_cells_run_alone(case):
    # The ranks of one (T, p) fit each origin's window in turn and share its
    # design factor. Every record must equal its cell run alone, bit for bit,
    # and no rank's record may depend on which other ranks shared the window.
    refused = {}   # (T, p, r) -> the class every origin of that cell fails with
    if case == "clipped":
        panel = clipped_panel(cointegrated_spec(d=3, r_true=1, n_obs=3000, seed=11), 0.25)
        config = BacktestConfig(T_grid=(96, 192), p_grid=(1, 2), horizon=4,
                                n_origins=20, seed=3)
    elif case == "corrupted-reading":
        panel = _corrupted_reading_panel()
        config = BacktestConfig(T_grid=(96,), p_grid=(1, 2), horizon=4, n_origins=40)
    else:
        # (T, p) = (6, 2) is too short for any fit; (6, 1) and (10, 2) leave
        # 4 < 2d rows beyond z for d = 3, so r = 1 is not identified there.
        panel = generate(cointegrated_spec(d=3, r_true=1, n_obs=200, seed=5))
        config = BacktestConfig(T_grid=(6, 10), p_grid=(1, 2), horizon=4,
                                n_origins=10, seed=1)
        refused = {(6, 2, r): "InsufficientDataError" for r in range(4)}
        refused |= {(6, 1, 1): "SingularMomentError", (10, 2, 1): "SingularMomentError"}
    result = run_grid(panel, config)
    assert len(result.records) == len(config.T_grid) * len(config.p_grid) * 4
    assert any(rec.failures for rec in result.records)
    for rec in result.records:
        cell = run_cell(panel, rec.T, rec.p, rec.r, result.origins, config.horizon,
                        det=config.det)
        assert np.array_equal(rec.origins_ok, cell.origins_ok)
        assert rec.failures == cell.failures
        if cell.errors.shape[0]:
            assert rec.mae == mae(cell.errors) and rec.mse == mse(cell.errors)
            assert np.array_equal(rec.per_origin_abs, per_origin_loss(cell.errors, "absolute"))
            assert np.array_equal(rec.per_origin_sq, per_origin_loss(cell.errors, "squared"))
        else:
            assert rec.mae is None and rec.mse is None
        if (rec.T, rec.p, rec.r) in refused:
            assert [name for _, name in rec.failures] == [refused[rec.T, rec.p, rec.r]] * 10
    # A subset of the ranks, in descending order, serially and in the pool.
    full = {(rec.T, rec.p, rec.r): rec for rec in result.records}
    for workers in (1, 2):
        subset = run_grid(panel, dataclasses.replace(config, r_grid=(3, 1)), workers=workers)
        assert [rec.r for rec in subset.records[:2]] == [3, 1]
        for rec in subset.records:
            want = full[rec.T, rec.p, rec.r]
            assert rec.mae == want.mae and rec.mse == want.mse
            assert np.array_equal(rec.origins_ok, want.origins_ok)
            assert np.array_equal(rec.per_origin_abs, want.per_origin_abs)
            assert np.array_equal(rec.per_origin_sq, want.per_origin_sq)
            assert rec.failures == want.failures


def test_finished_grid_keeps_no_reference_to_its_panel():
    # Every fitted window is a view of the panel's values; none may outlive
    # the grid and keep them alive.
    panel = generate(cointegrated_spec(d=3, r_true=1, n_obs=400, seed=2))
    values = weakref.ref(panel.values)
    run_grid(panel, BacktestConfig(T_grid=(96,), p_grid=(1, 2), horizon=4, n_origins=3))
    del panel
    gc.collect()
    assert values() is None


def test_per_origin_losses_account_for_failures():
    spec = cointegrated_spec(d=2, r_true=1, n_obs=400, seed=2)
    panel = generate(spec)
    config = BacktestConfig(T_grid=(96,), p_grid=(1,), r_grid=(0, 1),
                            horizon=4, n_origins=12, seed=6, det=CONST)
    result = run_grid(panel, config)
    for rec in result.records:
        assert rec.per_origin_abs.shape == (12 - rec.n_failed,)
        assert rec.per_origin_sq.shape == (12 - rec.n_failed,)
        if rec.mae is not None:
            assert rec.mae >= 0.0 and rec.mse >= 0.0


def test_limit_cells_match_direct_pipelines():
    # (p, r=d) equals a levels VAR(p); (p, r=0) equals the differenced
    # VAR(p-1) pipeline -- at the error-record level, on shared origins.
    from windvecm import difference

    spec = cointegrated_spec(d=2, r_true=1, n_obs=600, seed=13)
    panel = generate(spec)
    origins = sample_origins(600, 192, 6, 20, seed=4)
    full = run_cell(panel, 192, 2, 2, origins, 6, det=CONST)
    zero = run_cell(panel, 192, 2, 0, origins, 6, det=CONST)
    for idx, o in enumerate(origins):
        window = panel.window(o - 191, o + 1)
        lv = forecast_var(fit_var(window, 2, CONST), window, 6).values
        assert np.abs(full.errors[idx] - (panel.values[o + 1 : o + 7] - lv)).max() <= 1e-8
        dwin = difference(window)
        dpath = forecast_var(fit_var(dwin, 1, CONST), dwin, 6).values
        cum = window.values[-1] + np.cumsum(dpath, axis=0)
        assert np.abs(zero.errors[idx] - (panel.values[o + 1 : o + 7] - cum)).max() <= 1e-8


def test_clip_flag_flows_through_grid():
    # A panel pushed deep below zero forces negative forecasts; with clip0
    # the recorded errors must reflect the floored paths.
    rng = np.random.default_rng(44)
    values = rng.standard_normal((400, 2)).cumsum(axis=0) - 200.0
    panel = TimeSeriesPanel.from_values(values)
    config = dict(T_grid=(96,), p_grid=(1,), r_grid=(0,), horizon=4,
                  n_origins=10, seed=5, det=NONE)
    raw = run_grid(panel, BacktestConfig(**config))
    clipped = run_grid(panel, BacktestConfig(**config, clip_nonnegative=True))
    # forecasts near -200 clip to 0, so errors (actual - forecast) move by ~200
    assert clipped.records[0].mae != raw.records[0].mae
    assert clipped.records[0].mae > raw.records[0].mae


# --------------------------------------------------------------------------
# summaries
# --------------------------------------------------------------------------

def test_summary_improvements_nonnegative_with_limit_cells():
    spec = cointegrated_spec(d=3, r_true=1, n_obs=800, seed=21)
    panel = generate(spec)
    config = BacktestConfig(T_grid=(96, 192), p_grid=(1, 2), r_grid=None,
                            horizon=4, n_origins=25, seed=11, det=CONST)
    result = run_grid(panel, config)
    for metric in ("mae", "mse"):
        for row in summarize_best(result, metric):
            assert row.best_loss is not None
            assert row.improvement_vs_diff_var >= 0.0
            assert row.improvement_vs_levels_var >= 0.0


def test_summary_reports_dominating_cell():
    spec = cointegrated_spec(d=2, r_true=1, n_obs=500, seed=30)
    panel = generate(spec)
    config = BacktestConfig(T_grid=(96,), p_grid=(1,), r_grid=(0, 1, 2),
                            horizon=4, n_origins=20, seed=8, det=CONST)
    result = run_grid(panel, config)
    rows = summarize_best(result, "mae")
    losses = {rec.r: rec.mae for rec in result.records}
    best_r = min(losses, key=losses.get)
    assert rows[0].best_r == best_r
    assert rows[0].best_loss == losses[best_r]


def test_summary_row_for_all_failed_T():
    panel = TimeSeriesPanel.from_values(np.full((200, 2), 1.0))
    config = BacktestConfig(T_grid=(48,), p_grid=(2,), r_grid=(1, 2),
                            horizon=4, n_origins=10, seed=0, det=NONE)
    result = run_grid(panel, config)
    rows = summarize_best(result, "mae")
    assert rows == (TSummary(48, None, None, None, None, None),)
    assert _summary_table(rows, "mae")[-1] == "  note: T=48: all cells failed"
    assert _summary_csv_lines(rows)[1] == "48,,,,,,all cells failed"


def test_summary_rejects_unknown_metric_and_empty_result():
    panel = generate(random_walk_spec(2, 200, seed=0))
    config = BacktestConfig(T_grid=(48,), p_grid=(1,), r_grid=(0,),
                            horizon=4, n_origins=5, seed=0, det=NONE)
    result = run_grid(panel, config)
    with pytest.raises(InvalidInputError, match="got 'rmse'"):
        summarize_best(result, "rmse")
    with pytest.raises(InvalidInputError, match="empty backtest result"):
        summarize_best(dataclasses.replace(result, records=()), "mae")


def test_config_validation():
    with pytest.raises(InvalidInputError):
        BacktestConfig(T_grid=(5,), p_grid=(7,))
    with pytest.raises(InvalidInputError):
        BacktestConfig(horizon=0)
    with pytest.raises(InvalidInputError):
        BacktestConfig(n_origins=0)
    with pytest.raises(InvalidInputError):
        BacktestConfig(T_grid=())
    with pytest.raises(InvalidInputError, match="r_grid must be non-empty"):
        BacktestConfig(r_grid=())
    with pytest.raises(InvalidInputError, match="ranks >= 0"):
        BacktestConfig(r_grid=(0, -1))
    # a repeated grid value would fit and report the same cells twice
    for grid in (dict(T_grid=(96, 192, 96)), dict(p_grid=(1, 1)), dict(r_grid=(0, 2, 2))):
        with pytest.raises(InvalidInputError, match="repeats a value"):
            BacktestConfig(**grid)


# --------------------------------------------------------------------------
# combination runs
# --------------------------------------------------------------------------

def test_combination_of_model_with_itself():
    spec = cointegrated_spec(d=2, r_true=1, n_obs=500, seed=15)
    panel = generate(spec)
    origins = sample_origins(500, 96, 4, 15, seed=3)
    result = run_combination(panel, 96, (2, 1), (2, 1), origins, 4, det=CONST)
    assert result.mae["a"] == result.mae["b"] == result.mae["combined"]
    assert result.mse["a"] == result.mse["b"] == result.mse["combined"]
    assert np.array_equal(result.abs_losses["a"], result.abs_losses["combined"])


def test_combination_reports_all_three_models():
    spec = cointegrated_spec(d=3, r_true=1, n_obs=900, seed=16)
    panel = generate(spec)
    origins = sample_origins(900, 192, 8, 30, seed=5)
    result = run_combination(panel, 192, (3, 3), (2, 1), origins, 8, det=CONST)
    assert result.origins_ok.size == 30
    # combination is evaluated, never asserted to dominate
    assert result.mae["combined"] > 0.0
    for scores in (result.mae, result.mse, result.abs_losses, result.sq_losses):
        assert list(scores) == ["a", "b", "combined"]
    for name in ("a", "b", "combined"):
        assert result.abs_losses[name].shape == (30,)
        assert result.sq_losses[name].shape == (30,)


def test_combination_with_partial_failures_matches_cells():
    panel = _partly_constant_panel()
    origins = np.arange(130, 260, 5)
    result = run_combination(panel, 30, (2, 0), (2, 1), origins, 8, det=NONE)
    assert result.n_failed == 15
    assert result.origins_ok.size == 11
    for name, (p, r) in (("a", (2, 0)), ("b", (2, 1))):
        cell = run_cell(panel, 30, p, r, origins, 8, det=NONE)
        keep = np.isin(cell.origins_ok, result.origins_ok)
        assert np.array_equal(cell.origins_ok[keep], result.origins_ok)
        errors = cell.errors[keep]
        assert np.array_equal(result.abs_losses[name], np.abs(errors).sum(axis=(1, 2)))
        assert np.array_equal(result.sq_losses[name], (errors**2).sum(axis=(1, 2)))
        assert result.mae[name] == mae(errors) and result.mse[name] == mse(errors)
    for losses in (result.abs_losses, result.sq_losses):
        assert {losses[name].shape for name in losses} == {(11,)}


def test_combination_with_every_origin_failed_raises():
    # every window lies in the constant stretch, where no rank-1 fit exists
    panel = _partly_constant_panel()
    with pytest.raises(InsufficientDataError, match="every origin failed"):
        run_combination(panel, 30, (2, 1), (2, 1), np.arange(130, 195, 5), 8, det=NONE)
