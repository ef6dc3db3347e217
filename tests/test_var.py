import warnings

import numpy as np
import pytest

from helpers import simulate_var_panel, stable_var_model

from windvecm import (
    DeterministicSpec,
    InsufficientDataError,
    InsufficientHistoryError,
    InvalidInputError,
    NonFiniteForecastError,
    SingularDesignError,
    TimeSeriesPanel,
    VarModel,
    backtest,
    cointegrated_spec,
    fit_var,
    forecast_var,
    generate,
    run_cell,
    var_to_vecm,
)

NONE = DeterministicSpec.NONE
CONST = DeterministicSpec.CONSTANT


def test_noiseless_diagonal_var_recovered_exactly():
    phi = np.diag([0.5, 0.3])
    y = np.zeros((60, 2))
    y[0] = [3.0, -2.0]
    for t in range(1, 60):
        y[t] = phi @ y[t - 1]
    model = fit_var(TimeSeriesPanel.from_values(y), 1, NONE)
    assert np.abs(model.phi[0] - phi).max() <= 1e-10


def test_iid_noise_coefficients_shrink_with_n():
    # Monte-Carlo oracle: on white noise the OLS lag coefficient of entry
    # (i, j) is ~ N(0, 1/n), so max |phi| over d^2 = 9 entries stays below
    # 5 / sqrt(n) with large margin and shrinks as n quadruples.
    sizes = (400, 6400)
    worst = {}
    for n in sizes:
        worst[n] = 0.0
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            panel = TimeSeriesPanel.from_values(rng.standard_normal((n, 3)))
            model = fit_var(panel, 1, NONE)
            worst[n] = max(worst[n], np.abs(model.phi[0]).max())
        assert worst[n] < 5.0 / np.sqrt(n)
    assert worst[6400] < worst[400]


def test_fit_matches_normal_equations_oracle():
    # Independent textbook solve: b = (X'X)^-1 X'Y via np.linalg.solve.
    rng = np.random.default_rng(42)
    model = stable_var_model(rng, d=3, p=2, det=CONST)
    panel = simulate_var_panel(model, 600, rng)
    fitted = fit_var(panel, 2, CONST)

    y = panel.values
    n = panel.n_obs
    rows = []
    for t in range(2, n):
        rows.append(np.concatenate([y[t - 1], y[t - 2], [1.0]]))
    x = np.asarray(rows)
    resp = y[2:]
    b = np.linalg.solve(x.T @ x, x.T @ resp)
    phi1, phi2, psi = b[0:3].T, b[3:6].T, b[6:7].T
    assert np.abs(fitted.phi[0] - phi1).max() <= 1e-8
    assert np.abs(fitted.phi[1] - phi2).max() <= 1e-8
    assert np.abs(fitted.psi - psi).max() <= 1e-8
    cov = (resp - x @ b).T @ (resp - x @ b) / (n - 2)
    assert np.abs(fitted.resid_cov - cov).max() <= 1e-8


def test_residuals_orthogonal_to_regressors():
    rng = np.random.default_rng(8)
    model = stable_var_model(rng, d=2, p=3, det=CONST)
    panel = simulate_var_panel(model, 400, rng)
    fitted = fit_var(panel, 3, CONST)
    y = panel.values
    rows = [np.concatenate([y[t - 1], y[t - 2], y[t - 3], [1.0]])
            for t in range(3, panel.n_obs)]
    x = np.asarray(rows)
    b = np.vstack([m.T for m in fitted.phi] + [fitted.psi.T])
    resid = y[3:] - x @ b
    scale = np.abs(x).max() * np.abs(resid).max()
    assert np.abs(x.T @ resid).max() <= 1e-6 * max(scale, 1.0)


def test_relabeling_invariance():
    rng = np.random.default_rng(21)
    model = stable_var_model(rng, d=3, p=1, det=NONE)
    panel = simulate_var_panel(model, 500, rng)
    perm = np.array([2, 0, 1])
    a = fit_var(panel, 1, NONE)
    b = fit_var(TimeSeriesPanel.from_values(panel.values[:, perm]), 1, NONE)
    assert np.abs(b.phi[0] - a.phi[0][np.ix_(perm, perm)]).max() <= 1e-10


def test_a_level_shift_refuses_no_fit_and_shifts_the_forecasts():
    # Under a constant the design measures Y_{t-1} from the window's last
    # reading, so an offset of 1e5 on every reading must not push a fit over
    # the condition limit. Bound: about 10x the largest deviation, 5.2e-12
    # of the largest forecast, over 224 fits (T = 96..768, p = 1..7).
    panel = generate(cointegrated_spec(d=6, r_true=3, n_obs=4000, seed=1))
    shifted = TimeSeriesPanel.from_values(panel.values + 1e5)
    for start, T in ((1000, 96), (3200, 384), (2500, 768)):
        base, moved = panel.window(start, start + T), shifted.window(start, start + T)
        for p in (1, 4, 7):
            want = forecast_var(fit_var(base, p, CONST), base, 8).values
            got = forecast_var(fit_var(moved, p, CONST), moved, 8).values
            assert np.abs(got - 1e5 - want).max() <= 5e-11 * np.abs(want).max()


def test_insufficient_rows_error():
    panel = TimeSeriesPanel.from_values(np.arange(20, dtype=float).reshape(10, 2))
    with pytest.raises(InsufficientDataError):
        fit_var(panel, 7, CONST)


def test_singular_design_error_carries_condition():
    # Two identical noisy regions make the lag block exactly collinear.
    rng = np.random.default_rng(31)
    col = rng.standard_normal(100).cumsum()
    panel = TimeSeriesPanel.from_values(np.column_stack([col, col]))
    with pytest.raises(SingularDesignError) as err:
        fit_var(panel, 1, NONE)
    assert err.value.condition > 1e10


def test_noiseless_degenerate_design_fits_exactly():
    # Constant panel: the design is rank deficient but exactly consistent,
    # so the minimum-norm fit reproduces the data instead of failing.
    panel = TimeSeriesPanel.from_values(np.full((30, 2), 7.0))
    model = fit_var(panel, 2, NONE)
    path = forecast_var(model, panel, 4)
    assert np.abs(path.values - 7.0).max() <= 1e-9


def test_forecast_identity_dynamics_is_persistence():
    model = VarModel(phi=(np.eye(2),), psi=np.zeros((2, 0)), det=NONE,
                     resid_cov=np.eye(2))
    history = TimeSeriesPanel.from_values([[1.0, 2.0], [3.5, -1.25]])
    path = forecast_var(model, history, 8)
    assert np.array_equal(path.values, np.tile([3.5, -1.25], (8, 1)))


def test_forecast_pure_mean_model():
    c = np.array([4.0, -2.5])
    model = VarModel(phi=(np.zeros((2, 2)),), psi=c.reshape(2, 1), det=CONST,
                     resid_cov=np.eye(2))
    history = TimeSeriesPanel.from_values([[10.0, 10.0]])
    path = forecast_var(model, history, 5)
    assert np.array_equal(path.values, np.tile(c, (5, 1)))


def test_forecast_matches_brute_force_recursion():
    rng = np.random.default_rng(12)
    model = stable_var_model(rng, d=3, p=2, det=CONST)
    panel = simulate_var_panel(model, 300, rng)
    fitted = fit_var(panel, 2, CONST)
    path = forecast_var(fitted, panel, 8)

    # independent step-by-step recursion on a plain list
    hist = [panel.values[-2], panel.values[-1]]
    expect = []
    for _ in range(8):
        y = fitted.psi[:, 0] + fitted.phi[0] @ hist[-1] + fitted.phi[1] @ hist[-2]
        hist.append(y)
        expect.append(y)
    assert np.abs(path.values - np.asarray(expect)).max() <= 1e-12


def per_lag_recursion(model, history, horizon, clip_nonnegative):
    """Reference forecast: one d x d product per lag and step, lags kept as a list."""
    lags = [history.values[-k] for k in range(1, model.p + 1)]
    out = []
    for _ in range(horizon):
        acc = np.zeros(model.d)
        for k in range(model.p):
            acc += model.phi[k] @ lags[k]
        if model.det.n_terms:
            acc = acc + model.psi[:, 0]
        out.append(acc)
        lags = [acc] + lags[:-1]
    out = np.asarray(out)
    return np.maximum(out, 0.0) if clip_nonnegative else out


def scored_cell(monkeypatch, model, history, horizon, clip):
    """`run_cell` at the last row of ``history``, with `fit_vecm` returning ``model``.

    The cell's one window is ``history`` and its target rows are zero, so a
    forecast the cell scores is minus its recorded error, bit for bit.
    """
    values = np.vstack((history.values[:1], history.values, np.zeros((horizon, history.d))))
    monkeypatch.setattr(backtest, "fit_vecm", lambda *args: var_to_vecm(model))
    o = history.n_obs
    return run_cell(TimeSeriesPanel.from_values(values), o, model.p, 0, [o], horizon,
                    clip_nonnegative=clip)


@pytest.mark.parametrize("clip", [False, True])
@pytest.mark.parametrize("det", [NONE, CONST])
@pytest.mark.parametrize("p", [1, 4])
def test_forecast_matches_per_lag_recursion(p, det, clip, monkeypatch):
    rng = np.random.default_rng(30 + p)
    panel = simulate_var_panel(stable_var_model(rng, d=4, p=p, det=det), 400, rng)
    fitted = fit_var(panel, p, det)
    if clip:
        # run_cell floors the path of this recursion at 0 MW
        got = -scored_cell(monkeypatch, fitted, panel, 24, clip=True).errors[0]
    else:
        got = forecast_var(fitted, panel, 24).values
    want = per_lag_recursion(fitted, panel, 24, clip)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    if clip:
        assert (want == 0.0).any()      # the floor was exercised


@pytest.mark.parametrize("clip", [False, True])
@pytest.mark.parametrize("p", [1, 4])
def test_overflowing_recursion_raises_even_when_clipped(p, clip, monkeypatch):
    phi = (1e200 * np.eye(2),) + (np.zeros((2, 2)),) * (p - 1)
    model = VarModel(phi=phi, psi=np.zeros((2, 0)), det=NONE, resid_cov=np.eye(2))
    history = TimeSeriesPanel.from_values(np.ones((p, 2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteForecastError):
            forecast_var(model, history, 4)
        # run_cell records the failure before its floor could hide it
        cell = scored_cell(monkeypatch, model, history, 4, clip)
    assert cell.failures == ((p, "NonFiniteForecastError"),) and not cell.errors.size


def test_forecast_h1_equals_fitted_equation():
    rng = np.random.default_rng(13)
    model = stable_var_model(rng, d=2, p=2, det=CONST)
    panel = simulate_var_panel(model, 200, rng)
    fitted = fit_var(panel, 2, CONST)
    path = forecast_var(fitted, panel, 1)
    terms = [fitted.phi[k] @ panel.values[-1 - k] for k in range(2)] + [fitted.psi[:, 0]]
    acc = np.zeros(2)
    for term in terms:
        acc += term
    # The recursion adds the same products in another order, so the two
    # differ only by rounding: at most 2 ulps of the largest term over seeds
    # 0-199, for fitted and true models alike.
    ulp = np.spacing(np.abs(terms).max())
    assert np.abs(path.values[0] - acc).max() <= 4 * ulp


def test_forecast_history_too_short():
    rng = np.random.default_rng(1)
    model = stable_var_model(rng, d=2, p=3, det=NONE)
    with pytest.raises(InsufficientHistoryError):
        forecast_var(model, TimeSeriesPanel.from_values([[0.0, 0.0]]), 4)
    history = TimeSeriesPanel.from_values(np.zeros((5, 2)))
    with pytest.raises(InvalidInputError, match="horizon must be >= 1, got 0"):
        forecast_var(model, history, 0)
    with pytest.raises(InvalidInputError, match="series"):
        forecast_var(model, TimeSeriesPanel.from_values(np.zeros((5, 3))), 4)


def test_forecast_clip_floors_reported_path_only(monkeypatch):
    model = VarModel(phi=(np.zeros((1, 1)),), psi=np.array([[-3.0]]), det=CONST,
                     resid_cov=np.eye(1))
    history = TimeSeriesPanel.from_values([5.0])
    assert np.all(forecast_var(model, history, 3).values == -3.0)
    assert np.all(-scored_cell(monkeypatch, model, history, 3, clip=False).errors == -3.0)
    assert np.all(-scored_cell(monkeypatch, model, history, 3, clip=True).errors == 0.0)
    # Y_t = -Y_{t-1} from 5 runs -5, 5, -5, 5; a floor inside the recursion
    # would hold every step at 0.
    flip = VarModel(phi=(-np.eye(1),), psi=np.zeros((1, 0)), det=NONE, resid_cov=np.eye(1))
    scored = -scored_cell(monkeypatch, flip, history, 4, clip=True).errors[0]
    assert np.array_equal(scored, [[0.0], [5.0], [0.0], [5.0]])


def test_resid_cov_divisor_is_effective_n():
    rng = np.random.default_rng(55)
    model = stable_var_model(rng, d=2, p=1, det=NONE)
    panel = simulate_var_panel(model, 150, rng)
    fitted = fit_var(panel, 1, NONE)
    y = panel.values
    b = fitted.phi[0].T
    resid = y[1:] - y[:-1] @ b
    assert np.allclose(fitted.resid_cov, resid.T @ resid / (panel.n_obs - 1),
                       atol=1e-12, rtol=0)
