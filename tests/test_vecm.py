import gc
import weakref

import numpy as np
import pytest

from helpers import simulate_var_panel, stable_var_model

from windvecm import (
    DeterministicSpec,
    InsufficientDataError,
    InvalidInputError,
    InvalidRankError,
    SingularMomentError,
    TimeSeriesPanel,
    VarModel,
    VecmModel,
    build_design,
    cointegrated_spec,
    difference,
    fit_var,
    fit_vecm,
    forecast_var,
    forecast_vecm,
    generate,
    random_walk_spec,
    var_to_vecm,
    vecm_to_var,
)
from windvecm import vecm

NONE = DeterministicSpec.NONE
CONST = DeterministicSpec.CONSTANT


# --------------------------------------------------------------------------
# Johansen estimation
# --------------------------------------------------------------------------

def test_random_walks_have_small_eigenvalues():
    # Threshold 0.05 frozen from a 200-replication Monte-Carlo of the null
    # (d=6 independent walks, n=2000, p=2, constant): observed max 0.026,
    # 99th percentile 0.023.
    for seed in (0, 1, 2):
        panel = generate(random_walk_spec(6, 2000, seed=seed))
        model = fit_vecm(panel, p=2, r=0, det=CONST)
        assert model.eigenvalues is not None
        assert model.eigenvalues.shape == (6,)
        assert model.eigenvalues.max() < 0.05


def test_known_cointegration_space_recovered():
    spec = cointegrated_spec(d=4, r_true=2, n_obs=2000, seed=9)
    panel = generate(spec)
    model = fit_vecm(panel, p=2, r=2, det=CONST)
    subspace_angles = pytest.importorskip("scipy.linalg").subspace_angles

    angle = np.degrees(subspace_angles(model.beta, spec.beta)).max()
    assert angle < 5.0


def test_eigenvalues_sorted_descending_in_unit_interval():
    rng = np.random.default_rng(14)
    for seed in range(6):
        d = 2 + seed % 3
        panel = TimeSeriesPanel.from_values(
            rng.standard_normal((120, d)).cumsum(axis=0)
        )
        for p in (1, 2, 3):
            model = fit_vecm(panel, p=p, r=1, det=CONST)
            lam = model.eigenvalues
            assert np.all(lam >= 0.0) and np.all(lam < 1.0)
            assert np.all(np.diff(lam) <= 0.0)


def test_full_rank_matches_var_one_step():
    rng = np.random.default_rng(3)
    base = stable_var_model(rng, d=3, p=2, det=CONST)
    panel = simulate_var_panel(base, 500, rng)
    vm = fit_vecm(panel, p=2, r=3, det=CONST)
    lv = fit_var(panel, 2, CONST)
    f_vecm = forecast_vecm(vm, panel, 1).values
    f_var = forecast_var(lv, panel, 1).values
    assert np.abs(f_vecm - f_var).max() <= 1e-8


def short_run_regressors(values, p, det):
    """[dY_{t-1} | ... | dY_{t-p+1} | constant] for t = p .. n-1, sliced
    straight from the panel values rather than built by `build_design`."""
    n = values.shape[0]
    dv = values[1:] - values[:-1]  # dv[s - 1] = dY_s
    lags = [dv[p - k - 1 : n - k - 1] for k in range(1, p)]
    return np.hstack([*lags, np.ones((n - p, det.n_terms))])


def concentrated_residuals(panel, p, det):
    """R0, R1 rebuilt from the concentration step definition."""
    y = panel.values
    z = short_run_regressors(y, p, det)
    r0, r1 = y[p:] - y[p - 1 : -1], y[p - 1 : -1]
    if z.shape[1]:
        r0 = r0 - z @ np.linalg.lstsq(z, r0, rcond=None)[0]
        r1 = r1 - z @ np.linalg.lstsq(z, r1, rcond=None)[0]
    return r0, r1


def concentrated_moments(panel, p, det):
    """S00, S01, S11 rebuilt from the concentration step definition."""
    r0, r1 = concentrated_residuals(panel, p, det)
    n = r0.shape[0]
    return r0.T @ r0 / n, r0.T @ r1 / n, r1.T @ r1 / n


def textbook_vecm(panel, p, r, det):
    """(Pi, gamma, psi, resid_cov) by the textbook recipe: regressors sliced
    from the panel values and joined with np.hstack, scipy's generalized
    symmetric eigensolver for beta, and a least-squares regression of dY_t
    on [z, beta' Y_{t-1}]."""
    eigh = pytest.importorskip("scipy.linalg").eigh

    y = panel.values
    dy, y1 = y[p:] - y[p - 1 : -1], y[p - 1 : -1]
    s00, s01, s11 = concentrated_moments(panel, p, det)
    _, vectors = eigh(s01.T @ np.linalg.solve(s00, s01), s11)
    beta = vectors[:, ::-1][:, :r]
    x = np.hstack([short_run_regressors(y, p, det), y1 @ beta])
    b = np.linalg.lstsq(x, dy, rcond=None)[0]
    resid = dy - x @ b
    d, m = panel.d, det.n_terms
    gamma = [b[k * d : (k + 1) * d].T for k in range(p - 1)]
    psi = b[d * (p - 1) : d * (p - 1) + m].T
    alpha = b[d * (p - 1) + m :].T
    return alpha @ beta.T, gamma, psi, resid.T @ resid / dy.shape[0]


@pytest.mark.parametrize("p, det", [(1, NONE), (3, NONE), (3, CONST), (7, CONST)])
def test_fit_matches_textbook_recipe(p, det):
    # p = 1 without a constant is the branch with no concentration regressors.
    if p == 7:
        # A d = 6 window with 48 effective rows, fewer than the 49 columns of
        # [z | Y_{t-1} | dY_t], so the fit's triangular factor is wider than tall.
        panel = generate(cointegrated_spec(d=6, r_true=3, n_obs=400, seed=4)).window(0, 55)
    else:
        panel = generate(cointegrated_spec(d=4, r_true=2, n_obs=700, seed=21))
    for r in range(panel.d + 1):
        model = fit_vecm(panel, p=p, r=r, det=det)
        pi, gamma, psi, cov = textbook_vecm(panel, p, r, det)
        for got, want in [(model.pi, pi), (model.psi, psi), (model.resid_cov, cov),
                          *zip(model.gamma, gamma)]:
            assert got.shape == want.shape
            scale = max(1.0, np.abs(want).max(initial=0.0))
            assert np.abs(got - want).max(initial=0.0) <= 1e-10 * scale


def test_beta_normalization_is_s11_orthonormal():
    spec = cointegrated_spec(d=4, r_true=2, n_obs=1200, seed=4)
    panel = generate(spec)
    model = fit_vecm(panel, p=2, r=2, det=CONST)
    _, _, s11 = concentrated_moments(panel, 2, CONST)
    gram = model.beta.T @ s11 @ model.beta
    assert np.abs(gram - np.eye(2)).max() <= 1e-8


def test_eigenvalues_match_generalized_symmetric_solver():
    # Oracles for the Cholesky reduction: direct generalized solves of
    # S10 S00^-1 S01 v = lambda S11 v.
    linalg = pytest.importorskip("scipy.linalg")
    eig, eigh = linalg.eig, linalg.eigh

    panel = generate(cointegrated_spec(d=4, r_true=2, n_obs=800, seed=8))
    s00, s01, s11 = concentrated_moments(panel, 3, CONST)
    mid = s01.T @ np.linalg.solve(s00, s01)
    expected = eigh(mid, s11, eigvals_only=True)[::-1]
    # The direct QZ solve of the same pencil, which ignores its symmetry.
    direct = eig(mid, s11, right=False)
    assert np.abs(direct.imag).max() <= 1e-12
    direct = np.sort(direct.real)[::-1]
    for r in range(5):
        model = fit_vecm(panel, p=3, r=r, det=CONST)
        assert np.abs(model.eigenvalues - expected).max() <= 1e-10
        assert np.abs(model.eigenvalues - direct).max() <= 1e-10


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_eigenvalues_accurate_on_nearly_collinear_panel(seed):
    # A fourth series that tracks the third up to 1e-3 noise leaves S11 with
    # a condition number near 1e8. The eigenvalues are the squared canonical
    # correlations of R0 and R1, i.e. cos^2 of their principal angles, which
    # scipy computes from orthonormal bases without forming any moment
    # matrix. A solver that squares the residuals' condition number is off
    # by 1e-8 here; one that factors the residuals stays near 1e-13.
    subspace_angles = pytest.importorskip("scipy.linalg").subspace_angles

    values = generate(cointegrated_spec(d=3, r_true=1, n_obs=400, seed=seed)).values
    noise = 1e-3 * np.random.default_rng(seed).standard_normal(400)
    panel = TimeSeriesPanel.from_values(np.column_stack([values, values[:, 2] + noise]))
    r0, r1 = concentrated_residuals(panel, 2, CONST)
    expected = np.sort(np.cos(subspace_angles(r0, r1)) ** 2)[::-1]
    model = fit_vecm(panel, p=2, r=1, det=CONST)
    assert np.abs(model.eigenvalues - expected).max() <= 1e-11


def test_residual_determinant_identity():
    # Johansen: det(resid_cov_r) = det(S00) * prod_{i<=r} (1 - lambda_i).
    panel = generate(cointegrated_spec(d=4, r_true=2, n_obs=800, seed=8))
    s00, _, _ = concentrated_moments(panel, 3, CONST)
    for r in range(5):
        model = fit_vecm(panel, p=3, r=r, det=CONST)
        expected = np.linalg.det(s00) * np.prod(1.0 - model.eigenvalues[:r])
        assert abs(np.linalg.det(model.resid_cov) / expected - 1.0) <= 1e-10


def test_forecasts_invariant_to_cointegration_basis_rotation():
    # Only span(beta) matters: rotating (alpha, beta) by any orthogonal Q
    # leaves alpha beta' and hence every forecast unchanged.
    spec = cointegrated_spec(d=4, r_true=2, n_obs=900, seed=6)
    panel = generate(spec)
    model = fit_vecm(panel, p=2, r=2, det=CONST)
    theta = 0.7
    q = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    rotated = VecmModel(
        alpha=model.alpha @ q,
        beta=model.beta @ q,
        gamma=model.gamma,
        psi=model.psi,
        det=model.det,
        eigenvalues=model.eigenvalues,
        resid_cov=model.resid_cov,
    )
    f0 = forecast_vecm(model, panel, 8).values
    f1 = forecast_vecm(rotated, panel, 8).values
    scale = max(1.0, np.abs(f0).max())
    assert np.abs(f0 - f1).max() <= 1e-10 * scale


def test_rss_nonincreasing_in_rank():
    spec = cointegrated_spec(d=4, r_true=2, n_obs=600, seed=17)
    panel = generate(spec)
    previous = np.inf
    eff = panel.n_obs - 2
    for r in range(5):
        model = fit_vecm(panel, p=2, r=r, det=CONST)
        rss = float(np.trace(model.resid_cov)) * eff
        assert rss <= previous + 1e-8 * max(1.0, abs(previous))
        previous = rss


def test_intermediate_rank_with_single_lag():
    # p = 1 leaves no short-run matrices; the level term alone drives dY.
    spec = cointegrated_spec(d=3, r_true=1, n_obs=900, seed=19, p_true=1)
    panel = generate(spec)
    model = fit_vecm(panel, p=1, r=1, det=NONE)
    assert model.gamma == ()
    assert model.alpha.shape == (3, 1)
    var = vecm_to_var(model)
    assert np.allclose(var.phi[0], np.eye(3) + model.pi, atol=0, rtol=0)
    path = forecast_vecm(model, panel, 8)
    assert path.values.shape == (8, 3)
    assert np.isfinite(path.values).all()


def test_invalid_rank_rejected():
    panel = generate(random_walk_spec(2, 200, seed=0))
    with pytest.raises(InvalidRankError):
        fit_vecm(panel, p=1, r=3, det=NONE)
    with pytest.raises(InvalidRankError):
        fit_vecm(panel, p=1, r=-1, det=NONE)


@pytest.mark.parametrize("p", [1, 3])
@pytest.mark.parametrize("det", [NONE, CONST])
def test_fits_need_one_row_more_than_regressors(p, det):
    # Both fits need n_obs - p >= d*p + m + 1 rows. At d = 2 the shortest
    # window leaves d + 1 rows beyond the short-run regressors, so at most
    # one Johansen eigenvalue equals 1 and every rank is identified.
    d, m = 2, det.n_terms
    values = np.random.default_rng(p).normal(size=(p + d * p + m + 1, d)).cumsum(axis=0)
    short = TimeSeriesPanel.from_values(values[:-1])
    enough = TimeSeriesPanel.from_values(values)
    with pytest.raises(InsufficientDataError):
        fit_var(short, p, det)
    fit_var(enough, p, det)
    for r in range(d + 1):
        with pytest.raises(InsufficientDataError):
            fit_vecm(short, p, r, det)
        assert fit_vecm(enough, p, r, det).r == r


def test_ranks_inside_unit_eigenvalues_are_refused():
    # 52 rows at d = 6, p = 7 leave 45 - 37 = 8 < 2d rows beyond the
    # short-run regressors: 4 eigenvalues equal 1, so beta is arbitrary for
    # r = 1..3 (a 1 + 1e-15 rescale moved those forecasts by about 80 %).
    # The other ranks are determined and stay put under the rescale.
    panel = generate(cointegrated_spec(d=6, r_true=3, n_obs=400, seed=4)).window(0, 52)
    scaled = TimeSeriesPanel.from_values(panel.values * (1 + 1e-15))
    for r in (1, 2, 3):
        with pytest.raises(SingularMomentError, match="not identified"):
            fit_vecm(panel, p=7, r=r, det=CONST)
    for r in (0, 4, 5, 6):
        base = forecast_vecm(fit_vecm(panel, p=7, r=r, det=CONST), panel, 8).values
        moved = forecast_vecm(fit_vecm(scaled, p=7, r=r, det=CONST), scaled, 8).values
        assert np.abs(moved - base).max() <= 1e-10 * np.abs(base).max()


def test_a_series_the_constant_explains_is_singular_at_any_level():
    # Region 1 holds one value until the last reading, so the constant
    # explains its Y_{t-1} and S11 is singular. Shifted, what the
    # concentration leaves of that column is rounding noise, which must not
    # pass for a series: the check measures it against the column itself.
    values = generate(cointegrated_spec(d=2, r_true=1, n_obs=64, seed=0)).values.copy()
    values[:, 1] = 0.0
    values[-1, 1] = 0.3
    for c in (0.0, 385.7, 1e5):
        panel = TimeSeriesPanel.from_values(values + c)
        for r in (1, 2):
            with pytest.raises(SingularMomentError, match="S11"):
                fit_vecm(panel, p=1, r=r, det=CONST)
        assert fit_vecm(panel, p=1, r=0, det=CONST).eigenvalues is None


def test_ranks_share_a_window_factor_and_a_new_window_gets_its_own(monkeypatch):
    # Fits on one window object and order reuse its R factor, which lives
    # exactly as long as that object. A different window of the same shape
    # and order must not see that factor, and no fit may write to it.
    panel = generate(cointegrated_spec(d=3, r_true=1, n_obs=400, seed=6))
    a, b = panel.window(0, 200), panel.window(100, 300)
    fresh_b = TimeSeriesPanel(b.values.copy(), b.timestamps, b.labels)
    built = []

    def counting_build_design(window, *args, **kwargs):
        built.append(window)
        return build_design(window, *args, **kwargs)

    monkeypatch.setattr(vecm, "build_design", counting_build_design)

    def fits(window):
        return [fit_vecm(window, p=2, r=r, det=CONST) for r in range(4)]

    fits(a)
    got = [fit_vecm(b, p=2, r=0, det=CONST)]
    assert (2, CONST) in vecm._factors[b]
    _, factor, ss = vecm._design_r(b, 2, CONST)
    got += [fit_vecm(b, p=2, r=r, det=CONST) for r in range(1, 4)]
    assert built == [a, b]
    assert vecm._design_r(b, 2, CONST)[1] is factor
    assert vecm._design_r(a, 2, CONST)[1] is not factor
    assert not factor.flags.writeable and not ss.flags.writeable
    # Under a constant the design measures Y_{t-1} from the last reading.
    design = build_design(fresh_b, 2, CONST, levels=False)
    design[:, 4:7] -= fresh_b.values[-1]
    assert np.array_equal(factor, np.linalg.qr(design, mode="r"))
    for model, want in zip(got, fits(fresh_b), strict=True):
        for name in ("alpha", "beta", "psi", "eigenvalues", "resid_cov"):
            assert np.array_equal(getattr(model, name), getattr(want, name))
        assert all(np.array_equal(g, w) for g, w in zip(model.gamma, want.gamma, strict=True))
    assert built == [a, b, fresh_b]

    gc.collect()
    n_windows, factor_ref = len(vecm._factors), weakref.ref(factor)
    del b, factor, built[:]
    gc.collect()
    assert factor_ref() is None
    assert len(vecm._factors) == n_windows - 1


def test_model_sizes_come_from_its_arrays():
    panel = generate(cointegrated_spec(d=3, r_true=1, n_obs=400, seed=1))
    for p, r in ((1, 0), (2, 1), (3, 3)):
        model = fit_vecm(panel, p=p, r=r, det=CONST)
        rebuilt = VecmModel(
            alpha=model.alpha, beta=model.beta, gamma=model.gamma, psi=model.psi,
            det=model.det, eigenvalues=model.eigenvalues, resid_cov=model.resid_cov,
        )
        assert (rebuilt.d, rebuilt.r, rebuilt.p) == (model.d, model.r, model.p) == (3, r, p)


def test_model_rejects_inconsistent_alpha_beta():
    shared = dict(gamma=(), psi=np.zeros((3, 0)), det=NONE, eigenvalues=None,
                  resid_cov=np.eye(3))
    with pytest.raises(InvalidInputError, match="alpha/beta must both be d x r"):
        VecmModel(alpha=np.zeros((3, 1)), beta=np.zeros((3, 2)), **shared)
    with pytest.raises(InvalidInputError, match="2-D"):
        VecmModel(alpha=np.zeros(3), beta=np.zeros(3), **shared)
    with pytest.raises(InvalidRankError, match="rank 4 outside"):
        VecmModel(alpha=np.zeros((3, 4)), beta=np.zeros((3, 4)), **shared)
    with pytest.raises(InvalidInputError, match="gamma"):
        VecmModel(alpha=np.zeros((3, 1)), beta=np.zeros((3, 1)),
                  **{**shared, "gamma": (np.eye(2),)})
    with pytest.raises(InvalidInputError, match="psi"):
        VecmModel(alpha=np.zeros((3, 1)), beta=np.zeros((3, 1)),
                  **{**shared, "det": CONST})
    with pytest.raises(InvalidInputError, match="resid_cov"):
        VarModel(phi=(np.eye(3),), psi=np.zeros((3, 0)), det=NONE,
                 resid_cov=np.eye(2))
    with pytest.raises(InvalidInputError, match=r"eigenvalues must lie in \[0, 1\)"):
        VecmModel(alpha=np.zeros((3, 1)), beta=np.zeros((3, 1)),
                  **{**shared, "eigenvalues": [0.5, np.nan, 0.1]})
    with pytest.raises(InvalidInputError, match="expected 3 eigenvalues"):
        VecmModel(alpha=np.zeros((3, 1)), beta=np.zeros((3, 1)),
                  **{**shared, "eigenvalues": [0.5, 0.1]})
    with pytest.raises(InvalidInputError, match="sorted descending"):
        VecmModel(alpha=np.zeros((3, 1)), beta=np.zeros((3, 1)),
                  **{**shared, "eigenvalues": [0.1, 0.5, 0.2]})
    with pytest.raises(InvalidInputError, match="at least one matrix"):
        VarModel(phi=(), psi=np.zeros((3, 0)), det=NONE, resid_cov=np.eye(3))
    with pytest.raises(InvalidInputError, match="every phi matrix must be d x d"):
        VarModel(phi=(np.eye(3), np.eye(2)), psi=np.zeros((3, 0)), det=NONE,
                 resid_cov=np.eye(3))
    with pytest.raises(InvalidInputError, match="d >= 1"):
        VecmModel(alpha=np.zeros((0, 0)), beta=np.zeros((0, 0)), **shared)
    with pytest.raises(InvalidInputError, match="d >= 1"):
        VarModel(phi=(np.zeros((0, 0)),), psi=np.zeros((0, 0)), det=NONE,
                 resid_cov=np.zeros((0, 0)))


def test_constant_panel_degenerate_moments():
    # A constant panel has identically zero concentrated residuals: the
    # eigenproblem is undefined. r > 0 must fail; r = 0 needs no beta and
    # still produces the exact flat forecast (eigenvalues unavailable).
    panel = TimeSeriesPanel.from_values(np.full((60, 2), 5.0))
    with pytest.raises(SingularMomentError):
        fit_vecm(panel, p=2, r=1, det=CONST)
    model = fit_vecm(panel, p=2, r=0, det=CONST)
    assert model.eigenvalues is None
    path = forecast_vecm(model, panel, 6)
    assert np.abs(path.values - 5.0).max() <= 1e-9


def test_statsmodels_johansen_eigenvalues_agree():
    # Independent cross-implementation check. statsmodels regresses the
    # level at lag p-1 on the lagged differences; for p >= 2 that spans the
    # same residual space as the lag-1 convention used here, so the
    # eigenvalues must coincide to rounding. (For p = 1 statsmodels pairs
    # dY_t with Y_t, a different variant, hence excluded.)
    vecm_mod = pytest.importorskip("statsmodels.tsa.vector_ar.vecm")
    spec = cointegrated_spec(d=4, r_true=2, n_obs=1200, seed=23)
    panel = generate(spec)
    for det, det_order in ((NONE, -1), (CONST, 0)):
        for p in (2, 3, 5):
            ours = fit_vecm(panel, p=p, r=2, det=det).eigenvalues
            theirs = np.sort(vecm_mod.coint_johansen(panel.values, det_order, p - 1).eig)[::-1]
            assert np.abs(ours - theirs).max() <= 1e-10


# --------------------------------------------------------------------------
# Representation conversions
# --------------------------------------------------------------------------

def test_random_walk_conversion_limits():
    model = VarModel(phi=(np.eye(3),), psi=np.zeros((3, 0)), det=NONE,
                     resid_cov=np.eye(3))
    vecm = var_to_vecm(model)
    assert np.array_equal(vecm.pi, np.zeros((3, 3)))
    back = vecm_to_var(vecm)
    assert np.array_equal(back.phi[0], np.eye(3))


def test_scalar_two_lag_mapping():
    # d=1, p=2, phi = (0.5, 0.3): Pi = -1 + 0.5 + 0.3 = -0.2, Gamma_1 = -0.3,
    # and the conversion back recovers (0.5, 0.3) exactly.
    model = VarModel(
        phi=(np.array([[0.5]]), np.array([[0.3]])),
        psi=np.zeros((1, 0)),
        det=NONE,
        resid_cov=np.eye(1),
    )
    vecm = var_to_vecm(model)
    assert abs(vecm.pi[0, 0] - (-0.2)) <= 1e-15
    assert abs(vecm.gamma[0][0, 0] - (-0.3)) <= 1e-15
    back = vecm_to_var(vecm)
    assert abs(back.phi[0][0, 0] - 0.5) <= 1e-15
    assert abs(back.phi[1][0, 0] - 0.3) <= 1e-15


def test_roundtrip_identity_on_random_stable_vars():
    rng = np.random.default_rng(2)
    for trial in range(30):
        d = int(rng.integers(1, 5))
        p = int(rng.integers(1, 8))
        det = NONE if trial % 2 else CONST
        model = stable_var_model(rng, d, p, det=det)
        back = vecm_to_var(var_to_vecm(model))
        for a, b in zip(model.phi, back.phi):
            assert np.abs(a - b).max() <= 1e-12
        assert np.array_equal(model.psi, back.psi)


def test_conversion_satisfies_difference_equation_identity():
    # Algebraic oracle: on any path generated by the levels equation, the
    # converted (Pi, Gamma) must reproduce dY_t exactly.
    rng = np.random.default_rng(18)
    model = stable_var_model(rng, d=3, p=3, det=CONST)
    panel = simulate_var_panel(model, 150, rng)
    vecm = var_to_vecm(model)
    y = panel.values
    for t in range(4, 30):
        level_rhs = model.psi[:, 0].copy()
        for k in range(3):
            level_rhs += model.phi[k] @ y[t - 1 - k]
        dy_lhs = level_rhs - y[t - 1]
        dy_rhs = vecm.psi[:, 0] + vecm.pi @ y[t - 1]
        for k, g in enumerate(vecm.gamma, start=1):
            dy_rhs = dy_rhs + g @ (y[t - k] - y[t - k - 1])
        assert np.abs(dy_lhs - dy_rhs).max() <= 1e-12


# --------------------------------------------------------------------------
# Forecast equivalences
# --------------------------------------------------------------------------

def test_persistence_forecast_path():
    panel = generate(random_walk_spec(3, 400, seed=1))
    model = fit_vecm(panel, p=1, r=0, det=NONE)
    path = forecast_vecm(model, panel, 8)
    assert np.array_equal(path.values, np.tile(panel.values[-1], (8, 1)))


def test_full_rank_forecasts_match_var():
    spec = cointegrated_spec(d=4, r_true=2, n_obs=800, seed=2)
    panel = generate(spec)
    for p in (1, 2, 3):
        f_vecm = forecast_vecm(fit_vecm(panel, p=p, r=4, det=CONST), panel, 8).values
        f_var = forecast_var(fit_var(panel, p, CONST), panel, 8).values
        assert np.abs(f_vecm - f_var).max() <= 1e-8


def test_zero_rank_forecasts_match_cumulated_difference_var():
    spec = cointegrated_spec(d=3, r_true=1, n_obs=700, seed=5)
    panel = generate(spec)
    for p in (2, 3, 4):
        f_vecm = forecast_vecm(fit_vecm(panel, p=p, r=0, det=CONST), panel, 8).values
        diff_panel = difference(panel)
        diff_var = fit_var(diff_panel, p - 1, CONST)
        dpath = forecast_var(diff_var, diff_panel, 8).values
        cumulated = panel.values[-1] + np.cumsum(dpath, axis=0)
        assert np.abs(f_vecm - cumulated).max() <= 1e-8


def test_forecast_vecm_delegates_shape_and_origin():
    spec = cointegrated_spec(d=2, r_true=1, n_obs=300, seed=8)
    panel = generate(spec)
    model = fit_vecm(panel, p=2, r=1, det=CONST)
    path = forecast_vecm(model, panel, 5, origin_index=123)
    assert path.values.shape == (5, 2)
    assert path.origin_index == 123
