import dataclasses
import warnings

import numpy as np
import pytest

from windvecm import (
    DgpSpec,
    InvalidInputError,
    InvalidSpecError,
    cointegrated_spec,
    generate,
    random_walk_spec,
    spec_from_json,
    spec_to_json,
    vecm_to_var,
)
from windvecm.panel import DeterministicSpec
from windvecm.var import companion_matrix
from windvecm.vecm import VecmModel


def test_same_seed_same_panel():
    spec = cointegrated_spec(d=3, r_true=1, n_obs=250, seed=42)
    a = generate(spec)
    b = generate(spec)
    assert np.array_equal(a.values, b.values)


def test_spec_arrays_are_read_only_copies():
    alpha = -0.4 * np.array([[1.0], [0.0]])
    spec = DgpSpec(
        alpha=alpha,
        beta=np.array([[1.0], [0.0]]),
        gamma=(0.2 * np.eye(2),),
        noise_cov=np.eye(2),
        n_obs=100,
        seed=3,
        initial=np.zeros(2),
    )
    before = generate(spec).values
    alpha[0, 0] = 5.0  # the caller's array, not the spec's
    for arr in (spec.alpha, spec.beta, spec.gamma[0], spec.noise_cov, spec.initial, *spec.phi):
        with pytest.raises(ValueError):
            arr[0] = 1.0
    assert spec.alpha[0, 0] == -0.4
    assert np.array_equal(generate(spec).values, before)


def test_generate_matches_plain_simulation_bit_for_bit():
    # Unit noise: the noise factor is the identity, so the draws enter
    # unscaled and a plain loop with the same operations must reproduce
    # every bit of the panel. generate steps the levels form
    # Y_t = phi_1 Y_{t-1} + phi_2 Y_{t-2} + phi_3 Y_{t-3} + eps_t.
    spec = cointegrated_spec(d=3, r_true=1, n_obs=150, seed=8, p_true=3)
    rng = np.random.default_rng(spec.seed)
    eps = rng.standard_normal((200 + spec.n_obs, 3))
    pi = spec.alpha @ spec.beta.T
    g1, g2 = spec.gamma
    coef = np.hstack((-g2, g2 - g1, np.eye(3) + pi + g1))  # [phi_3 | phi_2 | phi_1]
    state, levels = [np.zeros(3)] * 3, []                 # [Y_{t-3}, Y_{t-2}, Y_{t-1}]
    for e in eps:
        y = coef @ np.concatenate(state) + e
        state = state[1:] + [y]
        levels.append(y)
    panel = generate(spec).values
    assert np.array_equal(panel, np.array(levels[200:]))

    # The error-correction form of the same dynamics agrees to rounding.
    y, lags, rows = np.zeros(3), [np.zeros(3), np.zeros(3)], []
    for e in eps:
        dy = pi @ y + e
        for g, lag in zip(spec.gamma, lags):
            dy += g @ lag
        y = y + dy
        lags = [dy, lags[0]]
        rows.append(y)
    assert np.abs(panel - np.array(rows[200:])).max() <= 1e-12 * np.abs(panel).max()


def test_zero_noise_zero_dynamics_is_constant():
    spec = DgpSpec(
        alpha=np.zeros((2, 0)),
        beta=np.zeros((2, 0)),
        gamma=(),
        noise_cov=np.zeros((2, 2)),
        n_obs=50,
        seed=0,
        initial=np.array([3.0, -1.0]),
    )
    panel = generate(spec)
    assert np.array_equal(panel.values, np.tile([3.0, -1.0], (50, 1)))


def test_pure_random_walk_variance_grows_linearly():
    # Monte-Carlo oracle: Var(Y_n - Y_0) = n for unit-noise walks, so the
    # cross-replication variance at n and at n/2 should be near 2:1.
    d, n = 1, 400
    finals, mids = [], []
    for seed in range(300):
        panel = generate(random_walk_spec(d, n, seed=seed))
        finals.append(panel.values[-1, 0] - panel.values[0, 0])
        mids.append(panel.values[n // 2 - 1, 0] - panel.values[0, 0])
    ratio = np.var(finals) / np.var(mids)
    assert 1.6 <= ratio <= 2.5
    assert 0.7 * (n - 1) <= np.var(finals) <= 1.4 * (n - 1)


def test_cointegrating_combination_is_stationary():
    # beta' Y_t has bounded spread across replications while the levels
    # wander: compare end-of-sample dispersions.
    spec0 = cointegrated_spec(d=4, r_true=2, n_obs=1500, seed=0)
    ect_final, level_final = [], []
    for seed in range(60):
        spec = cointegrated_spec(d=4, r_true=2, n_obs=1500, seed=seed)
        panel = generate(spec)
        ect_final.append(spec0.beta.T @ panel.values[-1])
        level_final.append(panel.values[-1])
    ect_spread = np.var(np.asarray(ect_final), axis=0).max()
    level_spread = np.var(np.asarray(level_final), axis=0).min()
    assert ect_spread < 0.1 * level_spread


def test_random_walk_spec_has_unit_roots_only():
    spec = random_walk_spec(2, 100, seed=0)
    assert (spec.d, spec.r_true) == (2, 0)
    assert np.allclose(spec.root_moduli, 1.0)


def test_stationary_spec_has_no_unit_roots():
    spec = cointegrated_spec(d=3, r_true=3, n_obs=100, seed=0)
    assert (spec.d, spec.r_true) == (3, 3)
    assert spec.root_moduli.max() < 1.0


def test_library_spec_unit_root_count_matches_polynomial_oracle():
    # Companion eigenvalues vs the determinant of the lag polynomial at
    # z = 1: rank deficiency of phi(1) = I - Phi_1 - Phi_2 counts unit roots.
    spec = cointegrated_spec(d=4, r_true=2, n_obs=100, seed=0)
    assert int(np.sum(np.abs(spec.root_moduli - 1.0) <= 1e-6)) == 2

    model = VecmModel(
        alpha=spec.alpha, beta=spec.beta, gamma=spec.gamma,
        psi=np.zeros((4, 0)), det=DeterministicSpec.NONE, eigenvalues=None,
        resid_cov=np.eye(4),
    )
    var = vecm_to_var(model)
    poly_at_one = np.eye(4) - sum(var.phi)
    rank = np.linalg.matrix_rank(poly_at_one, tol=1e-8)
    assert 4 - rank == 2


@pytest.mark.parametrize("d, r_true, p_true", [(2, 0, 1), (3, 1, 2), (4, 2, 3), (3, 3, 2)])
def test_spec_sizes_and_root_moduli_come_from_its_arrays(d, r_true, p_true):
    spec = cointegrated_spec(d=d, r_true=r_true, n_obs=50, seed=0, p_true=p_true)
    assert (spec.d, spec.r_true, spec.p_true) == (d, r_true, p_true)
    model = VecmModel(
        alpha=spec.alpha, beta=spec.beta, gamma=spec.gamma, psi=np.zeros((d, 0)),
        det=DeterministicSpec.NONE, eigenvalues=None, resid_cov=spec.noise_cov,
    )
    phi = vecm_to_var(model).phi
    assert len(spec.phi) == p_true
    assert all(np.array_equal(a, b) for a, b in zip(spec.phi, phi))
    moduli = np.abs(np.linalg.eigvals(companion_matrix(phi)))
    assert np.array_equal(spec.root_moduli, np.sort(moduli)[::-1])
    with pytest.raises(ValueError):
        spec.root_moduli[0] = 0.0
    with pytest.raises(AttributeError):
        spec.root_moduli = np.zeros(d * p_true)


@pytest.mark.parametrize("p_true", [0, -4])
def test_library_spec_rejects_order_below_one(p_true):
    with pytest.raises(InvalidInputError, match=f"p_true must be >= 1, got {p_true}"):
        cointegrated_spec(d=3, r_true=1, p_true=p_true)


@pytest.mark.parametrize("r_true", [-1, 4])
def test_library_spec_rejects_rank_outside_zero_to_d(r_true):
    with pytest.raises(InvalidInputError, match=r"r_true outside \[0, 3\]"):
        cointegrated_spec(d=3, r_true=r_true)


def test_spec_json_rejects_unknown_fields():
    # A misspelt key must not load as a spec with that field left out.
    text = spec_to_json(cointegrated_spec(d=3, r_true=1, n_obs=50, seed=0, p_true=3))
    assert spec_from_json(text).p_true == 3
    misspelt = text.replace('"gamma"', '"gama"')
    with pytest.raises(InvalidSpecError, match="'gama'"):
        spec_from_json(misspelt)
    extra = text[:-1] + ', "zeta": 1, "burn_in": 5}'
    with pytest.raises(InvalidSpecError, match="'burn_in', 'zeta'"):
        spec_from_json(extra)


def test_spec_alpha_beta_shapes_are_checked():
    base = dict(gamma=(), noise_cov=np.eye(2), n_obs=10, seed=0, initial=np.zeros(2))
    with pytest.raises(InvalidSpecError, match="alpha/beta"):
        DgpSpec(alpha=np.zeros((2, 1)), beta=np.zeros((2, 0)), **base)
    with pytest.raises(InvalidSpecError, match="alpha/beta"):
        DgpSpec(alpha=np.zeros(2), beta=np.zeros(2), **base)
    with pytest.raises(InvalidSpecError, match="r_true 3 outside"):
        DgpSpec(alpha=np.zeros((2, 3)), beta=np.zeros((2, 3)), **base)
    with pytest.raises(InvalidSpecError, match="d >= 1"):
        DgpSpec(alpha=np.zeros((0, 0)), beta=np.zeros((0, 0)), **base)
    rank_one = dict(alpha=np.zeros((2, 1)), beta=np.zeros((2, 1)))
    for change, message in [
        (dict(gamma=(np.eye(3),)), "every gamma matrix must be d x d"),
        (dict(noise_cov=np.eye(3)), "noise_cov must be a symmetric d x d matrix"),
        (dict(noise_cov=[[1.0, 0.5], [0.0, 1.0]]), "noise_cov must be a symmetric"),
        (dict(initial=np.zeros(3)), "initial state must have 2 entries"),
        (dict(n_obs=0), "n_obs must be >= 1"),
    ]:
        with pytest.raises(InvalidSpecError, match=message):
            DgpSpec(**rank_one, **{**base, **change})


def test_explosive_spec_rejected():
    with pytest.raises(InvalidSpecError):
        DgpSpec(
            alpha=np.array([[0.8]]),   # Pi = 0.8 -> phi_1 = 1.8, explosive
            beta=np.array([[1.0]]),
            gamma=(),
            noise_cov=np.eye(1),
            n_obs=10,
            seed=0,
            initial=np.zeros(1),
        )


def test_wrong_unit_root_count_rejected():
    # a zero loading makes Pi = 0 although alpha is 1 x 1 (r_true = 1):
    # one unit root where d - r_true = 0 are expected
    with pytest.raises(InvalidSpecError, match="implies 1 unit roots"):
        DgpSpec(
            alpha=np.array([[0.0]]),
            beta=np.array([[1.0]]),
            gamma=(),
            noise_cov=np.eye(1),
            n_obs=10,
            seed=0,
            initial=np.zeros(1),
        )
    # r_true = 0 with an explosive short-run root is rejected as well
    with pytest.raises(InvalidSpecError):
        DgpSpec(
            alpha=np.zeros((1, 0)),
            beta=np.zeros((1, 0)),
            gamma=(np.array([[2.0]]),),  # explosive short-run
            noise_cov=np.eye(1),
            n_obs=10,
            seed=0,
            initial=np.zeros(1),
        )


def test_spec_json_roundtrip():
    spec = cointegrated_spec(d=3, r_true=1, n_obs=123, seed=7)
    back = spec_from_json(spec_to_json(spec))
    assert back.d == spec.d and back.r_true == spec.r_true
    assert np.array_equal(back.alpha, spec.alpha)
    assert np.array_equal(back.beta, spec.beta)
    assert all(np.array_equal(a, b) for a, b in zip(back.gamma, spec.gamma))
    assert np.array_equal(generate(back).values, generate(spec).values)


def test_spec_json_errors():
    with pytest.raises(InvalidSpecError):
        spec_from_json("{not json")
    with pytest.raises(InvalidSpecError):
        spec_from_json("{}")


def test_singular_noise_covariance_is_factored_and_indefinite_rejected():
    # [[1, 1], [1, 1]] is PSD but singular (no Cholesky factor): both series
    # get the same shock, so their difference stays at its start.
    base = dict(alpha=np.zeros((2, 0)), beta=np.zeros((2, 0)), gamma=(),
                n_obs=50, seed=0, initial=np.zeros(2))
    panel = generate(DgpSpec(noise_cov=np.ones((2, 2)), **base))
    assert np.abs(panel.values[:, 0] - panel.values[:, 1]).max() <= 1e-12
    with pytest.raises(InvalidSpecError, match="not positive semidefinite"):
        generate(DgpSpec(noise_cov=np.array([[1.0, 2.0], [2.0, 1.0]]), **base))


@pytest.mark.parametrize("change", [
    dict(noise_cov=np.eye(2) * 1e240),
    dict(initial=np.array([1e150, 0.0])),
    dict(initial=np.array([1.7e308, -1.7e308])),  # the first step overflows
])
def test_path_beyond_value_bound_is_a_spec_error(change):
    # A valid spec whose draws leave the panels' value bound is reported as
    # a bad spec that names the bound, with no numpy warning on the way.
    spec = dataclasses.replace(cointegrated_spec(d=2, r_true=1, n_obs=50, seed=0), **change)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidSpecError, match="value bound 1e\\+100"):
            generate(spec)
