import math
import warnings

import numpy as np
import pytest

from windvecm import (
    DegenerateVarianceError,
    ForecastPath,
    InvalidInputError,
    dm_test,
    mae,
    mse,
    per_origin_loss,
)


def brute_force_mae(errors):
    total, count = 0.0, 0
    for e in errors:
        h, d = e.shape
        for i in range(h):
            for j in range(d):
                total += abs(e[i, j])
        count += h
    return total / count


def brute_force_mse(errors):
    total, count = 0.0, 0
    for e in errors:
        h, d = e.shape
        for i in range(h):
            for j in range(d):
                total += e[i, j] ** 2
        count += h
    return total / count


def test_zero_errors_score_zero():
    errors = [np.zeros((8, 6)) for _ in range(5)]
    assert mae(errors) == 0.0
    assert mse(errors) == 0.0


def test_unit_error_in_six_components_scores_six():
    # normalization is by N*H only, never by d
    errors = [np.ones((1, 6))]
    assert mae(errors) == 6.0
    assert mse(errors) == 6.0


def test_metrics_match_brute_force_triple_loop():
    rng = np.random.default_rng(77)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        h = int(rng.integers(1, 5))
        d = int(rng.integers(1, 7))
        errors = [rng.normal(size=(h, d)) for _ in range(n)]
        assert math.isclose(mae(errors), brute_force_mae(errors),
                            rel_tol=0, abs_tol=1e-12)
        assert math.isclose(mse(errors), brute_force_mse(errors),
                            rel_tol=0, abs_tol=1e-12)


def test_metrics_scaling():
    rng = np.random.default_rng(3)
    errors = [rng.normal(size=(4, 3)) for _ in range(6)]
    c = 2.5
    scaled = [c * e for e in errors]
    assert math.isclose(mae(scaled), c * mae(errors), rel_tol=1e-12)
    assert math.isclose(mse(scaled), c**2 * mse(errors), rel_tol=1e-12)


def test_metrics_reject_empty_and_ragged_input():
    with pytest.raises(InvalidInputError):
        mae([])
    with pytest.raises(InvalidInputError):
        mse([np.zeros((2, 2)), np.zeros((3, 2))])


@pytest.mark.parametrize("shape", [(), (4,), (4, 3), (2, 4, 3, 1)])
def test_metrics_reject_errors_that_are_no_cube(shape):
    # A 2-D array is one H x d matrix, not N of them: it must not be scored
    # as N origins of one-step, scalar errors.
    errors = np.ones(shape)
    for score in (mae, mse, lambda e: per_origin_loss(e, "absolute")):
        with pytest.raises(InvalidInputError, match=r"\(N, H, d\) cube"):
            score(errors)


def test_per_origin_loss_granularity():
    errors = [np.full((2, 3), 1.0), np.full((2, 3), -2.0)]
    assert np.array_equal(per_origin_loss(errors, "absolute"), [6.0, 12.0])
    assert np.array_equal(per_origin_loss(errors, "squared"), [6.0, 24.0])


def test_dm_identical_losses_is_degenerate():
    losses = np.arange(20, dtype=float)
    with pytest.raises(DegenerateVarianceError):
        dm_test(losses, losses.copy())


def test_dm_statistic_antisymmetric_exactly():
    rng = np.random.default_rng(10)
    a = rng.normal(size=200) + 0.1
    b = rng.normal(size=200)
    fwd = dm_test(a, b)
    rev = dm_test(b, a)
    assert fwd.statistic == -rev.statistic
    assert fwd.p_value == rev.p_value


def test_dm_size_under_null():
    # Monte-Carlo size oracle: i.i.d. N(0,1) differentials, n=1000; the 5%
    # rejection rate over 1000 replications must sit in [3.5%, 6.5%].
    rng = np.random.default_rng(2024)
    rejections = 0
    for _ in range(1000):
        a = rng.standard_normal(1000)
        if dm_test(a, np.zeros(1000)).p_value < 0.05:
            rejections += 1
    assert 0.035 <= rejections / 1000 <= 0.065


def test_dm_pvalues_uniform_under_null():
    # Beyond the 5%-level size check: the whole p-value distribution should
    # be uniform. KS statistic observed 0.032 (p = 0.245) at this seed.
    stats = pytest.importorskip("scipy.stats")

    rng = np.random.default_rng(2024)
    pvals = [dm_test(rng.standard_normal(1000), np.zeros(1000)).p_value
             for _ in range(1000)]
    ks = stats.kstest(pvals, "uniform")
    assert ks.pvalue > 0.01


def test_dm_pvalue_matches_two_sided_normal_tail():
    stats = pytest.importorskip("scipy.stats")

    e = np.random.default_rng(5).standard_normal(100)
    e = (e - e.mean()) / e.std()
    statistics = []
    for shift in np.linspace(-0.8, 0.8, 161):  # |statistic| = 10 |shift|
        result = dm_test(e + shift, np.zeros(100))
        expected = 2.0 * stats.norm.sf(abs(result.statistic))
        assert abs(result.p_value - expected) <= 1e-13 * expected
        statistics.append(abs(result.statistic))
    assert min(statistics) < 1e-12 and max(statistics) > 7.99


def test_metrics_strictly_positive_on_nonzero_errors():
    errors = [np.zeros((3, 2)), np.array([[0.0, 0.0], [0.0, 1e-9], [0.0, 0.0]])]
    assert mae(errors) > 0.0
    assert mse(errors) > 0.0


def test_dm_power_against_clear_difference():
    rng = np.random.default_rng(7)
    a = rng.standard_normal(1000) + 0.5
    result = dm_test(a, np.zeros(1000))
    assert result.p_value < 0.001
    assert result.statistic > 0


def test_dm_n_effective_is_the_number_of_pairs():
    rng = np.random.default_rng(4)
    a = rng.standard_normal(64) + 0.3
    b = rng.standard_normal(64)
    assert dm_test(a, b).n_effective == 64


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("side", ["a", "b"])
def test_dm_rejects_non_finite_losses_at_the_input(bad, side):
    rng = np.random.default_rng(5)
    a = rng.standard_normal(20)
    b = rng.standard_normal(20)
    (a if side == "a" else b)[7] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match="NaN or infinite"):
            dm_test(a, b)


def test_dm_rejects_a_differential_that_overflows():
    big = np.full(20, 1e308)
    big[::2] = -1e308
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(InvalidInputError, match="overflows"):
            dm_test(big, -big)


def test_dm_preconditions():
    with pytest.raises(InvalidInputError):
        dm_test(np.ones(5), np.zeros(5))
    with pytest.raises(InvalidInputError):
        dm_test(np.ones(20), np.zeros(19))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: ForecastPath(np.zeros(4), 0), "H x d"),
        (lambda: ForecastPath(np.zeros((0, 2)), 0), "H x d"),
        (lambda: ForecastPath(np.array([[1.0, math.nan]]), 0), "non-finite"),
        (lambda: ForecastPath(np.array([[math.inf, 0.0]]), 0), "non-finite"),
        (lambda: per_origin_loss([np.zeros((2, 2))], "huber"), "unknown loss kind 'huber'"),
    ],
    ids=["path-1d", "path-no-steps", "path-nan", "path-inf", "unknown-loss-kind"],
)
def test_rejected_paths_and_loss_kinds(build, message):
    with pytest.raises(InvalidInputError, match=message):
        build()
