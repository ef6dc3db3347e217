"""Multi-step forecasting, loss metrics, and equal-weight combination.

Produces 8-step (two hours at quarter-hourly resolution) forecast paths
from several models at one origin, scores them with the multivariate
MAE/MSE, and runs the Diebold-Mariano comparison between a combined
forecaster and its components over many origins.
"""

from windvecm import (
    DeterministicSpec,
    cointegrated_spec,
    dm_test,
    fit_vecm,
    forecast_vecm,
    generate,
    mae,
    mse,
    run_combination,
    sample_origins,
)

CONST = DeterministicSpec.CONSTANT
H = 8

panel = generate(cointegrated_spec(d=4, r_true=2, n_obs=3000, seed=3))

# ---------------------------------------------------------------------------
# One origin, three forecasters: persistence, low-rank VECM, full-rank VAR
# ---------------------------------------------------------------------------
origin = 2500
window = panel.window(origin - 383, origin + 1)          # T = 384
actual = panel.values[origin + 1 : origin + 1 + H]

persistence = forecast_vecm(
    fit_vecm(window, p=1, r=0, det=DeterministicSpec.NONE), window, H,
    origin_index=origin,
)
low_rank = forecast_vecm(fit_vecm(window, p=2, r=2, det=CONST), window, H,
                         origin_index=origin)
full_rank = forecast_vecm(fit_vecm(window, p=2, r=4, det=CONST), window, H,
                          origin_index=origin)

for name, path in (("persistence", persistence), ("rank-2 VECM", low_rank),
                   ("full-rank VAR", full_rank)):
    err = [actual - path.values]
    print(f"{name:14s} MAE {mae(err):7.3f}   MSE {mse(err):8.3f}")

combo = (low_rank.values + full_rank.values) / 2      # the equal-weight mean
print(f"{'combination':14s} MAE {mae([actual - combo]):7.3f}   "
      f"MSE {mse([actual - combo]):8.3f}")

# ---------------------------------------------------------------------------
# Over many origins: is the combination significantly better than its parts?
# run_combination scores both models and their mean on the same origins,
# with one aggregated loss per origin to feed the DM test.
# ---------------------------------------------------------------------------
T = 384
origins = sample_origins(panel.n_obs, T, H, 150, seed=11)
result = run_combination(panel, T, (2, 2), (2, 4), origins, H, det=CONST)
names = {"a": "low", "b": "full", "combined": "combo"}

print(f"\nover {result.origins_ok.size} origins at T={T}:")
for key, name in names.items():
    print(f"  {name:6s} MAE {result.mae[key]:.4f}")

for key in ("a", "b"):
    test = dm_test(result.abs_losses["combined"], result.abs_losses[key])
    print(f"  DM combo vs {names[key]:5s}: statistic {test.statistic:+.3f}, "
          f"p-value {test.p_value:.4f}")
