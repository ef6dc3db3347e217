"""Shared test utilities: random stable VARs, direct path simulation, a
wind-like clipped panel and the package's source directory.

The VAR simulators here are deliberately independent of windvecm.simulate so
they can serve as oracles for it.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

import windvecm
from windvecm import (
    DeterministicSpec,
    DgpSpec,
    TimeSeriesPanel,
    VarModel,
    companion_matrix,
    generate,
)

#: The directory the package is imported from, for a test's subprocesses.
SRC = str(Path(windvecm.__file__).resolve().parents[1])


def stable_var_coeffs(
    rng: np.random.Generator, d: int, p: int, radius: float = 0.9
) -> tuple[np.ndarray, ...]:
    """Random VAR coefficients scaled to spectral radius <= radius."""
    phi = [rng.normal(scale=0.5 / (k + 1), size=(d, d)) for k in range(p)]
    rho = np.max(np.abs(np.linalg.eigvals(companion_matrix(phi))))
    if rho > radius:
        scale = radius / rho
        phi = [m * scale ** (k + 1) for k, m in enumerate(phi)]
    return tuple(phi)


def stable_var_model(
    rng: np.random.Generator,
    d: int,
    p: int,
    det: DeterministicSpec = DeterministicSpec.NONE,
    radius: float = 0.9,
) -> VarModel:
    phi = stable_var_coeffs(rng, d, p, radius)
    psi = rng.normal(size=(d, det.n_terms))
    return VarModel(phi=phi, psi=psi, det=det, resid_cov=np.eye(d))


def simulate_var_panel(
    model: VarModel,
    n_obs: int,
    rng: np.random.Generator,
    noise_scale: float = 1.0,
    burn_in: int = 100,
) -> TimeSeriesPanel:
    """Simulate a levels VAR forward; plain loop, no shortcuts."""
    d, p = model.d, model.p
    total = burn_in + n_obs
    y = np.zeros((total + p, d))
    const = model.psi[:, 0] if model.det.n_terms else np.zeros(d)
    for t in range(p, total + p):
        acc = const + noise_scale * rng.standard_normal(d)
        for k in range(p):
            acc = acc + model.phi[k] @ y[t - 1 - k]
        y[t] = acc
    return TimeSeriesPanel.from_values(y[p + burn_in :])


def clipped_panel(spec: DgpSpec, quantile: float) -> TimeSeriesPanel:
    """``generate(spec)`` minus each series' ``quantile``, floored at 0.

    Like a wind farm's output, each series then sits at zero for that share
    of its readings, in long runs, so some windows hold a constant series
    and their fits fail.
    """
    panel = generate(spec)
    values = np.maximum(panel.values - np.quantile(panel.values, quantile, axis=0), 0.0)
    return TimeSeriesPanel(values, panel.timestamps, panel.labels)
