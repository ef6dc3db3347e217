"""Synthetic cointegrated data generation for oracle tests and studies.

A spec fixes the error-correction dynamics (loadings, cointegrating vectors,
short-run matrices) plus Gaussian noise, and is validated at construction:
the implied companion matrix must have no explosive roots and exactly
d - r_true unit roots. Generation steps the spec's exact levels-VAR form
forward with the recursion that forecasting uses, after a burn-in so the
returned panel is free of initial-condition transients.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, InvalidSpecError
from .panel import MAX_ABS_VALUE, TimeSeriesPanel
from .var import _recurse, companion_matrix
from .vecm import _levels_phi

#: Steps simulated and discarded before collecting observations.
BURN_IN = 200

#: |modulus - 1| below this counts as a unit root; above 1 + this is explosive.
UNIT_ROOT_TOL = 1e-6


#: Loading of `cointegrated_spec`: alpha = -SPEC_ADJUST * beta.
SPEC_ADJUST = 0.4

#: Short-run scale of `cointegrated_spec`: gamma_k = SPEC_SHORT_RUN * 0.5**(k-1) * I.
SPEC_SHORT_RUN = 0.25


@dataclass(frozen=True, eq=False)
class DgpSpec:
    """Cointegrated data-generating process.

    dY_t = alpha beta' Y_{t-1} + sum_k gamma[k] dY_{t-k} + eps_t with
    eps_t ~ N(0, noise_cov). ``alpha`` and ``beta`` are d x r_true, and d,
    r_true and p_true are read off the arrays; ``phi`` holds the levels form
    phi_1 .. phi_{p_true} (`vecm_to_var`). Construction validates the
    spectral condition: no root of its companion matrix outside the unit
    circle and exactly d - r_true unit roots. ``root_moduli`` keeps those
    root moduli, sorted descending. The spec keeps read-only copies of its
    arrays, so the condition holds for as long as the spec exists.
    """

    alpha: np.ndarray
    beta: np.ndarray
    gamma: tuple[np.ndarray, ...]
    noise_cov: np.ndarray
    n_obs: int
    seed: int
    initial: np.ndarray
    d: int = field(init=False)
    r_true: int = field(init=False)
    p_true: int = field(init=False)
    phi: tuple[np.ndarray, ...] = field(init=False)
    root_moduli: np.ndarray = field(init=False)

    def __post_init__(self):
        alpha = np.array(self.alpha, dtype=float)
        beta = np.array(self.beta, dtype=float)
        if alpha.ndim != 2 or beta.shape != alpha.shape:
            raise InvalidSpecError(
                f"alpha/beta must both be d x r_true, got {alpha.shape} and {beta.shape}"
            )
        d, r_true = alpha.shape
        if d < 1:
            raise InvalidSpecError("a spec needs d >= 1 series")
        if r_true > d:
            raise InvalidSpecError(f"r_true {r_true} outside [0, {d}]")
        gamma = tuple(np.array(g, dtype=float) for g in self.gamma)
        for g in gamma:
            if g.shape != (d, d):
                raise InvalidSpecError("every gamma matrix must be d x d")
        cov = np.array(self.noise_cov, dtype=float)
        if cov.shape != (d, d) or not np.allclose(cov, cov.T):
            raise InvalidSpecError("noise_cov must be a symmetric d x d matrix")
        initial = np.array(self.initial, dtype=float)
        if initial.shape != (d,):
            raise InvalidSpecError(f"initial state must have {d} entries")
        for arr in (alpha, beta, cov, initial, *gamma):
            if not np.isfinite(arr).all():
                raise InvalidSpecError("spec arrays contain NaN or infinite entries")
            arr.setflags(write=False)
        if self.n_obs < 1:
            raise InvalidSpecError("n_obs must be >= 1")
        if self.seed < 0:
            raise InvalidSpecError(f"seed must be >= 0, got {self.seed}")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "noise_cov", cov)
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "r_true", r_true)
        object.__setattr__(self, "p_true", len(gamma) + 1)

        phi = _levels_phi(alpha @ beta.T, gamma)
        for m in phi:
            m.setflags(write=False)
        object.__setattr__(self, "phi", phi)
        eigvals = np.linalg.eigvals(companion_matrix(phi))
        moduli = np.sort(np.abs(eigvals))[::-1]
        moduli.setflags(write=False)
        object.__setattr__(self, "root_moduli", moduli)
        if np.any(moduli > 1.0 + UNIT_ROOT_TOL):
            raise InvalidSpecError(
                f"explosive spec: largest companion root modulus {moduli[0]:.6f} > 1"
            )
        n_unit = int(np.sum(np.abs(moduli - 1.0) <= UNIT_ROOT_TOL))
        if n_unit != d - r_true:
            raise InvalidSpecError(
                f"spec implies {n_unit} unit roots, expected d - r_true = {d - r_true}"
            )


def _psd_factor(cov: np.ndarray) -> np.ndarray:
    """Factor F with F F' = cov for PSD cov (zero matrices allowed)."""
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        w, u = np.linalg.eigh(cov)
        if w.min() < -1e-10 * max(1.0, w.max()):
            raise InvalidSpecError("noise_cov is not positive semidefinite") from None
        return u * np.sqrt(np.clip(w, 0.0, None))


def generate(spec: DgpSpec) -> TimeSeriesPanel:
    """Simulate the spec forward; reproducible from ``spec.seed``.

    Steps ``spec.phi`` with `forecast_var`'s recursion from rest at
    ``spec.initial``, discards a burn-in of 200 steps and returns n_obs rows
    on a synthetic quarter-hourly clock. A path that leaves `MAX_ABS_VALUE`
    in magnitude (noise_cov or initial too large), or one too long to be
    allocated, raises `InvalidSpecError`.
    """
    rng = np.random.default_rng(spec.seed)
    factor = _psd_factor(spec.noise_cov)
    try:
        eps = rng.standard_normal((BURN_IN + spec.n_obs, spec.d)) @ factor.T
        kept = _recurse(spec.phi, spec.initial, eps)[BURN_IN:]
    except (MemoryError, ValueError):
        raise InvalidSpecError(
            f"n_obs {spec.n_obs} is too large: its path cannot be allocated"
        ) from None
    if not (np.abs(kept) <= MAX_ABS_VALUE).all():  # also false for NaN
        raise InvalidSpecError(
            f"simulated path exceeds the value bound {MAX_ABS_VALUE:g} in magnitude; "
            "scale noise_cov or initial down"
        )
    return TimeSeriesPanel.from_values(kept)


def cointegrated_spec(
    d: int = 4,
    r_true: int = 2,
    n_obs: int = 2000,
    seed: int = 0,
    p_true: int = 2,
) -> DgpSpec:
    """Library DGP: orthonormal cointegrating directions, loading -SPEC_ADJUST.

    The cointegrating space is a fixed (seed-independent) orthonormal basis,
    so the same (d, r_true) always shares one true space across data seeds;
    the seed only drives the unit-variance noise. Short-run dynamics are
    SPEC_SHORT_RUN * 0.5**(k-1) * I at lag k. Valid for 0 <= r_true <= d
    and p_true >= 1.
    """
    if not 0 <= r_true <= d:
        raise InvalidInputError(f"r_true outside [0, {d}]")
    if p_true < 1:
        raise InvalidInputError(f"p_true must be >= 1, got {p_true}")
    basis_rng = np.random.default_rng(19156)
    q, _ = np.linalg.qr(basis_rng.standard_normal((d, d)))
    beta = q[:, :r_true]
    alpha = -SPEC_ADJUST * beta
    gamma = tuple(SPEC_SHORT_RUN * 0.5**k * np.eye(d) for k in range(p_true - 1))
    return DgpSpec(
        alpha=alpha,
        beta=beta,
        gamma=gamma,
        noise_cov=np.eye(d),
        n_obs=n_obs,
        seed=seed,
        initial=np.zeros(d),
    )


def random_walk_spec(d: int, n_obs: int, seed: int = 0) -> DgpSpec:
    """d independent unit-variance random walks (r_true = 0, no short-run dynamics)."""
    return cointegrated_spec(d, 0, n_obs, seed, p_true=1)


#: The fields `spec_to_json` writes; `spec_from_json` accepts no others.
_SPEC_KEYS = {"d", "r_true", "alpha", "beta", "gamma", "noise_cov", "n_obs", "seed", "initial"}


def spec_to_json(spec: DgpSpec) -> str:
    """Serialize a spec to the JSON config format used by the CLI."""
    payload = {
        "d": spec.d,
        "r_true": spec.r_true,
        "alpha": spec.alpha.tolist(),
        "beta": spec.beta.tolist(),
        "gamma": [g.tolist() for g in spec.gamma],
        "noise_cov": spec.noise_cov.tolist(),
        "n_obs": spec.n_obs,
        "seed": spec.seed,
        "initial": spec.initial.tolist(),
    }
    return json.dumps(payload, indent=2)


def spec_from_json(text: str) -> DgpSpec:
    """Parse the JSON config format back into a validated spec.

    Shapes and counts are read only as `spec_to_json` writes them: ``alpha``
    and ``beta`` are d x r_true nested lists (``[[], []]`` for d = 2,
    r_true = 0), ``initial`` a flat list, and the counts ``d``, ``r_true``,
    ``n_obs`` and ``seed`` are JSON integers; array entries go through
    numpy's float conversion. Malformed JSON, a payload that is not an object, a missing
    field, a key that `spec_to_json` does not write and a field of the wrong
    type or shape all raise `InvalidSpecError`. ``gamma``, ``seed`` and
    ``initial`` may be left out (no short-run terms, seed 0, a zero start).
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidSpecError(f"malformed spec JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise InvalidSpecError(
            f"spec JSON must be an object, got {type(payload).__name__}"
        )
    unknown = sorted(payload.keys() - _SPEC_KEYS)
    if unknown:
        raise InvalidSpecError(
            f"unknown spec JSON field(s): {', '.join(map(repr, unknown))}"
        )

    def _integer(key: str, default: int | None = None) -> int:
        value = payload[key] if default is None else payload.get(key, default)
        if isinstance(value, bool) or not isinstance(value, int):
            raise InvalidSpecError(f"spec JSON field {key!r} must be an integer, got {value!r}")
        return value

    try:
        d, r_true = _integer("d"), _integer("r_true")
        if d < 1 or r_true < 0:
            raise InvalidSpecError(f"spec JSON needs d >= 1 and r_true >= 0, got {d} and {r_true}")
        alpha = np.asarray(payload["alpha"], dtype=float)
        if alpha.shape != (d, r_true):  # before np.zeros(d) below; DgpSpec matches beta to it
            raise InvalidSpecError(
                f"spec JSON alpha must be a d x r_true = {d} x {r_true} nested list, "
                f"got shape {alpha.shape}"
            )
        fields = dict(
            alpha=alpha, beta=np.asarray(payload["beta"], dtype=float),
            gamma=tuple(np.asarray(g, dtype=float) for g in payload.get("gamma", [])),
            noise_cov=np.asarray(payload["noise_cov"], dtype=float),
            n_obs=_integer("n_obs"),
            seed=_integer("seed", 0),
            initial=np.asarray(payload.get("initial", np.zeros(d)), dtype=float),
        )
    except KeyError as exc:
        raise InvalidSpecError(f"spec JSON missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise InvalidSpecError(f"spec JSON field has a wrong type or size: {exc}") from None
    return DgpSpec(**fields)
