"""Rolling-origin forecasting study over a (T, p, r) grid.

One origin set is drawn once, with the largest calibration length in the
grid as the lower bound, and reused for every cell so that all cells are
scored on identical test points. A cell fits on the T observations ending at
each origin, forecasts H steps, and records the H x d error matrix; singular
fits are recorded as failures, never replaced by substitute forecasts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import metrics
from ._blas import one_blas_thread
from .errors import (
    InsufficientDataError,
    InsufficientRangeError,
    InvalidInputError,
    NonFiniteForecastError,
    SingularDesignError,
    SingularMomentError,
)
from .panel import DeterministicSpec, TimeSeriesPanel
from .vecm import fit_vecm, forecast_vecm

#: Default grids mirror the quarter-hourly study design: calibration windows
#: of 1..32 days, orders 1..7, every rank up to the panel dimension.
DEFAULT_T_GRID = (96, 192, 384, 768, 1536, 3072)
DEFAULT_P_GRID = (1, 2, 3, 4, 5, 6, 7)


#: Estimation failures recorded per origin instead of aborting a cell.
_CELL_FAILURES = (
    InsufficientDataError, NonFiniteForecastError, SingularDesignError, SingularMomentError,
)


@dataclass(frozen=True)
class BacktestConfig:
    """Grid and sampling parameters of a backtest run.

    ``r_grid=None`` resolves to 0..d once the panel is known. Every T must
    leave room for the largest order plus a usable effective sample. No grid
    may repeat a value: a repeated cell would be fitted and reported twice.
    """

    T_grid: tuple[int, ...] = DEFAULT_T_GRID
    p_grid: tuple[int, ...] = DEFAULT_P_GRID
    r_grid: tuple[int, ...] | None = None
    horizon: int = 8
    n_origins: int = 1000
    seed: int = 0
    det: DeterministicSpec = DeterministicSpec.CONSTANT
    clip_nonnegative: bool = False

    def __post_init__(self):
        if not self.T_grid or not self.p_grid:
            raise InvalidInputError("T_grid and p_grid must be non-empty")
        if self.r_grid is not None and not self.r_grid:
            raise InvalidInputError("r_grid must be non-empty when given")
        if self.horizon < 1:
            raise InvalidInputError("horizon must be >= 1")
        if self.n_origins < 1:
            raise InvalidInputError("need at least one origin")
        p_max = max(self.p_grid)
        if min(self.T_grid) < p_max + 2:
            raise InvalidInputError(
                f"every T must be >= max(p_grid) + 2 = {p_max + 2}"
            )
        if min(self.p_grid) < 1 or (self.r_grid is not None and min(self.r_grid) < 0):
            raise InvalidInputError("orders must be >= 1 and ranks >= 0")
        for name, grid in (("T_grid", self.T_grid), ("p_grid", self.p_grid),
                           ("r_grid", self.r_grid or ())):
            if len(set(grid)) < len(grid):
                raise InvalidInputError(f"{name} repeats a value: {list(grid)}")

    def resolve_ranks(self, d: int) -> tuple[int, ...]:
        return tuple(range(d + 1)) if self.r_grid is None else self.r_grid


def sample_origins(
    n_obs: int, t_max: int, horizon: int, n_origins: int, seed: int
) -> np.ndarray:
    """Draw origin indices uniformly without replacement, sorted ascending.

    An origin is the 0-based index of the last known observation; feasible
    values are [t_max, n_obs - horizon - 1]. The same origin set must be
    reused for every grid cell to keep cells comparable.
    """
    if n_origins < 1:
        raise InvalidInputError("need at least one origin")
    if horizon < 1:
        raise InvalidInputError("horizon must be >= 1")
    if seed < 0:
        raise InvalidInputError(f"origin seed must be >= 0, got {seed}")
    feasible = n_obs - horizon - t_max
    if feasible < 1:
        raise InsufficientRangeError(
            f"no feasible origins: n_obs={n_obs} <= T_max + H = {t_max + horizon}"
        )
    if feasible < n_origins:
        raise InsufficientRangeError(
            f"only {feasible} feasible origins for {n_origins} requested draws"
        )
    rng = np.random.default_rng(seed)
    picks = rng.choice(np.arange(t_max, n_obs - horizon), size=n_origins, replace=False)
    return np.sort(picks)


@dataclass(frozen=True, eq=False)
class CellResult:
    """Per-origin forecast errors of one (T, p, r) cell."""

    origins_ok: np.ndarray        # origins with a successful fit, ascending
    errors: np.ndarray            # (n_ok, H, d) actual - forecast
    failures: tuple[tuple[int, str], ...]  # (origin, error class name)


def _run_ranks(
    panel: TimeSeriesPanel,
    T: int,
    p: int,
    ranks: tuple[int, ...],
    origins: np.ndarray,
    horizon: int,
    det: DeterministicSpec,
    clip_nonnegative: bool,
) -> tuple[CellResult, ...]:
    """`run_cell` for each rank of ``ranks`` at one (T, p), in that order.

    Origins run on the outside and ranks on the inside: every rank fits the
    same window object in turn, so `fit_vecm` factors its design once.
    """
    origins = np.asarray(origins, dtype=int)
    if origins.size and (origins.min() < T or origins.max() + horizon >= panel.n_obs):
        raise InvalidInputError(
            "every origin must satisfy o >= T and o + H < n_obs"
        )
    # per rank: origins fitted, their (H, d) errors, (origin, class) failures
    per_rank: list[tuple[list, list, list]] = [([], [], []) for _ in ranks]
    for o in origins:
        window = panel.window(o - T + 1, o + 1)
        actual = panel.values[o + 1 : o + 1 + horizon]
        for r, (ok, errs, failures) in zip(ranks, per_rank):
            try:
                forecast = forecast_vecm(fit_vecm(window, p, r, det), window, horizon).values
            except _CELL_FAILURES as exc:
                failures.append((int(o), type(exc).__name__))
                continue
            if clip_nonnegative:
                forecast = np.maximum(forecast, 0.0)
            ok.append(int(o))
            errs.append(actual - forecast)
    return tuple(
        CellResult(
            origins_ok=np.asarray(ok, dtype=int),
            errors=np.array(errs, dtype=float).reshape(len(errs), horizon, panel.d),
            failures=tuple(failures),
        )
        for ok, errs, failures in per_rank
    )


def run_cell(
    panel: TimeSeriesPanel,
    T: int,
    p: int,
    r: int,
    origins: np.ndarray,
    horizon: int,
    det: DeterministicSpec = DeterministicSpec.CONSTANT,
    clip_nonnegative: bool = False,
) -> CellResult:
    """Fit-and-forecast at every origin with calibration length T.

    The fit window is rows [o - T + 1, o]; forecasts target rows
    o + 1 .. o + horizon. Estimation failures are recorded per origin.
    ``clip_nonnegative`` floors the scored forecasts at 0 MW, as wind power
    cannot be negative; the recursion never sees the floor, and one that
    leaves the value bound is a recorded `NonFiniteForecastError` first.
    """
    (cell,) = _run_ranks(panel, T, p, (r,), origins, horizon, det, clip_nonnegative)
    return cell


@dataclass(frozen=True, eq=False)
class CellRecord:
    """Aggregated scores of one grid cell."""

    T: int
    p: int
    r: int
    mae: float | None
    mse: float | None
    per_origin_abs: np.ndarray
    per_origin_sq: np.ndarray
    origins_ok: np.ndarray
    failures: tuple[tuple[int, str], ...]

    @property
    def n_ok(self) -> int:
        return int(self.origins_ok.size)

    @property
    def n_failed(self) -> int:
        return len(self.failures)


@dataclass(frozen=True, eq=False)
class BacktestGridResult:
    """All cell records plus the shared origin set and run metadata."""

    records: tuple[CellRecord, ...]
    origins: np.ndarray
    d: int
    T_grid: tuple[int, ...]
    metadata: dict


def _scores(errors: np.ndarray):
    """MAE, MSE and per-origin absolute/squared losses of an (N, H, d) cube.

    An empty cube (every origin failed) scores (None, None, [], []): scores
    that do not exist are None, not the NaN a mean over nothing would give.
    """
    if not errors.shape[0]:
        return None, None, np.zeros(0), np.zeros(0)
    return (
        metrics.mae(errors),
        metrics.mse(errors),
        metrics.per_origin_loss(errors, "absolute"),
        metrics.per_origin_loss(errors, "squared"),
    )


def _grid_unit(
    panel: TimeSeriesPanel,
    origins: np.ndarray,
    config: BacktestConfig,
    unit: tuple[int, int],
) -> list[CellRecord]:
    """Run and score every rank of one (T, p) group of a grid, in rank order."""
    T, p = unit
    ranks = config.resolve_ranks(panel.d)
    cells = _run_ranks(
        panel, T, p, ranks, origins, config.horizon, config.det, config.clip_nonnegative
    )
    return [
        CellRecord(T, p, r, *_scores(cell.errors), cell.origins_ok, cell.failures)
        for r, cell in zip(ranks, cells)
    ]


# Worker-process state for parallel grid evaluation: the panel is shipped
# once per worker instead of once per unit.
_worker_args: tuple = ()


def _init_worker(panel: TimeSeriesPanel, origins: np.ndarray, config: BacktestConfig):
    global _worker_args
    _worker_args = (panel, origins, config)


@one_blas_thread()
def _eval_unit(unit: tuple[int, int]) -> list[CellRecord]:
    # A forked worker inherits one thread from run_grid's scope; one started
    # by forkserver or spawn has OpenBLAS's default count until set here.
    return _grid_unit(*_worker_args, unit)


def data_fingerprint(panel: TimeSeriesPanel) -> str:
    """Stable content hash of a panel (values, shape, labels)."""
    import hashlib  # loads OpenSSL, which a fit does not need

    h = hashlib.sha256()
    h.update(np.ascontiguousarray(panel.values).tobytes())
    h.update(repr(panel.values.shape).encode())
    # Escaped so that ("a,b", "c") and ("a", "b,c") hash apart.
    labels = (label.replace("\\", "\\\\").replace(",", "\\,") for label in panel.labels)
    h.update(",".join(labels).encode())
    return h.hexdigest()


def run_grid(
    panel: TimeSeriesPanel,
    config: BacktestConfig,
    workers: int = 1,
) -> BacktestGridResult:
    """Evaluate every (T, p, r) cell on one shared origin set.

    The unit of work is one (T, p) group covering every rank: it loops
    over the origins, and at each origin fits every rank on one window, so
    the ranks share that window's design factor. Units run most expensive
    first (T descending, then p descending), in this process or, with
    ``workers > 1``, in a process pool; the records are put back in grid
    order, so the result is identical for any number of workers.
    Deterministic given (panel, config). The units run inside one
    `one_blas_thread` scope, and so does each unit of a pool worker, so
    every worker runs at one OpenBLAS thread whatever its start method.
    """
    if max(config.resolve_ranks(panel.d)) > panel.d:
        raise InvalidInputError(f"r_grid exceeds panel dimension d={panel.d}")
    if workers < 1:
        raise InvalidInputError(f"workers must be at least 1, got {workers}")
    t_max = max(config.T_grid)
    origins = sample_origins(
        panel.n_obs, t_max, config.horizon, config.n_origins, config.seed
    )
    units = [(T, p) for T in config.T_grid for p in config.p_grid]
    queue = sorted(units, reverse=True)
    n_workers = min(workers, len(units))
    with one_blas_thread():
        if n_workers == 1:
            done = [_grid_unit(panel, origins, config, unit) for unit in queue]
        else:
            # The pool stack (multiprocessing, socket, subprocess) loads here,
            # so a serial process never imports it.
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(
                max_workers=n_workers,
                initializer=_init_worker,
                initargs=(panel, origins, config),
            ) as pool:
                done = list(pool.map(_eval_unit, queue))
    by_unit = dict(zip(queue, done))
    records = tuple(rec for unit in units for rec in by_unit[unit])
    metadata = {
        "seed": config.seed,
        "data_fingerprint": data_fingerprint(panel),
        "coverage_start": str(panel.timestamps[0]),
        "coverage_end": str(panel.timestamps[-1]),
        "n_origins": config.n_origins,
        "horizon": config.horizon,
        "det": config.det.value,
        "clip_nonnegative": config.clip_nonnegative,
        "shared_origins": True,
    }
    return BacktestGridResult(
        records=records,
        origins=origins,
        d=panel.d,
        T_grid=config.T_grid,
        metadata=metadata,
    )


@dataclass(frozen=True)
class TSummary:
    """Best cell for one calibration length plus improvements vs the limits.

    ``improvement_vs_diff_var`` compares against the best r=0 cell (the VAR
    on differences), ``improvement_vs_levels_var`` against the best r=d cell
    (the VAR on levels); both use (loss_alt - loss_best) / loss_alt and are
    None when the respective limit cells are absent or all failed. A T whose
    cells all failed has every field but ``T`` None.
    """

    T: int
    best_p: int | None
    best_r: int | None
    best_loss: float | None
    improvement_vs_diff_var: float | None
    improvement_vs_levels_var: float | None


def _improvement(alt: float | None, best: float) -> float | None:
    if alt is None or alt == 0.0:
        return None
    return (alt - best) / alt


def summarize_best(
    result: BacktestGridResult, metric: str = "mae"
) -> tuple[TSummary, ...]:
    """Per-T best cells in the layout of the study's summary tables."""
    if metric not in ("mae", "mse"):
        raise InvalidInputError(f"metric must be 'mae' or 'mse', got {metric!r}")
    if not result.records:
        raise InvalidInputError("empty backtest result")
    rows = []
    for T in result.T_grid:
        scored = [
            rec for rec in result.records
            if rec.T == T and getattr(rec, metric) is not None
        ]
        if not scored:
            rows.append(TSummary(T, None, None, None, None, None))
            continue
        best = min(scored, key=lambda rec: getattr(rec, metric))
        best_loss = getattr(best, metric)
        diff_cells = [getattr(c, metric) for c in scored if c.r == 0]
        levels_cells = [getattr(c, metric) for c in scored if c.r == result.d]
        rows.append(
            TSummary(
                T=T,
                best_p=best.p,
                best_r=best.r,
                best_loss=best_loss,
                improvement_vs_diff_var=_improvement(
                    min(diff_cells) if diff_cells else None, best_loss
                ),
                improvement_vs_levels_var=_improvement(
                    min(levels_cells) if levels_cells else None, best_loss
                ),
            )
        )
    return tuple(rows)


@dataclass(frozen=True, eq=False)
class CombinationResult:
    """Losses of two forecasters and their equal-weight combination.

    Each score dict is keyed by forecaster: ``"a"``, ``"b"`` and
    ``"combined"``. The per-origin losses follow ``origins_ok``.
    """

    origins_ok: np.ndarray
    n_failed: int
    mae: dict                 # name -> MAE
    mse: dict                 # name -> MSE
    abs_losses: dict          # name -> per-origin absolute losses
    sq_losses: dict           # name -> per-origin squared losses


def run_combination(
    panel: TimeSeriesPanel,
    T: int,
    spec_a: tuple[int, int],
    spec_b: tuple[int, int],
    origins: np.ndarray,
    horizon: int,
    det: DeterministicSpec = DeterministicSpec.CONSTANT,
    clip_nonnegative: bool = False,
) -> CombinationResult:
    """Evaluate models (p, r) A and B and their mean on identical origins.

    Origins where either component fails to fit are skipped for all three
    forecasters, keeping the three loss series aligned. The combined error
    is the mean of the two component errors, i.e. actual minus the mean path.
    A model that no window could fit (p < 1, or r outside 0..d), or a
    window shorter than max(p) + 2, is refused before any fit.
    """
    for p, r in (spec_a, spec_b):
        if p < 1 or not 0 <= r <= panel.d:
            raise InvalidInputError(
                f"model (p={p}, r={r}) needs p >= 1 and 0 <= r <= d={panel.d}"
            )
    p_max = max(spec_a[0], spec_b[0])
    if T < p_max + 2:
        raise InvalidInputError(f"window T={T} must be >= max(p) + 2 = {p_max + 2}")
    cell_a = run_cell(panel, T, *spec_a, origins, horizon, det, clip_nonnegative)
    cell_b = run_cell(panel, T, *spec_b, origins, horizon, det, clip_nonnegative)
    in_b = np.isin(cell_a.origins_ok, cell_b.origins_ok)
    if not in_b.any():
        raise InsufficientDataError("every origin failed for the combination run")
    ok = cell_a.origins_ok[in_b]
    e_a = cell_a.errors[in_b]
    e_b = cell_b.errors[np.isin(cell_b.origins_ok, ok)]
    # _scores yields (mae, mse, abs, sq), the order of the four dict fields
    scores = zip(*(_scores(e) for e in (e_a, e_b, (e_a + e_b) / 2)))
    return CombinationResult(
        ok, len(origins) - ok.size,
        *(dict(zip(("a", "b", "combined"), column)) for column in scores),
    )
