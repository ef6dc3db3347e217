"""The benchmark workloads: inputs from a seed, one timed call, checks.

Each workload prepares its inputs in ``setup`` (timed as set-up), exposes
``call`` (the timed unit of work) and ``verify`` (untimed check of one call's
outcome, returning the number of operations that failed). ``finish`` runs
once after the timed loop for checks that need a whole run.

Why these three (see README.md for the full table):

* grid-d6     -- the paper's (T, p, r) study through the CLI, serial: the
                 estimation kernels do nearly all the work.
* grid-d6-w2  -- the same study with two pool workers: the only workload
                 on the process-pool path and the BLAS threads inside it.
* refit-d6    -- one caller refitting one (p, r) model per arriving origin:
                 same kernels, nothing shared across cells, latency tail.
                 Its series comes from a generated long-form CSV through
                 load_panel, so set-up also exercises ingestion.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import windvecm
from windvecm import cli as cli_mod
from windvecm import ingest as ingest_mod
from windvecm import vecm as vecm_mod
from windvecm.simulate import cointegrated_spec, generate, spec_to_json

#: Relative tolerance for losses and forecast values against a reference,
#: scaled by max(1, |reference|). Loose enough for a reordered but equivalent
#: computation, tight enough that any modelling change shows.
RTOL = 1e-6

#: Grid and refit inputs repeat with this period in the seed, so that every
#: seed has a stored reference (refs/<workload>-s<k>.json, k = seed % 8).
N_REF_SEEDS = 8

REGIONS = ("AT", "BE", "DE", "DK", "FR", "NL")

ERROR_CLASSES = ("InsufficientDataError", "SingularDesignError", "SingularMomentError")


@dataclass(frozen=True)
class Sizes:
    """Input sizes; FULL is the benchmark, TINY only serves the smoke test."""

    grid_args: tuple[str, ...]     # CLI grid flags; () keeps the CLI defaults
    grid_t_max: int
    grid_origins: int
    refit_T: int
    refit_cycle: int               # consecutive origins, revisited in turn
    refit_trace_requests: int      # requests per trace unit
    ingest_short_gaps: int         # per region, in the refit CSV
    ingest_long_gap: int           # slots, in one region of the refit CSV


FULL = Sizes(
    grid_args=(), grid_t_max=3072, grid_origins=1,
    refit_T=768, refit_cycle=32, refit_trace_requests=256,
    ingest_short_gaps=6, ingest_long_gap=96,
)
TINY = Sizes(
    grid_args=("--window", "96,192", "--p", "1,2"), grid_t_max=192, grid_origins=1,
    refit_T=192, refit_cycle=4, refit_trace_requests=8,
    ingest_short_gaps=2, ingest_long_gap=24,
)
SIZES = {"full": FULL, "tiny": TINY}

HORIZON = 8
REFIT_P, REFIT_R = 4, 3


def input_seed(seed: int) -> int:
    return seed % N_REF_SEEDS


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= RTOL * max(1.0, abs(b))


class Workload:
    name = ""
    op = ""              # what one counted operation is
    workers = 1

    def __init__(self, sizes: Sizes, seed: int, workdir: Path, refs: Path):
        self.sizes = sizes
        self.seed = seed
        self.workdir = workdir
        self.refs = refs

    def setup(self) -> None:
        raise NotImplementedError

    ops_per_call = 1     # operations one call attempts
    #: Percentile of call latency reported as tail_ms. A grid workload makes
    #: 3-10 calls a run, too few for a higher percentile to have ten calls
    #: beyond it, so it reports the median.
    tail_percentile = 50

    def call(self):
        """The timed unit of work; returns its outcome for verify."""
        raise NotImplementedError

    def verify(self, outcome) -> int:
        """Operations of one call that failed verification."""
        raise NotImplementedError

    def finish(self) -> int:
        return 0

    def trace_calls(self) -> int:
        """Calls that make up one trace unit."""
        return 1

    def counts(self) -> dict[str, float]:
        """Per-layer counts read from the program's own results, per call."""
        return {}

    def _load_ref(self, kind: str) -> dict:
        path = self.refs / f"{kind}-s{input_seed(self.seed)}.json"
        return json.loads(path.read_text(encoding="utf-8"))


# --------------------------------------------------------------------- grid


def grid_argv(sizes: Sizes, spec_path: Path, seed: int, workers: int, out: Path) -> list[str]:
    return [
        "backtest", "--sim", str(spec_path), *sizes.grid_args,
        "--horizon", str(HORIZON), "--origins", str(sizes.grid_origins),
        "--seed", str(seed), "--workers", str(workers), "--out", str(out),
    ]


def write_grid_spec(sizes: Sizes, seed: int, path: Path) -> None:
    """Spec JSON of cointegrated_spec(d=6, r_true=3) with room for the origins."""
    n_obs = sizes.grid_t_max + HORIZON + 96
    spec = cointegrated_spec(d=6, r_true=3, n_obs=n_obs, seed=seed)
    path.write_text(spec_to_json(spec), encoding="utf-8")


class CapturedGrid:
    """Keeps the result run_grid returns to the CLI; failure classes are not
    in the output files. Installed at the name cmd_backtest looks up."""

    def __init__(self):
        self.result = None
        self._original = cli_mod.run_grid

        def capture(*args, **kwargs):
            self.result = self._original(*args, **kwargs)
            return self.result

        cli_mod.run_grid = capture

    def close(self) -> None:
        cli_mod.run_grid = self._original


def grid_record_rows(result) -> list[list]:
    """Reference form of every cell: T, p, r, n_ok, n_failed, failures, mae, mse."""
    return [
        [rec.T, rec.p, rec.r, rec.n_ok, rec.n_failed,
         [[int(o), cls] for o, cls in rec.failures], rec.mae, rec.mse]
        for rec in result.records
    ]


def run_grid_command(argv: list[str], captured: CapturedGrid):
    """One in-process `windvecm backtest`; returns (exit code, result)."""
    captured.result = None
    code = cli_mod.main(argv)
    return code, captured.result


class GridWorkload(Workload):
    name = "grid-d6"
    op = "(cell, origin) fit-and-forecast"

    def setup(self) -> None:
        seed = input_seed(self.seed)
        self.spec_path = self.workdir / "spec.json"
        write_grid_spec(self.sizes, seed, self.spec_path)
        self.ref = self._load_ref("grid")
        self.ops_per_call = sum(c[3] + c[4] for c in self.ref["cells"])
        self.out = self.workdir / "out"
        self.argv = grid_argv(self.sizes, self.spec_path, seed, self.workers, self.out)
        self.first_files: dict[str, bytes] | None = None
        self.last_result = None
        self.captured = CapturedGrid()

    def call(self):
        return run_grid_command(self.argv, self.captured)

    def verify(self, outcome) -> int:
        code, result = outcome
        if code != 0 or result is None:
            return self.ops_per_call
        self.last_result = result
        failed = 0
        got = grid_record_rows(result)
        ref_cells = self.ref["cells"]
        if len(got) != len(ref_cells):
            return self.ops_per_call
        csv_rows = (self.out / "grid.csv").read_text().splitlines()[1:]
        for cell, ref, line in zip(got, ref_cells, csv_rows):
            if not _cell_matches(cell, ref) or not _csv_row_matches(line, cell):
                failed += ref[3] + ref[4]
        files = _read_outputs(self.out)
        if self.first_files is None:
            self.first_files = files
        elif files != self.first_files:
            failed = self.ops_per_call     # a rerun must be byte-identical
        return failed

    def counts(self) -> dict[str, float]:
        result = self.last_result
        out = {f"backtest.fail.{cls}": 0 for cls in ERROR_CLASSES}
        if result is None:
            return out
        n_ok = sum(rec.n_ok for rec in result.records)
        n_failed = sum(rec.n_failed for rec in result.records)
        for rec in result.records:
            for _, cls in rec.failures:
                key = f"backtest.fail.{cls}"
                out[key] = out.get(key, 0) + 1
        out["backtest.fit.ok_frac"] = n_ok / max(1, n_ok + n_failed)
        return out


class GridParallelWorkload(GridWorkload):
    name = "grid-d6-w2"
    workers = 2

    def finish(self) -> int:
        """Serial rerun of the same inputs: files must be byte-identical."""
        if self.first_files is None:
            return 0
        serial_out = self.workdir / "serial"
        argv = grid_argv(self.sizes, self.spec_path, input_seed(self.seed), 1, serial_out)
        code, _ = run_grid_command(argv, self.captured)
        if code != 0 or _read_outputs(serial_out) != self.first_files:
            return self.ops_per_call
        return 0


def _cell_matches(cell: list, ref: list) -> bool:
    if cell[:6] != ref[:6]:
        return False
    for got, want in zip(cell[6:], ref[6:]):
        if (got is None) != (want is None):
            return False
        if got is not None and not _close(got, want):
            return False
    return True


def _csv_row_matches(line: str, cell: list) -> bool:
    fields = line.split(",")
    if [int(x) for x in fields[:5]] != cell[:5]:
        return False
    return all(
        (tok == "" and val is None) or (tok != "" and val is not None and float(tok) == val)
        for tok, val in zip(fields[5:], cell[6:])
    )


def _read_outputs(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()}


# ------------------------------------------------------------------- ingest


@dataclass
class IngestTruth:
    values: np.ndarray          # expected panel values
    interpolated: np.ndarray    # True where a short gap was filled
    timestamps: np.ndarray
    rows_read: int
    gaps_filled: int
    duplicates: int
    rows_dropped: int


def write_ingest_csv(
    values: np.ndarray, short_gaps: int, long_gap: int, seed: int, path: Path
) -> IngestTruth:
    """Long-form CSV of the columns of ``values`` with gaps, duplicates and
    mixed zones, and what load_panel must make of it.

    Values are written to three decimals, as metered MW readings are. One
    region misses the ``long_gap`` slots that follow the first 16, so the
    panel ingestion keeps is the rows after that gap. Short gaps (1..8 slots,
    ``short_gaps`` per region) are interior and never touch each other or the
    long gap, so ingestion fills each of them. Duplicated readings repeat the
    value in the other timestamp form.
    """
    rng = np.random.default_rng(seed % 2**32)
    values = np.round(values, 3)
    n, d = values.shape
    present = np.ones((n, d), dtype=bool)
    blocked = np.zeros((n, d), dtype=bool)
    blocked[:16] = blocked[-16:] = True

    long_region = int(rng.integers(d))
    long_start, long_stop = 16, 16 + long_gap
    present[long_start:long_stop, long_region] = False
    blocked[: long_stop + 16, :] = True

    interpolated = np.zeros((n, d), dtype=bool)
    gaps_filled = 0
    for j in range(d):
        placed = 0
        while placed < short_gaps:
            length = int(rng.integers(1, 9))
            start = int(rng.integers(16, n - 16 - length))
            if blocked[start - 2 : start + length + 2, j].any():
                continue
            blocked[start - 2 : start + length + 2, j] = True
            present[start : start + length, j] = False
            interpolated[start : start + length, j] = True
            gaps_filled += length
            placed += 1

    stamps = np.datetime64("2021-01-01T00:00:00") + np.arange(n) * np.timedelta64(15, "m")
    utc = [s + "Z" for s in np.datetime_as_string(stamps, unit="s")]
    local = [s + "+01:00" for s in np.datetime_as_string(stamps + np.timedelta64(1, "h"), unit="s")]
    zone = rng.random((n, d)) < 0.5
    dup = rng.random((n, d)) < 0.01
    lines = ["timestamp,region,value"]
    duplicates = 0
    for i in range(n):
        for j, region in enumerate(REGIONS):
            if not present[i, j]:
                continue
            value = f"{values[i, j]:.3f}"
            first, second = (utc[i], local[i]) if zone[i, j] else (local[i], utc[i])
            lines.append(f"{first},{region},{value}")
            if dup[i, j]:
                lines.append(f"{second},{region},{value}")
                duplicates += 1
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    expected = values.copy()
    for j in range(d):
        missing = np.flatnonzero(interpolated[:, j])
        for run in np.split(missing, np.flatnonzero(np.diff(missing) > 1) + 1):
            lo, hi = run[0] - 1, run[-1] + 1
            frac = (run - lo) / (hi - lo)
            expected[run, j] = values[lo, j] + frac * (values[hi, j] - values[lo, j])
    return IngestTruth(
        values=expected[long_stop:],
        interpolated=interpolated[long_stop:],
        timestamps=stamps[long_stop:],
        rows_read=len(lines) - 1,
        gaps_filled=gaps_filled,
        duplicates=duplicates,
        rows_dropped=long_stop,
    )


def ingest_matches(panel, report, truth: IngestTruth) -> bool:
    """Report counts exact, observed values equal, filled values within 1e-9."""
    counts_ok = (
        report.rows_read == truth.rows_read
        and report.gaps_filled == truth.gaps_filled
        and report.duplicates_resolved == truth.duplicates
        and report.rows_dropped == truth.rows_dropped
        and report.regions_found == REGIONS
        and panel.labels == REGIONS
    )
    if not counts_ok or panel.values.shape != truth.values.shape:
        return False
    got, want, filled = panel.values, truth.values, truth.interpolated
    return (
        np.array_equal(got[~filled], want[~filled])
        and bool(np.all(np.abs(got[filled] - want[filled]) <= 1e-9 * np.maximum(1.0, np.abs(want[filled]))))
        and np.array_equal(panel.timestamps, truth.timestamps.astype(panel.timestamps.dtype))
    )


# -------------------------------------------------------------------- refit


def refit_panel(sizes: Sizes, seed: int, workdir: Path):
    """The refit series as a caller gets it: a simulated d = 6 panel written
    to a long-form CSV and read back with load_panel.

    Returns (panel, ingest report, expected ingest result).
    """
    n_obs = sizes.refit_T + sizes.refit_cycle + HORIZON
    lead = 16 + sizes.ingest_long_gap
    sim = generate(cointegrated_spec(d=6, r_true=3, n_obs=lead + n_obs, seed=seed))
    csv_path = workdir / "readings.csv"
    truth = write_ingest_csv(sim.values, sizes.ingest_short_gaps, sizes.ingest_long_gap, seed, csv_path)
    panel, report = ingest_mod.load_panel(csv_path)
    return panel, report, truth


def refit_forecast(panel, T: int, k: int) -> np.ndarray:
    """One request: fit on the T rows ending at origin T - 1 + k, forecast."""
    origin = T - 1 + k
    window = panel.window(origin - T + 1, origin + 1)
    model = vecm_mod.fit_vecm(window, REFIT_P, REFIT_R)
    return vecm_mod.forecast_vecm(model, window, HORIZON, origin_index=origin).values


class RefitWorkload(Workload):
    name = "refit-d6"
    op = f"request (window, fit_vecm p={REFIT_P} r={REFIT_R}, forecast H={HORIZON})"
    tail_percentile = 99     # a run makes thousands of requests

    def setup(self) -> None:
        self.panel, self.report, truth = refit_panel(self.sizes, input_seed(self.seed), self.workdir)
        self.ingest_ok = ingest_matches(self.panel, self.report, truth)
        self.ref = np.asarray(self._load_ref("refit")["paths"], dtype=float)
        self.next = 0

    def call(self):
        k = self.next % self.sizes.refit_cycle
        self.next += 1
        return k, refit_forecast(self.panel, self.sizes.refit_T, k)

    def verify(self, outcome) -> int:
        if not self.ingest_ok:
            return 1     # the request ran on a wrongly ingested series
        k, values = outcome
        ref = self.ref[k]
        ok = values.shape == ref.shape and bool(
            np.all(np.abs(values - ref) <= RTOL * np.maximum(1.0, np.abs(ref)))
        )
        return 0 if ok else 1

    def trace_calls(self) -> int:
        return self.sizes.refit_trace_requests

    def counts(self) -> dict[str, float]:
        return {
            "ingest.rows_read": self.report.rows_read,
            "ingest.gaps_filled": self.report.gaps_filled,
            "ingest.duplicates_resolved": self.report.duplicates_resolved,
        }


def refit_reference(sizes: Sizes, seed: int, workdir: Path) -> list:
    """Forecast path of every origin in the cycle, to 12 significant digits."""
    panel, _, _ = refit_panel(sizes, seed, workdir)
    return [
        [[float(f"{x:.12g}") for x in row] for row in refit_forecast(panel, sizes.refit_T, k)]
        for k in range(sizes.refit_cycle)
    ]


WORKLOADS = {cls.name: cls for cls in (GridWorkload, GridParallelWorkload, RefitWorkload)}


def program_root() -> Path:
    """Directory the imported windvecm package was loaded from."""
    return Path(windvecm.__file__).resolve().parent
