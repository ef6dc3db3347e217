"""Command-line surface: fit models, run grid backtests, evaluate combinations.

Every command reads its panel either from delimited data files (``--data``)
or from a simulation spec in JSON form (``--sim``), never both. All outputs
are deterministic given the inputs and the seed: rerunning a command
overwrites its outputs byte-identically.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .backtest import (
    DEFAULT_T_GRID,
    BacktestConfig,
    BacktestGridResult,
    TSummary,
    run_combination,
    run_grid,
    sample_origins,
    summarize_best,
)
from .errors import DegenerateVarianceError, InvalidInputError, SchemaError, WindVecmError
from .ingest import load_panel
from .metrics import dm_test
from .model_io import write_model
from .panel import DeterministicSpec, TimeSeriesPanel
from .simulate import generate, spec_from_json
from .vecm import fit_var, fit_vecm


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _pair(text: str) -> tuple[int, int]:
    parts = _int_list(text)
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 'p,r', got {text!r}")
    return parts[0], parts[1]


def _add_common_args(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--data", nargs="+", metavar="FILE",
                        help="delimited data files (long or wide form)")
    source.add_argument("--sim", metavar="SPEC.json",
                        help="simulation spec (JSON) to generate data from")
    parser.add_argument("--expected-regions", type=int, default=None,
                        help="fail unless the panel has exactly this many regions")
    parser.add_argument("--max-gap", type=int, default=8,
                        help="longest gap (in grid slots) filled by interpolation")
    parser.add_argument("--det", choices=["none", "constant"], default="constant",
                        help="deterministic term (default: constant)")


def _add_study_args(parser: argparse.ArgumentParser) -> None:
    """The rolling-origin flags that `backtest` and `combine` share."""
    parser.add_argument("--seed", type=int, default=BacktestConfig.seed,
                        help="origin sampling seed")
    parser.add_argument("--horizon", type=int, default=BacktestConfig.horizon,
                        help=f"forecast steps H (default {BacktestConfig.horizon})")
    parser.add_argument("--origins", type=int, default=BacktestConfig.n_origins,
                        help="number of sampled forecast origins")
    parser.add_argument("--clip0", action="store_true",
                        help="floor forecasts at 0 MW")


def _load_source(args) -> TimeSeriesPanel:
    if args.sim is not None:
        panel = generate(spec_from_json(Path(args.sim).read_text(encoding="utf-8")))
    else:
        panel, report = load_panel(args.data, max_gap_slots=args.max_gap)
        print(
            f"loaded {panel.n_obs} x {panel.d} panel "
            f"({', '.join(report.regions_found)}); "
            f"gaps filled {report.gaps_filled}, duplicates {report.duplicates_resolved}, "
            f"rows dropped {report.rows_dropped}"
        )
    if args.expected_regions is not None and panel.d != args.expected_regions:
        raise SchemaError(f"expected {args.expected_regions} regions, found {panel.d}")
    return panel


def _cell(value, table_format: str | None = None) -> str:
    """``value`` as a table cell in ``table_format``, else as a CSV cell at
    17 significant digits; a score that does not exist (None) prints as
    ``--`` in a table and as an empty CSV cell."""
    if value is None:
        return "" if table_format is None else "--"
    return format(value, ".17g" if table_format is None else table_format)


def _out_dir(out: str) -> Path:
    """``out`` as an output directory, checked before any fit: it, or else
    the nearest of its parents that exists, must be a directory, so that a
    long run cannot fail only when it writes. Nothing is created here."""
    path = Path(out)
    existing = next(part for part in (path, *path.parents) if part.exists())
    if not existing.is_dir():
        raise FileExistsError(f"{existing} exists and is not a directory")
    return path


def _write_files(out_dir: Path, files: dict[str, list[str]]) -> None:
    """Write every ``{file name: lines}`` entry into ``out_dir`` as UTF-8 text,
    each line ended by a newline."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, lines in files.items():
        (out_dir / name).write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_fit(args) -> int:
    panel = _load_source(args)
    det = DeterministicSpec(args.det)
    if args.rank is None:
        model = fit_var(panel, args.p, det)
        print(f"fitted VAR(p={args.p}) on {panel.n_obs} x {panel.d} panel")
    else:
        model = fit_vecm(panel, args.p, args.rank, det)
        print(f"fitted VECM(p={args.p}, r={args.rank}) on {panel.n_obs} x {panel.d} panel")
        if model.eigenvalues is not None:
            print("eigenvalues: " + " ".join(f"{v:.6f}" for v in model.eigenvalues))
    diag = np.diag(model.resid_cov)
    print("residual variance by series: " + " ".join(f"{v:.6g}" for v in diag))
    write_model(model, args.out)
    print(f"model written to {args.out}")
    return 0


def _grid_lines(result: BacktestGridResult) -> list[str]:
    return ["T,p,r,n_ok,n_failed,mae,mse"] + [
        f"{rec.T},{rec.p},{rec.r},{rec.n_ok},{rec.n_failed},{_cell(rec.mae)},{_cell(rec.mse)}"
        for rec in result.records
    ]


def _grid_long_lines(result: BacktestGridResult) -> list[str]:
    return ["T,p,r,metric,value"] + [
        f"{rec.T},{rec.p},{rec.r},{name},{_cell(value)}"
        for rec in result.records if rec.mae is not None
        for name, value in (("mae", rec.mae), ("mse", rec.mse))
    ]


#: The summary CSV's columns after T; those with a label are also the summary
#: table's rows: (`TSummary` attribute, table label or None, table format).
_SUMMARY_FIELDS = (
    ("best_p", "Best p", "d"),
    ("best_r", "Best r", "d"),
    ("best_loss", None, None),
    ("improvement_vs_diff_var", "Improvement to best VAR on ΔY_t", ".2f"),
    ("improvement_vs_levels_var", "Improvement to best VAR on Y_t", ".2f"),
)

#: Note on a summary row whose T has no scored cell (``best_p is None``).
_ALL_FAILED = "all cells failed"


def _summary_table(rows: tuple[TSummary, ...], metric: str) -> list[str]:
    grid = [["T/96 (=length in days)"] + [f"{r.T / 96:g}" for r in rows]] + [
        [label] + [_cell(getattr(r, attr), fmt) for r in rows]
        for attr, label, fmt in _SUMMARY_FIELDS if label
    ]
    label_width = max(len(line[0]) for line in grid)
    col_width = max(5, max(len(cell) for line in grid for cell in line[1:]))
    out = [f"{metric.upper()} summary"] + [
        line[0].ljust(label_width) + "".join(cell.rjust(col_width + 2) for cell in line[1:])
        for line in grid
    ]
    out += [f"  note: T={r.T}: {_ALL_FAILED}" for r in rows if r.best_p is None]
    return out


def _summary_csv_lines(rows: tuple[TSummary, ...]) -> list[str]:
    lines = [",".join(["T", *(attr for attr, _, _ in _SUMMARY_FIELDS), "note"])]
    for r in rows:
        cells = [_cell(getattr(r, attr)) for attr, _, _ in _SUMMARY_FIELDS]
        lines.append(",".join([str(r.T), *cells, _ALL_FAILED if r.best_p is None else ""]))
    return lines


def cmd_backtest(args) -> int:
    out_dir = _out_dir(args.out)
    panel = _load_source(args)
    config = BacktestConfig(
        T_grid=args.window,
        p_grid=args.p,
        r_grid=args.rank,
        horizon=args.horizon,
        n_origins=args.origins,
        seed=args.seed,
        det=DeterministicSpec(args.det),
        clip_nonnegative=args.clip0,
    )
    result = run_grid(panel, config, workers=args.workers)
    # The byte-identical rerun set: every file a rerun must reproduce.
    files = {
        "grid.csv": _grid_lines(result),
        "grid_long.csv": _grid_long_lines(result),
        "origins.csv": ["origin", *(str(o) for o in result.origins.tolist())],
        "metadata.csv": ["key,value",
                         *(f"{k},{v}" for k, v in sorted(result.metadata.items()))],
    }
    for metric in ("mae", "mse"):
        rows = summarize_best(result, metric)
        files[f"summary_{metric}.txt"] = table = _summary_table(rows, metric)
        files[f"summary_{metric}.csv"] = _summary_csv_lines(rows)
        print("\n".join(table) + "\n")
    _write_files(out_dir, files)
    n_failed_total = sum(rec.n_failed for rec in result.records)
    print(
        f"evaluated {len(result.records)} cells on {result.origins.size} origins "
        f"({n_failed_total} cell-origin failures); files in {out_dir}"
    )
    return 0


def _dm_line(name: str, loss_a, loss_b, kind: str) -> str:
    try:
        res = dm_test(loss_a, loss_b)
        return (
            f"DM {name} ({kind}): statistic {res.statistic:+.4f}, "
            f"p-value {res.p_value:.4g} (n={res.n_effective})"
        )
    except DegenerateVarianceError:
        return f"DM {name} ({kind}): degenerate variance (identical forecasters)"
    except InvalidInputError as exc:
        return f"DM {name} ({kind}): not computed ({exc})"


def _change(value: float, base: float) -> str:
    """Relative change of ``value`` against ``base`` in percent; ``--`` for a zero base."""
    return f"{(value / base - 1.0) * 100:+.2f}%" if base else "--"


def cmd_combine(args) -> int:
    out_dir = _out_dir(args.out) if args.out else None
    panel = _load_source(args)
    det = DeterministicSpec(args.det)
    origins = sample_origins(panel.n_obs, args.window, args.horizon,
                             args.origins, args.seed)
    result = run_combination(
        panel, args.window, args.model_a, args.model_b, origins,
        args.horizon, det=det, clip_nonnegative=args.clip0,
    )
    labels = {
        "a": "model A (p={}, r={}): ".format(*args.model_a),
        "b": "model B (p={}, r={}): ".format(*args.model_b),
        "combined": "equal-weight combination:",
    }
    lines = [
        f"combination study: T={args.window}, H={args.horizon}, "
        f"{result.origins_ok.size} origins ({result.n_failed} failed)"
    ]
    rows = ["model,mae,mse"]
    mae, mse = result.mae, result.mse
    for name, label in labels.items():
        lines.append(f"{label} MAE {mae[name]:.6g}  MSE {mse[name]:.6g}")
        rows.append(f"{name},{_cell(mae[name])},{_cell(mse[name])}")
    lines.append(
        f"MAE change vs A: {_change(mae['combined'], mae['a'])}  "
        f"vs B: {_change(mae['combined'], mae['b'])}"
    )
    for kind, losses in (("absolute", result.abs_losses), ("squared", result.sq_losses)):
        lines.append(_dm_line("combined vs A", losses["combined"], losses["a"], kind))
        lines.append(_dm_line("combined vs B", losses["combined"], losses["b"], kind))
    print("\n".join(lines))
    if out_dir is not None:
        _write_files(out_dir, {"combine.txt": lines, "combine.csv": rows})
        print(f"files in {out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="windvecm",
        description="Cointegrated VAR forecasting and rolling backtests "
                    "for multivariate power time series",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit one model and write a model file")
    _add_common_args(fit)
    fit.add_argument("--p", type=int, required=True, help="autoregressive order")
    fit.add_argument("--rank", type=int, default=None,
                     help="cointegrating rank; omit to fit a plain VAR")
    fit.add_argument("--out", required=True, help="model file to write")
    fit.set_defaults(func=cmd_fit)

    bt = sub.add_parser("backtest", help="rolling-origin study over a (T, p, r) grid")
    _add_common_args(bt)
    _add_study_args(bt)
    bt.add_argument("--window", type=_int_list, default=BacktestConfig.T_grid,
                    help="comma-separated calibration lengths (default "
                         f"{','.join(map(str, DEFAULT_T_GRID))})")
    bt.add_argument("--p", type=_int_list, default=BacktestConfig.p_grid,
                    help="comma-separated orders (default 1..7)")
    bt.add_argument("--rank", type=_int_list, default=None,
                    help="comma-separated ranks (default 0..d)")
    bt.add_argument("--workers", type=int, default=1,
                    help="worker processes, each running whole (T, p) units "
                         "(default 1, serial)")
    bt.add_argument("--out", required=True, help="output directory")
    bt.set_defaults(func=cmd_backtest)

    comb = sub.add_parser("combine",
                          help="evaluate two models and their equal-weight mean")
    _add_common_args(comb)
    _add_study_args(comb)
    comb.add_argument("--model-a", type=_pair, required=True, metavar="P,R")
    comb.add_argument("--model-b", type=_pair, required=True, metavar="P,R")
    comb.add_argument("--window", type=int, required=True,
                      help="calibration length T")
    comb.add_argument("--out", default=None, help="optional output directory")
    comb.set_defaults(func=cmd_combine)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (WindVecmError, OSError, UnicodeError) as exc:
        print(f"windvecm: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
