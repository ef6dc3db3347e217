"""Read delimited quarter-hourly production data into a clean panel.

Two canonical shapes are accepted, autodetected from the header row:

* long form  -- ``timestamp,region,value``, one observation per line;
* wide form  -- ``timestamp,<region>,<region>,...``, one instant per line.

Header and rows are read as CSV (a quoted field may hold the delimiter, a
doubled quote or a newline); the delimiter is ``,`` when the first line, read
with ``,``, starts with a ``timestamp`` field, else ``;``. Timestamps are
ISO 8601, with or without a zone offset; offsets are normalized to UTC and
naive timestamps are taken as already UTC. The grid step is fixed at 15
minutes: a timestamp that, in UTC, does not fall on :00, :15, :30 or :45
raises ``ParseError`` at the line its record starts on, as do malformed CSV, a
value beyond ``MAX_ABS_VALUE`` in magnitude and a region named twice in one
wide header, and a region whose values are all missing raises ``SchemaError``.
Duplicate (timestamp, region) readings (clock-change exports, or one region in
several files) are averaged; interior gaps of at most ``max_gap_slots`` grid
steps are filled linearly; anything longer leaves the rows incomplete and the
longest contiguous run of complete rows is returned, so the output always
satisfies the uniform-grid/no-missing panel contract.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .errors import InvalidInputError, NoOverlapError, ParseError, SchemaError
from .panel import MAX_ABS_VALUE, QUARTER_HOUR, TimeSeriesPanel

_MISSING_TOKENS = {"", "na", "nan", "null", "none", "-"}


@dataclass(frozen=True)
class IngestReport:
    """What ingestion read and how conflicts were resolved."""

    rows_read: int
    gaps_filled: int
    duplicates_resolved: int
    regions_found: tuple[str, ...]
    rows_dropped: int


def _parse_timestamp(token: str, line_no: int) -> datetime:
    """Naive UTC instant of an ISO 8601 token that falls on a quarter-hour."""
    text = token.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    try:
        stamp = datetime.fromisoformat(text)
    except ValueError:
        raise ParseError(f"unparseable timestamp {token!r}", line=line_no) from None
    if stamp.tzinfo is not None:
        stamp = stamp.astimezone(timezone.utc).replace(tzinfo=None)
    if stamp.minute % 15 or stamp.second or stamp.microsecond:
        raise ParseError(f"timestamp {token!r} is not on a quarter-hour", line=line_no)
    return stamp


def _parse_value(token: str, line_no: int) -> float:
    """The reading of a value token; NaN when it marks a missing value.

    A reading beyond `MAX_ABS_VALUE` in magnitude, infinite ones included,
    is a parse error at its line.
    """
    text = token.strip()
    if text.lower() in _MISSING_TOKENS:
        return math.nan
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"unparseable value {token!r}", line=line_no) from None
    if abs(value) > MAX_ABS_VALUE:
        raise ParseError(f"value {token!r} exceeds {MAX_ABS_VALUE:g} in magnitude", line=line_no)
    return value


def _read_file(path: Path, stamps: list, labels: list, values: list) -> int:
    """Append every reading of one file to the three flat lists; returns
    the number of data rows read. A missing value is appended as NaN."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        first = fh.readline()
        if not first.strip():
            raise ParseError("empty file", line=1)
        fh.seek(0)
        start = 1   # the line the next record starts on
        try:
            lead = next(csv.reader([first]))[0].strip().lower()
            reader = csv.reader(fh, delimiter="," if lead == "timestamp" else ";")
            header = [h.strip() for h in next(reader)]
            lowered = [h.lower() for h in header]
            if lowered == ["timestamp", "region", "value"]:
                regions = None
            elif lowered[0] == "timestamp" and len(header) >= 2:
                regions = header[1:]
                for i, region in enumerate(regions):
                    if not region:
                        raise ParseError("empty region label in header", line=1)
                    if region in regions[:i]:
                        raise ParseError(f"region {region!r} repeats in header", line=1)
            else:
                raise ParseError(
                    "unknown header; expected 'timestamp,region,value' or "
                    "'timestamp,<region>,...'",
                    line=1,
                )
            rows, start = 0, reader.line_num + 1
            for row in reader:
                line_no, start = start, reader.line_num + 1
                if not row or not "".join(row).strip():
                    continue
                if len(row) != len(header):
                    raise ParseError(
                        f"expected {len(header)} fields, found {len(row)}", line=line_no
                    )
                ts = _parse_timestamp(row[0], line_no)
                if regions is None:
                    region = row[1].strip()
                    if not region:
                        raise ParseError("empty region label", line=line_no)
                    pairs = ((region, row[2]),)
                else:
                    pairs = zip(regions, row[1:])
                for region, token in pairs:
                    stamps.append(ts)
                    labels.append(region)
                    values.append(_parse_value(token, line_no))
                rows += 1
        except csv.Error as exc:
            raise ParseError(str(exc), line=start) from None
        return rows


def _runs(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(starts, stops) of the True runs of a 1-D mask, in order."""
    edges = np.diff(mask.astype(np.int8), prepend=0, append=0)
    return np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)


def load_panel(paths, *, max_gap_slots: int = 8) -> tuple[TimeSeriesPanel, IngestReport]:
    """Ingest one or more delimited files into a clean panel plus a report.

    Region columns come out in sorted label order; the grid runs from the
    first to the last instant covered by every region. Interior gaps of at
    most ``max_gap_slots`` grid steps (default 8, two hours; a negative
    value raises `InvalidInputError`) are filled.
    """
    if max_gap_slots < 0:
        raise InvalidInputError(f"max_gap_slots must be >= 0, got {max_gap_slots}")
    if isinstance(paths, (str, Path)):
        paths = [paths]
    stamps: list[datetime] = []
    labels: list[str] = []
    readings: list[float] = []
    rows_read = 0
    for path in paths:
        rows_read += _read_file(Path(path), stamps, labels, readings)
    if not labels:
        raise SchemaError("no regions found in input")
    names, column = np.unique(labels, return_inverse=True)
    regions = tuple(names.tolist())

    # one cell per distinct (region, timestamp); its value is its readings
    # summed in file order and divided by their count
    readings = np.array(readings)
    present = ~np.isnan(readings)
    seconds = np.array(stamps, dtype="datetime64[s]").view(np.int64)
    keys = np.column_stack((column, seconds))[present]
    readings = readings[present]
    cells, inverse, counts = np.unique(
        keys, axis=0, return_inverse=True, return_counts=True
    )
    inverse = inverse.reshape(-1)
    means = np.bincount(inverse, weights=readings, minlength=len(cells)) / counts
    duplicates = len(readings) - len(cells)

    cell_column, cell_seconds = cells.T
    per_region = np.bincount(cell_column, minlength=len(regions))
    if not per_region.all():
        empty = regions[int(np.argmin(per_region))]
        raise SchemaError(f"region {empty!r} has no usable values")
    first = np.cumsum(per_region) - per_region   # cells sort by region, then time
    start = cell_seconds[first].max()
    end = cell_seconds[first + per_region - 1].min()
    if start > end:
        raise NoOverlapError("input series share no common coverage")
    step = int(QUARTER_HOUR / np.timedelta64(1, "s"))
    n, d = (end - start) // step + 1, len(regions)
    grid = (start + step * np.arange(n)).astype("datetime64[s]")

    values = np.full((n, d), np.nan)
    on_grid = (cell_seconds >= start) & (cell_seconds <= end)
    values[(cell_seconds[on_grid] - start) // step, cell_column[on_grid]] = means[on_grid]

    gaps_filled = 0
    for col in values.T:
        starts, stops = _runs(np.isnan(col))
        # interior runs only: never extrapolate beyond observed endpoints
        fill = (starts > 0) & (stops < n) & (stops - starts <= max_gap_slots)
        for lo, hi in zip(starts[fill] - 1, stops[fill]):
            frac = (np.arange(lo + 1, hi) - lo) / (hi - lo)
            col[lo + 1 : hi] = col[lo] + frac * (col[hi] - col[lo])
            gaps_filled += int(hi - lo - 1)

    starts, stops = _runs(~np.isnan(values).any(axis=1))
    if not starts.size:
        raise NoOverlapError("no complete rows remain after gap handling")
    longest = int(np.argmax(stops - starts))   # the earliest of the longest
    lo, hi = starts[longest], stops[longest]
    rows_dropped = int(n - (hi - lo))

    panel = TimeSeriesPanel(values[lo:hi], grid[lo:hi], regions)
    return panel, IngestReport(
        rows_read=rows_read,
        gaps_filled=gaps_filled,
        duplicates_resolved=duplicates,
        regions_found=regions,
        rows_dropped=rows_dropped,
    )


def save_wide(panel: TimeSeriesPanel, path) -> None:
    """Write a panel in the wide format, labels quoted as CSV needs; reloading is exact."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(["timestamp", *panel.labels])
        for i in range(panel.n_obs):
            stamp = str(panel.timestamps[i].astype("datetime64[s]")) + "Z"
            row = ",".join(f"{v:.17g}" for v in panel.values[i])
            fh.write(f"{stamp},{row}\n")
