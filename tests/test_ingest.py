import numpy as np
import pytest

from windvecm import (
    InvalidInputError,
    NoOverlapError,
    ParseError,
    SchemaError,
    TimeSeriesPanel,
    load_panel,
    save_wide,
)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_three_row_single_region_verbatim(tmp_path):
    path = write(tmp_path, "a.csv", "\n".join([
        "timestamp,region,value",
        "2020-01-01T00:00,north,10.5",
        "2020-01-01T00:15,north,11",
        "2020-01-01T00:30,north,12.25",
    ]))
    panel, report = load_panel([path])
    assert panel.labels == ("north",)
    assert np.array_equal(panel.values.ravel(), [10.5, 11.0, 12.25])
    assert report.rows_read == 3
    assert report.gaps_filled == 0
    assert report.duplicates_resolved == 0
    assert report.rows_dropped == 0


def test_single_missing_slot_interpolated(tmp_path):
    path = write(tmp_path, "a.csv", "\n".join([
        "timestamp,region,value",
        "2020-01-01T00:00,north,2",
        "2020-01-01T00:30,north,4",
    ]))
    panel, report = load_panel([path])
    assert np.array_equal(panel.values.ravel(), [2.0, 3.0, 4.0])
    assert report.gaps_filled == 1


def test_duplicated_timestamp_per_region_averaged(tmp_path):
    # hand-computed fixture: one duplicate pair per region
    regions = [f"r{i}" for i in range(6)]
    lines = ["timestamp,region,value"]
    for j, region in enumerate(regions):
        lines.append(f"2020-03-29T01:00,{region},{10 + j}")
        lines.append(f"2020-03-29T01:15,{region},{20 + j}")
        lines.append(f"2020-03-29T01:15,{region},{40 + j}")  # duplicate slot
        lines.append(f"2020-03-29T01:30,{region},{30 + j}")
    path = write(tmp_path, "dup.csv", "\n".join(lines))
    panel, report = load_panel([path])
    assert report.duplicates_resolved == 6
    assert panel.labels == tuple(sorted(regions))
    for j in range(6):
        assert np.array_equal(panel.values[:, j], [10 + j, 30 + j, 30 + j])


def test_wide_form_and_semicolon_delimiter(tmp_path):
    path = write(tmp_path, "wide.csv", "\n".join([
        "timestamp;east;west",
        "2020-01-01T00:00;1.5;2.5",
        "2020-01-01T00:15;1.75;2.25",
    ]))
    panel, report = load_panel([path])
    assert panel.labels == ("east", "west")
    assert np.array_equal(panel.values, [[1.5, 2.5], [1.75, 2.25]])
    assert report.rows_read == 2


@pytest.mark.parametrize(
    "header, row, labels, values",
    [
        ('"timestamp","a","b"', "2020-01-01T00:00,1,2", ("a", "b"), [[1.0, 2.0]]),
        # a comma file whose label holds more semicolons than the header has commas
        ("timestamp,a;b;c", "2020-01-01T00:00,1", ("a;b;c",), [[1.0]]),
        ('"timestamp";"a,b"', "2020-01-01T00:00;1", ("a,b",), [[1.0]]),
    ],
    ids=["quoted-header", "comma-header-label-with-semicolons",
         "quoted-semicolon-header-label-with-comma"],
)
def test_header_is_read_by_the_csv_rules(tmp_path, header, row, labels, values):
    panel, _ = load_panel([write(tmp_path, "h.csv", f"{header}\n{row}\n")])
    assert panel.labels == labels
    assert np.array_equal(panel.values, values)


def test_wide_form_missing_cell_interpolated(tmp_path):
    path = write(tmp_path, "wm.csv", "\n".join([
        "timestamp,east,west",
        "2020-01-01T00:00,1,10",
        "2020-01-01T00:15,NA,12",
        "2020-01-01T00:30,3,14",
    ]))
    panel, report = load_panel([path])
    assert np.array_equal(panel.values, [[1.0, 10.0], [2.0, 12.0], [3.0, 14.0]])
    assert report.gaps_filled == 1


@pytest.mark.parametrize("max_gap_slots", [-1, -3])
def test_negative_gap_length_is_rejected(tmp_path, max_gap_slots):
    path = write(tmp_path, "wm.csv", "\n".join([
        "timestamp,east,west",
        "2020-01-01T00:00,1,10",
        "2020-01-01T00:15,NA,12",
        "2020-01-01T00:30,3,14",
    ]))
    with pytest.raises(InvalidInputError, match=f"max_gap_slots must be >= 0, got {max_gap_slots}"):
        load_panel([path], max_gap_slots=max_gap_slots)
    panel, report = load_panel([path], max_gap_slots=0)
    assert panel.n_obs == 1 and report.rows_dropped == 2


def test_timezone_offsets_normalized_to_utc(tmp_path):
    path = write(tmp_path, "tz.csv", "\n".join([
        "timestamp,region,value",
        "2020-01-01T01:00+01:00,north,1",
        "2020-01-01T00:15Z,north,2",
        "2020-01-01T00:30,north,3",
        "2020-01-01T01:45+0100,north,4",
    ]))
    panel, _ = load_panel([path])
    assert str(panel.timestamps[0]) == "2020-01-01T00:00:00"
    assert np.array_equal(panel.values.ravel(), [1.0, 2.0, 3.0, 4.0])


def test_long_gap_dropped_longest_segment_kept(tmp_path):
    # gap of 3 slots (00:30..01:00) with max_gap_slots=2: the later 4-row
    # run survives, the 2-row head and the 3 gap slots are dropped
    lines = ["timestamp,region,value",
             "2020-01-01T00:00,n,1",
             "2020-01-01T00:15,n,2",
             "2020-01-01T01:15,n,6",
             "2020-01-01T01:30,n,7",
             "2020-01-01T01:45,n,8",
             "2020-01-01T02:00,n,9"]
    path = write(tmp_path, "gap.csv", "\n".join(lines))
    panel, report = load_panel([path], max_gap_slots=2)
    assert np.array_equal(panel.values.ravel(), [6.0, 7.0, 8.0, 9.0])
    assert report.rows_dropped == 5
    assert report.gaps_filled == 0


def test_interpolation_never_extrapolates(tmp_path):
    # region b starts one slot later: that leading slot cannot be filled,
    # so the common clean run starts at 00:15
    path = write(tmp_path, "lead.csv", "\n".join([
        "timestamp,region,value",
        "2020-01-01T00:00,a,1",
        "2020-01-01T00:15,a,2",
        "2020-01-01T00:30,a,3",
        "2020-01-01T00:15,b,5",
        "2020-01-01T00:30,b,6",
    ]))
    panel, report = load_panel([path])
    assert panel.n_obs == 2
    assert np.array_equal(panel.values, [[2.0, 5.0], [3.0, 6.0]])


def test_multiple_files_merge(tmp_path):
    a = write(tmp_path, "a.csv",
              "timestamp,region,value\n2020-01-01T00:00,a,1\n2020-01-01T00:15,a,2\n")
    b = write(tmp_path, "b.csv",
              "timestamp,region,value\n2020-01-01T00:00,b,3\n2020-01-01T00:15,b,4\n")
    panel, report = load_panel([a, b])
    assert panel.labels == ("a", "b")
    assert np.array_equal(panel.values, [[1.0, 3.0], [2.0, 4.0]])
    assert report.rows_read == 4


def test_region_in_two_wide_files_is_averaged(tmp_path):
    # Unlike a region named twice in one header, which is refused, one region
    # in two files (overlapping exports) is one series, averaged where both
    # files read it.
    a = write(tmp_path, "a.csv", "timestamp,a,b\n2020-01-01T00:00,1,5\n2020-01-01T00:15,2,6\n")
    b = write(tmp_path, "b.csv", "timestamp,a\n2020-01-01T00:00,3\n")
    panel, report = load_panel([a, b])
    assert panel.labels == ("a", "b")
    assert np.array_equal(panel.values, [[2.0, 5.0], [2.0, 6.0]])
    assert report.duplicates_resolved == 1


def test_ingestion_is_deterministic(tmp_path):
    path = write(tmp_path, "d.csv", "\n".join([
        "timestamp,region,value",
        "2020-01-01T00:00,x,1",
        "2020-01-01T00:15,x,",
        "2020-01-01T00:30,x,3",
    ]))
    p1, r1 = load_panel([path])
    p2, r2 = load_panel([path])
    assert np.array_equal(p1.values, p2.values)
    assert r1 == r2
    assert r1.gaps_filled == 1


def test_parse_error_carries_line_number(tmp_path):
    path = write(tmp_path, "bad.csv", "\n".join([
        "timestamp,region,value",
        "2020-01-01T00:00,a,1",
        "not-a-time,a,2",
    ]))
    with pytest.raises(ParseError) as err:
        load_panel([path])
    assert err.value.line == 3


@pytest.mark.parametrize("token", ["inf", "-inf", "Infinity", "1e999", "-1e999",
                                   "1e160", "-1e160"])
def test_infinite_value_is_a_parse_error_at_its_line(tmp_path, token):
    long_path = write(tmp_path, "inf-long.csv", "\n".join([
        "timestamp,region,value",
        "2020-01-01T00:00,a,1",
        f"2020-01-01T00:15,a,{token}",
        "2020-01-01T00:30,a,3",
    ]))
    wide_path = write(tmp_path, "inf-wide.csv", "\n".join([
        "timestamp,a,b",
        "2020-01-01T00:00,1,2",
        "2020-01-01T00:15,3,4",
        f"2020-01-01T00:30,5,{token}",
    ]))
    for path, line in ((long_path, 3), (wide_path, 4)):
        with pytest.raises(ParseError, match="exceeds 1e\\+100 in magnitude") as err:
            load_panel([path])
        assert err.value.line == line


def test_unknown_header_rejected(tmp_path):
    path = write(tmp_path, "h.csv", "foo,bar\n1,2\n")
    with pytest.raises(ParseError) as err:
        load_panel([path])
    assert err.value.line == 1


def test_no_overlap_error(tmp_path):
    path = write(tmp_path, "o.csv", "\n".join([
        "timestamp,region,value",
        "2020-01-01T00:00,a,1",
        "2020-06-01T00:00,b,2",
    ]))
    with pytest.raises(NoOverlapError):
        load_panel([path])


def test_wide_roundtrip_is_value_exact(tmp_path):
    rng = np.random.default_rng(5)
    # labels holding the delimiter or a newline are quoted in the header
    for labels in (("a", "b", "c"), ("a", "a,b", "m\nn")):
        panel = TimeSeriesPanel.from_values(rng.normal(size=(40, 3)) * 1234.5678,
                                            labels=labels)
        out = tmp_path / "round.csv"
        save_wide(panel, out)
        back, report = load_panel([out])
        assert back.labels == panel.labels
        assert np.array_equal(back.values, panel.values)
        assert np.array_equal(back.timestamps, panel.timestamps)
        # and the re-export is byte-stable
        out2 = tmp_path / "round2.csv"
        save_wide(back, out2)
        assert out.read_bytes() == out2.read_bytes()


def test_region_with_every_value_missing_is_a_schema_error(tmp_path):
    path = write(tmp_path, "na.csv", "\n".join([
        "timestamp,east,west",
        "2020-01-01T00:00,1,NA",
        "2020-01-01T00:15,2,NA",
        "2020-01-01T00:30,3,NA",
    ]))
    with pytest.raises(SchemaError, match="'west' has no usable values"):
        load_panel([path])


@pytest.mark.parametrize("lines, bad_line", [
    # between two readings of the same region
    (["2020-01-01T00:00,a,1", "2020-01-01T00:07,a,9", "2020-01-01T00:15,a,2"], 3),
    # the first reading of region b, which would set the grid's start
    (["2020-01-01T00:00,a,1", "2020-01-01T00:15,a,2", "2020-01-01T00:30,a,3",
      "2020-01-01T00:07,b,9", "2020-01-01T00:15,b,5", "2020-01-01T00:30,b,6"], 5),
    (["2020-01-01T00:00:30,a,1", "2020-01-01T00:15,a,2"], 2),
])
def test_reading_off_the_quarter_hour_is_a_parse_error(tmp_path, lines, bad_line):
    path = write(tmp_path, "q.csv", "\n".join(["timestamp,region,value", *lines]))
    with pytest.raises(ParseError, match="not on a quarter-hour") as err:
        load_panel([path])
    assert err.value.line == bad_line


def test_offset_that_lands_on_the_quarter_hour_in_utc_is_accepted(tmp_path):
    path = write(tmp_path, "np.csv", "\n".join([
        "timestamp,region,value",
        "2020-01-01T05:45+05:45,a,1",
        "2020-01-01T00:15Z,a,2",
    ]))
    panel, _ = load_panel([path])
    assert str(panel.timestamps[0]) == "2020-01-01T00:00:00"
    assert np.array_equal(panel.values.ravel(), [1.0, 2.0])


@pytest.mark.parametrize(
    "lines, message, bad_line",
    [
        ([], "empty file", 1),
        (["timestamp,a,,b", "2020-01-01T00:00,1,2,3"], "empty region label in header", 1),
        # one region, two columns: not averaged into one series
        (["timestamp,a,a", "2020-01-01T00:00,1,2", "2020-01-01T00:15,3,4"],
         "region 'a' repeats in header", 1),
        (["timestamp,region,value", "2020-01-01T00:00,a,1", "2020-01-01T00:15, ,2"],
         "empty region label", 3),
        (["timestamp,a,b", "2020-01-01T00:00,1,2", "2020-01-01T00:15,3"],
         "expected 3 fields, found 2", 3),
        # blank rows are skipped but still counted as lines
        (["timestamp,a,b", "", " , , ", "2020-01-01T00:00,1,2", "2020-01-01T00:15,3"],
         "expected 3 fields, found 2", 5),
        (["timestamp,region,value", "2020-01-01T00:00,a,1", "2020-01-01T00:15,a,one"],
         "unparseable value 'one'", 3),
        # the open quote runs to the end of the file, past the csv field limit
        (["timestamp,a,b", '2020-01-01T00:00,"1,2', *["2020-01-01T00:15,3,4"] * 7000],
         r"field larger than field limit \(131072\)", 2),
        # a record is reported at the line it starts on, not by its count
        (["timestamp,a,b", '2020-01-01T00:00,"1', '",2', "2020-01-01T00:15,3,x"],
         "unparseable value 'x'", 4),
    ],
    ids=["empty-file", "empty-header-label", "repeated-header-label", "empty-row-label",
         "ragged-row", "ragged-row-after-blank-rows", "unparseable-value",
         "unterminated-quote", "bad-value-after-multiline-field"],
)
def test_malformed_file_is_a_parse_error_at_its_line(tmp_path, lines, message, bad_line):
    path = write(tmp_path, "bad.csv", "\n".join(lines))
    with pytest.raises(ParseError, match=message) as err:
        load_panel([path])
    assert err.value.line == bad_line


@pytest.mark.parametrize("text", ["timestamp,region,value\n", "timestamp,a,b\n\n,,\n"],
                         ids=["long-header-only", "wide-blank-rows-only"])
def test_file_without_readings_is_a_schema_error(tmp_path, text):
    with pytest.raises(SchemaError, match="no regions found in input"):
        load_panel([write(tmp_path, "empty.csv", text)])


def test_no_complete_row_is_a_no_overlap_error(tmp_path):
    # the regions overlap in time, but never report at the same instant
    path = write(tmp_path, "alt.csv", "\n".join([
        "timestamp,a,b",
        "2020-01-01T00:00,1,NA",
        "2020-01-01T00:15,NA,2",
        "2020-01-01T00:30,3,NA",
        "2020-01-01T00:45,NA,4",
    ]))
    with pytest.raises(NoOverlapError, match="no complete rows"):
        load_panel([path])


def test_duplicate_readings_average_as_file_order_sum_over_count(tmp_path):
    # Every cell's value is its readings summed in file order, divided by
    # their count; np.mean, which sums nine values pairwise, differs here
    readings = [85.65, 236.81, 801.27, 582.16, 94.13, 433.13, 479.05, 159.74, 734.58]
    assert sum(readings) / 9 != np.mean(readings)
    path = write(tmp_path, "dup.csv", "\n".join(
        ["timestamp,region,value"]
        + [f"2020-01-01T00:00,a,{v}" for v in readings]
        + ["2020-01-01T00:15,a,1"]
    ))
    panel, report = load_panel([path])
    assert panel.values[0, 0] == sum(readings) / 9
    assert report.duplicates_resolved == 8

    # Cells of 8 to 30 readings in two regions, interleaved in the file:
    # each averages its own readings by the same rule.
    rng = np.random.default_rng(7)
    stamps = ["2020-01-01T00:00", "2020-01-01T00:15", "2020-01-01T00:30"]
    rows = [(i, j, float(v)) for i in range(3) for j in range(2)
            for v in rng.uniform(0, 1000, size=rng.integers(8, 31))]
    rows = [rows[k] for k in rng.permutation(len(rows))]
    path = write(tmp_path, "dups.csv", "\n".join(
        ["timestamp,region,value"] + [f"{stamps[i]},{'ab'[j]},{v!r}" for i, j, v in rows]
    ))
    panel, report = load_panel([path])
    cells = [[[v for i2, j2, v in rows if (i2, j2) == (i, j)] for j in range(2)]
             for i in range(3)]
    want = [[sum(cell) / len(cell) for cell in row] for row in cells]
    assert np.array_equal(panel.values, want)
    assert report.duplicates_resolved == len(rows) - 6
