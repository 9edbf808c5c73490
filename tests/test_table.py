"""The shared CSV table layer, through each artifact's own reader/writer."""

import math
import os
import re
import tempfile
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgrl.metrics import (
    TRAIN_CSV_HEADER,
    read_train_metrics_csv,
    write_train_metrics_csv,
)
from mgrl.ppo import TrainStats
from mgrl.scenario import (
    CSV_COLUMNS,
    MAX_KW,
    Scenario,
    load_scenario_csv,
    write_scenario_csv,
)
from mgrl.table import TableError, read_text, write_text
from mgrl.trajectory import (
    CSV_HEADER,
    Trajectory,
    read_trajectory_csv,
    write_trajectory_csv,
)

EDGES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0,
         MAX_KW / 3, MAX_KW, -MAX_KW, 1e300, -1e300)


def cells(lo=-1e300, hi=1e300):
    return st.one_of(st.sampled_from([v for v in EDGES if lo <= v <= hi]),
                     st.floats(lo, hi))


ANY, FRACTION = cells(), cells(0.0, 1.0)
# A metrics fraction is NaN until the first episode ends.
NULLABLE_FRACTION = st.one_of(FRACTION, st.just(math.nan))
# Powers stay within the readers' kW cap; a scenario's three loads within
# a third of it each, so their total does too.
KW, KW_NON_NEGATIVE = cells(-MAX_KW, MAX_KW), cells(0.0, MAX_KW)
LOAD = cells(0.0, MAX_KW / 3)


def write_scenario(path, index, table):
    write_scenario_csv(Scenario(p_re=table[:, 0], loads=table[:, 1:]), path)


def read_scenario(path):
    scn = load_scenario_csv(path)
    return list(range(scn.horizon)), np.column_stack([scn.p_re, scn.loads])


def evaluated(row):
    """A trajectory row as evaluation writes it: each allocation at most
    its hour's supply, each shortage at most its tier's load, and no hour
    that both charges and discharges."""
    row = list(row)
    row[8:11] = (min(a, row[7]) for a in row[8:11])  # alloc <= p_supply
    row[14:17] = map(min, row[14:17], row[2:5])  # sh1..sh3 <= l1..l3
    if row[5] > 0:  # p_ch
        row[6] = 0.0  # p_dis
    return tuple(row)


def plain_table(columns, n):
    """n rows of 0.5 that every reader takes; a trajectory's hours charge
    and do not discharge."""
    table = np.full((n, len(columns) - 1), 0.5)
    if "p_dis" in columns:
        table[:, columns.index("p_dis") - 1] = 0.0
    return table


def write_trajectory(path, index, table):
    write_trajectory_csv(Trajectory(table), path)


def read_trajectory(path):
    table = read_trajectory_csv(path).table
    return list(range(len(table))), table


def write_metrics(path, index, table):
    write_train_metrics_csv([TrainStats(t, *row) for t, row
                             in zip(index, table.tolist())], path)


def read_metrics(path):
    stats = read_train_metrics_csv(path)
    return ([s.update for s in stats],
            np.array([astuple(s)[1:] for s in stats]).reshape(-1, 6))


# name: (columns, row strategy after the index, writer, reader, minimum
#        rows); every index runs 0..n-1
ARTIFACTS = {
    "scenario": (CSV_COLUMNS, st.tuples(KW_NON_NEGATIVE, *[LOAD] * 3),
                 write_scenario, read_scenario, 1),
    "trajectory": (CSV_HEADER, st.tuples(
        FRACTION, *[KW_NON_NEGATIVE] * 10, *[KW] * 3, *[KW_NON_NEGATIVE] * 3,
        FRACTION).map(evaluated), write_trajectory, read_trajectory, 0),
    "metrics": (TRAIN_CSV_HEADER, st.tuples(*[NULLABLE_FRACTION] * 2, *[ANY] * 4),
                write_metrics, read_metrics, 0),
}


def row(i):
    """How every artifact names its 0-based body line i."""
    return f"data row {i + 1}"


def reference_bytes(columns, index, rows) -> bytes:
    lines = [",".join(columns)]
    lines += [",".join([str(t)] + [repr(float(v)) for v in row])
              for t, row in zip(index, rows)]
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("name", ARTIFACTS)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_writer_matches_reference_and_reads_back_bitwise(name, data):
    columns, rows_of, write, read, min_rows = ARTIFACTS[name]
    rows = data.draw(st.lists(rows_of, min_size=min_rows, max_size=6))
    table = np.array(rows, dtype=np.float64).reshape(len(rows),
                                                     len(columns) - 1)
    index = list(range(len(rows)))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, f"{name}.csv")
        write(path, index, table)
        with open(path, "rb") as fh:
            assert fh.read() == reference_bytes(columns, index, rows)
        back_index, back = read(path)
    assert back_index == index
    np.testing.assert_array_equal(back.view(np.int64), table.view(np.int64))


def blank_line(lines):
    lines.insert(2, "")
    return 0  # a blank line lacks every column; the first is named


def hash_in_cell(lines):
    f = lines[2].split(",")
    lines[2] = ",".join([*f[:2], "#" + f[2], *f[3:]])
    return 2


def trailing_comma(lines):
    lines[2] += ","
    return -1


def ragged_row(lines):
    lines[2] = lines[2].rsplit(",", 1)[0]
    return -1


def non_numeric(lines):
    f = lines[2].split(",")
    lines[2] = ",".join([*f[:2], "abc", *f[3:]])
    return 2


def non_finite(lines):
    f = lines[2].split(",")
    lines[2] = ",".join([*f[:2], "inf", *f[3:]])
    return 2


def float_index(lines):
    lines[2] = "1.0" + lines[2][1:]
    return 0


def shifted_index(lines):
    lines[2] = "7" + lines[2][1:]
    return 0


def huge_index(lines):
    lines[2] = "9" * 400 + lines[2][1:]  # parses to inf
    return 0


DEFECTS = (blank_line, hash_in_cell, trailing_comma, ragged_row,
           non_numeric, non_finite, float_index, shifted_index, huge_index)


@pytest.mark.parametrize("name, defect", [
    pytest.param(name, defect, id=f"{name}-{defect.__name__}")
    for name in ARTIFACTS for defect in DEFECTS])
def test_malformed_body_names_file_row_and_column(tmp_path, name, defect):
    columns, _, write, read, _ = ARTIFACTS[name]
    path = tmp_path / f"{name}.csv"
    write(path, [0, 1, 2], plain_table(columns, 3))
    read(path)
    lines = path.read_text().splitlines()
    col = columns[defect(lines)]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TableError) as exc:
        read(path)
    message = str(exc.value)
    assert f"{name}.csv: {row(1)}" in message  # the second data line
    assert f"column {col}" in message


@pytest.mark.parametrize("name, column, value", [
    ("scenario", "p_re", math.nextafter(MAX_KW, math.inf)),
    ("scenario", "l2", 1e300),
    ("trajectory", "p_supply", 2 * MAX_KW),
    ("trajectory", "imb3", -1e300),
    ("trajectory", "sh1", math.nextafter(MAX_KW, math.inf)),
])
def test_power_beyond_the_kw_cap_names_file_row_and_column(
        tmp_path, name, column, value):
    columns, _, write, read, _ = ARTIFACTS[name]
    path = tmp_path / f"{name}.csv"
    table = plain_table(columns, 3)
    table[1, columns.index(column) - 1] = value
    write(path, [0, 1, 2], table)
    with pytest.raises(TableError, match=re.escape(
            f"{name}.csv: {row(1)}, column {column}: {value!r} kW beyond "
            f"the 1e+06 kW cap")):
        read(path)


def test_scenario_total_load_beyond_the_kw_cap_names_the_row(tmp_path):
    path = tmp_path / "scenario.csv"
    loads = np.array([[0.5] * 3, [MAX_KW / 2] * 3])
    write_scenario_csv(Scenario(p_re=np.zeros(2), loads=loads), path)
    with pytest.raises(TableError, match=(
            rf"scenario.csv: {row(1)}: total load 1500000.0 kW beyond the "
            rf"1e\+06 kW cap$")):
        load_scenario_csv(path)


@pytest.mark.parametrize("name", ARTIFACTS)
def test_blank_only_body_names_the_row(tmp_path, name):
    columns, _, _, read, _ = ARTIFACTS[name]
    path = tmp_path / f"{name}.csv"
    path.write_text(",".join(columns) + "\n\n")
    with pytest.raises(TableError, match=f"{name}.csv: {row(0)}: "
                                         f"column {columns[0]} missing"):
        read(path)


@pytest.mark.parametrize("name", ARTIFACTS)
def test_header_cells_are_stripped(tmp_path, name):
    columns, _, write, read = ARTIFACTS[name][:4]
    path = tmp_path / f"{name}.csv"
    write(path, [0, 1], plain_table(columns, 2))
    want = read(path)
    lines = path.read_text().split("\n")
    lines[0] = ", ".join(columns) + " "
    path.write_text("\n".join(lines))
    back = read(path)
    assert back[0] == want[0]
    np.testing.assert_array_equal(back[1], want[1])


@pytest.mark.parametrize("name", ARTIFACTS)
def test_leading_byte_order_mark_is_dropped(tmp_path, name):
    """A file saved with a UTF-8 BOM reads as the plain file: the BOM is
    not taken into the first header cell."""
    columns, _, write, read = ARTIFACTS[name][:4]
    plain, bom = tmp_path / "plain.csv", tmp_path / f"{name}.csv"
    write(plain, [0, 1], plain_table(columns, 2))
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    want, got = read(plain), read(bom)
    assert got[0] == want[0]
    np.testing.assert_array_equal(got[1], want[1])


class TestTextFiles:
    """read_text and write_text, the only places a file is opened."""

    def test_write_creates_the_directory(self, tmp_path):
        path = tmp_path / "a" / "b" / "f.txt"
        write_text(path, "x\ny\n")
        assert path.read_bytes() == b"x\ny\n"
        assert read_text(path) == "x\ny\n"

    def test_directory_under_a_file_names_the_directory(self, tmp_path):
        (tmp_path / "file").write_text("")
        path = tmp_path / "file" / "sub" / "f.txt"
        with pytest.raises(TableError, match=re.escape(
                f"{path.parent}: cannot write: Not a directory")):
            write_text(path, "x\n")

    def leftovers(self, tmp_path):
        return sorted(p.name for p in tmp_path.iterdir())

    def test_failed_encode_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "f.txt"
        write_text(path, "old\n")
        with pytest.raises(UnicodeEncodeError):
            write_text(path, "new\n" * 10000 + "\ud800")  # lone surrogate
        assert path.read_bytes() == b"old\n"
        assert self.leftovers(tmp_path) == ["f.txt"]

    def test_failed_replace_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "f.txt"
        write_text(path, "old\n")

        def failing_replace(src, dst):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(TableError, match=f"{path}: cannot write: "
                                             f"Permission denied"):
            write_text(path, "new\n")
        assert path.read_bytes() == b"old\n"
        assert self.leftovers(tmp_path) == ["f.txt"]

    def test_new_file_has_the_mode_open_gives(self, tmp_path):
        """Not the 0600 of a mkstemp temp file."""
        (tmp_path / "ref.txt").write_text("x")
        write_text(tmp_path / "f.txt", "x")
        assert os.stat(tmp_path / "f.txt").st_mode == \
            os.stat(tmp_path / "ref.txt").st_mode

    @pytest.mark.parametrize("data, detail", [
        (b"ok\xffok", "not UTF-8 text (invalid start byte at byte 2)"),
        (b"ab\xe9cd",
         "not UTF-8 text (invalid continuation byte at byte 2)"),
        (b"\xef\xbb\xbfab\xe9cd",  # the offset in the file, BOM counted
         "not UTF-8 text (invalid continuation byte at byte 5)"),
        (None, "No such file or directory"),
    ], ids=["undecodable", "bad-continuation", "bad-continuation-after-bom",
            "missing"])
    def test_read_error_names_the_path(self, tmp_path, data, detail):
        path = tmp_path / "f.txt"
        if data is not None:
            path.write_bytes(data)
        with pytest.raises(TableError) as exc:
            read_text(path)
        assert str(exc.value) == f"{path}: cannot read: {detail}"
