"""The shared CSV table layer, through each artifact's own reader/writer."""

import math
import os
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
    Scenario,
    ScenarioFormatError,
    load_scenario_csv,
    write_scenario_csv,
)
from mgrl.trajectory import (
    CSV_HEADER,
    Trajectory,
    read_trajectory_csv,
    write_trajectory_csv,
)

EDGES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, 1e300,
         -1e300)


def cells(lo=-1e300, hi=1e300):
    return st.one_of(st.sampled_from([v for v in EDGES if lo <= v <= hi]),
                     st.floats(lo, hi))


ANY, NON_NEGATIVE, FRACTION = cells(), cells(0.0), cells(0.0, 1.0)
NULLABLE = st.one_of(ANY, st.just(math.nan))


def write_scenario(path, index, table):
    write_scenario_csv(Scenario(p_re=table[:, 0], loads=table[:, 1:]), path)


def read_scenario(path):
    scn = load_scenario_csv(path)
    return list(range(scn.horizon)), np.column_stack([scn.p_re, scn.loads])


def write_trajectory(path, index, a):
    write_trajectory_csv(Trajectory(
        soc=a[:, 0], p_re=a[:, 1], loads=a[:, 2:5], p_ch=a[:, 5],
        p_dis=a[:, 6], p_supply=a[:, 7], allocations=a[:, 8:11],
        imbalances=a[:, 11:14], shortages=a[:, 14:17], reward=a[:, 17]),
        path)


def read_trajectory(path):
    tr = read_trajectory_csv(path)
    return list(range(len(tr))), np.column_stack(
        [tr.soc, tr.p_re, tr.loads, tr.p_ch, tr.p_dis, tr.p_supply,
         tr.allocations, tr.imbalances, tr.shortages, tr.reward])


def write_metrics(path, index, table):
    write_train_metrics_csv([TrainStats(t, *row) for t, row
                             in zip(index, table.tolist())], path)


def read_metrics(path):
    stats = read_train_metrics_csv(path)
    return ([s.update for s in stats],
            np.array([astuple(s)[1:] for s in stats]).reshape(-1, 6))


# name: (columns, cell strategies after the index, writer, reader,
#        minimum rows, index free (metrics) or 0..n-1, error type,
#        row label of 0-based body line i, column label)
ARTIFACTS = {
    "scenario": (CSV_COLUMNS, [NON_NEGATIVE] * 4, write_scenario,
                 read_scenario, 1, False, ScenarioFormatError,
                 lambda i: f"row {i}", lambda c: f"column {c!r}"),
    "trajectory": (CSV_HEADER, [FRACTION] + [NON_NEGATIVE] * 10
                   + [ANY] * 3 + [NON_NEGATIVE] * 3 + [FRACTION],
                   write_trajectory, read_trajectory, 0, False, ValueError,
                   lambda i: f"data row {i + 1}", lambda c: f"column {c}"),
    "metrics": (TRAIN_CSV_HEADER, [NULLABLE] * 2 + [ANY] * 4, write_metrics,
                read_metrics, 0, True, ValueError,
                lambda i: f"data row {i + 1}", lambda c: f"column {c}"),
}


def reference_bytes(columns, index, rows) -> bytes:
    lines = [",".join(columns)]
    lines += [",".join([str(t)] + [repr(float(v)) for v in row])
              for t, row in zip(index, rows)]
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("name", ARTIFACTS)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_writer_matches_reference_and_reads_back_bitwise(name, data):
    columns, strategies, write, read, min_rows, free_index = \
        ARTIFACTS[name][:6]
    rows = data.draw(st.lists(st.tuples(*strategies), min_size=min_rows,
                              max_size=6))
    table = np.array(rows, dtype=np.float64).reshape(len(rows),
                                                     len(strategies))
    index = (data.draw(st.lists(st.integers(0, 10**9), min_size=len(rows),
                                max_size=len(rows)))
             if free_index else list(range(len(rows))))
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


DEFECTS = (blank_line, hash_in_cell, trailing_comma, ragged_row,
           non_numeric, non_finite, float_index)


@pytest.mark.parametrize("name, defect", [
    pytest.param(name, defect, id=f"{name}-{defect.__name__}")
    for name in ARTIFACTS for defect in DEFECTS
    # NaN and inf are legal metrics values (no episode scored yet).
    if not (name == "metrics" and defect is non_finite)])
def test_malformed_body_names_file_row_and_column(tmp_path, name, defect):
    columns, _, write, read, _, _, error, row, column = ARTIFACTS[name]
    path = tmp_path / f"{name}.csv"
    write(path, [0, 1, 2], np.full((3, len(columns) - 1), 0.5))
    read(path)
    lines = path.read_text().splitlines()
    col = columns[defect(lines)]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(error) as exc:
        read(path)
    message = str(exc.value)
    assert f"{name}.csv: {row(1)}" in message  # the second data line
    assert column(col) in message


@pytest.mark.parametrize("name", ARTIFACTS)
def test_blank_only_body_names_the_row(tmp_path, name):
    columns, _, _, read, _, _, error, row, column = ARTIFACTS[name]
    path = tmp_path / f"{name}.csv"
    path.write_text(",".join(columns) + "\n\n")
    with pytest.raises(error, match=f"{name}.csv: {row(0)}: "
                                    f"{column(columns[0])} missing"):
        read(path)
