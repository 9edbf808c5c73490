"""One reader and one writer for the CSV artifacts.

Scenario, trajectory and training-metrics files share one shape: a header
naming the columns, then per row a decimal integer index and floats
written with repr, so a read-back reproduces every value bit for bit.
"""

from dataclasses import dataclass

import numpy as np


def _parse(lines, **kw) -> np.ndarray:
    # The C parser rounds like float(); comments=None makes '#' a bad cell.
    return np.loadtxt(lines, delimiter=",", comments=None, ndmin=2,
                      dtype=np.float64, **kw)


class TableError(ValueError):
    """A CSV artifact breaks its layout; the message names the file, the
    row and, for a bad cell, the column."""


@dataclass(frozen=True)
class Layout:
    """The columns of one CSV artifact and how its errors name a place:
    ``row`` formats a body line from its 0-based ``{i}`` or 1-based
    ``{n}``, ``column`` formats a column name."""

    name: str
    columns: tuple[str, ...]
    row: str = "data row {n}"
    column: str = "column {}"
    error: type = TableError
    strip_header: bool = False

    def fail(self, path, i, col, detail: str):
        where = self.row.format(i=i, n=i + 1)
        if col is not None:
            where += ", " + self.column.format(col)
        raise self.error(f"{path}: {where}: {detail}")

    def reject(self, path, table, bad, detail: str) -> None:
        """Fail at the first ``bad`` cell; ``detail`` formats its value."""
        if bad.any():
            i, j = np.argwhere(bad)[0]
            self.fail(path, i, self.columns[j],
                      detail.format(float(table[i, j])))

    def read(self, path) -> np.ndarray:
        """The body as a (rows, columns) float64 table, column 0 the index;
        a bad header, line, cell or index raises ``error``."""
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
        if lines[-1] == "":
            lines.pop()
        if not lines:
            raise self.error(f"{path}: empty file, expected header "
                             f"{','.join(self.columns)}")
        header = tuple(lines[0].split(","))
        if tuple(h.strip() if self.strip_header else h
                 for h in header) != self.columns:
            raise self.error(f"{path}: unexpected {self.name} header "
                             f"{header!r}, expected {','.join(self.columns)}")
        body = lines[1:]
        if not body:  # loadtxt warns on empty input
            return np.empty((0, len(self.columns)))
        try:  # loadtxt skips blank lines, so they take the error path
            table = None if "" in body else _parse(body)
        except ValueError:
            table = None
        if (table is None or table.shape != (len(body), len(self.columns))
                or not "".join([ln.partition(",")[0]
                                for ln in body]).isdecimal()):
            self._locate(path, body)
        return table

    def _locate(self, path, body: list[str]):
        """Error path only: fail at the first bad line of ``body``."""
        width = len(self.columns)
        for i, line in enumerate(body):
            cells = line.split(",") if line else []
            if len(cells) != width:
                where = (f"{self.column.format(self.columns[len(cells)])} "
                         f"missing" if len(cells) < width else "extra fields "
                         f"after {self.column.format(self.columns[-1])}")
                self.fail(path, i, None, f"{where} (ragged row: "
                          f"{len(cells)} fields, expected {width})")
            for j, cell in enumerate(cells):
                try:
                    _parse([line], usecols=j)
                except ValueError:
                    self.fail(path, i, self.columns[j],
                              f"not a number: {cell!r}")
            if not cells[0].isdecimal():
                self.fail(path, i, self.columns[0],
                          f"not a decimal integer: {cells[0]!r}")
        raise self.error(f"{path}: unreadable {self.name} table")

    def write(self, path, index, values) -> None:
        """Header, then per row its ``index`` integer and repr'd floats."""
        rows = np.asarray(values, dtype=np.float64).reshape(
            len(index), len(self.columns) - 1).tolist()
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.writelines([",".join(self.columns) + "\n"] + [
                f"{t},{','.join(map(repr, row))}\n"
                for t, row in zip(index, rows)])
