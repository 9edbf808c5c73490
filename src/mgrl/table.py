"""The only code that opens a file, and the layout of the CSV artifacts.

``read_text`` and ``write_text`` use UTF-8 with ``\\n`` line ends and raise
``TableError`` naming a path that cannot be read, decoded or written.
Scenario, trajectory and training-metrics CSVs share one ``Layout``: a
header naming the columns, then per row a decimal integer index and floats
written with repr, so a read-back reproduces every value bit for bit.
Every artifact's index must run 0..n-1.
"""

import contextlib
import os
from dataclasses import dataclass

import numpy as np


def _parse(lines, **kw) -> np.ndarray:
    # The C parser rounds like float(); comments=None makes '#' a bad cell.
    return np.loadtxt(lines, delimiter=",", comments=None, ndmin=2,
                      dtype=np.float64, **kw)


class TableError(ValueError):
    """A file cannot be read or written, or breaks its CSV layout; the
    message names the file and, for a bad line, its data row and column."""


def read_text(path) -> str:
    """The text of the file at ``path``, a leading UTF-8 BOM dropped."""
    try:  # plain UTF-8, so a bad byte's offset counts the BOM too
        with open(path, encoding="utf-8") as fh:
            return fh.read().removeprefix("\ufeff")
    except OSError as exc:
        detail = exc.strerror
    except UnicodeDecodeError as exc:
        detail = f"not UTF-8 text ({exc.reason} at byte {exc.start})"
    raise TableError(f"{path}: cannot read: {detail}")


def column_view(cols) -> property:
    """The view ``self.table[..., cols]``; a write through it lands there."""
    return property(lambda self: self.table[..., cols])


def make_dir(path) -> None:
    """Create the directory ``path`` and its parents if missing."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise TableError(f"{path}: cannot write: {exc.strerror}") from None


def write_text(path, text: str) -> None:
    """Replace ``path`` by ``text`` via a sibling temp file renamed over it,
    creating the directory.  A killed or failing process leaves the old
    file or the new one, never a truncated one; there is no fsync, so a
    power loss still can."""
    make_dir(os.path.dirname(path) or ".")
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        if isinstance(exc, OSError):
            raise TableError(f"{path}: cannot write: {exc.strerror}") from None
        raise


@dataclass(frozen=True)
class Layout:
    """The columns of one CSV artifact; a bad line is named as
    ``data row n, column c``, n counting from 1 after the header."""

    name: str
    columns: tuple[str, ...]

    def fail(self, path, i, col, detail: str):
        where = f"data row {i + 1}" + ("" if col is None
                                       else f", column {col}")
        raise TableError(f"{path}: {where}: {detail}")

    def reject(self, path, table, bad, detail: str) -> None:
        """Fail at the first ``bad`` cell; ``detail`` formats its value."""
        if bad.any():
            i, j = np.argwhere(bad)[0]
            self.fail(path, i, self.columns[j],
                      detail.format(float(table[i, j])))

    def read(self, path) -> np.ndarray:
        """The body as a (rows, columns) float64 table, column 0 the index
        0..n-1; a bad header, line, cell or index raises TableError."""
        lines = read_text(path).split("\n")
        if lines[-1] == "":
            lines.pop()
        if not lines:
            raise TableError(f"{path}: empty file, expected header "
                             f"{','.join(self.columns)}")
        header = tuple(lines[0].split(","))
        if tuple(h.strip() for h in header) != self.columns:
            raise TableError(f"{path}: unexpected {self.name} header "
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
        i = np.argmax(table[:, 0] != np.arange(len(table)))  # 0 if none
        if table[i, 0] != i:  # named by its text, which may not fit a float
            self.fail(path, i, self.columns[0], f"expected {i}, got "
                      f"{body[i].partition(',')[0]} (rows must be sorted "
                      "with no gaps)")
        return table

    def _locate(self, path, body: list[str]):
        """Error path only: fail at the first bad line of ``body``."""
        width = len(self.columns)
        for i, line in enumerate(body):
            cells = line.split(",") if line else []
            if len(cells) != width:
                where = (f"column {self.columns[len(cells)]} missing"
                         if len(cells) < width else
                         f"extra fields after column {self.columns[-1]}")
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
        raise TableError(f"{path}: unreadable {self.name} table")

    def write(self, path, index, values) -> None:
        """Header, then per row its ``index`` integer and repr'd floats."""
        rows = np.asarray(values, dtype=np.float64).reshape(
            len(index), len(self.columns) - 1).tolist()
        write_text(path, "".join([",".join(self.columns) + "\n"] + [
            f"{t},{','.join(map(repr, row))}\n"
            for t, row in zip(index, rows)]))
