"""The comma-separated table format of every ``.csv`` artifact: ``# ``
metadata lines, a header row naming the columns, then RFC 4180 rows, where
a cell holding a comma, quote or line break is quoted and reads back as
itself. Blank and ``#`` lines are comments only before the header."""

from __future__ import annotations

import csv
import io
import math
from itertools import chain
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import PipelineError


def preamble(header: Iterable[str]) -> str:
    return "".join(f"# {line}\n" for line in header)


def _cells(names: Iterable[str]) -> list[str]:
    """Each name as csv.writer writes it in a row of more than one cell."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    cells = []
    for name in names:
        buf.seek(0)
        buf.truncate()
        writer.writerow((name, ""))
        cells.append(buf.getvalue()[:-2])  # the ",\n" of the empty cell
    return cells


def _run_starts(*keys: np.ndarray) -> np.ndarray:
    """Where a run of equal key tuples begins, in arrays sorted by them."""
    start = np.zeros(len(keys[0]), bool)
    start[:1] = True
    for key in keys:
        start[1:] |= key[1:] != key[:-1]
    return start


def write_table(meta: Iterable[str], columns: Sequence[str],
                rows: Iterable[Sequence[object]]) -> str:
    """``meta`` as '# ' lines, the header row, then rows of formatted cells."""
    out = io.StringIO()
    out.write(preamble(meta))
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return out.getvalue()


def skip_preamble(lines: Iterator[str]) -> tuple[int, Iterator[str]]:
    """The number of blank and '#' lines before the header, and the lines
    from the header on."""
    skipped = 0
    for line in lines:
        if line.strip() and not line.startswith("#"):
            return skipped, chain([line], lines)
        skipped += 1
    return skipped, iter(())


def finite(cell: str) -> float:
    """The cell as a float; nan and infinities are bad values."""
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError(cell)
    return value


def read_table(text: str, columns: Sequence[str],
               types: Sequence[Callable[[str], object]]) -> list[tuple]:
    """The rows under the header ``columns``, each cell converted, left to
    right, by its entry of ``types`` (a ValueError or KeyError marks a bad
    value). The first column is a key. A wrong header, field count or
    value, or a repeated key, raises PipelineError naming the line (and the
    column of a bad value)."""
    skipped, lines = skip_preamble(io.StringIO(text))
    reader = csv.reader(lines)
    rows = []
    keys = set()
    try:
        head = next(reader, None)
        if head is None or [c.strip() for c in head] != list(columns):
            raise PipelineError(f"line {skipped + 1}: expected header "
                                f"{','.join(columns)}, got {head!r}")
        for row in reader:
            line = skipped + reader.line_num
            if len(row) != len(columns):
                raise PipelineError(f"line {line}: expected {len(columns)} "
                                    f"fields ({','.join(columns)}), "
                                    f"got {len(row)}")
            values = []
            for name, convert, cell in zip(columns, types, row):
                try:
                    values.append(convert(cell))
                except (KeyError, ValueError):
                    raise PipelineError(f"line {line}: column '{name}': "
                                        f"bad value {cell!r}") from None
            if values[0] in keys:
                raise PipelineError(f"line {line}: repeated {columns[0]} "
                                    f"{row[0]!r}")
            keys.add(values[0])
            rows.append(tuple(values))
    except csv.Error as exc:
        raise PipelineError(f"line {skipped + reader.line_num}: {exc}") from None
    return rows


def read_node_columns(text: str, nodes: Sequence[str], columns: Sequence[str],
                      types: Sequence[Callable[[str], object]]
                      ) -> tuple[np.ndarray, ...]:
    """The ``node_columns`` of a table keyed by node name, each column after
    the first converted by its entry of ``types``. A name that is not one
    of ``nodes`` is a bad value."""
    index = {node: k for k, node in enumerate(nodes)}
    return node_columns(read_table(text, columns, (index.__getitem__, *types)),
                        nodes, len(columns))


def node_columns(rows: Sequence[tuple], nodes: Sequence[str], width: int
                 ) -> tuple[np.ndarray, ...]:
    """Columns 1..width-1 of ``rows`` keyed by node index, as arrays in
    ``nodes`` order; a node without a row raises PipelineError."""
    at = np.full(len(nodes), -1)
    at[[row[0] for row in rows]] = np.arange(len(rows))
    missing = [nodes[k] for k in np.flatnonzero(at < 0)[:5].tolist()]
    if missing:
        raise PipelineError(f"no row for node(s) {missing}")
    return tuple(np.array([row[k] for row in rows])[at]
                 for k in range(1, width))
