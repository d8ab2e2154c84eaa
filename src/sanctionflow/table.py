"""The comma-separated table format of every ``.csv`` artifact: ``# ``
metadata lines, a header row naming the columns, then RFC 4180 rows, where
a cell holding a comma, quote or line break is quoted and reads back as
itself. Blank and ``#`` lines are comments only before the header."""

from __future__ import annotations

import csv
import io
from itertools import chain
from typing import Callable, Iterable, Iterator, Sequence

from .errors import PipelineError


def preamble(header: Iterable[str]) -> str:
    return "".join(f"# {line}\n" for line in header)


def write_table(header: Iterable[str], columns: Sequence[str],
                rows: Iterable[Sequence[object]]) -> str:
    """Preamble, header row, then the rows, each cell already formatted."""
    out = io.StringIO()
    out.write(preamble(header))
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


def read_table(text: str, columns: Sequence[str],
               types: Sequence[Callable[[str], object]]) -> list[tuple]:
    """The rows under the header ``columns``, each cell converted by its
    entry of ``types``. A wrong header, field count or value raises
    PipelineError naming the line (and the column of a bad value)."""
    skipped, lines = skip_preamble(io.StringIO(text))
    reader = csv.reader(lines)
    rows = []
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
                except ValueError:
                    raise PipelineError(f"line {line}: column '{name}': "
                                        f"bad value {cell!r}") from None
            rows.append(tuple(values))
    except csv.Error as exc:
        raise PipelineError(f"line {skipped + reader.line_num}: {exc}") from None
    return rows
