"""The comma-separated table format of every ``.csv`` artifact: ``# ``
metadata lines, a header row naming the columns, then RFC 4180 rows, where
a cell holding a comma, quote or line break is quoted and reads back as
itself. Blank and ``#`` lines are comments only before the header. Tables
are read and written by whole columns."""

from __future__ import annotations

import csv
import io
from itertools import chain, groupby, islice, repeat
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import EventParseError, PipelineError

# lines of a table or an event file read at a time; a chunk's cells are
# alive at once, and on 156k events 1024 lines held one 1 MiB arena more
_LINE_CHUNK = 256
# rows of a table, or events, made into one text piece at a time; writing
# the pieces of 150k events traced 2.3 MiB at 4096 and 5.0 MiB at 16384
_ROW_CHUNK = 1 << 12
_QUOTED = (",", '"', "\n", "\r")  # a cell holding one may be quoted


def preamble(header: Iterable[str]) -> str:
    return "".join(f"# {line}\n" for line in header)


def _line_safe(name: str) -> bool:
    """Whether a line, or a tab-separated field of one, reads back as
    ``name``: it is not blank, starts with no '#' and holds no tab, CR or
    LF (a reader's universal newlines end a line at CR as at LF), and UTF-8
    can write it."""
    return (name != "" and not name.isspace() and name[0] != "#"
            and "\t" not in name and "\r" not in name and "\n" not in name
            and _encodable(name))


def _encodable(name: str) -> bool:
    """Whether ``name`` holds no lone surrogate (U+D800-U+DFFF), which UTF-8
    cannot encode; an ASCII name is not searched."""
    return name.isascii() or not any("\ud800" <= c <= "\udfff" for c in name)


def _line_chunks(items: Iterable) -> Iterator[list]:
    """``items`` in lists of ``_LINE_CHUNK``, each taken when asked for."""
    items = iter(items)
    while chunk := list(islice(items, _LINE_CHUNK)):
        yield chunk


def _cells(names: Iterable[str]) -> list[str]:
    """Each name as csv.writer writes it in a row of more than one cell;
    only a name holding a comma, quote, CR or LF goes through csv.writer."""
    cells = list(names)
    joined = "".join(cells)
    if not any(c in joined for c in _QUOTED):
        return cells
    for k, name in enumerate(cells):
        if any(c in name for c in _QUOTED):
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\n").writerow((name, ""))
            cells[k] = buf.getvalue()[:-2]  # the ",\n" of the empty cell
    return cells


def _run_starts(*keys: np.ndarray) -> np.ndarray:
    """Where a run of equal key tuples begins, in arrays sorted by them."""
    start = np.zeros(len(keys[0]), bool)
    start[:1] = True
    for key in keys:
        start[1:] |= key[1:] != key[:-1]
    return start


def name_order(names: Sequence[str]) -> list[int]:
    """The indices of ``names`` in the order of the names."""
    return sorted(range(len(names)), key=names.__getitem__)


def _grow(columns: list[np.ndarray], n: int, *parts) -> int:
    """The row count after writing ``parts`` at row n of the ``columns``,
    doubled in place when full, so no two copies of one are alive."""
    m = len(parts[0])
    if n + m > len(columns[0]):
        for buffer in columns:
            buffer.resize(2 * (n + m), refcheck=False)
    for buffer, part in zip(columns, parts):
        buffer[n:n + m] = part
    return n + m


def _pieces(size: int, piece: Callable[[slice], str]) -> Iterator[str]:
    """``piece(at)``, made when asked for, per slice ``at`` of
    ``_ROW_CHUNK`` of ``size`` rows."""
    for lo in range(0, size, _ROW_CHUNK):
        yield piece(slice(lo, lo + _ROW_CHUNK))


def _rows(columns: Sequence, order=None, sep: str = ",") -> Iterator[str]:
    """``_pieces`` of one line per entry of the equal-length ``columns``
    (arrays, or sequences if no ``order``), taken in ``order`` if given. A
    line joins its values by ``sep``: a float column's (an array of dtype
    kind 'f', or a sequence whose first entry is a float) with 17
    significant digits, any other's by str(), decided once per column. A
    name column is an object array or a sequence, never a numpy string
    array, which drops trailing NULs."""
    floats = (c.dtype.kind == "f" if isinstance(c, np.ndarray)
              else isinstance(next(iter(c), None), float) for c in columns)
    row = (sep.join("%.17g" if f else "%s" for f in floats) + "\n").__mod__
    return _pieces(len(columns[0]), lambda at: "".join(map(row, zip(*(
        c[at if order is None else order[at]].tolist()
        if isinstance(c, np.ndarray) else c[at] for c in columns)))))


def write_columns(meta: Iterable[str], header: Sequence[str],
                  columns: Sequence[Sequence], order=None) -> Iterator[str]:
    """``meta`` as '# ' lines, the header row, then the ``_rows`` of the
    ``columns`` (a string must be a cell as ``_cells`` makes it)."""
    yield preamble(meta) + ",".join(_cells(header)) + "\n"
    yield from _rows(columns, order)


def write_node_columns(meta: Iterable[str], header: Sequence[str],
                       nodes: Sequence[str], *columns: np.ndarray
                       ) -> Iterator[str]:
    """``write_columns`` with one row per node, in the order of the names:
    the node's name, then its entry of each array of ``columns`` (in
    ``nodes`` order)."""
    return write_columns(meta, header,
                         [np.array(_cells(nodes), object), *columns],
                         np.array(name_order(nodes), np.int64))


def _lines(stream: str | Iterable[str]) -> Iterator[str]:
    """The lines of a text, split at LF only as io.StringIO splits them, or
    the lines given, each of which must be one line ending in its LF (the
    last may have none), as a file or ``splitlines(keepends=True)`` gives
    them; this is not checked. io.StringIO holds 4 bytes a character of its
    text, so a text goes through it in slices of about 64 Ki characters,
    each cut at a line end."""
    if not isinstance(stream, str):
        return iter(stream)
    return chain.from_iterable(map(io.StringIO, _slices(stream)))


def _slices(text: str) -> Iterator[str]:
    """``text`` in consecutive slices, each ending at a line end after at
    least 64 Ki characters, or at the text's end."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + (1 << 16)) + 1 or len(text)
        yield text[start:end]
        start = end


def skip_preamble(lines: Iterator[str]) -> tuple[int, Iterator[str]]:
    """The number of blank and '#' lines before the header, and the lines
    from the header on."""
    skipped = 0
    for line in lines:
        if line.strip() and not line.startswith("#"):
            return skipped, chain([line], lines)
        skipped += 1
    return skipped, iter(())


def _runs(lines: Iterator[str], line: int
          ) -> Iterator[tuple[list[Sequence[str]], Sequence[int]]]:
    """The rows of CSV ``lines``, the first on line ``line + 1``, as runs of
    consecutive rows with one cell count, at most ``_LINE_CHUNK`` rows a
    run: each run's columns and each of its rows' last line. A
    ``_line_chunks`` chunk with no quote, CR or blank line, as many LFs as
    lines (the last may have none) and as many commas in each line as in
    the first is cut by one split; any other goes through csv.reader, which
    reads past its end only to close a quote. A csv error raises
    EventParseError naming its line, after the runs of the rows before it."""
    for chunk in _line_chunks(lines):
        n, text = len(chunk), "".join(chunk)
        commas = chunk[0].count(",")
        if ('"' not in text and "\r" not in text
                and text.count("\n") == n - (not text.endswith("\n"))
                and set(map(str.count, chunk, repeat(","))) == {commas}
                # a blank line has no cell, and no comma
                and (commas or ("\n" not in chunk and "" not in chunk))
                and max(map(len, chunk)) <= csv.field_size_limit()):
            cells, width = text.replace("\n", ",").split(","), commas + 1
            yield ([cells[j:width * n:width] for j in range(width)],
                   range(line + 1, line + n + 1))
            line += n
            continue
        reader, rows, error = csv.reader(chain(chunk, lines)), [], None
        try:
            for row in reader:
                rows.append((row, line + reader.line_num))
                if reader.line_num >= n:
                    break
        except csv.Error as exc:
            error = EventParseError(str(exc), line=line + reader.line_num)
        for _, run in groupby(rows, lambda row: len(row[0])):
            cells, ends = zip(*run)
            yield list(zip(*cells)), ends
        if error:
            raise error
        line += reader.line_num


def _header(runs: Iterator[tuple[list, Sequence[int]]]
            ) -> tuple[list[str] | None, Iterator]:
    """The first row of ``_runs`` (None if there is none) and the runs of
    the rows after it."""
    for cells, ends in runs:
        rest = [([c[1:] for c in cells], ends[1:])] if len(ends) > 1 else []
        return [c[0] for c in cells], chain(rest, runs)
    return None, runs


def read_columns(text: str | Iterable[str], columns: Sequence[str],
                 types: Sequence[Callable[[str], object]],
                 bad: Callable[[int, list[list]], bool] = lambda j, v: False
                 ) -> list[list]:
    """The columns under the header ``columns`` of a table, or its lines,
    each converted by a map of its entry of ``types`` (a ValueError or
    KeyError marks a bad value); ``bad(j, values)`` finds another in column
    j of a run's converted columns 0..j. The first column is a key. A
    wrong header, field count or value, or a repeated key, raises
    PipelineError naming the earliest faulty line (and the column of a bad
    value), and in a line the field count, then the columns left to right,
    then the key; a csv error raises EventParseError. The table is read
    once, a ``_runs`` run at a time. Each given line must end in its LF,
    as ``_lines`` says."""
    skipped, lines = skip_preamble(_lines(text))
    head, runs = _header(_runs(lines, skipped))
    if head is None or [c.strip() for c in head] != list(columns):
        raise PipelineError(f"line {skipped + 1}: expected header "
                            f"{','.join(columns)}, got {head!r}")
    values, keys = [[] for _ in columns], set()

    def take(cells, line):
        """Append the rows of a run's ``cells`` and their keys, or raise
        naming ``line``."""
        if len(cells) != len(columns):
            raise PipelineError(f"line {line}: expected {len(columns)} fields "
                                f"({','.join(columns)}), got {len(cells)}")
        got = []
        for j, (name, convert, column) in enumerate(zip(columns, types, cells)):
            try:
                got.append(list(map(convert, column)))
                if bad(j, got):
                    raise ValueError
            except (KeyError, ValueError):
                raise PipelineError(f"line {line}: column '{name}': "
                                    f"bad value {column[0]!r}") from None
        if len(set(got[0])) < len(got[0]) or not keys.isdisjoint(got[0]):
            raise PipelineError(f"line {line}: repeated {columns[0]} "
                                f"{cells[0][0]!r}")
        keys.update(got[0])
        for column, part in zip(values, got):
            column.extend(part)

    for cells, ends in runs:
        try:
            take(cells, ends[-1])
        except PipelineError:  # the first faulty row raises
            for k, line in enumerate(ends):
                take([c[k:k + 1] for c in cells], line)
    return values


def read_table(text: str | Iterable[str], columns: Sequence[str],
               types: Sequence[Callable[[str], object]]) -> list[tuple]:
    """The rows of ``read_columns``, as tuples."""
    return list(zip(*read_columns(text, columns, types)))


def read_node_columns(text: str | Iterable[str], nodes: Sequence[str],
                      columns: Sequence[str],
                      types: Sequence[Callable[[str], object]],
                      expect: Mapping[str, np.ndarray] | None = None
                      ) -> tuple[np.ndarray, ...]:
    """The columns after the first of a ``read_columns`` table keyed by
    node name, each converted by its entry of ``types``, as arrays in
    ``nodes`` order. A name that is not one of ``nodes``, a nan or infinite
    float and, in a column named in ``expect``, a value other than the
    row's node's entry of its array (in ``nodes`` order) are bad values. A
    node without a row raises PipelineError."""
    index = {node: k for k, node in enumerate(nodes)}

    def bad(j, values):
        column = np.asarray(values[j])
        if column.dtype.kind == "f" and not np.isfinite(column).all():
            return True
        want = (expect or {}).get(columns[j])
        return want is not None and bool((column != want[values[0]]).any())

    key, *values = read_columns(text, columns, (index.__getitem__, *types),
                                bad)
    at = np.full(len(nodes), -1)
    at[key] = np.arange(len(key))
    missing = [nodes[k] for k in np.flatnonzero(at < 0)[:5].tolist()]
    if missing:
        raise PipelineError(f"no row for node(s) {missing}")
    return tuple(np.array(column)[at] for column in values)
