"""Ingestion of listing events: parsing, deduplication, validation, serialization.

An event records that an issuer added an entity to one of its lists on a
given day. The canonical on-disk form is a comma-separated file with header
``issuer,list_id,entity_id,date[,category]`` (RFC 4180 quoting, UTF-8);
a line-record form (one JSON object per line, same keys) is also accepted.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from datetime import date as Date
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import EventParseError, PipelineError
from .table import (Column, _cells, _encodable, _grow, _header,
                    _line_chunks, _line_safe, _lines, _pieces, _run_starts,
                    _runs, skip_preamble)

_ISO_DATE = re.compile(r"^\d{4}-\d{2}-\d{2}$")
_HEADER = ("issuer", "list_id", "entity_id", "date")
_FIELDS = (*_HEADER, "category")


@dataclass(frozen=True)
class SanctionEvent:
    """One 'issuer adds entity to list on date' record."""

    issuer: str
    list_id: str
    entity_id: str
    date: Date
    category: str | None = None


@dataclass(frozen=True, eq=False)
class EventSet:
    """Deduplicated, canonically ordered collection of events, as columns.

    At most one event per (list_id, entity_id); the earliest date wins, and
    the first given among events on that date. Each id column holds only the
    names its events use, in sorted order, so codes compare as names do;
    ``day`` holds date ordinals. Events are stored sorted by (date, issuer,
    list_id, entity_id), so two EventSets built from permuted inputs compare
    equal. ``from_columns`` builds one.
    """

    issuer: Column
    list_id: Column
    entity_id: Column
    category: Column  # code -1: no category
    day: np.ndarray

    @staticmethod
    def from_columns(issuer: Column, list_id: Column, entity_id: Column,
                     category: Column, day) -> "EventSet":
        """The EventSet of events given as columns in input order; each
        column's names may be in any order and need not all be used."""
        columns = (issuer, list_id, entity_id, category)
        codes = [np.asarray(c.codes, np.int32) for c in columns]
        day = np.asarray(day, np.int32)
        low = int(day.min()) if len(day) else 0
        day = day - low  # days since the first, a packed key's field
        span = int(day.max(initial=0)) + 1
        # the stable sort keeps the first given first in each same-day run
        order = _stable_order((codes[1], codes[2], day),
                              (len(list_id.names), len(entity_id.names), span))
        keep = np.zeros(len(day), bool)
        keep[order[_run_starts(codes[1][order], codes[2][order])]] = True
        keep, order = np.flatnonzero(keep), None  # in input order
        day = day[keep]
        kept = [_ranked(c.names, k[keep]) for c, k in zip(columns, codes)]
        codes = keep = None  # freed before the second sort
        # rows given in canonical order are one run: a linear pass
        order = _stable_order((day, *(c.codes for c in kept[:3])),
                              (span, *(len(c.names) for c in kept[:3])))
        day = day[order] + low
        for k in range(4):  # one column's copy alive at a time
            kept[k] = Column(kept[k].names, kept[k].codes[order])
        _check_owners(*kept[:2])
        for array in (*(c.codes for c in kept), day):
            array.flags.writeable = False  # the set is frozen
        return EventSet(*kept, day)

    def __len__(self) -> int:
        return len(self.day)

    def __eq__(self, other):
        if not isinstance(other, EventSet):
            return NotImplemented
        pairs = zip((self.issuer, self.list_id, self.entity_id, self.category),
                    (other.issuer, other.list_id, other.entity_id,
                     other.category))
        return (all(a.names == b.names and np.array_equal(a.codes, b.codes)
                    for a, b in pairs)
                and np.array_equal(self.day, other.day))

    @cached_property
    def events(self) -> tuple[SanctionEvent, ...]:
        """The events as objects, in canonical order, built on first use."""
        dates = {d: Date.fromordinal(d) for d in set(self.day.tolist())}
        categories = (*self.category.names, None)  # code -1 reads the None
        return tuple(
            SanctionEvent(self.issuer.names[i], self.list_id.names[l],
                          self.entity_id.names[e], dates[d], categories[c])
            for i, l, e, d, c in zip(
                self.issuer.codes.tolist(), self.list_id.codes.tolist(),
                self.entity_id.codes.tolist(), self.day.tolist(),
                self.category.codes.tolist()))


def _ranked(names: tuple[str, ...], codes: np.ndarray) -> Column:
    """The column over only the names ``codes`` uses (-1: none), ranked by
    Python's string order (a numpy ``U`` array would drop trailing NULs)."""
    used = np.zeros(len(names) + 1, bool)
    used[codes] = True  # code -1 marks the last
    by_name = sorted(np.flatnonzero(used[:-1]).tolist(), key=names.__getitem__)
    rank = np.full(len(names) + 1, -1, np.int32)  # code -1 reads the last
    rank[by_name] = np.arange(len(by_name))
    return Column(tuple(map(names.__getitem__, by_name)), rank[codes])


def _stable_order(keys: tuple, sizes: tuple[int, ...]) -> np.ndarray:
    """The stable order of rows by ``keys``, key k in range(sizes[k]): an
    argsort of them packed into an int64, or a lexsort if that overflows."""
    if math.prod(sizes) >= 2 ** 63:
        return np.lexsort(keys[::-1])
    packed = np.zeros(len(keys[0]), np.int64)
    for key, size in zip(keys, sizes):
        packed *= size
        packed += key
    return np.argsort(packed, kind="stable")


def _check_owners(issuer: Column, list_id: Column) -> None:
    """Every list is held by one issuer: the one of its first event in
    canonical order. The first event with another issuer is the error."""
    owner = np.empty(len(list_id.names), np.int32)
    owner[list_id.codes] = issuer.codes  # an issuer of each list
    if np.array_equal(owner[list_id.codes], issuer.codes):
        return
    lists, first = np.unique(list_id.codes, return_index=True)
    owner[lists] = issuer.codes[first]
    k = np.flatnonzero(issuer.codes != owner[list_id.codes])[0]
    lst = list_id.codes[k]
    raise PipelineError(
        f"list '{list_id.names[lst]}' appears under two issuers: "
        f"'{issuer.names[owner[lst]]}' and "
        f"'{issuer.names[issuer.codes[k]]}'")


def _checked_id(value: str, field: str, line: int) -> str:
    cleaned = value.strip()
    if not _line_safe(cleaned):
        raise EventParseError(f"identifier {cleaned!r} is empty, starts "
                              "with '#' or contains a tab, CR, LF or "
                              "surrogate",
                              line=line, field=field)
    return cleaned


def _parse_date(value: str, line: int) -> int:
    value = value.strip()
    if not _ISO_DATE.match(value):
        raise EventParseError(f"invalid date '{value}' (expected YYYY-MM-DD)",
                              line=line, field="date")
    try:
        return Date.fromisoformat(value).toordinal()
    except ValueError:
        raise EventParseError(f"invalid date '{value}'", line=line, field="date")


def _checked_category(value: str | None, line: int) -> str | None:
    category = value.strip() if value is not None else None
    if category and ("\r" in category or not _encodable(category)):
        # csv.writer leaves a bare CR unquoted, so it would not read back
        raise EventParseError(f"category {category!r} contains a CR or "
                              "surrogate", line=line, field="category")
    return category or None


def _code(k: int, value, names: dict | None, line: int) -> int:
    """The code of raw ``value`` of field ``_FIELDS[k]`` (a date: its
    ordinal), named in ``names`` if new; a bad value raises."""
    if k == 3:
        return _parse_date(value, line)
    name = (_checked_category(value, line) if k == 4
            else _checked_id(value, _FIELDS[k], line))
    return -1 if name is None else names.setdefault(name, len(names))


def _coded(chunks: Iterable[Iterable[Sequence]]) -> EventSet:
    """The EventSet of rows given a chunk at a time, as columns: the raw
    issuer, list_id, entity_id, date and category, and each row's line.
    Each distinct raw value of a field is checked once, when first met; an
    error names the first line holding a bad value, its category first."""
    # per field of _FIELDS: name -> code (none for dates), raw value -> code
    names = ({}, {}, {}, None, {})
    seen = ({}, {}, {}, {}, {None: -1})
    # per field, each row's code; grown and shrunk in place by realloc, so
    # an old and a new buffer are never alive together
    codes, n = [np.empty(0, np.int32) for _ in _FIELDS], 0
    for *columns, lines in chunks:
        bad = []
        for order, k in enumerate((4, 0, 1, 2, 3)):
            for value in set(columns[k]).difference(seen[k]):
                try:
                    seen[k][value] = _code(k, value, names[k], 0)
                except EventParseError:
                    bad.append((columns[k].index(value), order, k, value))
        if bad:
            row, _, k, value = min(bad)
            _code(k, value, names[k], lines[row])  # raises, naming the line
        n = _grow(codes, n, *(np.fromiter(map(known.__getitem__, column),
                                          np.int32, len(lines))
                              for column, known in zip(columns, seen)))
    for buffer in codes:
        buffer.resize(n, refcheck=False)
    columns = [Column(tuple(names[k]), codes[k]) for k in (0, 1, 2, 4)]
    names = seen = None  # the dicts are freed before the sorts
    return EventSet.from_columns(*columns, codes[3])


def _row_getter(header: list[str], width: int):
    """The (issuer, list_id, entity_id, date, category) cells of a row of
    ``width`` cells and one cell more, which a missing category column
    reads; a repeated header name reads its last column."""
    where = {name: k for k, name in enumerate(header[:width])}
    return itemgetter(*(where.get(name, width) for name in _FIELDS))


def _delimited_chunks(text: Iterable[str]):
    """The rows of a delimited text for ``_coded``, a ``_runs`` run at a
    time, without its blank rows (no cell, or one blank cell)."""
    line, lines = skip_preamble(text)
    head, runs = _header(_runs(lines, line))
    header = [c.strip() for c in head or ()]
    if tuple(header[:4]) != _HEADER:
        raise EventParseError(
            f"bad header {header!r}; expected issuer,list_id,entity_id,"
            "date[,category]", line=line + 1)
    for cells, ends in runs:
        width = len(cells)
        if not 4 <= width <= len(header):
            k = next((k for k, row in enumerate(zip(*cells))
                      if width > 1 or row[0].strip()), None)
            if k is not None:
                raise EventParseError(
                    f"expected {len(header)} fields, got {width}",
                    line=ends[k], field=_HEADER[width] if width < 4 else None)
            continue
        yield (*_row_getter(header, width)([*cells, [None] * len(ends)]),
               ends)


def _record_chunks(text: Iterable[str]):
    """The rows of a line-record text for ``_coded``, by chunks of lines;
    an error is raised after the rows before it are yielded."""
    for chunk in _line_chunks(enumerate(text, start=1)):
        rows, error = [], None  # each row's raw fields and line
        try:
            for line_no, line in chunk:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    obj = json.loads(line)
                except (json.JSONDecodeError, RecursionError) as exc:
                    # a RecursionError: nested deeper than the stack allows
                    raise EventParseError("invalid JSON: " + getattr(
                        exc, "msg", "nested too deeply"), line=line_no)
                if not isinstance(obj, dict):
                    raise EventParseError("record is not an object",
                                          line=line_no)
                for key in _HEADER:
                    if key not in obj:
                        raise EventParseError("missing key", line=line_no,
                                              field=key)
                for key in _FIELDS:
                    value = obj.get(key)
                    if not (isinstance(value, str)
                            or (key == "category" and value is None)):
                        raise EventParseError(
                            "expected a JSON string, got "
                            f"{json.dumps(value)[:40]}", line=line_no, field=key)
                rows.append((*map(obj.get, _FIELDS), line_no))
        except EventParseError as exc:
            error = exc
        if rows:  # coded before the error is raised
            yield zip(*rows)
        if error:
            raise error


def parse_events(stream: str | Iterable[str],
                 format: str = "delimited") -> EventSet:
    """Parse a delimited or line-record event text, or its lines (a text
    stream, say), into an EventSet. Given lines must each be one line
    ending in its LF (the last may have none); this is not checked.

    Duplicate (list_id, entity_id) pairs collapse to the earliest date.
    Raises EventParseError naming the line and field on malformed input.
    """
    text = _lines(stream)
    if format not in ("delimited", "line_record"):
        raise PipelineError(f"unknown event format '{format}'")
    return _coded(_delimited_chunks(text) if format == "delimited"
                  else _record_chunks(text))


def serialize_events(events: EventSet) -> Iterator[str]:
    """Canonical delimited form, as text pieces: the header, then rows in
    the EventSet's order, (date, issuer, list, entity), as the pieces of
    ``table._pieces``, so the whole text is never held at once.

    Every name is checked first, before any piece is made: a name that
    ``parse_events`` would refuse or read back changed (an edge space, an
    empty category, an id's leading '#', tab or LF, a CR) raises
    PipelineError naming its column and value.
    """
    for field in ("issuer", "list_id", "entity_id", "category"):
        for name in getattr(events, field).names:
            try:
                read = (_checked_category(name, 0) if field == "category"
                        else _checked_id(name, field, 0))
            except EventParseError:
                read = None
            if read != name:
                raise PipelineError(f"{field} {name!r} would not read back "
                                    "from the canonical form")
    return _canonical(events)


def _canonical(events: EventSet) -> Iterator[str]:
    """The pieces of ``serialize_events``, each made when asked for. A row
    looks each cell up by its code in one f-string: the same rows through
    ``table._rows`` of ``Column``s took 53-56 ms against 38 ms on the 156k
    events of lists_m (best of 7, in-process)."""
    issuers, lists, entities = (_cells(c.names) for c in (
        events.issuer, events.list_id, events.entity_id))
    categories = [*_cells(events.category.names), ""]  # code -1 reads ""
    # the days come sorted, so each run's first is a distinct day (np.unique
    # would load numpy.ma, 10-16 ms of import)
    dates = {d: Date.fromordinal(d).isoformat()
             for d in events.day[_run_starts(events.day)].tolist()}
    columns = (events.issuer.codes, events.list_id.codes,
               events.entity_id.codes, events.day, events.category.codes)
    yield "issuer,list_id,entity_id,date,category\n"
    yield from _pieces(len(events), lambda at: "".join([
        f"{issuers[i]},{lists[l]},{entities[e]},{dates[d]},{categories[c]}\n"
        for i, l, e, d, c in zip(*(col[at].tolist() for col in columns))]))


@dataclass(frozen=True)
class ValidationReport:
    n_events: int
    n_issuers: int
    n_lists: int
    n_entities: int
    n_cross_list_entities: int
    warnings: tuple[str, ...]

    def summary(self) -> str:
        return (f"{self.n_events} events, {self.n_issuers} issuers, "
                f"{self.n_lists} lists, {self.n_entities} entities, "
                f"{self.n_cross_list_entities} cross-list entities, "
                f"{len(self.warnings)} warnings")


def validate_events(events: EventSet) -> ValidationReport:
    """Count the universe and warn when no entity can generate an edge."""
    # an entity has one event per list it is on
    per_entity = np.bincount(events.entity_id.codes,
                             minlength=len(events.entity_id.names))
    cross = int(np.count_nonzero(per_entity > 1))
    warnings = []
    if len(events) and cross == 0:
        warnings.append("no entity appears on more than one list; "
                        "influence networks will have no edges")
    return ValidationReport(
        n_events=len(events),
        n_issuers=len(events.issuer.names),
        n_lists=len(events.list_id.names),
        n_entities=len(events.entity_id.names),
        n_cross_list_entities=cross,
        warnings=tuple(warnings),
    )
