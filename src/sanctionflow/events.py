"""Ingestion of listing events: parsing, deduplication, validation, serialization.

An event records that an issuer added an entity to one of its lists on a
given day. The canonical on-disk form is a comma-separated file with header
``issuer,list_id,entity_id,date[,category]`` (RFC 4180 quoting, UTF-8);
a line-record form (one JSON object per line, same keys) is also accepted.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass
from datetime import date as Date
from functools import cached_property
from typing import Iterable, TextIO

from .errors import EventParseError, PipelineError
from .table import skip_preamble

_ISO_DATE = re.compile(r"^\d{4}-\d{2}-\d{2}$")
_HEADER = ("issuer", "list_id", "entity_id", "date")


@dataclass(frozen=True)
class SanctionEvent:
    """One 'issuer adds entity to list on date' record."""

    issuer: str
    list_id: str
    entity_id: str
    date: Date
    category: str | None = None

    def sort_key(self):
        return (self.date, self.issuer, self.list_id, self.entity_id)


@dataclass(frozen=True)
class EventSet:
    """Deduplicated, canonically ordered collection of events.

    At most one event per (list_id, entity_id); the earliest date wins.
    Events are stored sorted by (date, issuer, list_id, entity_id), so two
    EventSets built from permuted inputs compare equal.
    """

    events: tuple[SanctionEvent, ...]

    @staticmethod
    def from_events(raw: Iterable[SanctionEvent]) -> "EventSet":
        best: dict[tuple[str, str], tuple[Date, int, SanctionEvent]] = {}
        for idx, ev in enumerate(raw):
            key = (ev.list_id, ev.entity_id)
            cur = best.get(key)
            if cur is None or (ev.date, idx) < (cur[0], cur[1]):
                best[key] = (ev.date, idx, ev)
        events = sorted((v[2] for v in best.values()), key=SanctionEvent.sort_key)
        owners: dict[str, str] = {}
        for ev in events:
            seen = owners.setdefault(ev.list_id, ev.issuer)
            if seen != ev.issuer:
                raise PipelineError(
                    f"list '{ev.list_id}' appears under two issuers: "
                    f"'{seen}' and '{ev.issuer}'"
                )
        return EventSet(events=tuple(events))

    @cached_property
    def issuers(self) -> frozenset[str]:
        return frozenset(ev.issuer for ev in self.events)

    @cached_property
    def lists(self) -> frozenset[str]:
        return frozenset(ev.list_id for ev in self.events)

    @cached_property
    def entities(self) -> frozenset[str]:
        return frozenset(ev.entity_id for ev in self.events)


def _clean(value: str, name: str, line: int, seen: dict[str, str]) -> str:
    """The stripped identifier; each distinct raw value is checked once."""
    cleaned = seen.get(value)
    if cleaned is None:
        cleaned = value.strip()
        if (not cleaned or cleaned[0] == "#" or "\t" in cleaned
                or "\r" in cleaned or "\n" in cleaned):
            raise EventParseError(f"identifier {cleaned!r} is empty, starts "
                                  "with '#' or contains a tab, CR or LF",
                                  line=line, field=name)
        seen[value] = cleaned
    return cleaned


def _parse_date(value: str, line: int) -> Date:
    value = value.strip()
    if not _ISO_DATE.match(value):
        raise EventParseError(f"invalid date '{value}' (expected YYYY-MM-DD)",
                              line=line, field="date")
    try:
        return Date.fromisoformat(value)
    except ValueError:
        raise EventParseError(f"invalid date '{value}'", line=line, field="date")


def _event_from_fields(fields: dict[str, str], line: int,
                       seen: dict[str, str]) -> SanctionEvent:
    category = fields.get("category")
    if category is not None:
        category = category.strip() or None
        if category is not None and "\r" in category:
            # csv.writer leaves a bare CR unquoted, so it would not read back
            raise EventParseError(f"category {category!r} contains a CR",
                                  line=line, field="category")
    return SanctionEvent(
        issuer=_clean(fields["issuer"], "issuer", line, seen),
        list_id=_clean(fields["list_id"], "list_id", line, seen),
        entity_id=_clean(fields["entity_id"], "entity_id", line, seen),
        date=_parse_date(fields["date"], line),
        category=category,
    )


def _parse_delimited(text: TextIO) -> list[SanctionEvent]:
    skipped, lines = skip_preamble(text)
    reader = csv.reader(lines)
    events = []
    seen: dict[str, str] = {}
    try:
        header = [c.strip() for c in next(reader, [])]
        if tuple(header[:4]) != _HEADER:
            raise EventParseError(
                f"bad header {header!r}; expected issuer,list_id,entity_id,"
                "date[,category]", line=skipped + 1)
        for row in reader:
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            line_no = skipped + reader.line_num
            if len(row) < 4 or len(row) > len(header):
                raise EventParseError(
                    f"expected {len(header)} fields, got {len(row)}",
                    line=line_no, field=_HEADER[min(len(row), 3)])
            events.append(_event_from_fields(dict(zip(header, row)), line_no,
                                             seen))
    except csv.Error as exc:
        raise EventParseError(str(exc), line=skipped + reader.line_num) from None
    return events


def _parse_line_records(text: TextIO) -> list[SanctionEvent]:
    events = []
    seen: dict[str, str] = {}
    for line_no, line in enumerate(text, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise EventParseError(f"invalid JSON: {exc.msg}", line=line_no)
        if not isinstance(obj, dict):
            raise EventParseError("record is not an object", line=line_no)
        for key in _HEADER:
            if key not in obj:
                raise EventParseError("missing key", line=line_no, field=key)
        for key in (*_HEADER, "category"):
            value = obj.get(key)
            if not (isinstance(value, str)
                    or (key == "category" and value is None)):
                raise EventParseError("expected a JSON string, got "
                                      f"{json.dumps(value)[:40]}",
                                      line=line_no, field=key)
        events.append(_event_from_fields(obj, line_no, seen))
    return events


def parse_events(stream: str | TextIO, format: str = "delimited") -> EventSet:
    """Parse a delimited or line-record event text or text stream into an
    EventSet.

    Duplicate (list_id, entity_id) pairs collapse to the earliest date.
    Raises EventParseError naming the line and field on malformed input.
    """
    text = io.StringIO(stream) if isinstance(stream, str) else stream
    if format == "delimited":
        raw = _parse_delimited(text)
    elif format == "line_record":
        raw = _parse_line_records(text)
    else:
        raise PipelineError(f"unknown event format '{format}'")
    return EventSet.from_events(raw)


def serialize_events(events: EventSet) -> str:
    """Canonical delimited form: header + rows in the EventSet's order,
    (date, issuer, list, entity)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["issuer", "list_id", "entity_id", "date", "category"])
    for ev in events.events:
        writer.writerow([ev.issuer, ev.list_id, ev.entity_id,
                         ev.date.isoformat(), ev.category or ""])
    return out.getvalue()


@dataclass(frozen=True)
class ValidationReport:
    n_events: int
    n_issuers: int
    n_lists: int
    n_entities: int
    edge_inert_entities: tuple[str, ...]  # entities appearing on a single list
    n_cross_list_entities: int
    warnings: tuple[str, ...]

    def summary(self) -> str:
        return (f"{self.n_events} events, {self.n_issuers} issuers, "
                f"{self.n_lists} lists, {self.n_entities} entities, "
                f"{self.n_cross_list_entities} cross-list entities, "
                f"{len(self.warnings)} warnings")


def validate_events(events: EventSet) -> ValidationReport:
    """Count the universe and flag entities that cannot generate edges."""
    entity_lists: dict[str, set[str]] = {}
    for ev in events.events:
        entity_lists.setdefault(ev.entity_id, set()).add(ev.list_id)
    inert = tuple(sorted(e for e, ls in entity_lists.items() if len(ls) == 1))
    cross = sum(1 for ls in entity_lists.values() if len(ls) > 1)
    warnings = []
    if events.events and cross == 0:
        warnings.append("no entity appears on more than one list; "
                        "influence networks will have no edges")
    return ValidationReport(
        n_events=len(events.events),
        n_issuers=len(events.issuers),
        n_lists=len(events.lists),
        n_entities=len(events.entities),
        edge_inert_entities=inert,
        n_cross_list_entities=cross,
        warnings=tuple(warnings),
    )
