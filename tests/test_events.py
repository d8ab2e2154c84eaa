import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sanctionflow.table
from sanctionflow import (EventParseError, EventSet, PipelineError,
                          parse_events, serialize_events, validate_events)
from sanctionflow.events import Column
from conftest import ev, events_150k, make_events, traced_peak
from oracles import (from_columns_reference, parse_events_reference,
                     serialize_events_reference)

CSV = """issuer,list_id,entity_id,date,category
EU,EU-TERR-1,ACME-CORP,2010-03-05,terror
US,US-SDN-1,ACME-CORP,2010-06-01,
"""


def test_parse_basic_row():
    es = parse_events(CSV)
    assert len(es.events) == 2
    first = es.events[0]
    assert (first.issuer, first.list_id, first.entity_id) == \
        ("EU", "EU-TERR-1", "ACME-CORP")
    assert first.date.isoformat() == "2010-03-05"
    assert first.category == "terror"
    assert es.events[1].category is None


def test_parse_without_category_column():
    es = parse_events("issuer,list_id,entity_id,date\nEU,L1,X,2010-01-01\n")
    assert es.events[0].category is None


def test_line_record_format():
    text = ('{"issuer": "EU", "list_id": "L1", "entity_id": "X", '
            '"date": "2010-01-01"}\n')
    es = parse_events(text, format="line_record")
    assert es.events[0].issuer == "EU"


def test_duplicate_pair_keeps_earliest_date():
    text = ("issuer,list_id,entity_id,date\n"
            "EU,L1,X,2010-06-01\n"
            "EU,L1,X,2010-01-01\n")
    es = parse_events(text)
    assert len(es.events) == 1
    assert es.events[0].date.isoformat() == "2010-01-01"


def test_invalid_date_names_value():
    with pytest.raises(EventParseError, match="2010-13-40"):
        parse_events("issuer,list_id,entity_id,date\nEU,L1,X,2010-13-40\n")


def test_malformed_row_names_line_and_field():
    with pytest.raises(EventParseError, match="line 2"):
        parse_events("issuer,list_id,entity_id,date\nEU,L1\n")


def test_long_row_names_no_field():
    text = ("issuer,list_id,entity_id,date,category\n"
            "EU,L1,X,2010-01-01,\n"
            "EU,L1,Y,2010-01-01,a,b\n")
    with pytest.raises(EventParseError) as err:
        parse_events(text)
    assert str(err.value) == "line 3: expected 5 fields, got 6"
    assert err.value.field is None
    with pytest.raises(EventParseError, match="line 2: field 'date'"):
        parse_events("issuer,list_id,entity_id,date,category\nEU,L1,X\n")


def test_empty_identifier_rejected():
    with pytest.raises(EventParseError, match="entity_id"):
        parse_events("issuer,list_id,entity_id,date\nEU,L1, ,2010-01-01\n")


def test_list_under_two_issuers_names_both():
    text = ("issuer,list_id,entity_id,date\n"
            "EU,L1,X,2010-01-01\n"
            "US,L1,Y,2010-01-02\n")
    with pytest.raises(PipelineError) as err:
        parse_events(text)
    assert "EU" in str(err.value) and "US" in str(err.value)


def test_whitespace_trimmed():
    es = parse_events("issuer,list_id,entity_id,date\n EU , L1 , X ,2010-01-01\n")
    assert es.events[0].issuer == "EU"
    assert es.events[0].list_id == "L1"


def test_serialize_parse_round_trip(small_events):
    text = "".join(serialize_events(small_events))
    assert parse_events(text) == small_events
    assert "".join(serialize_events(parse_events(text))) == text


ids = st.text(alphabet="ABCDEFG", min_size=1, max_size=3)
event_strategy = st.builds(
    ev,
    issuer=ids,
    list_id=ids.map(lambda s: "L" + s),
    entity=ids.map(lambda s: "E" + s),
    day=st.dates(min_value=__import__("datetime").date(2000, 1, 1),
                 max_value=__import__("datetime").date(2020, 12, 31))
    .map(str),
)


def _consistent_issuers(events):
    # one issuer per list: rewrite the issuer from the list id
    return [ev(e.list_id[1:] or "X", e.list_id, e.entity_id,
               e.date.isoformat()) for e in events]


@given(st.lists(event_strategy, max_size=30), st.randoms())
def test_parse_is_order_insensitive(raw, rnd):
    raw = _consistent_issuers(raw)
    shuffled = list(raw)
    rnd.shuffle(shuffled)
    assert make_events(raw) == make_events(shuffled)


@given(st.lists(event_strategy, max_size=30))
def test_round_trip_on_arbitrary_sets(raw):
    es = make_events(_consistent_issuers(raw))
    assert parse_events("".join(serialize_events(es))) == es


def test_validation_counts_cross_list_entity():
    es = make_events([
        ev("EU", "L1", "X", "2010-01-01"),
        ev("US", "L2", "X", "2010-02-01"),
    ])
    report = validate_events(es)
    assert report.n_cross_list_entities == 1
    assert report.warnings == ()


def test_validation_empty_set():
    report = validate_events(make_events([]))
    assert (report.n_events, report.n_issuers, report.n_lists,
            report.n_entities) == (0, 0, 0, 0)
    assert report.warnings == ()


def test_validation_flags_edge_inert_entities():
    es = make_events([
        ev("EU", "L1", "X", "2010-01-01"),
        ev("US", "L2", "Y", "2010-02-01"),
    ])
    report = validate_events(es)
    assert report.n_cross_list_entities == 0
    assert len(report.warnings) == 1


def test_comments_only_before_header():
    text = ("# exported 2010\n\n"
            "issuer,list_id,entity_id,date\n"
            "EU,L1,X,2010-01-01\n"
            "#Other,L2,X,2010-02-01\n")
    with pytest.raises(EventParseError, match="line 5: field 'issuer'"):
        parse_events(text)
    es = parse_events(text.rsplit("#Other", 1)[0])
    assert [e.issuer for e in es.events] == ["EU"]


@pytest.mark.parametrize("bad", ["#x", " #x", "a\tb", "a\rb"])
def test_bad_identifier_rejected_in_both_formats(bad):
    row = {"issuer": "EU", "list_id": bad, "entity_id": "X",
           "date": "2010-01-01"}
    with pytest.raises(EventParseError, match="line 1: field 'list_id'"):
        parse_events(json.dumps(row) + "\n", format="line_record")
    quoted = '"' + bad + '"'
    with pytest.raises(EventParseError, match="line 2: field 'list_id'"):
        parse_events(f"issuer,list_id,entity_id,date\nEU,{quoted},X,2010-01-01\n")


def test_unclosed_quote_past_field_limit_is_a_parse_error():
    text = ('issuer,list_id,entity_id,date\n"EU,L1,X,2010-01-01\n'
            + "EU,L1,X,2010-01-01\n" * 8000)
    with pytest.raises(EventParseError, match="field larger than field limit"):
        parse_events(text)


# headers: the minimal and canonical ones, padded names, an extra column
# before or after the category, a repeated name (a 6-cell row reads its
# issuer from the last column, a 5-cell row from the first), a quoted name
# with a line break, and a bad one
_DIFF_HEADERS = [
    ["issuer", "list_id", "entity_id", "date"],
    ["issuer", "list_id", "entity_id", "date", "category"],
    [" issuer", "list_id ", "entity_id", " date ", "category"],
    ["issuer", "list_id", "entity_id", "date", "category", "note"],
    ["issuer", "list_id", "entity_id", "date", "note", "category"],
    ["issuer", "list_id", "entity_id", "date", "category", "issuer"],
    ["issuer", "list_id", "entity_id", "date", "date"],
    ["issuer", "list_id", "entity_id", "date", "note\nx"],
    ["issuer", "list", "entity_id", "date"],
]
_LIST_OWNER = {"L1": "A", "L2": "B", " L3": " A", "L,4": "B"}
_BAD_CELLS = ["", " ", "#x", "a\tb", "x\ny", "2010-13-01", "2010-02-30",
              "x", "a\rb", "a\rb"]


def _cell(text: str, quote: bool) -> str:
    if quote or any(c in text for c in ',"\n'):
        return '"' + text.replace('"', '""') + '"'
    return text  # a CR left unquoted is a csv error


@st.composite
def _event_texts(draw):
    """Delimited event texts mixing every row shape the parser meets."""
    header = draw(st.sampled_from(_DIFF_HEADERS))
    # half the texts quote only the cells that need it, and use LF alone
    plain = draw(st.booleans())
    quote = st.just(False) if plain else st.booleans()
    lines = draw(st.lists(st.sampled_from(["# note", "", "  ", "#a,b"]),
                          max_size=2))
    lines.append(",".join(_cell(c, draw(quote)) for c in header))
    for _ in range(draw(st.integers(0, 16))):
        kind = draw(st.sampled_from(["row"] * 6 + ["blank", "space", "width",
                                                    "narrow", "wide"]))
        if kind in ("blank", "space"):
            lines.append("" if kind == "blank" else " \t ")
            continue
        lst = draw(st.sampled_from(sorted(_LIST_OWNER)))
        cells = [_LIST_OWNER[lst], lst,
                 draw(st.sampled_from(["X", "Y", " X", "\x00", "Z", "a,b",
                                       'say "z"'])),
                 draw(st.sampled_from(["2010-01-02", "2010-01-01",
                                       " 2010-01-03"])),
                 *draw(st.lists(st.sampled_from(["", "c", " c ", "A", "",
                                                 "c", "c,d", "c\nd"]),
                                min_size=len(header) - 4,
                                max_size=len(header) - 4))]
        if kind == "width":
            cells = cells[:draw(st.integers(1, len(cells) + 2))]
            cells += ["n"] * max(0, draw(st.integers(-1, 2)))
        cells = {"narrow": cells[:-1], "wide": cells + ["n"]}.get(kind, cells)
        if draw(st.integers(0, 7)) == 0:
            cells[draw(st.integers(0, len(cells) - 1))] = \
                draw(st.sampled_from(_BAD_CELLS))
        lines.append(",".join(_cell(c, draw(quote)) for c in cells))
    ends = [draw(quote.map(lambda b: "\r\n" if b else "\n")) for _ in lines]
    if draw(st.booleans()):
        ends[-1] = ""  # a last line without LF
    return "".join(line + end for line, end in zip(lines, ends))


def _outcome(parse, text):
    try:
        return parse(text)
    except PipelineError as exc:
        return (type(exc), str(exc), getattr(exc, "line", None),
                getattr(exc, "field", None))


@pytest.mark.parametrize("chunk", [1, 2, 3, None])
@settings(max_examples=150, deadline=None)
@given(_event_texts())
def test_parse_matches_the_row_by_row_reference(chunk, text):
    # the text, and its lines without their LFs
    for source in (text, text.split("\n")):
        with pytest.MonkeyPatch.context() as patch:
            if chunk is not None:
                patch.setattr(sanctionflow.table, "_LINE_CHUNK", chunk)
            got = _outcome(parse_events, source)
        assert got == _outcome(parse_events_reference, source)


def test_unquoted_field_past_field_limit_is_a_parse_error():
    text = ("issuer,list_id,entity_id,date\nEU,L1,X,2010-01-01\n"
            f"EU,L1,{'E' * 140_000},2010-01-01\n")
    with pytest.raises(EventParseError,
                       match="^line 3: field larger than field limit"):
        parse_events(text)


@pytest.mark.parametrize("field,value", [
    ("issuer", None), ("entity_id", ["x"]), ("list_id", 7),
    ("date", 20100101), ("category", 3), ("category", {"a": "b"}),
    ("category", True)])
def test_line_record_non_string_value_rejected(field, value):
    row = {"issuer": "EU", "list_id": "L1", "entity_id": "X",
           "date": "2010-01-01", "category": "terror", field: value}
    with pytest.raises(EventParseError,
                       match=f"line 2: field '{field}': expected a JSON "
                             "string"):
        parse_events("# exported\n" + json.dumps(row) + "\n",
                     format="line_record")


@pytest.mark.parametrize("chunk", [1, 2, None])
def test_line_record_error_names_the_first_bad_line(chunk):
    good = json.dumps({"issuer": "EU", "list_id": "L1", "entity_id": "X",
                       "date": "2010-01-01"})
    bad_id = good.replace('"X"', '"#x"')
    with pytest.MonkeyPatch.context() as patch:
        if chunk is not None:
            patch.setattr(sanctionflow.table, "_LINE_CHUNK", chunk)
        with pytest.raises(EventParseError,
                           match="^line 2: field 'entity_id'"):
            parse_events("\n".join([good, bad_id, "{oops"]),
                         format="line_record")
        with pytest.raises(EventParseError, match="^line 3: invalid JSON"):
            parse_events("\n".join([good, good, "{oops", bad_id]),
                         format="line_record")


@pytest.mark.parametrize("record, message", [
    ("[1]", "^line 1: record is not an object"),
    ('{"issuer": "EU", "list_id": "L1", "entity_id": "X"}',
     "^line 1: field 'date': missing key"),
])
def test_line_record_that_is_no_event_is_refused(record, message):
    with pytest.raises(EventParseError, match=message):
        parse_events(record + "\n", format="line_record")


def test_unknown_event_format_is_refused():
    with pytest.raises(PipelineError, match="unknown event format 'xml'"):
        parse_events(CSV, "xml")


def test_line_record_null_category_is_absent():
    row = {"issuer": "EU", "list_id": "L1", "entity_id": "X",
           "date": "2010-01-01", "category": None}
    es = parse_events(json.dumps(row) + "\n", format="line_record")
    assert es.events[0].category is None


def test_category_with_cr_rejected_in_both_formats():
    row = {"issuer": "EU", "list_id": "L1", "entity_id": "X",
           "date": "2010-01-01", "category": "a\rb"}
    with pytest.raises(EventParseError, match="line 1: field 'category'"):
        parse_events(json.dumps(row) + "\n", format="line_record")
    with pytest.raises(EventParseError, match="line 2: field 'category'"):
        parse_events('issuer,list_id,entity_id,date,category\n'
                     'EU,L1,X,2010-01-01,"a\rb"\n')


@given(st.text(max_size=12), st.booleans())
def test_every_accepted_category_survives_serialization(category, as_json):
    if as_json:
        text = json.dumps({"issuer": "EU", "list_id": "L1", "entity_id": "X",
                           "date": "2010-01-01", "category": category}) + "\n"
        fmt = "line_record"
    else:
        quoted = '"' + category.replace('"', '""') + '"'
        text = ("issuer,list_id,entity_id,date,category\n"
                f"EU,L1,X,2010-01-01,{quoted}\n")
        fmt = "delimited"
    try:
        es = parse_events(text, format=fmt)
    except EventParseError as exc:
        assert exc.field == "category" and "\r" in category
        return
    assert parse_events("".join(serialize_events(es))) == es


# ids csv.writer must quote, or must leave alone: a comma, a quote, an
# inner space, non-ASCII text, NEL and LINE SEPARATOR (line breaks to
# str.splitlines, not to csv), and a trailing NUL beside the same id without
# it (a numpy U array would merge the two). Each reads back unchanged; an id
# with whitespace at an edge, which ingest strips, is refused (below).
_AWKWARD = ["A", "A\x00", "a,b", 'say "x"', "in side", "Zürich",
            "\u00e9t\u00e9", "x\x85y", "x\u2028y", "z\x85z"]


def test_serialize_matches_the_csv_writer_reference():
    raw = []
    for k, name in enumerate(_AWKWARD):
        category = [None, "in side", "terror", "a,\"b\"", "x\ny"][k % 5]
        raw.append(ev(name, name + "/L", "E" + name, f"2010-01-{1 + k % 3:02d}",
                      category))
        raw.append(ev(name, name + "/L", "shared", "2010-02-01"))
    es = make_events(raw)
    text = "".join(serialize_events(es))
    assert text == serialize_events_reference(raw)
    issuers = set(es.issuer.names)
    assert {"A", "A\x00"} <= issuers and len(issuers) == len(_AWKWARD)
    again = set(parse_events(text).issuer.names)
    assert len(again) == len(_AWKWARD)
    assert {"A", "A\x00"} <= again


_awkward_ids = st.sampled_from(_AWKWARD + ["B", "B\x00", '"', ",", "\x00",
                                          "\x00\x85\x00", "\x00\u2028\x00"])


@given(st.lists(st.tuples(_awkward_ids, st.integers(0, 1), _awkward_ids,
                          st.integers(1, 4),
                          st.sampled_from([None, "c\x00", "c", "c,d", "c d"])),
                max_size=25))
def test_serialize_matches_the_reference_on_arbitrary_events(rows):
    raw = [ev(iss, f"{iss}/L{k}", ent, f"2010-01-{d:02d}", cat)
           for iss, k, ent, d, cat in rows]
    assert ("".join(serialize_events(make_events(raw)))
            == serialize_events_reference(raw))


@pytest.mark.parametrize("field, name", [
    ("issuer", "A\rB"), ("category", "x\ry"), ("list_id", "#A"),
    ("entity_id", "A\tB"), ("issuer", " A"), ("category", " c"),
    ("category", "")])
def test_serialize_refuses_a_name_that_would_not_read_back(field, name):
    # each is refused or changed by parse_events; from_columns takes it
    fields = {"issuer": "EU", "list_id": "L1", "entity_id": "X",
              "category": "c", field: name}
    es = make_events([ev(fields["issuer"], fields["list_id"],
                         fields["entity_id"], "2010-01-01",
                         fields["category"])])
    with pytest.raises(PipelineError) as err:
        serialize_events(es)  # before a first piece is asked for
    assert str(err.value) == (f"{field} {name!r} would not read back from "
                              "the canonical form")


# names that differ only by a trailing NUL, and non-ASCII names
_COLUMN_NAMES = ["A", "A\x00", "B", "\x00", "Zürich", "\u00e9t\u00e9", "b",
                 "AB"]


@st.composite
def _event_columns(draw):
    """Arguments of EventSet.from_columns: each column's names in any
    order, some unused; each list's rows under its own issuer, but now and
    then under another; days from a few apart to the whole date range, so
    (list, entity) pairs repeat on one day and on several; the rows as
    drawn or in canonical order."""
    names = [draw(st.lists(st.sampled_from(_COLUMN_NAMES), min_size=1,
                           max_size=5, unique=True)) for _ in range(3)]
    categories = draw(st.lists(st.sampled_from(_COLUMN_NAMES), max_size=3,
                               unique=True))
    owner = draw(st.lists(st.integers(0, len(names[0]) - 1),
                          min_size=len(names[1]), max_size=len(names[1])))
    days = draw(st.sampled_from([(1, 2), (733_000, 733_003),
                                 (1, 3_652_059)]))
    rows = []
    for stray, lst, ent, day, cat in draw(st.lists(st.tuples(
            st.integers(0, 7), st.integers(0, len(names[1]) - 1),
            st.integers(0, len(names[2]) - 1), st.sampled_from(days),
            st.integers(-1, len(categories) - 1)), min_size=1, max_size=30)):
        issuer = (owner[lst] + (stray == 0)) % len(names[0])
        rows.append((issuer, lst, ent, day, cat))
    if draw(st.booleans()):
        rows.sort(key=lambda row: (row[3], *(names[k][row[k]]
                                             for k in range(3))))
    issuer, lst, ent, day, cat = (list(c) for c in zip(*rows))
    return (Column(tuple(names[0]), issuer), Column(tuple(names[1]), lst),
            Column(tuple(names[2]), ent), Column(tuple(categories), cat), day)


def _built(build, columns):
    try:
        return build(*columns)
    except PipelineError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(_event_columns())
def test_from_columns_matches_the_two_lexsort_reference(columns):
    assert (_built(EventSet.from_columns, columns)
            == _built(from_columns_reference, columns))


def test_from_columns_orders_rows_exactly_past_a_packed_key():
    # each row its own issuer, list and entity, on day 1 or 3_652_059: a
    # packed (day, issuer, list, entity) key would need 3_652_059 *
    # 20_000 ** 3 > 2 ** 63 values
    n = 20_000
    rng = np.random.default_rng(3)
    names = tuple(f"N{k:05d}" for k in rng.permutation(n))
    columns = (*(Column(names, rng.permutation(n)) for _ in range(3)),
               Column((), np.full(n, -1)),
               np.where(rng.random(n) < 0.5, 1, 3_652_059))
    assert EventSet.from_columns(*columns) == from_columns_reference(*columns)


def test_from_columns_memory_is_bounded():
    es = events_150k()
    columns = (es.issuer, es.list_id, es.entity_id, es.category, es.day)
    again, peak = traced_peak(lambda: EventSet.from_columns(*columns))
    assert again == es
    # 7.17 MiB with two lexsorts and all four columns gathered at once
    assert peak < 6.5 * 2 ** 20


def test_serialize_memory_is_bounded():
    es = events_150k()
    text, peak = traced_peak(lambda: "".join(serialize_events(es)))
    # the text itself, plus its pieces while they are joined
    assert peak < 3.5 * len(text)


def test_parse_memory_is_bounded(tmp_path):
    path = tmp_path / "events.csv"
    path.write_text("".join(serialize_events(events_150k())),
                    encoding="utf-8")
    with open(path, encoding="utf-8") as fh:
        es, peak = traced_peak(lambda: parse_events(fh))
    assert len(es) > 140_000
    # the parser that coded one csv.reader row at a time peaked at 18.2 MB
    assert peak < 18_000_000


def test_parse_memory_meets_the_in_place_buffer_bound(tmp_path):
    path = tmp_path / "events.csv"
    path.write_text("".join(serialize_events(events_150k())),
                    encoding="utf-8")
    with open(path, encoding="utf-8") as fh:
        es, peak = traced_peak(lambda: parse_events(fh))
    assert len(es) > 140_000
    # 14.9 MiB while the code buffer doubled by np.hstack; 12.7 MiB when it
    # grows and shrinks in place
    assert peak < 13.5 * 2 ** 20


def test_parse_frees_its_value_dicts_before_sorting(tmp_path):
    path = tmp_path / "events.csv"
    path.write_text("".join(serialize_events(events_150k())),
                    encoding="utf-8")
    with open(path, encoding="utf-8") as fh:
        es, peak = traced_peak(lambda: parse_events(fh))
    assert len(es) > 140_000
    # 10.7 MiB while the raw value -> code and name dicts lived on through
    # EventSet.from_columns; 9.3 MiB when they are dropped first
    assert peak < 10 * 2 ** 20


def test_parse_of_a_text_peaks_as_of_its_lines():
    # io.StringIO over the whole 5.7 MiB text held a 4-byte-a-character
    # copy of it: 32.4 MiB traced, against 9.3 MiB for its lines
    text = "".join(serialize_events(events_150k()))
    lines = text.splitlines(keepends=True)
    es, text_peak = traced_peak(lambda: parse_events(text))
    again, lines_peak = traced_peak(lambda: parse_events(iter(lines)))
    assert es == again and len(es) > 140_000
    assert text_peak < 1.2 * lines_peak


def test_streamed_serialize_holds_at_most_half_the_joined_peak():
    es = events_150k()

    def consume():
        return sum(map(len, serialize_events(es)))

    text, joined = traced_peak(lambda: "".join(serialize_events(es)))
    size, streamed = traced_peak(consume)
    assert size == len(text)
    assert streamed <= joined / 2
