"""Property: any identifier either survives every stage's round trip or is
rejected at ingest with an error naming its field."""

import csv

from hypothesis import HealthCheck, event, given, settings, strategies as st

from sanctionflow.cli import run
from conftest import csv_data_rows

# commas, quotes, '#' and spaces mixed with arbitrary unicode (surrogates
# cannot be written as UTF-8); one id in four may also hold a tab, CR or LF
_MARKED = st.sampled_from(list(',#" '))
_GOOD = st.text(st.one_of(_MARKED, st.characters(
    blacklist_categories=("Cs",), blacklist_characters="\t\r\n")),
    min_size=1, max_size=6)
_ANY = st.text(st.one_of(_MARKED, st.sampled_from(list("\t\r\n")),
                         st.characters(blacklist_categories=("Cs",))),
               min_size=1, max_size=6)
_IDS = st.one_of(_GOOD, _GOOD, _GOOD, _ANY)


def _valid(raw):
    value = raw.strip()
    return (bool(value) and not value.startswith("#")
            and not any(c in value for c in "\t\r\n"))


@settings(deadline=None, max_examples=100,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(issuers=st.lists(_IDS, min_size=2, max_size=4, unique_by=str.strip),
       entities=st.lists(_IDS, min_size=1, max_size=3, unique_by=str.strip))
def test_identifiers_round_trip_or_fail_at_ingest(tmp_path_factory, capsys,
                                                  issuers, entities):
    w = tmp_path_factory.mktemp("ids")
    # issuer i lists every entity on its own list, i months into 2010, so
    # earlier issuers influence later ones
    rows = [(issuer, f"{issuer}/L", entity, f"2010-{1 + i:02d}-01")
            for entity in entities for i, issuer in enumerate(issuers)]
    with open(w / "events.csv", "w", encoding="utf-8", newline="") as fh:
        # quote every cell: unquoted, a bare CR would end the row
        writer = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
        writer.writerow(["issuer", "list_id", "entity_id", "date"])
        writer.writerows(rows)
    capsys.readouterr()
    status = run(["ingest", "--events", str(w / "events.csv"),
                  "--out", str(w / "canonical.csv")])
    ids = [v for row in rows for v in row[:3]]
    if not all(_valid(v) for v in ids):
        event("rejected at ingest")
        assert status == 1
        err = capsys.readouterr().err.strip().split("\n")
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "field '" in err[0]
        return
    event("ran every stage")
    assert status == 0
    for argv in (
        ["build", "--level", "institution",
         "--events", str(w / "canonical.csv"), "--out", str(w / "net.tsv")],
        ["decompose", "--net", str(w / "net.tsv"), "--out", str(w / "hodge")],
        ["communities", "--net", str(w / "net.tsv"),
         "--out", str(w / "communities.csv")],
        ["pagerank", "--net", str(w / "net.tsv"),
         "--out", str(w / "pagerank.csv")],
        ["layout", "--net", str(w / "net.tsv"),
         "--potentials", str(w / "hodge" / "nodes.csv"),
         "--out", str(w / "layout.csv")],
        ["report", "--net", str(w / "net.tsv"), "--decomp", str(w / "hodge"),
         "--pagerank", str(w / "pagerank.csv"),
         "--partition", str(w / "communities.csv"),
         "--layout", str(w / "layout.csv"), "--out", str(w / "report")],
    ):
        assert run(argv) == 0, (argv, capsys.readouterr().err)
    expected = sorted(v.strip() for v in issuers)
    for artifact in ("hodge/nodes.csv", "pagerank.csv", "communities.csv",
                     "layout.csv", "report/scatter.csv"):
        assert [row[0] for row in csv_data_rows(w / artifact)] == expected
    # ranked by potential, so its names are compared as a sorted list
    assert sorted(row[1] for row in csv_data_rows(
        w / "report/potential_table.csv")) == expected
    stored = {(row[0], row[1], row[2]) for row in csv_data_rows(w / "canonical.csv")}
    assert stored == {(a.strip(), b.strip(), c.strip()) for a, b, c, _ in rows}
