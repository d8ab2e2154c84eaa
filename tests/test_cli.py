import csv
import json
from pathlib import Path

import pytest

from sanctionflow import __version__
from sanctionflow.cli import run
from conftest import FIXTURES, csv_data_rows


def read_data_lines(path):
    return [l for l in Path(path).read_text().splitlines()
            if l and not l.startswith("#")]


def test_build_institution_pair_fixture(tmp_path, capsys):
    out = tmp_path / "net.tsv"
    status = run(["build", "--level", "institution",
                  "--events", str(FIXTURES / "events_pair.csv"),
                  "--out", str(out)])
    assert status == 0
    lines = read_data_lines(out)
    assert lines == ["P", "Q", "P\tQ\t1"]
    assert "2 nodes, 1 edges" in capsys.readouterr().out


def test_decompose_reports_ratio(tmp_path, capsys):
    status = run(["decompose", "--net", str(FIXTURES / "ffw_triangle.tsv"),
                  "--mode", "mean", "--tol", "1e-10",
                  "--out", str(tmp_path / "hodge")])
    assert status == 0
    assert "gradient_ratio 0.8889" in capsys.readouterr().out
    summary = read_data_lines(tmp_path / "hodge" / "summary.csv")
    ratio = float(summary[1].split(",")[0])
    assert ratio == pytest.approx(8 / 9, abs=1e-10)


def test_communities_two_triangles(tmp_path, capsys):
    status = run(["communities", "--net", str(FIXTURES / "two_triangles.tsv"),
                  "--resolution", "1.0", "--seed", "1",
                  "--out", str(tmp_path / "comm.csv")])
    assert status == 0
    assert "2 communities, Q 0.5000" in capsys.readouterr().out


def test_outputs_carry_metadata_header(tmp_path):
    """Every .csv and .tsv a stage writes starts with the tool version and
    the stage's command and flags; dot and json have no comment lines."""
    w = tmp_path
    stages = [
        ["synth", "--issuers", "5", "--entities", "40", "--seed", "3",
         "--out", w / "synth.csv"],
        ["ingest", "--events", w / "synth.csv", "--out", w / "canonical.csv"],
        ["build", "--level", "institution", "--events", w / "canonical.csv",
         "--out", w / "net.tsv"],
        ["symmetrize", "--net", w / "net.tsv", "--mode", "unit",
         "--out", w / "flow.tsv"],
        ["decompose", "--net", w / "net.tsv", "--out", w / "hodge"],
        ["communities", "--net", w / "net.tsv", "--seed", "1",
         "--out", w / "communities.csv"],
        ["pagerank", "--net", w / "net.tsv", "--out", w / "pagerank.csv"],
        ["layout", "--net", w / "net.tsv",
         "--potentials", w / "hodge" / "nodes.csv", "--out", w / "layout.csv"],
        *(["report", "--net", w / "net.tsv", "--decomp", w / "hodge",
           "--pagerank", w / "pagerank.csv",
           "--partition", w / "communities.csv", "--layout", w / "layout.csv",
           "--graph-format", fmt, "--out", w / fmt]
          for fmt in ("edge_table", "dot", "json_graph")),
    ]
    written = {}
    for argv in stages:
        argv = [str(arg) for arg in argv]
        before = set(w.rglob("*"))
        assert run(argv) == 0, argv
        written.update(dict.fromkeys(
            (p for p in set(w.rglob("*")) - before if p.is_file()), argv))
    assert {p.suffix for p in written} == {".csv", ".tsv", ".dot", ".json"}
    for path, argv in written.items():
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".dot":
            assert text.startswith("digraph"), path
            continue
        if path.suffix == ".json":
            assert text.startswith("{"), path
            continue
        version, flags = text.splitlines()[:2]
        assert version == f"# sanctionflow {__version__}", path
        assert flags.startswith(f"# {argv[0]} "), path
        for flag, value in zip(argv[1::2], argv[2::2]):
            assert f" {flag}={value}" in flags, (path, flag)


@pytest.mark.parametrize("name", ["pr\nx.csv", "pr\rx.csv"])
def test_a_line_break_in_a_flag_value_keeps_the_provenance_line(tmp_path,
                                                                name):
    w = tmp_path
    pr = w / name
    for argv in (["synth", "--issuers", "6", "--entities", "60", "--seed", "2",
                  "--out", w / "ev.csv"],
                 ["build", "--level", "institution", "--events", w / "ev.csv",
                  "--out", w / "net.tsv"],
                 ["decompose", "--net", w / "net.tsv", "--out", w / "hodge"],
                 ["pagerank", "--net", w / "net.tsv", "--out", pr],
                 ["report", "--net", w / "net.tsv", "--decomp", w / "hodge",
                  "--pagerank", pr, "--out", w / "report"]):
        assert run([str(arg) for arg in argv]) == 0, argv
    lines = pr.read_text(encoding="utf-8").split("\n")
    assert lines[1] == ("# pagerank --command=pagerank --damping=0.85 "
                        f"--net={w / 'net.tsv'} "
                        f"--out={str(pr)!r} --tol=1e-12")
    assert lines[2] == "node,pagerank"


def test_ingest_round_trip(tmp_path, capsys):
    out = tmp_path / "canonical.csv"
    status = run(["ingest", "--events", str(FIXTURES / "events_small.csv"),
                  "--out", str(out)])
    assert status == 0
    assert "10 events, 4 issuers" in capsys.readouterr().out
    again = tmp_path / "again.csv"
    run(["ingest", "--events", str(out), "--out", str(again)])
    assert read_data_lines(out) == read_data_lines(again)


def test_synth_deterministic(tmp_path):
    (tmp_path / "r1").mkdir()
    (tmp_path / "r2").mkdir()
    a, b = tmp_path / "r1" / "ev.csv", tmp_path / "r2" / "ev.csv"
    for out in (a, b):
        assert run(["synth", "--issuers", "4", "--entities", "30",
                    "--copy-prob", "0.8", "--seed", "5",
                    "--out", str(out)]) == 0
    assert read_data_lines(a) == read_data_lines(b)


def test_module_error_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("issuer,list_id,entity_id,date\nEU,L1,X,2010-13-40\n")
    status = run(["ingest", "--events", str(bad),
                  "--out", str(tmp_path / "o.csv")])
    assert status == 1
    assert "2010-13-40" in capsys.readouterr().err


def test_argument_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        run(["build", "--level", "bogus", "--events", "x", "--out", "y"])
    assert exc.value.code == 2


def test_full_pipeline(tmp_path, capsys):
    events = FIXTURES / "events_small.csv"
    net = tmp_path / "net.tsv"
    flow = tmp_path / "flow.tsv"
    hodge_dir = tmp_path / "hodge"
    comm = tmp_path / "comm.csv"
    pr = tmp_path / "pr.csv"
    lay = tmp_path / "layout.csv"
    rep = tmp_path / "report"
    for argv in (
        ["build", "--level", "institution", "--events", str(events),
         "--out", str(net)],
        ["symmetrize", "--net", str(net), "--mode", "mean",
         "--out", str(flow)],
        ["decompose", "--net", str(net), "--mode", "mean",
         "--out", str(hodge_dir)],
        ["communities", "--net", str(net), "--seed", "1", "--out", str(comm)],
        ["pagerank", "--net", str(net), "--out", str(pr)],
        ["layout", "--net", str(net),
         "--potentials", str(hodge_dir / "nodes.csv"), "--seed", "2",
         "--out", str(lay)],
        ["report", "--net", str(net), "--decomp", str(hodge_dir),
         "--pagerank", str(pr), "--partition", str(comm),
         "--layout", str(lay), "--graph-format", "json_graph",
         "--out", str(rep)],
    ):
        assert run(argv) == 0, argv
    obj = json.loads((rep / "graph.json").read_text())
    assert obj["nodes"]
    for node in obj["nodes"]:
        assert {"potential", "community", "x", "y"} <= set(node)
    assert (rep / "potential_table.csv").exists()
    assert (rep / "scatter.csv").exists()


def test_category_filtered_build(tmp_path, capsys):
    cmap = tmp_path / "cats.csv"
    cmap.write_text("list_id,label\nEU-TERR-1,terror\nUS-SDN-1,terror\n"
                    "JP-N-1,terror\nCH-1,terror\nEU-LIB-1,libya\n"
                    "US-LIB-1,libya\n")
    out = tmp_path / "net.tsv"
    status = run(["build", "--level", "institution",
                  "--events", str(FIXTURES / "events_small.csv"),
                  "--category-map", str(cmap), "--label", "libya",
                  "--out", str(out)])
    assert status == 0
    lines = read_data_lines(out)
    assert lines == ["EU", "US", "EU\tUS\t1"]


def test_decompose_unreachable_tolerance_exits_one(tmp_path, capsys):
    # an 80-node ring with chords: one component above the dense limit
    nodes = [f"N{i:02d}" for i in range(80)]
    edges = {(nodes[i], nodes[(i + 1) % 80]): 1 + i % 4 for i in range(80)}
    edges.update({(nodes[i], nodes[(7 * i + 3) % 80]): 2
                  for i in range(0, 80, 5)})
    lines = ["# level\tinstitution", *nodes]
    lines += [f"{a}\t{b}\t{c}" for (a, b), c in sorted(edges.items())]
    net = tmp_path / "net.tsv"
    net.write_text("\n".join(lines) + "\n")
    status = run(["decompose", "--net", str(net), "--tol", "1e-300",
                  "--out", str(tmp_path / "hodge")])
    assert status == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: ")
    assert "(80 nodes, core of 80 after leaf elimination" in err[0]
    assert "Traceback" not in err[0]


def write_events(path, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["issuer", "list_id", "entity_id", "date"])
        writer.writerows(rows)


def test_comma_and_header_named_issuers_survive_the_pipeline(tmp_path):
    issuers = ["Korea, Republic of", "node", "EU", "US"]
    rows = [(name, f"{name} list", f"E{e}", f"2010-0{1 + (i + e) % 4}-01")
            for e in range(4) for i, name in enumerate(issuers)]
    events = tmp_path / "events.csv"
    write_events(events, rows)
    w = tmp_path
    for argv in (
        ["ingest", "--events", str(events), "--out", str(w / "canonical.csv")],
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
        assert run(argv) == 0, argv
    for artifact in ("hodge/nodes.csv", "pagerank.csv", "communities.csv",
                     "layout.csv", "report/scatter.csv"):
        ids = [row[0] for row in csv_data_rows(w / artifact)]
        assert ids == sorted(issuers), artifact
    names = sorted(row[1] for row in csv_data_rows(w / "report/potential_table.csv"))
    assert names == sorted(issuers)


def test_hash_leading_issuer_after_header_is_rejected_at_ingest(tmp_path,
                                                                  capsys):
    events = tmp_path / "events.csv"
    write_events(events, [("EU", "EU-1", "X", "2010-01-01"),
                          ("US", "US-1", "X", "2010-02-01"),
                          ("EU", "EU-1", "Y", "2010-01-01"),
                          ("#Other", "O-1", "X", "2010-03-01"),
                          ("US", "US-1", "Y", "2010-02-01"),
                          ("JP", "JP-1", "Y", "2010-03-01")])
    status = run(["ingest", "--events", str(events),
                  "--out", str(tmp_path / "canonical.csv")])
    assert status == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "line 5" in err[0] and "'issuer'" in err[0]


def test_newline_in_list_id_is_rejected_at_ingest(tmp_path, capsys):
    events = tmp_path / "events.csv"
    write_events(events, [("EU", "L\n1", "X", "2010-01-01"),
                          ("US", "US-1", "X", "2010-02-01")])
    status = run(["ingest", "--events", str(events),
                  "--out", str(tmp_path / "canonical.csv")])
    assert status == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "'list_id'" in err[0]


def test_category_map_needs_its_header(tmp_path, capsys):
    cmap = tmp_path / "cats.csv"
    cmap.write_text("EU-LIB-1,libya\nUS-LIB-1,libya\n")
    status = run(["build", "--level", "institution",
                  "--events", str(FIXTURES / "events_small.csv"),
                  "--category-map", str(cmap), "--label", "libya",
                  "--out", str(tmp_path / "net.tsv")])
    assert status == 1
    err = capsys.readouterr().err
    assert "line 1: expected header list_id,label" in err


def test_category_map_refuses_a_repeated_list(tmp_path, capsys):
    cmap = tmp_path / "cats.csv"
    cmap.write_text("list_id,label\nEU-LIB-1,libya\nUS-LIB-1,libya\n"
                    "EU-LIB-1,terror\n")
    status = run(["build", "--level", "institution",
                  "--events", str(FIXTURES / "events_small.csv"),
                  "--category-map", str(cmap), "--label", "libya",
                  "--out", str(tmp_path / "net.tsv")])
    assert status == 1
    assert_one_error_line(capsys, f"{cmap}: line 4: ", "'EU-LIB-1'")
    assert not (tmp_path / "net.tsv").exists()


def test_non_string_line_record_id_is_rejected_at_ingest(tmp_path, capsys):
    events = tmp_path / "events.jsonl"
    events.write_text(
        '{"issuer": "EU", "list_id": "L1", "entity_id": "X", '
        '"date": "2010-01-01"}\n'
        '{"issuer": null, "list_id": "L2", "entity_id": "X", '
        '"date": "2010-02-01"}\n', encoding="utf-8")
    status = run(["ingest", "--events", str(events), "--format", "line_record",
                  "--out", str(tmp_path / "canonical.csv")])
    assert status == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "line 2" in err[0] and "'issuer'" in err[0]
    assert not (tmp_path / "canonical.csv").exists()


@pytest.mark.parametrize("record, field", [
    ("[" * 100_000 + "]" * 100_000, None),
    ('{"issuer": "\\ud800", "list_id": "L", "entity_id": "X", '
     '"date": "2010-01-01"}', "issuer"),
    ('{"issuer": "EU", "list_id": "L", "entity_id": "X", '
     '"date": "2010-01-01", "category": "\\udc80"}', "category")],
    ids=["nested", "issuer", "category"])
@pytest.mark.parametrize("stage", ["ingest", "build"])
def test_a_line_record_no_stage_can_hold_exits_one_naming_the_line(
        tmp_path, capsys, record, field, stage):
    # nested past the stack, or a name UTF-8 cannot write out
    events = tmp_path / "events.jsonl"
    events.write_text(record + "\n", encoding="utf-8")
    argv = ["--events", str(events), "--format", "line_record",
            "--out", str(tmp_path / "out")]
    if stage == "build":
        argv += ["--level", "institution"]
    assert run([stage, *argv]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "line 1: " in err[0]
    if field:
        assert f"field '{field}'" in err[0] and "surrogate" in err[0]
    else:
        assert "invalid JSON" in err[0]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field", ["list_id", "entity_id", "category"])
def test_a_name_longer_than_a_csv_field_is_refused_at_ingest(tmp_path, capsys,
                                                            field):
    # one character more than csv.reader takes: ingest wrote it, and build
    # then failed on canonical.csv with "field larger than field limit"
    events, limit = tmp_path / "events.jsonl", csv.field_size_limit()
    for size, status in ((limit, 0), (limit + 1, 1)):
        row = {"issuer": "UN", "list_id": "L2", "entity_id": "X",
               "date": "2010-02-01", field: "n" * size}
        events.write_text(json.dumps({"issuer": "EU", "list_id": "L1",
                                      "entity_id": "X", "date": "2010-01-01"})
                          + "\n" + json.dumps(row) + "\n", encoding="utf-8")
        canonical, net = tmp_path / f"{size}.csv", tmp_path / f"{size}.tsv"
        assert run(["ingest", "--events", str(events), "--format",
                    "line_record", "--out", str(canonical)]) == status
        if status:
            assert_one_error_line(capsys, "line 2: ", f"field '{field}'")
            assert not canonical.exists()
            continue
        # a list name at the limit is a node of net.tsv, read back too
        assert run(["build", "--level", "list", "--events", str(canonical),
                    "--out", str(net)]) == 0
        assert run(["pagerank", "--net", str(net), "--out",
                    str(tmp_path / "pagerank.csv")]) == 0
        capsys.readouterr()


@pytest.mark.parametrize("stage", ["ingest", "decompose"])
def test_a_flag_value_utf8_cannot_encode_is_written_as_its_repr(tmp_path,
                                                                 stage):
    # a byte of argv that is not UTF-8 decodes to a lone surrogate
    out = tmp_path / "o\udcff"
    if stage == "ingest":
        argv = ["ingest", "--events", str(FIXTURES / "events_pair.csv"),
                "--out", str(out)]
        written = out
    else:
        argv = ["decompose", "--net", str(FIXTURES / "ffw_triangle.tsv"),
                "--out", str(out)]
        written = out / "nodes.csv"
    assert run(argv) == 0
    lines = written.read_text(encoding="utf-8").split("\n")
    assert f" --out={str(out)!r}" in lines[1]
    assert "\\udcff" in lines[1]


NET_LINES = ["# level\tinstitution", "A", "B", "C",
             "A\tB\t2", "A\tC\t1", "B\tC\t1"]


@pytest.fixture
def stage_inputs(tmp_path):
    """A valid network and the decompose, communities, pagerank and layout
    outputs a stage may read beside it."""
    net = tmp_path / "good.tsv"
    net.write_text("\n".join(NET_LINES) + "\n")
    for argv in (
        ["decompose", "--net", str(net), "--out", str(tmp_path / "hodge")],
        ["communities", "--net", str(net),
         "--out", str(tmp_path / "communities.csv")],
        ["pagerank", "--net", str(net), "--out", str(tmp_path / "pagerank.csv")],
        ["layout", "--net", str(net),
         "--potentials", str(tmp_path / "hodge" / "nodes.csv"),
         "--out", str(tmp_path / "layout.csv")],
    ):
        assert run(argv) == 0, argv
    return tmp_path


NET_STAGES = {
    "symmetrize": lambda w: ["--out", str(w / "out" / "flow.tsv")],
    "decompose": lambda w: ["--out", str(w / "out" / "hodge")],
    "communities": lambda w: ["--out", str(w / "out" / "communities.csv")],
    "pagerank": lambda w: ["--out", str(w / "out" / "pagerank.csv")],
    "layout": lambda w: ["--potentials", str(w / "hodge" / "nodes.csv"),
                         "--out", str(w / "out" / "layout.csv")],
    "report": lambda w: ["--decomp", str(w / "hodge"),
                         "--pagerank", str(w / "pagerank.csv"),
                         "--partition", str(w / "communities.csv"),
                         "--layout", str(w / "layout.csv"),
                         "--out", str(w / "out" / "report")],
}
MALFORMED = {
    "duplicate node": "B",
    "duplicate edge": "A\tB\t3",
    "self-loop": "B\tB\t1",
}


@pytest.mark.parametrize("defect", sorted(MALFORMED))
@pytest.mark.parametrize("stage", sorted(NET_STAGES))
def test_malformed_network_is_rejected_naming_the_line(stage_inputs, capsys,
                                                       stage, defect):
    net = stage_inputs / "bad.tsv"
    net.write_text("\n".join([*NET_LINES, MALFORMED[defect]]) + "\n")
    capsys.readouterr()
    status = run([stage, "--net", str(net), *NET_STAGES[stage](stage_inputs)])
    assert status == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert "line 8" in err[0] and defect in err[0], err[0]
    assert not (stage_inputs / "out").exists()


def test_ingest_prints_each_validation_warning(tmp_path, capsys):
    events = tmp_path / "events.csv"
    write_events(events, [("EU", "EU-1", "X", "2010-01-01"),
                          ("US", "US-1", "Y", "2010-02-01")])
    status = run(["ingest", "--events", str(events),
                  "--out", str(tmp_path / "canonical.csv")])
    assert status == 0
    captured = capsys.readouterr()
    assert "1 warnings" in captured.out
    assert captured.err.splitlines() == [
        "warning: no entity appears on more than one list; influence "
        "networks will have no edges"]


def assert_one_error_line(capsys, *fragments):
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    for fragment in fragments:
        assert fragment in err[0], err[0]


@pytest.mark.parametrize("stage, flag, value", [
    ("decompose", "--tol", "nan"),
    ("decompose", "--tol", "inf"),
    ("decompose", "--tol", "0"),
    ("communities", "--resolution", "nan"),
    ("communities", "--resolution", "inf"),
    ("communities", "--resolution", "-1"),
    ("pagerank", "--tol", "nan"),
    ("pagerank", "--tol", "inf"),
])
def test_nan_and_non_positive_parameters_exit_one(stage_inputs, capsys, stage,
                                                  flag, value):
    capsys.readouterr()
    status = run([stage, "--net", str(stage_inputs / "good.tsv"), flag, value,
                  *NET_STAGES[stage](stage_inputs)])
    assert status == 1
    assert_one_error_line(capsys, "must be positive")
    assert not (stage_inputs / "out").exists()


# defect -> (stage, per-node file, node, new row): the node's row becomes
# the new row, or the row is appended (node None) or deleted (row None). A
# None file sets the flag named in place of the node to the value in place
# of the row.
BAD_STAGE_INPUTS = {
    "nan potential, layout": ("layout", "hodge/nodes.csv", "B", "B,0,nan"),
    "nan potential, report": ("report", "hodge/nodes.csv", "B", "B,0,nan"),
    "repeated potential row": ("layout", "hodge/nodes.csv", None, "B,0,0.5"),
    "repeated community row": ("report", "communities.csv", None, "A,1"),
    "extra node": ("layout", "hodge/nodes.csv", None, "Z,0,0"),
    "missing pagerank row": ("report", "pagerank.csv", "C", None),
    "inf pagerank": ("report", "pagerank.csv", "B", "B,inf"),
    "nan layout x": ("report", "layout.csv", "B", "B,nan,0"),
    "nan jitter": ("layout", None, "--jitter", "nan"),
    "negative jitter": ("layout", None, "--jitter", "-1"),
}


@pytest.mark.parametrize("defect", sorted(BAD_STAGE_INPUTS))
def test_bad_per_node_input_exits_one_naming_the_file(stage_inputs, capsys,
                                                      defect):
    stage, name, node, row = BAD_STAGE_INPUTS[defect]
    flags = []
    if name is None:
        flags, fragment = [node, row], node[2:]
    else:
        path = stage_inputs / name
        lines = path.read_text(encoding="utf-8").split("\n")[:-1]
        if node is None:
            lines.append(row)
            fragment = f"{path}: line {len(lines)}: "
        else:
            at = next(k for k, line in enumerate(lines)
                      if line.startswith(f"{node},"))
            lines[at:at + 1] = [] if row is None else [row]
            fragment = f"{path}: " + ("" if row is None
                                      else f"line {at + 1}: ")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    status = run([stage, "--net", str(stage_inputs / "good.tsv"), *flags,
                  *NET_STAGES[stage](stage_inputs)])
    assert status == 1
    assert_one_error_line(capsys, fragment)
    assert not (stage_inputs / "out").exists()


@pytest.mark.parametrize("flags, message", [
    (["--start", "2010-13-01"], "2010-13-01"),
    (["--window-days", "0"], "window_days"),
    (["--window-days", "-3"], "window_days"),
    (["--start", "9999-12-30"], "9999-12-31"),
    (["--window-days", "4000000"], "9999-12-31"),
])
def test_bad_synth_settings_exit_one(tmp_path, capsys, flags, message):
    out = tmp_path / "events.csv"
    status = run(["synth", "--issuers", "3", "--entities", "5", "--seed", "1",
                  *flags, "--out", str(out)])
    assert status == 1
    assert_one_error_line(capsys, message)
    assert not out.exists()


@pytest.mark.parametrize("stage", ["ingest", "pagerank"])
def test_non_utf8_input_exits_one_naming_the_file(tmp_path, capsys, stage):
    if stage == "ingest":
        bad = tmp_path / "events.csv"
        bad.write_bytes(b"issuer,list_id,entity_id,date\n"
                        b"E\xffU,L1,X,2010-01-01\n")
        argv = ["ingest", "--events", str(bad)]
    else:
        bad = tmp_path / "net.tsv"
        bad.write_bytes(b"# level\tinstitution\nA\nB\xff\nA\tB\xff\t1\n")
        argv = ["pagerank", "--net", str(bad)]
    status = run([*argv, "--out", str(tmp_path / "out.csv")])
    assert status == 1
    assert_one_error_line(capsys, str(bad), "UTF-8")
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("stage, edges, fragments", [
    ("pagerank", ["A\tB\t99999999999999999999999"], ["line 4", "int64"]),
    ("decompose", ["A\tB\t9007199254740992", "B\tA\t5"],
     ["component 0", "singular"]),
])
def test_network_counts_numpy_cannot_hold_or_solve_exit_one(
        tmp_path, capsys, stage, edges, fragments):
    net = tmp_path / "net.tsv"
    net.write_text("\n".join(["# level\tinstitution", "A", "B", *edges])
                   + "\n")
    status = run([stage, "--net", str(net), "--out", str(tmp_path / "out")])
    assert status == 1
    assert_one_error_line(capsys, *fragments)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("node, label", [("A", "77"), ("C", "0")])
@pytest.mark.parametrize("stage", ["layout", "report"])
def test_mislabelled_component_exits_one_naming_the_line(tmp_path, capsys,
                                                        stage, node, label):
    # components {A, B} (label 0) and {C, D} (label 1)
    net = tmp_path / "net.tsv"
    net.write_text("# level\tinstitution\nA\nB\nC\nD\nA\tB\t2\nC\tD\t1\n")
    hodge = tmp_path / "hodge"
    assert run(["decompose", "--net", str(net), "--out", str(hodge)]) == 0
    nodes = hodge / "nodes.csv"
    lines = nodes.read_text(encoding="utf-8").split("\n")
    at = next(k for k, line in enumerate(lines) if line.startswith(f"{node},"))
    name, _, phi = lines[at].split(",")
    lines[at] = f"{name},{label},{phi}"
    nodes.write_text("\n".join(lines), encoding="utf-8")
    out = tmp_path / "out"
    flags = (["--potentials", str(nodes), "--out", str(out / "layout.csv")]
             if stage == "layout" else
             ["--decomp", str(hodge), "--out", str(out)])
    capsys.readouterr()
    status = run([stage, "--net", str(net), *flags])
    assert status == 1
    assert_one_error_line(capsys, f"{nodes}: line {at + 1}: ", "component")
    assert not out.exists()


# reciprocal pairs, so the mean and unit modes give different flows
MODE_NET = "\n".join(["# level\tinstitution", "A", "B", "C", "A\tB\t3",
                      "A\tC\t4", "B\tA\t1", "B\tC\t2", "C\tA\t1"]) + "\n"


@pytest.mark.parametrize("decompose_mode, report_mode, count, status", [
    ("unit", "mean", "3", 1),
    ("mean", "unit", "3", 1),
    ("unit", "unit", "3", 0),
    ("mean", "mean", "3", 0),
    ("mean", "mean", "5", 1),
], ids=["unit then mean", "mean then unit", "unit", "mean", "count changed"])
def test_report_refuses_a_decomposition_of_another_mode_or_network(
        tmp_path, capsys, decompose_mode, report_mode, count, status):
    net = tmp_path / "net.tsv"
    net.write_text(MODE_NET)
    hodge = tmp_path / "hodge"
    assert run(["decompose", "--net", str(net), "--mode", decompose_mode,
                "--out", str(hodge)]) == 0
    net.write_text(MODE_NET.replace("A\tB\t3", f"A\tB\t{count}"))
    out = tmp_path / "report"
    capsys.readouterr()
    assert run(["report", "--net", str(net), "--mode", report_mode,
                "--decomp", str(hodge), "--out", str(out)]) == status
    if status:
        assert_one_error_line(capsys, str(hodge / "summary.csv"),
                              f"--mode {report_mode}")
        assert not out.exists()


EVENT_ROWS = [("EU", "EU-1", "X", "2010-01-01"), ("US", "US-1", "X",
               "2010-02-01"), ("EU", "EU-1", "Y", "2010-01-05"),
              ("Zürich", "CH-1", "Y", "2010-03-01")]


def with_and_without_bom(tmp_path, monkeypatch, text, argv):
    """The bytes each run of ``argv`` writes to ``out``, run in a directory
    of its own on ``in`` holding ``text``, with and without a BOM."""
    written = []
    for prefix in ("", "\ufeff"):
        work = tmp_path / ("bom" if prefix else "plain")
        work.mkdir(parents=True)
        (work / "in").write_text(prefix + text, encoding="utf-8")
        monkeypatch.chdir(work)
        assert run(argv) == 0
        written.append((work / "out").read_bytes())
    return written


@pytest.mark.parametrize("fmt", ["delimited", "line_record"])
def test_events_starting_with_a_bom_ingest_as_without(tmp_path, monkeypatch,
                                                      fmt):
    if fmt == "delimited":
        text = "issuer,list_id,entity_id,date\n" + "".join(
            ",".join(row) + "\n" for row in EVENT_ROWS)
    else:
        keys = ("issuer", "list_id", "entity_id", "date")
        text = "".join(json.dumps(dict(zip(keys, row))) + "\n"
                       for row in EVENT_ROWS)
    plain, bom = with_and_without_bom(
        tmp_path, monkeypatch, text,
        ["ingest", "--events", "in", "--format", fmt, "--out", "out"])
    assert bom == plain
    assert not bom.startswith("\ufeff".encode())


def test_a_category_map_and_a_network_starting_with_a_bom_are_read(
        tmp_path, monkeypatch):
    cmap = "list_id,label\nEU-1,terror\nUS-1,terror\nCH-1,other\n"
    events = tmp_path / "events.csv"
    write_events(events, EVENT_ROWS)
    plain, bom = with_and_without_bom(
        tmp_path / "map", monkeypatch, cmap,
        ["build", "--level", "institution", "--events", str(events),
         "--category-map", "in", "--label", "terror", "--out", "out"])
    assert bom == plain
    assert plain.decode().split("\n")[-4:] == ["EU", "US", "EU\tUS\t1", ""]
    plain, bom = with_and_without_bom(
        tmp_path / "net", monkeypatch, MODE_NET,
        ["pagerank", "--net", "in", "--out", "out"])
    assert bom == plain


@pytest.mark.parametrize("mode", ["mean", "unit"])
def test_edge_table_weight_is_the_decomposition_weight(tmp_path, mode):
    net = tmp_path / "net.tsv"
    net.write_text(MODE_NET)
    hodge, out = tmp_path / "hodge", tmp_path / "report"
    for argv in (["decompose", "--net", net, "--mode", mode, "--out", hodge],
                 ["report", "--net", net, "--mode", mode, "--decomp", hodge,
                  "--out", out]):
        assert run([str(arg) for arg in argv]) == 0, argv
    pair_w = {frozenset(row[:2]): row[3]
              for row in csv_data_rows(hodge / "pairs.csv")}
    edges = [line.split("\t") for line in read_data_lines(out / "graph.tsv")
             if line.count("\t") == 6]
    assert len(edges) == 5
    for src, dst, _, _, w, _, _ in edges:
        assert w == pair_w[frozenset((src, dst))], (src, dst)


def test_report_refuses_highlight_without_decomp(tmp_path, capsys):
    net = tmp_path / "net.tsv"
    net.write_text(MODE_NET)
    out = tmp_path / "report"
    assert run(["report", "--net", str(net), "--highlight", "A",
                "--out", str(out)]) == 1
    assert_one_error_line(capsys, "--highlight needs --decomp")
    assert not out.exists()


def test_report_refuses_to_highlight_unknown_nodes(tmp_path, capsys):
    net = tmp_path / "net.tsv"
    net.write_text(MODE_NET)
    hodge, out = tmp_path / "hodge", tmp_path / "report"
    assert run(["decompose", "--net", str(net), "--out", str(hodge)]) == 0
    unknown = ["U1", "U2", "U3", "U4", "U5", "U6"]
    capsys.readouterr()
    assert run(["report", "--net", str(net), "--decomp", str(hodge),
                "--highlight", "B", *unknown[::-1], "--out", str(out)]) == 1
    assert_one_error_line(capsys, "highlight", *map(repr, unknown[:5]))
    assert not out.exists()


@pytest.mark.parametrize("text, line", [
    ("", 1), ("﻿", 1), ("\n", 2), ("﻿\n", 2)])
def test_an_events_file_without_a_header_names_the_line_the_parser_does(
        tmp_path, capsys, text, line):
    events = tmp_path / "events.csv"
    events.write_text(text, encoding="utf-8")
    capsys.readouterr()
    assert run(["ingest", "--events", str(events),
                "--out", str(tmp_path / "out.csv")]) == 1
    assert_one_error_line(capsys, f"{events}: line {line}: bad header")
    assert not (tmp_path / "out.csv").exists()


CMAP = "list_id,label\nEU-LIB-1,libya\nUS-LIB-1,libya\n"


@pytest.mark.parametrize("flags, cmap, message", [
    (["--level", "institution", "--category-map", "{cmap}"], CMAP,
     "--category-map and --label go together"),
    (["--level", "list", "--category-map", "{cmap}", "--label", "libya"],
     CMAP, "category filtering applies to the institution level"),
    (["--level", "institution", "--category-map", "{cmap}",
      "--label", "libya"], CMAP + "XX-1,libya\n",
     "category map names unknown list_id(s): ['XX-1']"),
])
def test_build_refuses_a_category_filter_it_cannot_apply(tmp_path, capsys,
                                                         flags, cmap, message):
    path = tmp_path / "cats.csv"
    path.write_text(cmap)
    out = tmp_path / "net.tsv"
    status = run(["build", "--events", str(FIXTURES / "events_small.csv"),
                  *(flag.format(cmap=path) for flag in flags),
                  "--out", str(out)])
    assert status == 1
    assert_one_error_line(capsys, message)
    assert not out.exists()


def test_communities_refuses_a_network_with_no_nodes(tmp_path, capsys):
    net = tmp_path / "net.tsv"
    net.write_text("# level\tinstitution\n")
    out = tmp_path / "communities.csv"
    status = run(["communities", "--net", str(net), "--out", str(out)])
    assert status == 1
    assert_one_error_line(capsys, "empty network")
    assert not out.exists()


def test_pagerank_past_its_iteration_cap_exits_one(stage_inputs, capsys):
    capsys.readouterr()
    status = run(["pagerank", "--net", str(stage_inputs / "good.tsv"),
                  "--tol", "1e-300", *NET_STAGES["pagerank"](stage_inputs)])
    assert status == 1
    assert_one_error_line(capsys, "hit the iteration cap")
    assert not (stage_inputs / "out").exists()
