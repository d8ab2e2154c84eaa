import csv
import itertools
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import sanctionflow.table
from sanctionflow import cli, netbuild
from sanctionflow import (InfluenceNetwork, PipelineError,
                          build_institution_network, build_list_network,
                          export_graph, filter_by_category, read_network,
                          symmetrize, write_flow, write_network)
from conftest import (FIXTURES, drained, ev, events_150k, make_events,
                      make_flow, make_network, network_108k, network_fields,
                      pairs_of, traced_peak)
from oracles import brute_force_counts, read_network_reference


def test_list_edge_from_earlier_inclusion():
    es = make_events([
        ev("A", "L1", "e", "2010-01-01"),
        ev("B", "L2", "e", "2010-02-01"),
    ])
    net = build_list_network(es)
    assert net.adjacency == {("L1", "L2"): 1}


def test_same_date_gives_no_edge():
    es = make_events([
        ev("A", "L1", "e", "2010-01-01"),
        ev("B", "L2", "e", "2010-01-01"),
    ])
    assert build_list_network(es).adjacency == {}


def test_counts_accumulate_per_entity():
    es = make_events([
        ev("A", "L1", "e1", "2010-01-01"),
        ev("B", "L2", "e1", "2010-02-01"),
        ev("A", "L1", "e2", "2010-03-01"),
        ev("B", "L2", "e2", "2010-04-01"),
    ])
    assert build_list_network(es).adjacency == {("L1", "L2"): 2}


def test_institution_edge_uses_first_dates():
    es = make_events([
        ev("P", "P-L1", "e", "2010-01-01"),
        ev("Q", "Q-L1", "e", "2010-03-01"),
    ])
    net = build_institution_network(es)
    assert net.adjacency == {("P", "Q"): 1}
    assert net.level == "institution"


def test_institution_own_lists_never_self_loop():
    es = make_events([
        ev("P", "P-L1", "e", "2010-01-01"),
        ev("P", "P-L2", "e", "2010-02-01"),
    ])
    assert build_institution_network(es).adjacency == {}


def test_opposing_edges_accumulate_independently():
    es = make_events([
        ev("P", "P-L1", "e1", "2010-01-01"),
        ev("Q", "Q-L1", "e1", "2010-02-01"),
        ev("Q", "Q-L1", "e2", "2010-01-01"),
        ev("P", "P-L1", "e2", "2010-02-01"),
    ])
    net = build_institution_network(es)
    assert net.adjacency == {("P", "Q"): 1, ("Q", "P"): 1}


def test_multi_list_institution_counts_once():
    # two overlapping lists of P must not double the P->Q count
    es = make_events([
        ev("P", "P-L1", "e", "2010-01-01"),
        ev("P", "P-L2", "e", "2010-01-15"),
        ev("Q", "Q-L1", "e", "2010-03-01"),
    ])
    assert build_institution_network(es).adjacency == {("P", "Q"): 1}


def test_institution_nodes_are_issuers_with_lists(small_events):
    net = build_institution_network(small_events)
    assert set(net.nodes) == set(small_events.issuer.names)


def test_restriction_to_unknown_list_errors(small_events):
    with pytest.raises(PipelineError, match="NOPE"):
        build_institution_network(small_events, lists={"NOPE"})


def test_filter_by_category():
    es = make_events([
        ev("A", "L1", "e1", "2010-01-01"),
        ev("B", "L2", "e1", "2010-02-01"),
        ev("C", "L3", "e2", "2010-03-01"),
    ])
    mapping = {"L1": "terror", "L2": "terror", "L3": "libya"}
    assert filter_by_category(es, mapping, "terror") == {"L1", "L2"}
    with pytest.raises(PipelineError, match="burma"):
        filter_by_category(es, mapping, "burma")


def test_symmetrize_mean_mode():
    net = make_network([("P", "Q", 3), ("Q", "P", 1)])
    flow = symmetrize(net, "mean")
    assert pairs_of(flow) == {("P", "Q"): (2.0, 2.0)}


def test_symmetrize_unit_mode():
    net = make_network([("P", "Q", 1)])
    flow = symmetrize(net, "unit")
    assert pairs_of(flow) == {("P", "Q"): (1.0, 1.0)}


def test_symmetrize_keeps_balanced_pairs():
    net = make_network([("P", "Q", 2), ("Q", "P", 2)])
    flow = symmetrize(net, "mean")
    assert pairs_of(flow) == {("P", "Q"): (0.0, 2.0)}


def test_symmetrize_reconstruction():
    rng = random.Random(5)
    edges = []
    for i in range(6):
        for j in range(6):
            if i != j and rng.random() < 0.4:
                edges.append((f"N{i}", f"N{j}", rng.randint(1, 5)))
    net = make_network(edges, nodes=[f"N{i}" for i in range(6)])
    flow = symmetrize(net, "mean")
    for (a, b), (f, w) in pairs_of(flow).items():
        a_ij = net.adjacency.get((a, b), 0)
        a_ji = net.adjacency.get((b, a), 0)
        assert f == a_ij - a_ji
        assert 2 * w == a_ij + a_ji


issuers = st.sampled_from(["P", "Q", "R", "S"])
days = st.integers(min_value=1, max_value=20)
raw_events = st.lists(
    st.tuples(issuers, st.integers(0, 2), st.sampled_from(["e1", "e2", "e3"]),
              days),
    max_size=50)


@settings(deadline=None)
@given(raw_events)
def test_counts_match_brute_force(raw):
    events = make_events([
        ev(iss, f"{iss}-L{k}", ent, f"2010-01-{d:02d}")
        for iss, k, ent, d in raw])
    for level, build in (("list", build_list_network),
                         ("institution", build_institution_network)):
        net = build(events)
        assert dict(net.adjacency) == brute_force_counts(events, level)


@pytest.mark.parametrize("budget", [1, 7, 64])
def test_chunked_counts_match_brute_force(monkeypatch, budget):
    # one entity held by 50 issuers on two lists each, listed over 6 days so
    # that most holders tie with others, plus a scatter of small entities
    monkeypatch.setattr(netbuild, "_PAIR_CELLS", budget)
    rng = random.Random(budget)
    issuers = [f"I{i:02d}" for i in range(50)]
    raw = [ev(iss, f"{iss}-L{k}", "hub", f"2010-01-{rng.randint(1, 6):02d}")
           for iss in issuers for k in range(2)]
    for e in range(40):
        for _ in range(rng.randint(1, 5)):
            iss = rng.choice(issuers)
            raw.append(ev(iss, f"{iss}-L{rng.randrange(2)}", f"e{e}",
                          f"2010-01-{rng.randint(1, 9):02d}"))
    events = make_events(raw)
    selected = {f"{iss}-L0" for iss in issuers[::3]} | {"I07-L1"}
    for level, net, lists in (
            ("list", build_list_network(events), None),
            ("institution", build_institution_network(events), None),
            ("institution", build_institution_network(events, selected),
             selected)):
        assert dict(net.adjacency) == brute_force_counts(events, level, lists)
        attr = "list_id" if level == "list" else "issuer"
        assert net.nodes == tuple(sorted(
            {getattr(e, attr) for e in events.events
             if lists is None or e.list_id in lists}))
    assert build_list_network(events).total_count() > 20 * budget


hub_draws = (st.integers(66, 90),
             st.lists(st.tuples(st.integers(0, 29), st.integers(0, 1),
                                st.integers(0, 9), st.integers(1, 6)),
                      max_size=80),
             st.sets(st.integers(0, 59), min_size=1), st.randoms())


def hub_events(holders, scatter, picked, rnd):
    """A hub entity held by more lists than the largest small budget,
    listed over 4 days so most holders tie, plus small entities, the raw
    events shuffled out of canonical order; and the picked lists."""
    raw = [ev(f"I{h // 2:02d}", f"I{h // 2:02d}-L{h % 2}", "hub",
              f"2010-01-{rnd.randint(1, 4):02d}") for h in range(holders)]
    raw += [ev(f"I{i:02d}", f"I{i:02d}-L{k}", f"e{e}", f"2010-01-{d:02d}")
            for i, k, e, d in scatter]
    rnd.shuffle(raw)
    events = make_events(raw)
    selected = {f"I{p // 2:02d}-L{p % 2}" for p in picked}
    return events, selected & set(events.list_id.names)


def networks_of(events, selected):
    """The list network, and the institution networks over every list and
    over the selected ones, as plain values."""
    nets = [build_list_network(events), build_institution_network(events)]
    if selected:
        nets.append(build_institution_network(events, selected))
    return [(net.nodes, net.src.tolist(), net.dst.tolist(),
             net.count.tolist()) for net in nets]


@settings(deadline=None, max_examples=30)
@given(*hub_draws)
def test_blocks_and_chunks_never_change_the_network(holders, scatter,
                                                    picked, rnd):
    events, selected = hub_events(holders, scatter, picked, rnd)
    expected = networks_of(events, selected)
    for budget in (1, 3, 64):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(netbuild, "_PAIR_CELLS", budget)
            assert networks_of(events, selected) == expected


@settings(deadline=None, max_examples=30)
@given(*hub_draws, st.lists(st.tuples(*[st.sampled_from(
    [1, 2, 3, 7, 64, 1 << 16])] * 2), min_size=1, max_size=4))
def test_any_block_and_chunk_sizes_give_the_same_network(holders, scatter,
                                                         picked, rnd, sizes):
    # the events of a block and the pairs of a chunk drawn apart
    events, selected = hub_events(holders, scatter, picked, rnd)
    expected = networks_of(events, selected)
    for block, chunk in sizes:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(netbuild, "_sizes", lambda: (block, chunk))
            assert networks_of(events, selected) == expected


def test_one_budget_sizes_blocks_and_chunks(monkeypatch):
    assert netbuild._sizes() == (1 << 14, 1 << 16)
    monkeypatch.setattr(netbuild, "_PAIR_CELLS", 1)
    assert netbuild._sizes() == (1, 1)


@pytest.mark.parametrize("build", [build_list_network,
                                   build_institution_network])
def test_build_memory_is_bounded(build):
    es = events_150k()
    net, peak = traced_peak(lambda: build(es))
    assert net.total_count() > 100_000
    # 16.7 MiB (list) and 14.4 MiB (institution) when the whole event set
    # was sorted at once and every chunk's counts were merged at the end
    assert peak < 10 * 2 ** 20


@pytest.mark.parametrize("build, bound", [
    # traced peaks with blocks of 2^16 events: 8.9 and 7.5 MiB; with blocks
    # of 2^14, 5.5 and 3.6 MiB
    (build_list_network, 7), (build_institution_network, 5)])
def test_build_working_set_is_sized_by_blocks(build, bound):
    es = events_150k()
    net, peak = traced_peak(lambda: build(es))
    assert net.total_count() > 100_000
    assert peak < bound * 2 ** 20


@settings(deadline=None, max_examples=40)
@given(raw_events, st.permutations(["P", "Q", "R", "S"]))
def test_relabeling_commutes(raw, perm):
    mapping = dict(zip(["P", "Q", "R", "S"], perm))
    events = make_events([
        ev(iss, f"{iss}-L{k}", ent, f"2010-01-{d:02d}")
        for iss, k, ent, d in raw])
    renamed = make_events([
        ev(mapping[iss], f"{mapping[iss]}-L{k}", ent, f"2010-01-{d:02d}")
        for iss, k, ent, d in raw])
    net = build_institution_network(events)
    net2 = build_institution_network(renamed)
    assert {(mapping[a], mapping[b]): c
            for (a, b), c in net.adjacency.items()} == dict(net2.adjacency)


def test_network_round_trip(small_events):
    net = build_institution_network(small_events)
    text = "".join(write_network(net))
    back = read_network(text)
    assert network_fields(back) == network_fields(net)
    assert "".join(write_network(back)) == text


def flow_tsv_network(text):
    """The FlowNetwork of a flow.tsv file: its mode marker, node lines of 1
    field and pair lines of 4."""
    lines = text.splitlines()
    mode = next(l.split("\t")[1] for l in lines if l.startswith("# mode\t"))
    rows = [l.split("\t") for l in lines if l and not l.startswith("#")]
    return make_flow({(r[0], r[1]): (float(r[2]), float(r[3]))
                      for r in rows if len(r) == 4},
                     [r[0] for r in rows if len(r) == 1], mode)


def test_flow_round_trip(small_events):
    flow = symmetrize(build_institution_network(small_events), "mean")
    text = "".join(write_flow(flow))
    back = flow_tsv_network(text)
    assert (back.nodes, pairs_of(back), back.weight_mode) == \
        (flow.nodes, pairs_of(flow), flow.weight_mode)
    assert "".join(write_flow(back)) == text


@pytest.mark.parametrize("weight", [0.0, -1.0, float("nan")])
def test_flow_network_refuses_a_weight_that_is_not_positive(weight):
    with pytest.raises(PipelineError, match=r"weight on pair \(B, A\)"):
        make_flow({("A", "C"): (1.0, 1.0), ("B", "A"): (2.0, weight)},
                  nodes=["B", "A", "C"])


def test_read_network_rejects_unknown_node():
    with pytest.raises(PipelineError, match="undeclared"):
        read_network("A\nA\tB\t1\n")


def test_read_network_sorts_shuffled_edges_by_node_index():
    net = read_network((FIXTURES / "shuffled_net.tsv").read_text())
    assert net.nodes == ("Zeta", "alpha", "Mid", "Beta", "Omega", "10", "9")
    keys = (net.src * len(net.nodes) + net.dst).tolist()
    assert keys == sorted(keys)
    assert net.adjacency == {
        ("Mid", "Beta"): 1, ("9", "10"): 4, ("Zeta", "alpha"): 3,
        ("alpha", "Mid"): 1, ("Beta", "Mid"): 2, ("Mid", "Zeta"): 1,
        ("10", "9"): 1, ("Beta", "alpha"): 5}


@pytest.mark.parametrize("lines, message", [
    # the first bad line is reported, whatever the kind of fault
    (["A", "B", "A\tB\t1", "A\tB\t2", "B\tB\t1"],
     "line 4: duplicate edge (A, B)"),
    (["A", "B", "B\tB\t1", "A\tB\t1", "A\tB\t2"], "line 3: self-loop"),
    (["A", "B", "A\tB\t1", "A\tB\tx"], "line 4: duplicate edge (A, B)"),
    (["A", "B", "A\tB\tx", "A\tB\t1"], "line 3: bad count 'x'"),
    (["A", "B", "A\tB\t1", "B", "A\tB\t1"], "line 4: duplicate node 'B'"),
    (["A\tC\t1", "A", "B\tA\t2", "A\tB"], "line 4: expected 1 or 3"),
    (["A\tC\t1", "A", "A\tB\t2", "B"], "edge (A, C) references undeclared"),
    (["A\tB\t0", "A", "B"], "line 1: non-positive count"),
    (["A", "B", "A\tB\t9223372036854775808"], "line 3: count exceeds int64"),
    # within one line the checks keep their order
    (["A", "B", "A\tA\tx"], "line 3: self-loop on 'A'"),
    (["A", "B", "A\tB\tx", "A"], "line 3: bad count 'x'"),
    # comment and whitespace-only lines are skipped but counted
    (["A", "# a note", " \t ", "B", "", "\r", "A\tB\t1", "B\tB\t1"],
     "line 8: self-loop on 'B'"),
    # a count reads as int() reads it
    (["A", "B", "A\tB\t+5", "B\tA\t 5", "A\tB\t5_0"],
     "line 5: duplicate edge (A, B)"),
    (["A", "B", "A\tB\t5\r", "B\tA\t5_"], "line 4: bad count '5_'"),
    (["A", "B", "A\tB\t-0_5"], "line 3: non-positive count"),
    # an undeclared endpoint is found only after every line reads well
    (["A", "A\tC\t1", "A\tB"], "line 3: expected 1 or 3 fields, got 2"),
])
def test_read_network_reports_the_first_bad_line(lines, message):
    with pytest.raises(PipelineError) as info:
        read_network("\n".join(lines) + "\n")
    assert str(info.value).startswith(message), str(info.value)


def _read_outcome(read, *args):
    try:
        return read(*args)
    except PipelineError as exc:
        return str(exc)


def _network_texts(seed, count):
    """Random short files over few names and odd counts, good and bad."""
    rng = random.Random(seed)
    names = ["A", "B", "C", "D", "A ", "", "#C"]
    good = ["1", "7", "+5", " 5", "5_0", "5\r", "9223372036854775807",
            "\u0663"]
    bad = ["0", "-3", "x", "", "5_", "9223372036854775808"]
    lines = [*names, " ", "\t", "# level\tlist", "#\tlevel\tx", "A\tB"]
    for _ in range(count):
        rows = ["A", "B", "C"] if rng.random() < 0.7 else []
        for _ in range(rng.randint(0, 6)):
            pool = names[:4] if rng.random() < 0.8 else names
            a, b = rng.choices(pool, k=2)
            count = rng.choice(good if rng.random() < 0.8 else bad)
            rows.append(rng.choice(lines) if rng.random() < 0.2 else
                        f"{a}\t{b}\t{count}")
        rng.shuffle(rows)
        yield "\n".join(rows)


def _network_outcome(read, *args):
    """The level, nodes and index triples ``read`` returns, or its error."""
    got = _read_outcome(read, *args)
    if isinstance(got, InfluenceNetwork):
        return (got.level, got.nodes, list(zip(
            got.src.tolist(), got.dst.tolist(), got.count.tolist())))
    return got


def test_read_network_agrees_with_the_line_by_line_reference():
    """The chunked reader returns what the reference returns, or raises
    its message."""
    for text in _network_texts(14, 3000):
        assert _network_outcome(read_network, text) == \
            _network_outcome(read_network_reference, text), repr(text)


@pytest.mark.parametrize("chunk", [1, 2, 3])
def test_read_network_agrees_with_the_reference_across_chunks(monkeypatch,
                                                              chunk):
    # faults, repeats and forward references fall in other chunks than
    # the lines they refer to, and single-kind chunks take the split path
    monkeypatch.setattr(sanctionflow.table, "_LINE_CHUNK", chunk)
    for text in _network_texts(20 + chunk, 1500):
        assert _network_outcome(read_network, text) == \
            _network_outcome(read_network_reference, text), repr(text)


def test_read_network_reads_the_cli_lines_as_the_whole_text(tmp_path):
    """A file read through the CLI's lines, with a BOM, CRLF line ends or
    no last line end, reads as the reference reads its decoded text."""
    path = tmp_path / "net.tsv"
    for text in _network_texts(31, 300):
        for bom, end, last in itertools.product(("", "\ufeff"),
                                                ("\n", "\r\n"), ("", "\n")):
            path.write_bytes((bom + (text + last).replace("\n", end))
                             .encode("utf-8"))
            want = _network_outcome(read_network_reference,
                                    path.read_text(encoding="utf-8-sig"))
            if isinstance(want, str):
                want = f"{path}: {want}"
            assert _network_outcome(cli._read, path, read_network) == want, \
                repr(text)


def test_read_network_reads_crlf_line_ends_as_lf():
    # the CR stayed on every name read from a text or its lines:
    # "edge (n0, n1) references undeclared node"
    net = make_network([(f"n{k}", f"n{k + 1}", k + 1) for k in range(300)])
    text = "".join(write_network(net))
    crlf = text.replace("\n", "\r\n")
    assert network_fields(read_network(text)) == network_fields(net)
    for given in (crlf, crlf.splitlines(keepends=True)):
        assert network_fields(read_network(given)) == network_fields(net)


def test_read_network_reads_list_items_that_are_not_lines_as_csv_reader():
    # one split of the joined chunk read the nodes A, B and 'C\nD'
    with pytest.raises(PipelineError, match="^line 3: "):
        read_network(["A\n", "B", "C\nD\n"])


def test_read_network_holds_the_largest_int64_count():
    net = read_network("A\nB\nA\tB\t9223372036854775807\n")
    assert net.count.tolist() == [2 ** 63 - 1]


def test_read_network_reads_counts_as_int_does():
    net = read_network("A\nB\nC\nA\tB\t+5\nB\tC\t 6\nC\tA\t7_0\n"
                       "A\tC\t8\r\n")
    assert net.count.tolist() == [5, 8, 6, 70]


def test_write_network_refuses_ids_it_cannot_read_back():
    for bad in ("#x", "a\tb", "a\nb", "a\rb", "", "   ", "a\ud800",
                "x" * (csv.field_size_limit() + 1)):
        net = make_network([("A", bad, 1)], nodes=("A", bad))
        with pytest.raises(PipelineError, match="node id"):
            write_network(net)
        with pytest.raises(PipelineError, match="node id"):
            export_graph(net)  # the edge table, before a first piece


def test_write_flow_refuses_ids_it_cannot_read_back():
    for bad in ("#x", "a\tb", "a\nb", "a\rb", "", "   ", "a\ud800",
                "x" * (csv.field_size_limit() + 1)):
        flow = make_flow({("A", bad): (1.0, 1.0)}, nodes=("A", bad))
        with pytest.raises(PipelineError, match="node id"):
            write_flow(flow)  # before a first piece is asked for


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text(max_size=6), min_size=1, max_size=5, unique=True))
# characters at which str.splitlines, but not a file or a text, cuts a line
@example(["A\u2028B", "\vC", "D\f", "\x1cE\x1d", "\x1eF\x85", "G\u2029"])
def test_every_node_id_write_network_accepts_reads_back(tmp_path_factory,
                                                        names):
    net = make_network([(a, b, 1) for a, b in zip(names, names[1:])],
                       nodes=tuple(names))
    try:
        text = "".join(write_network(net))
    except PipelineError:
        return
    path = tmp_path_factory.getbasetemp() / "names.tsv"
    path.write_text(text, encoding="utf-8")
    for back in (read_network(text), cli._read(path, read_network)):
        assert network_fields(back) == network_fields(net)


def test_symmetrize_refuses_an_unknown_weight_mode():
    with pytest.raises(PipelineError, match="unknown weight mode 'x'"):
        symmetrize(make_network([("P", "Q", 1)]), "x")


def test_read_network_memory_is_bounded(tmp_path):
    # 108k edges over 12k nodes, a 2.6 MiB file. Splitting its whole text
    # traced 39.1 MiB; the chunked read of its lines traces 10.6 MiB.
    net = network_108k()
    path = tmp_path / "net.tsv"
    path.write_text("".join(write_network(net)), encoding="utf-8")
    with open(path, encoding="utf-8") as fh:
        back, peak = traced_peak(lambda: read_network(fh))
    assert back.nodes == net.nodes
    assert all(np.array_equal(getattr(back, name), getattr(net, name))
               for name in ("src", "dst", "count"))
    assert peak < 16 * 2**20


def test_read_network_of_a_text_peaks_as_of_its_lines():
    # io.StringIO over the whole 2.6 MiB text held a 4-byte-a-character
    # copy of it: 20.5 MiB traced, against 10.1 MiB for its lines
    net = network_108k()
    text = "".join(write_network(net))
    lines = text.splitlines(keepends=True)
    back, text_peak = traced_peak(lambda: read_network(text))
    _, lines_peak = traced_peak(lambda: read_network(iter(lines)))
    assert network_fields(back) == network_fields(net)
    assert text_peak < 1.2 * lines_peak


@pytest.mark.parametrize("writer, bound", [
    # traced peaks, whole text -> pieces: 11.8 -> 4.3 MiB and 9.3 -> 2.3 MiB
    (write_network, 6), (write_flow, 4)])
def test_network_writers_memory_is_bounded(writer, bound):
    net = network_108k()
    value = net if writer is write_network else symmetrize(net, "mean")
    size, peak = traced_peak(lambda: drained(writer(value)))
    assert size == len("".join(writer(value)))
    assert peak < bound * 2**20


def test_view_matches_the_adjacency():
    rng = random.Random(8)
    nodes = [f"N{i}" for i in range(7)]
    rng.shuffle(nodes)
    edges = [(a, b, rng.randint(1, 5)) for a in nodes for b in nodes
             if a != b and rng.random() < 0.4]
    rng.shuffle(edges)
    net = make_network(edges, nodes=nodes)
    v = net.view
    index = {node: i for i, node in enumerate(nodes)}
    assert list(zip(net.src.tolist(), net.dst.tolist(),
                    net.count.tolist())) == \
        sorted((index[a], index[b], c) for a, b, c in edges)
    pairs = sorted({tuple(sorted((index[a], index[b]))) for a, b, _ in edges})
    assert list(zip(v.lo.tolist(), v.hi.tolist())) == pairs
    for k, (lo, hi) in enumerate(pairs):
        assert v.fwd[k] == net.adjacency.get((nodes[lo], nodes[hi]), 0)
        assert v.back[k] == net.adjacency.get((nodes[hi], nodes[lo]), 0)
    assert (v.weight == v.fwd + v.back).all()
    for e, p in enumerate(v.pair.tolist()):
        assert {net.src[e], net.dst[e]} == {v.lo[p], v.hi[p]}


@st.composite
def fold_inputs(draw):
    """n, entries (a, b) with a != b below n, and one or two integer
    weight lists over the entries."""
    n = draw(st.integers(2, 12))
    node = st.integers(0, n - 1)
    entries = draw(st.lists(st.tuples(node, node).filter(
        lambda e: e[0] != e[1]), max_size=40))
    weight = st.lists(st.integers(-1000, 1000), min_size=len(entries),
                      max_size=len(entries))
    return n, entries, draw(st.lists(weight, min_size=1, max_size=2))


@settings(deadline=None)
@given(fold_inputs())
def test_fold_pairs_matches_a_dict_of_pair_sums(drawn):
    n, entries, weights = drawn
    a, b = (np.array([e[j] for e in entries], np.int64) for j in (0, 1))
    lo, hi, pair, *sums = netbuild._fold_pairs(a, b, n,
                                               *map(np.array, weights))
    want = {}  # (lo, hi) -> each weight's sum
    for e, (x, y) in enumerate(entries):
        key = (min(x, y), max(x, y))
        want[key] = [t + w[e] for t, w in
                     zip(want.get(key, [0] * len(weights)), weights)]
    keys = sorted(want)
    assert (lo < hi).all()
    assert list(zip(lo.tolist(), hi.tolist())) == keys
    assert [keys[p] for p in pair.tolist()] == \
        [(min(x, y), max(x, y)) for x, y in entries]
    assert len(sums) == len(weights)
    for j, total in enumerate(sums):
        assert total.tolist() == [want[key][j] for key in keys]

