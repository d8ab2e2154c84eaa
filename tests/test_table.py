import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sanctionflow.table
from sanctionflow import (CommunityPartition, FlowNetwork, HodgeDecomposition,
                          InfluenceNetwork, PipelineError, PotentialVector,
                          RankVector, hodge, potential_table, scatter_data,
                          symmetrize, write_partition, write_potential_table,
                          write_ranks, write_scatter)
from sanctionflow.table import (_LINE_CHUNK, _cells, _lines, preamble,
                                read_node_columns, read_table,
                                write_columns, write_node_columns)
from conftest import drained, make_network, network_108k, traced_peak
from oracles import (components_reference, finite,
                     read_node_columns_reference,
                     read_node_table_reference, read_table_reference,
                     write_table_reference)

IDS = ["Korea, Republic of", "node", "#Other", 'say "hi"', "a b", "é"]


def test_round_trip_of_awkward_identifiers():
    k = list(range(len(IDS)))
    text = "".join(write_columns(
        ["tool 1", 'flags --x="a,b"'], ("node", "k", "v"),
        (_cells(IDS), k, [i / 3 for i in k]), ("", "", ".17g")))
    back = read_table(text, ("node", "k", "v"), (str, int, float))
    assert back == [(node, i, i / 3) for i, node in enumerate(IDS)]
    # any RFC 4180 reader sees the same cells after the preamble
    lines = text.split("\n")[2:-1]
    assert [r[0] for r in csv.reader(lines)][1:] == IDS


def test_plain_cells_are_written_unquoted():
    text = "".join(write_columns(["meta"], ("node", "x"),
                                 (_cells(["A", "B"]), ["1.5", ""]), ("", "")))
    assert text == "# meta\nnode,x\nA,1.5\nB,\n"
    assert preamble(["a", "b"]) == "# a\n# b\n"


def test_blank_and_hash_lines_are_comments_only_before_the_header():
    text = "\n# one\n#two\nnode,x\n#3,1\n"
    assert read_table(text, ("node", "x"), (str, int)) == [("#3", 1)]
    with pytest.raises(PipelineError, match="line 6: expected 2 fields"):
        read_table(text + "\n", ("node", "x"), (str, int))


def test_header_must_match():
    with pytest.raises(PipelineError, match="line 2: expected header node,x"):
        read_table("# m\nA,1\n", ("node", "x"), (str, int))
    with pytest.raises(PipelineError, match="line 1: expected header"):
        read_table("", ("node", "x"), (str, int))


def test_bad_value_names_line_and_column():
    text = "node,component,potential\nA,0,0.5\nB,x,1\n"
    with pytest.raises(PipelineError, match="line 3: column 'component'"):
        read_table(text, ("node", "component", "potential"), (str, int, float))


def test_wrong_field_count_names_line():
    with pytest.raises(PipelineError, match="line 3: expected 2 fields"):
        read_table("node,x\nA,1\nB,2,3\n", ("node", "x"), (str, int))


def test_line_numbers_count_physical_lines():
    text = 'node,x\n"multi\nline",1\nB,oops\n'
    with pytest.raises(PipelineError, match="line 4: column 'x'"):
        read_table(text, ("node", "x"), (str, int))


def test_repeated_key_names_its_second_line():
    text = 'node,x\nA,1\n"multi\nline",2\nA,3\n'
    with pytest.raises(PipelineError, match="line 5: repeated node 'A'"):
        read_table(text, ("node", "x"), (str, int))


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "1e999"])
def test_finite_refuses_nan_and_infinities(cell):
    with pytest.raises(PipelineError, match="line 2: column 'x': bad value"):
        read_table(f"node,x\nA,{cell}\n", ("node", "x"), (str, finite))


def test_node_columns_come_in_node_order():
    text = "node,k,x\nA,1,0.5\nB,2,-1\nC,3,2.5\n"
    k, x = read_node_columns(text, ("C", "A", "B"), ("node", "k", "x"),
                             (int, finite))
    assert k.tolist() == [3, 1, 2] and x.tolist() == [2.5, 0.5, -1.0]
    with pytest.raises(PipelineError, match="line 3: column 'node': bad "
                                            "value 'B'"):
        read_node_columns(text, ("C", "A"), ("node", "k", "x"), (int, finite))
    with pytest.raises(PipelineError, match=r"no row for node\(s\) \['D'\]"):
        read_node_columns(text, ("A", "B", "C", "D"), ("node", "k", "x"),
                          (int, finite))


# ---------------------------------------------------------------------------
# The column reader against the row-at-a-time reader it replaced.

HEADER = ("node", "component", "potential")
# names with commas, quotes, line breaks, '#' and spaces among unicode
_NAMES = st.lists(st.text(st.one_of(
    st.sampled_from(list(',"\n\r# é')),
    st.characters(blacklist_categories=("Cs",))), max_size=4),
    min_size=1, max_size=5, unique=True)
_NUMBERS = st.one_of(
    st.sampled_from(["nan", "NaN", "inf", "-inf", "1e999", "-0.0", "x", "",
                     " 1", "1_0"]),
    st.floats().map(repr), st.integers(-2, 3).map(str))
_FLOATS = st.floats(allow_nan=False, allow_infinity=False).map(repr)
_FAULTS = ("blank", "short", "long", "node", "component", "potential",
           "repeat", "drop")


@st.composite
def _tables(draw):
    """A network, and a node table over its nodes in any order: one good
    row per node, then a few faults (blank lines, wrong field counts,
    unknown names, bad numbers, wrong labels, repeated or missing rows),
    written with either quoting."""
    nodes = draw(_NAMES)
    edges = draw(st.lists(st.tuples(st.sampled_from(nodes),
                                    st.sampled_from(nodes)), max_size=6))
    net = make_network([(a, b, 1) for a, b in dict.fromkeys(edges) if a != b],
                       nodes=nodes)
    label = components_reference(len(nodes), net.view.lo, net.view.hi)
    rows = [[nodes[k], str(label[k]), draw(_FLOATS)]
            for k in draw(st.permutations(range(len(nodes))))]
    for fault in draw(st.lists(st.sampled_from(_FAULTS), max_size=3)):
        at = draw(st.integers(0, len(rows)))
        row = [nodes[0], "0", "0.5"]
        if at < len(rows) and len(rows[at]) == 3:
            row = list(rows[at])
        if fault == "blank":
            rows.insert(at, [])
        elif fault in ("short", "long"):
            rows.insert(at, row[:2] if fault == "short" else row + ["1"])
        elif fault == "repeat":
            rows.insert(at, row)
        elif fault == "drop":
            del rows[at:at + 1]
        else:
            k = HEADER.index(fault)
            row[k] = draw(st.text(max_size=2) if k == 0 else _NUMBERS)
            rows[at:at + 1] = [row]
    buf = io.StringIO()
    buf.write(draw(st.sampled_from(["", "# meta\n", "\n#x\n"])))
    writer = csv.writer(buf, lineterminator="\n", quoting=draw(
        st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL])))
    writer.writerow(draw(st.sampled_from([HEADER] * 9 + [("node", "x")])))
    writer.writerows(rows)
    return net, buf.getvalue()


def _outcome(read, *args):
    """What ``read`` returns, or the text of its PipelineError."""
    try:
        return read(*args)
    except PipelineError as exc:
        return str(exc)


def _same(got, want):
    if isinstance(want, str):
        return got == want
    return len(got) == len(want) and all(
        np.array_equal(a, b) and a.dtype == b.dtype for a, b in zip(got, want))


@settings(deadline=None, max_examples=400)
@given(_tables())
def test_column_readers_match_the_row_readers(table):
    net, text = table
    types = (str, int, finite)
    assert (_outcome(read_table, text, HEADER, types)
            == _outcome(read_table_reference, text, HEADER, types))
    assert _same(
        _outcome(read_node_columns, text, net.nodes, HEADER, (int, float)),
        _outcome(read_node_columns_reference, text, net.nodes, HEADER,
                 (int, finite)))
    got = _outcome(hodge.read_node_table, text, net)
    want = _outcome(read_node_table_reference, text, net)
    assert _same(got if isinstance(got, str) else (got.phi, got.component),
                 want if isinstance(want, str) else (want.phi, want.component))


def test_a_fault_after_a_multi_line_cell_names_its_physical_line():
    net = make_network([("a\nb", "c,d", 1)])
    text = "".join(hodge.write_node_table(
        hodge.solve(symmetrize(net, "unit"))))
    assert text.count("\n") == 4  # header, two rows, one quoted LF
    head, _, last = text.rpartition(",0,")
    bad = f"{head},1,{last}"  # the row after the quoted LF
    for read in (hodge.read_node_table, read_node_table_reference):
        with pytest.raises(PipelineError, match="line 4: column 'component'"):
            read(bad, net)


@settings(deadline=None, max_examples=300)
@given(_tables(), st.sampled_from([1, 2, 3]))
def test_column_readers_match_the_row_readers_across_chunks(table, chunk):
    # a fault, or a repeated key, falls in a later chunk than the rows
    # before it, which are not read again
    net, text = table
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sanctionflow.table, "_LINE_CHUNK", chunk)
        assert (_outcome(read_table, text, HEADER, (str, int, finite))
                == _outcome(read_table_reference, text, HEADER,
                            (str, int, finite)))
        assert _same(
            _outcome(read_node_columns, text, net.nodes, HEADER, (int, float)),
            _outcome(read_node_columns_reference, text, net.nodes, HEADER,
                     (int, finite)))


def test_a_late_fault_is_named_without_reading_the_table_again():
    # 100k rows whose last x is nan: reading all of them again one by one
    # to name line 100001 converted every cell twice
    n = 100_000
    nodes = tuple(f"n{k:06d}" for k in range(n))
    text = "node,x\n" + "".join(f"{v},{k}.5\n" for k, v in
                                enumerate(nodes[:-1])) + f"{nodes[-1]},nan\n"
    calls = 0

    def counted(cell):
        nonlocal calls
        calls += 1
        return float(cell)

    with pytest.raises(PipelineError, match=f"line {n + 1}: column 'x': "
                                            "bad value 'nan'"):
        read_node_columns(text, nodes, ("node", "x"), (counted,))
    assert calls < n + 2 * _LINE_CHUNK


@pytest.mark.parametrize("rows, message", [
    # a repeated key in a chunk before the faulty one comes first
    ([*(f"n{k},1" for k in range(600)), "n3,1", *(f"m{k},1" for k in range(
        300)), "x,oops"], "line 602: repeated node 'n3'"),
    ([*(f"n{k},1" for k in range(600)), "x,oops", "n3,1"],
     "line 602: column 'x': bad value 'oops'"),
    ([*(f"n{k},1" for k in range(600)), "n599,1"],
     "line 602: repeated node 'n599'")])
def test_faults_in_later_chunks_keep_their_precedence(rows, message):
    with pytest.raises(PipelineError) as info:
        read_table("node,x\n" + "\n".join(rows) + "\n", ("node", "x"),
                   (str, int))
    assert str(info.value) == message


def test_node_table_reading_and_writing_memory_is_bounded():
    # 100k nodes in 50k two-node components; the text is 1.8 MiB. The
    # row-at-a-time reader traced 33.2 MiB and the row writer 24.3 MiB.
    n = 100_000
    src = np.arange(0, n, 2)
    net = InfluenceNetwork("institution",
                           tuple(f"inst{k:06d}" for k in range(n)),
                           src, src + 1, np.ones(len(src), np.int64))
    decomp = hodge.solve(symmetrize(net, "mean"))
    text, write_peak = traced_peak(lambda: "".join(hodge.write_node_table(decomp)))
    back, read_peak = traced_peak(lambda: hodge.read_node_table(text, net))
    assert np.array_equal(back.phi, decomp.potentials.phi)
    assert write_peak < 18 * 2**20
    assert read_peak < 24 * 2**20


def test_pair_table_writing_memory_is_bounded():
    # 108k edges on 54k pairs; the whole text traced 14.4 MiB, its pieces
    # 2.6 MiB
    decomp = hodge.solve(symmetrize(network_108k(), "mean"))
    size, peak = traced_peak(lambda: drained(hodge.write_pair_table(decomp)))
    assert size == len("".join(hodge.write_pair_table(decomp)))
    assert peak < 4 * 2**20


# ---------------------------------------------------------------------------
# The column writers against csv.writer. The canonical event file's cells
# are checked against its csv.writer reference in test_events.

AWKWARD = ("Korea, Republic of", 'say "hi"', "#x", "é", "", "a\nb", "c\rd",
           "plain")
_ANY_FLOAT = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, 1e-310, 1e308, -1e308, 0.0005, -0.0005]))


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_column_writers_match_csv_writer(data):
    nodes = tuple(data.draw(st.permutations(AWKWARD)))
    n = len(nodes)

    def floats():
        return np.array(data.draw(st.lists(_ANY_FLOAT, min_size=n,
                                           max_size=n)))

    phi, pr, x, y = floats(), floats(), floats(), floats()
    comp = np.array(data.draw(st.lists(st.integers(0, 9), min_size=n,
                                       max_size=n)))
    pairs = sorted(data.draw(st.sets(st.tuples(
        st.integers(0, n - 2), st.integers(1, n - 1)).filter(
        lambda t: t[0] < t[1]), max_size=10)))
    m = len(pairs)
    lo, hi = (np.array([p[k] for p in pairs], np.int64) for k in (0, 1))
    F, g, c = (np.array(data.draw(st.lists(_ANY_FLOAT, min_size=m,
                                           max_size=m))) for _ in range(3))
    w = np.array(data.draw(st.lists(st.floats(5e-324, 1e308), min_size=m,
                                    max_size=m)))
    decomp = HodgeDecomposition(PotentialVector(phi, comp),
                                FlowNetwork(nodes, lo, hi, F, w, "mean"),
                                g, c, 0.25, 0.75, 1e-12)
    by_name = sorted(range(n), key=nodes.__getitem__)
    g17 = "{:.17g}".format

    assert "".join(hodge.write_node_table(decomp)) == write_table_reference(
        (), ("node", "component", "potential"),
        [(nodes[k], comp[k], g17(phi[k])) for k in by_name])
    assert "".join(hodge.write_pair_table(decomp)) == write_table_reference(
        (), ("i", "j", "F", "w", "F_grad", "F_circ"),
        sorted((nodes[i], nodes[j], *map(g17, (F[k], w[k], g[k], c[k])))
               for k, (i, j) in enumerate(pairs)))
    assert "".join(write_ranks(RankVector(pr, 0.85, 1), nodes)) == \
        write_table_reference((), ("node", "pagerank"),
                              [(nodes[k], g17(pr[k])) for k in by_name])
    partition = CommunityPartition(dict(zip(nodes, comp.tolist())), 0.5,
                                   1.0, 3)
    assert "".join(write_partition(partition)) == write_table_reference(
        ["Q\t0.5\tresolution\t1\tseed\t3"], ("node", "community"),
        sorted(partition.assignment.items()))
    # the layout stage's layout.csv
    assert "".join(write_node_columns((), ("node", "x", "y"), nodes, x, y)) == \
        write_table_reference((), ("node", "x", "y"), [
            (nodes[k], g17(x[k]), g17(y[k])) for k in by_name])

    marked = set(data.draw(st.sets(st.sampled_from(nodes))))
    ranked = sorted(zip(nodes, phi.tolist()),
                    key=lambda t: (-float(f"{t[1]:.3f}"), t[0]))
    assert "".join(write_potential_table(potential_table(decomp, marked))) == \
        write_table_reference((), ("rank", "name", "potential", "highlighted"),
                              [(i, node, f"{v:.3f}", "*" if node in marked
                                else "") for i, (node, v) in
                               enumerate(ranked, 1)])

    with np.errstate(all="ignore"):  # a correlation may overflow to nan
        scatter = scatter_data(nodes, pr, phi)
    flag = "\tconstant_column" if scatter.constant_column else ""
    assert scatter.rows == [(nodes[k], pr[k], phi[k]) for k in by_name]
    if not scatter.constant_column:
        with np.errstate(all="ignore"):
            want = float(np.corrcoef(pr[by_name], phi[by_name])[0, 1])
        assert f"{scatter.correlation:.17g}" == f"{want:.17g}"
    assert "".join(write_scatter(scatter)) == write_table_reference(
        [f"pearson\t{scatter.correlation:.17g}{flag}"],
        ("node", "pagerank", "potential"),
        [(nodes[k], g17(pr[k]), g17(phi[k])) for k in by_name])


@settings(deadline=None, max_examples=40)
@given(st.lists(st.sampled_from(["", "a", "\n", "\r", "\r\n", '"q,\n"',
                                 "x" * 30_000, "y" * 65_536]), max_size=12))
def test_a_text_has_the_lines_of_io_stringio(parts):
    # slices of the text cross 64 Ki characters only at a line end
    text = "".join(parts)
    assert list(_lines(text)) == list(io.StringIO(text))
