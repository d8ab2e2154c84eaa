import csv
import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import sanctionflow.table
from sanctionflow import (CommunityPartition, EventParseError, FlowNetwork,
                          HodgeDecomposition, InfluenceNetwork, PipelineError,
                          PotentialVector, RankVector, hodge, potential_table,
                          scatter_data, symmetrize, write_partition,
                          write_potential_table, write_ranks, write_scatter)
from sanctionflow.table import (_LINE_CHUNK, Column, _cells, _lines, _rows,
                                _runs, preamble, read_node_columns, read_table,
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
        (_cells(IDS), k, [i / 3 for i in k])))
    back = read_table(text, ("node", "k", "v"), (str, int, float))
    assert back == [(node, i, i / 3) for i, node in enumerate(IDS)]
    # any RFC 4180 reader sees the same cells after the preamble
    lines = text.split("\n")[2:-1]
    assert [r[0] for r in csv.reader(lines)][1:] == IDS


def test_plain_cells_are_written_unquoted():
    text = "".join(write_columns(["meta"], ("node", "x"),
                                 (_cells(["A", "B"]), ["1.5", ""])))
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


def test_list_items_that_are_not_lines_are_read_as_csv_reader_reads_them():
    # one split of the joined chunk read [('A', '1B'), ('2', 'C')]
    with pytest.raises(EventParseError, match="^line 3: "):
        read_table(["node,x\n", "A,1", "B,2\nC\n"], ("node", "x"), (str, str))


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


@pytest.mark.parametrize("chunk", [1, 2, 3, None])
@settings(deadline=None, max_examples=400)
@given(_tables())
def test_column_readers_match_the_row_readers(chunk, table):
    # at a small chunk, a fault or a repeated key falls in a later chunk
    # than the rows before it, which are not read again, and one table
    # mixes split and csv.reader chunks
    net, text = table
    types = (str, int, finite)
    with pytest.MonkeyPatch.context() as patch:
        if chunk is not None:
            patch.setattr(sanctionflow.table, "_LINE_CHUNK", chunk)
        assert (_outcome(read_table, text, HEADER, types)
                == _outcome(read_table_reference, text, HEADER, types))
        assert _same(
            _outcome(read_node_columns, text, net.nodes, HEADER, (int, float)),
            _outcome(read_node_columns_reference, text, net.nodes, HEADER,
                     (int, finite)))
        got = _outcome(hodge.read_node_table, text, net)
        want = _outcome(read_node_table_reference, text, net)
        assert _same(got if isinstance(got, str) else (got.phi, got.component),
                     want if isinstance(want, str)
                     else (want.phi, want.component))


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


@pytest.mark.parametrize("text, message", [
    # a quote left open at the end takes in the last LF: line 3, not 4
    ('node,x\nA,1\n"B\n', "line 3: expected 2 fields (node,x), got 1"),
    ('node,x\n"A\n\n",1\n"B\n', "line 5: expected 2 fields (node,x), got 1"),
    # a fault in a row before a csv error comes first, in any chunk
    ("node,x\nA\nB,1\nC\rD,1\n", "line 2: expected 2 fields (node,x), got 1"),
    ("node,x\nA,1\nB,1\nC\rD,1\n", "line 4: new-line character seen in "
     "unquoted field")])
@pytest.mark.parametrize("chunk", [1, 2, 256])
def test_faults_around_open_quotes_and_csv_errors_name_their_line(text,
                                                                 message,
                                                                 chunk):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sanctionflow.table, "_LINE_CHUNK", chunk)
        for read in (read_table, read_table_reference):
            with pytest.raises(PipelineError) as info:
                read(text, ("node", "x"), (str, int))
            assert str(info.value).startswith(message)


# Lines of a CSV text, each a piece and a line end: clean rows of one to
# three cells, quoted cells holding a comma, LF or CR, blank and
# whitespace-only lines, a NUL, a quote in an unquoted cell, a bare CR (a
# csv error), a quote left open and a field over a lowered field limit.
_PIECES = ("a,b", "c,d,e", "x", "", "  ", '"a,b",c', '"a\nb",c', '"c\rd"',
           "e\x00,f", 'g"h,i', "a\rb", '"open', "q" * 30)


@st.composite
def _csv_texts(draw):
    lines = draw(st.lists(st.tuples(st.sampled_from(_PIECES),
                                    st.sampled_from(["\n"] * 4 + ["\r\n"])),
                          max_size=12))
    if lines and draw(st.booleans()):
        lines[-1] = (lines[-1][0], "")  # a last line without a line end
    return "".join(piece + end for piece, end in lines)


def _csv_reader_rows(lines):
    """csv.reader's rows of ``lines`` after 3 lines, each with its last
    line, to a csv error, and the error's line and text (or None)."""
    reader, rows = csv.reader(lines), []
    try:
        for row in reader:
            rows.append((row, 3 + reader.line_num))
    except csv.Error as exc:
        return rows, (3 + reader.line_num, f"line {3 + reader.line_num}: {exc}")
    return rows, None


@pytest.mark.parametrize("chunk", [1, 2, 3, None])
@settings(deadline=None, max_examples=300)
@given(_csv_texts(), st.sampled_from([24, None]))
def test_runs_read_the_rows_and_lines_of_csv_reader(chunk, text, limit):
    old = csv.field_size_limit()
    try:
        if limit is not None:
            csv.field_size_limit(limit)
        with pytest.MonkeyPatch.context() as patch:
            if chunk is not None:
                patch.setattr(sanctionflow.table, "_LINE_CHUNK", chunk)
            # the text, and its lines without their LFs
            for lines in (io.StringIO(text).readlines(), text.split("\n")):
                rows, error = [], None
                try:
                    for cells, ends in _runs(iter(lines), 3):
                        assert 0 < len(ends) <= sanctionflow.table._LINE_CHUNK
                        assert all(len(c) == len(ends) for c in cells)
                        rows += zip(([c[k] for c in cells]
                                     for k in range(len(ends))), ends)
                except EventParseError as exc:
                    error = exc.line, str(exc)
                assert (rows, error) == _csv_reader_rows(lines)
    finally:
        csv.field_size_limit(old)


# TSV rows: a quote, a comma or a '#' is a plain character of a cell
_TSV_ROWS = st.one_of(
    st.lists(st.sampled_from(["a", "", " ", "#", "#a", "b#", '"', '"a"',
                              'a"b', "a,b", ","]),
             min_size=1, max_size=4).map("\t".join),
    st.sampled_from(["", " ", "  "]))


@pytest.mark.parametrize("chunk", [1, 2, 3])
@settings(deadline=None, max_examples=200)
@given(st.lists(_TSV_ROWS, max_size=12), st.booleans())
def test_runs_read_tsv_rows_as_a_split_of_each_line(chunk, rows, last_end):
    text = "\n".join(rows) + ("\n" if last_end and rows else "")
    lines = io.StringIO(text).readlines()
    # a blank line has no cell, as csv.reader reads it
    want = [(line.removesuffix("\n").split("\t") if line != "\n" else [], k)
            for k, line in enumerate(lines, 1)]
    got = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sanctionflow.table, "_LINE_CHUNK", chunk)
        for cells, ends in _runs(iter(lines), 0, "\t"):
            assert 0 < len(ends) <= chunk
            assert all(len(c) == len(ends) for c in cells)
            got += zip(([c[k] for c in cells] for k in range(len(ends))), ends)
    assert got == want


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
    lines = text.splitlines(keepends=True)
    back, lines_peak = traced_peak(lambda: hodge.read_node_table(lines, net))
    assert np.array_equal(back.phi, decomp.potentials.phi)
    assert write_peak < 18 * 2**20
    assert read_peak < 24 * 2**20
    assert lines_peak < 20 * 2**20


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


# ---------------------------------------------------------------------------
# The one row writer against per-value formatting.

_ROW_VALUES = {
    "float": st.one_of(st.floats(), st.sampled_from(
        [-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e-310, 1e308,
         -1e308])),
    "int": st.one_of(st.integers(-2 ** 63, 2 ** 63 - 1),
                     st.sampled_from([0, -1, 2 ** 63 - 1])),
    "name": st.one_of(st.text(max_size=4), st.sampled_from(
        IDS + ["a\0", "x\0\0", ",", '"']))}


@st.composite
def _row_tables(draw):
    """Columns of drawn kinds, each in a form ``_rows`` takes, a separator,
    and the lines per-value formatting makes of them."""
    n = draw(st.integers(0, 7))
    kinds = draw(st.lists(st.sampled_from(sorted(_ROW_VALUES)),
                          min_size=1, max_size=4))
    values = [draw(st.lists(_ROW_VALUES[kind], min_size=n, max_size=n))
              for kind in kinds]
    values = [_cells(v) if kind == "name" else v
              for kind, v in zip(kinds, values)]  # names pre-quoted
    order = draw(st.one_of(st.none(), st.permutations(range(n)).map(
        lambda p: np.array(p, np.int64))))
    # in no order: arrays, lists, tuples, or Columns whose codes may repeat
    # and come in any order; in an order: Columns of it
    columns, picks = [], []
    for kind, v in zip(kinds, values):
        array = np.array(v, {"float": float, "int": np.int64,
                             "name": object}[kind])
        codes = order if order is not None else np.array(draw(st.lists(
            st.integers(0, max(n - 1, 0)), min_size=n, max_size=n)), np.int64)
        columns.append(Column(array, codes) if order is not None else
                       draw(st.sampled_from(
                           [array, v, tuple(v), Column(array, codes)])))
        picks.append(codes.tolist() if isinstance(columns[-1], Column)
                     else range(n))
    sep = draw(st.sampled_from([",", "\t"]))
    lines = [sep.join(format(v[k], ".17g") if kind == "float" else str(v[k])
                      for kind, v, k in zip(kinds, values, row)) + "\n"
             for row in zip(*picks)]
    return columns, sep, lines


@pytest.mark.parametrize("chunk", [1, 2, 3, None])
@settings(deadline=None, max_examples=150)
@given(_row_tables())
# names and ints only: each piece joins its cells, with no format per line
@example(([Column(np.array(["b", '"c,d"'], object), np.array([1, 0, 1])),
           np.array([7, -1, 0])], "\t", ['"c,d"\t7\n', "b\t-1\n",
                                        '"c,d"\t0\n']))
def test_rows_match_per_value_formatting(chunk, table):
    columns, sep, lines = table
    with pytest.MonkeyPatch.context() as patch:
        if chunk is not None:
            patch.setattr(sanctionflow.table, "_ROW_CHUNK", chunk)
        size = sanctionflow.table._ROW_CHUNK
        assert list(_rows(columns, sep)) == [
            "".join(lines[lo:lo + size]) for lo in range(0, len(lines), size)]
