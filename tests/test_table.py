import csv
import io

import pytest

from sanctionflow import PipelineError
from sanctionflow.table import (finite, preamble, read_node_columns,
                                read_table, write_table)

IDS = ["Korea, Republic of", "node", "#Other", 'say "hi"', "a b", "é"]


def test_round_trip_of_awkward_identifiers():
    rows = [(node, i, f"{i / 3:.17g}") for i, node in enumerate(IDS)]
    text = write_table(["tool 1", 'flags --x="a,b"'], ("node", "k", "v"), rows)
    back = read_table(text, ("node", "k", "v"), (str, int, float))
    assert back == [(node, i, i / 3) for i, node in enumerate(IDS)]
    # any RFC 4180 reader sees the same cells after the preamble
    lines = text.split("\n")[2:-1]
    assert [r[0] for r in csv.reader(lines)][1:] == IDS


def test_plain_cells_are_written_unquoted():
    text = write_table(["meta"], ("node", "x"), [("A", "1.5"), ("B", "")])
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
