import math

import pytest

from sanctionflow import (InfluenceNetwork, PipelineError, PotentialVector,
                          RankVector, export_graph, layout, louvain,
                          potential_matrix, potential_table, read_edge_table,
                          scatter_data, solve, symmetrize,
                          write_potential_table, write_scatter)
from conftest import make_network


def potentials_for(net, mode="unit"):
    return solve(symmetrize(net, mode)).potentials


def test_single_node_at_origin():
    net = InfluenceNetwork("institution", ("A",), {})
    pv = PotentialVector(phi={"A": 0.0}, component={"A": 0})
    result = layout(net, pv, seed=1)
    assert result.positions == {"A": (0.0, 0.0)}


def test_y_is_exactly_the_potential(feed_forward_triangle):
    pv = potentials_for(feed_forward_triangle)
    result = layout(feed_forward_triangle, pv, seed=3)
    for node, (_, y) in result.positions.items():
        assert y == pv.phi[node]


def test_unconnected_equal_potential_nodes_separate():
    net = InfluenceNetwork("institution", ("A", "B"), {})
    pv = PotentialVector(phi={"A": 0.0, "B": 0.0}, component={"A": 0, "B": 1})
    result = layout(net, pv, seed=2, min_sep=1e-3)
    (xa, _), (xb, _) = result.positions["A"], result.positions["B"]
    assert abs(xa - xb) >= 1e-3


def test_energy_history_non_increasing(two_triangles):
    pv = potentials_for(two_triangles, mode="mean")
    result = layout(two_triangles, pv, seed=4)
    hist = result.energy_history
    assert len(hist) >= 2
    assert all(hist[i + 1] <= hist[i] for i in range(len(hist) - 1))


def test_layout_deterministic(feed_forward_triangle):
    pv = potentials_for(feed_forward_triangle)
    a = layout(feed_forward_triangle, pv, seed=9)
    b = layout(feed_forward_triangle, pv, seed=9)
    assert a == b


def test_jitter_bounded_and_targeted():
    import random as _random
    from sanctionflow.report import _apply_jitter
    positions = {"A": (0.0, 0.0), "B": (0.0, 0.0), "C": (9.0, 5.0)}
    out = _apply_jitter(positions, ["A", "B", "C"], jitter=0.01,
                        min_sep=1e-3, rng=_random.Random(1))
    # A and B coincide exactly; C is far from both
    for node in ("A", "B"):
        assert abs(out[node][1] - positions[node][1]) <= 0.01
    assert out["A"][1] != out["B"][1]
    assert out["C"] == (9.0, 5.0)


def test_zero_jitter_leaves_y_exact_even_with_overlaps():
    net = InfluenceNetwork("institution", ("A", "B"), {})
    pv = PotentialVector(phi={"A": 0.0, "B": 0.0}, component={"A": 0, "B": 1})
    result = layout(net, pv, seed=3, jitter=0.0)
    assert all(y == 0.0 for _, y in result.positions.values())


def test_missing_potential_errors(feed_forward_triangle):
    pv = PotentialVector(phi={"A": 0.0}, component={"A": 0})
    with pytest.raises(PipelineError):
        layout(feed_forward_triangle, pv)


def test_potential_table_sorted(feed_forward_triangle):
    d = solve(symmetrize(feed_forward_triangle, "unit"))
    rows = potential_table(d, highlight={"C"})
    assert [r.name for r in rows] == ["A", "B", "C"]
    assert [r.rank for r in rows] == [1, 2, 3]
    assert rows[2].highlighted
    text = write_potential_table(rows)
    assert "1,A,0.667," in text
    assert "3,C,-0.667,*" in text


def test_potential_table_tie_broken_by_name():
    d = solve(symmetrize(make_network([("B", "A", 1), ("B", "C", 1)]), "unit"))
    rows = potential_table(d)
    names = [r.name for r in rows if abs(r.potential - rows[-1].potential) < 1e-9]
    assert names == sorted(names)


def test_potential_matrix_marks_absent():
    d1 = solve(symmetrize(make_network([("A", "B", 1)]), "unit"))
    d2 = solve(symmetrize(make_network([("A", "C", 1)]), "unit"))
    grid = potential_matrix({"cat1": d1, "cat2": d2})
    assert grid[0] == ["name", "cat1", "cat2"]
    by_name = {row[0]: row[1:] for row in grid[1:]}
    assert by_name["B"][1] == "-"
    assert by_name["C"][0] == "-"
    assert by_name["A"] == ["0.500", "0.500"]


def test_scatter_constant_column_flag():
    rank = RankVector(scores={"A": 0.5, "B": 0.5}, damping=0.85,
                      iterations_used=1)
    pv = PotentialVector(phi={"A": 0.5, "B": -0.5}, component={"A": 0, "B": 0})
    data = scatter_data(rank, pv)
    assert data.constant_column
    assert data.correlation == 0.0
    assert "constant_column" in write_scatter(data)


def test_scatter_identical_vectors():
    rank = RankVector(scores={"A": 0.2, "B": 0.3, "C": 0.5}, damping=0.85,
                      iterations_used=1)
    pv = PotentialVector(phi={"A": 0.2, "B": 0.3, "C": 0.5},
                         component={"A": 0, "B": 0, "C": 0})
    data = scatter_data(rank, pv)
    assert data.correlation == pytest.approx(1.0)


def test_scatter_node_mismatch():
    rank = RankVector(scores={"A": 1.0}, damping=0.85, iterations_used=1)
    pv = PotentialVector(phi={"B": 0.0}, component={"B": 0})
    with pytest.raises(PipelineError):
        scatter_data(rank, pv)


def test_scatter_composed_from_modules(feed_forward_triangle):
    from sanctionflow import pagerank
    d = solve(symmetrize(feed_forward_triangle, "unit"))
    pr = pagerank(feed_forward_triangle)
    data = scatter_data(pr, d.potentials)
    assert len(data.rows) == 3
    assert not data.constant_column


def test_export_dot_minimal():
    net = make_network([("A", "B", 1)])
    doc = export_graph(net, format="dot")
    assert doc.startswith("digraph")
    assert '"A" -> "B"' in doc
    assert 'weight="1"' in doc


def test_edge_table_round_trip(feed_forward_triangle):
    d = solve(symmetrize(feed_forward_triangle, "unit"))
    part = louvain(feed_forward_triangle, seed=0)
    pv = d.potentials
    lay = layout(feed_forward_triangle, pv, seed=0)
    doc = export_graph(feed_forward_triangle, decomp=d, partition=part,
                       layout_result=lay, format="edge_table")
    assert read_edge_table(doc) == feed_forward_triangle
    # bare export round-trips too
    bare = export_graph(feed_forward_triangle, format="edge_table")
    assert read_edge_table(bare) == feed_forward_triangle


def test_json_graph_attributes(feed_forward_triangle):
    import json
    d = solve(symmetrize(feed_forward_triangle, "unit"))
    part = louvain(feed_forward_triangle, seed=0)
    doc = export_graph(feed_forward_triangle, decomp=d, partition=part,
                       format="json_graph")
    obj = json.loads(doc)
    assert {n["id"] for n in obj["nodes"]} == {"A", "B", "C"}
    for n in obj["nodes"]:
        assert "potential" in n and "community" in n
    assert len(obj["links"]) == 3
    for link in obj["links"]:
        assert math.isclose(link["F"], link["F_grad"] + link["F_circ"])


def test_unknown_format_errors(feed_forward_triangle):
    with pytest.raises(PipelineError):
        export_graph(feed_forward_triangle, format="gexf")


def test_read_edge_table_rejects_non_integer_count():
    doc = "A\t-\t-\t-\t-\nB\t-\t-\t-\t-\nA\tB\tx\t-\t1\t-\t-\n"
    with pytest.raises(PipelineError, match="line 3"):
        read_edge_table(doc)
