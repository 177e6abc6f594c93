import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

import qglab
from qglab import (Edge, ExactLength, MetricGraph, Step, UnitTable, parse_graph,
                   parse_graph_text, resonance_dimension, serialize_graph, validate)
from qglab.graphfile import GraphFileError
from qglab.spectral import _edge_arrays

from conftest import unit_grid
from randgraphs import random_graph


GOOD = """\
# a loop with a pendant edge
unit pi 3.141592653589793
unit one 1.0

vertex v
vertex w
edge e1 v w 1/1 pi   # the pendant
edge e2 w w 1/1 one
"""


def test_parse_basic():
    g = parse_graph_text(GOOD)
    assert g.vertices == ("v", "w")
    assert [e.id for e in g.edges] == ["e1", "e2"]
    assert g.edges[1].origin == g.edges[1].terminus
    assert g.edges[0].length.coeff == Fraction(1)
    assert g.units.approx("pi") == pytest.approx(3.141592653589793)


def test_roundtrip():
    g = parse_graph_text(GOOD)
    text = serialize_graph(g)
    h = parse_graph_text(text)
    assert h.vertices == g.vertices
    assert h.units.entries == g.units.entries
    assert [(e.id, e.origin, e.terminus, e.length) for e in h.edges] == \
        [(e.id, e.origin, e.terminus, e.length) for e in g.edges]


def test_roundtrip_bundled_files():
    for name in ("dumbbell.qg", "loop-pendant.qg", "interval-pi.qg",
                 "triangle.qg", "tree.qg"):
        g = parse_graph(qglab.bundled_graph_path(name))
        h = parse_graph_text(serialize_graph(g))
        assert serialize_graph(h) == serialize_graph(g)


def test_coefficient_forms_normalized():
    g = parse_graph_text("unit u 1.0\nvertex a\nvertex b\n"
                         "edge e1 a b 6/4 u\nedge e2 a b 3 u\n")
    assert g.edges[0].length.coeff == Fraction(3, 2)
    assert g.edges[1].length.coeff == Fraction(3)


def test_equal_coefficients_in_other_forms_share_a_value():
    # the parser keeps one length per coefficient text and unit; 6/4 and 3/2
    # are two texts of one value, and each edge reads it
    g = parse_graph_text("unit u 1.0\nvertex a\nvertex b\n"
                         "edge e1 a b 6/4 u\nedge e2 b a 3/2 u\nedge e3 a a 6/4 u\n")
    assert [e.length.coeff for e in g.edges] == [Fraction(3, 2)] * 3
    assert g.edges[0].length == g.edges[1].length
    assert g.edges[0].length is g.edges[2].length


def test_each_out_of_range_edge_reported_in_file_order():
    # validate ranges a shared length once but reports every edge that has it
    with pytest.raises(GraphFileError) as ei:
        parse_graph_text("unit one 1.0\nvertex a\nvertex b\n"
                         "edge y a b 1e200 one\nedge m a a 1 one\nedge x b b 1e200 one\n",
                         source="f.qg")
    wrong = "length 1e+200, outside [2.98e-154, 3.35e+153]"
    assert ei.value.errors == [f"f.qg: length-range: edge y has {wrong}",
                               f"f.qg: length-range: edge x has {wrong}"]


@pytest.mark.parametrize("coeff, error", [
    ("one", "bad coefficient 'one'"),
    ("0/3", "coefficient must be positive: 0/3"),
])
def test_repeated_bad_coefficient_reported_on_each_line(coeff, error):
    with pytest.raises(GraphFileError) as ei:
        parse_graph_text(f"unit u 1.0\nvertex a\nedge e1 a a {coeff} u\n"
                         f"edge e2 a a 1 u\nedge e3 a a {coeff} u\n")
    assert ei.value.errors == [f"<string>:3: {error}", f"<string>:5: {error}"]


def test_undeclared_vertex_has_line_number():
    with pytest.raises(GraphFileError) as ei:
        parse_graph_text("unit u 1.0\nvertex a\nedge e a zz 1/1 u\n", source="f.qg")
    assert any(e.startswith("f.qg:3:") and "zz" in e for e in ei.value.errors)


def test_undeclared_unit_rejected():
    with pytest.raises(GraphFileError) as ei:
        parse_graph_text("vertex a\nvertex b\nedge e a b 1/1 ghost\n")
    assert any("ghost" in e for e in ei.value.errors)


def test_multiple_errors_collected():
    bad = ("unit u 1.0\nunit u 2.0\nvertex a\nvertex a\n"
           "edge e a a 0/1 u\nfrobnicate\n")
    with pytest.raises(GraphFileError) as ei:
        parse_graph_text(bad)
    msgs = "\n".join(ei.value.errors)
    assert "duplicate unit" in msgs
    assert "duplicate vertex" in msgs
    assert "positive" in msgs
    assert "unknown directive" in msgs
    assert len(ei.value.errors) == 4


def test_bad_coefficient():
    with pytest.raises(GraphFileError):
        parse_graph_text("unit u 1.0\nvertex a\nvertex b\nedge e a b one u\n")
    with pytest.raises(GraphFileError):
        parse_graph_text("unit u 1.0\nvertex a\nvertex b\nedge e a b 1/0 u\n")


def test_grid_100_parse_and_step_one_linear():
    # 10,000 vertices and 19,800 edges: declaration lookups and the step
    # subgraph's vertex set are hashed, not scans of everything read so far
    text = serialize_graph(unit_grid(100))
    t0 = time.perf_counter()
    g = parse_graph_text(text)
    rep = resonance_dimension(g, Step(1, "one"))
    assert time.perf_counter() - t0 < 3.0
    assert (len(g.vertices), len(g.edges)) == (10_000, 19_800)
    assert rep.dim == rep.beta1 == 9801


def test_cycle_with_a_unit_per_edge_linear():
    # 8,000 edges, each in a unit of its own: unit lookups are hashed, not
    # scans of every declared unit
    n = 8000
    text = ("".join(f"unit u{i} {1 + i / n!r}\n" for i in range(n))
            + "".join(f"vertex c{i}\n" for i in range(n))
            + "".join(f"edge e{i} c{i} c{(i + 1) % n} 1 u{i}\n" for i in range(n)))
    t0 = time.perf_counter()
    g = parse_graph_text(text)
    ln = _edge_arrays(g)[2]
    assert time.perf_counter() - t0 < 0.5
    assert ln[-1] == g.units.approx(f"u{n - 1}") == 1 + (n - 1) / n


def test_undeclared_unit_lookup_raises():
    g = parse_graph_text("unit one 1.0\nvertex a\n")
    assert "one" in g.units and "two" not in g.units
    with pytest.raises(KeyError, match="unknown unit 'two'"):
        g.units.approx("two")


def test_negative_unit_approximation():
    with pytest.raises(GraphFileError):
        parse_graph_text("unit u -2.0\nvertex a\n")


@pytest.mark.parametrize("approx", ["nan", "inf", "-inf", "Infinity", "-nan"])
def test_non_finite_unit_approximation(approx):
    with pytest.raises(GraphFileError) as ei:
        parse_graph_text(f"vertex a\nunit u {approx}\n")
    assert ei.value.errors == [
        f"<string>:2: unit approximation must be positive and finite: {approx}"]


def test_wrong_arity_reports_expected_shape():
    with pytest.raises(GraphFileError) as ei:
        parse_graph_text("unit u 1.0 extra\n")
    assert "expected: unit" in ei.value.errors[0]


@pytest.mark.parametrize("line, error", [
    ("unit w x1", "bad unit approximation 'x1'"),
    ("vertex c d", "expected: vertex <id>"),
    ("edge e2 a b 1", "expected: edge <id> <from> <to> <p>/<q> <unit>"),
    ("edge e1 a b 2 u", "duplicate edge 'e1'"),
], ids=["unit-approximation", "vertex-arity", "edge-arity", "duplicate-edge"])
def test_bad_line_reported(line, error):
    with pytest.raises(GraphFileError) as ei:
        parse_graph_text(f"unit u 1.0\nvertex a\nvertex b\nedge e1 a b 1 u\n{line}\n")
    assert ei.value.errors == [f"<string>:5: {error}"]


def test_comments_and_blank_lines_ignored():
    g = parse_graph_text("\n# nothing\n   \nunit u 1.0\nvertex a\n")
    assert g.vertices == ("a",)
    assert g.edges == ()


# validate refuses every graph whose .qg file the parser would refuse

def _edge(eid, o, t, unit="u"):
    return Edge(eid, o, t, ExactLength(Fraction(1), unit))


@pytest.mark.parametrize("vertices, edges, units, problem", [
    (["", "b"], [_edge("e", "", "b")], {"u": 1.0}, "bad-name: vertex ''"),
    (["a b", "c"], [_edge("e", "a b", "c")], {"u": 1.0}, "bad-name: vertex 'a b'"),
    (["a#", "c"], [_edge("e", "a#", "c")], {"u": 1.0}, "bad-name: vertex 'a#'"),
    # --vertices splits on ',', so no selection could name this vertex
    (["a,b", "c"], [_edge("e", "a,b", "c")], {"u": 1.0}, "bad-name: vertex 'a,b'"),
    # --vertices auto is the automatic selection, so it could not select this vertex
    (["auto", "c"], [_edge("e", "auto", "c")], {"u": 1.0}, "bad-name: vertex 'auto'"),
    (["a", "b"], [_edge("", "a", "b")], {"u": 1.0}, "bad-name: edge ''"),
    (["a", "b"], [_edge("e\tf", "a", "b")], {"u": 1.0}, "bad-name: edge 'e\\tf'"),
    (["a", "b"], [_edge("#e", "a", "b")], {"u": 1.0}, "bad-name: edge '#e'"),
    (["a", "b"], [_edge("e", "a", "b", "")], [("", 1.0)], "bad-name: unit ''"),
    (["a", "b"], [_edge("e", "a", "b", "u v")], [("u v", 1.0)],
     "bad-name: unit 'u\\u2028v'"),
    (["a", "b"], [_edge("e", "a", "b", "u#")], [("u#", 1.0)], "bad-name: unit 'u#'"),
    (["a", "b"], [_edge("e", "a", "b")], [("u", 1.0), ("u", 2.0)], "duplicate-unit: u"),
    (["a"], [], [("u", 1.0), ("w", 0.0)], "unit-approx: unit w has 0.0"),
    (["a"], [], [("u", 1.0), ("w", math.inf)], "unit-approx: unit w has inf"),
    (["a"], [], [("u", 1.0), ("w", math.nan)], "unit-approx: unit w has nan"),
], ids=["empty-vertex", "space-vertex", "hash-vertex", "comma-vertex", "auto-vertex", "empty-edge",
        "tab-edge", "hash-edge", "empty-unit", "line-separator-unit", "hash-unit",
        "duplicate-unit", "zero-unit", "inf-unit", "nan-unit"])
def test_validate_refuses_what_a_file_cannot_hold(vertices, edges, units, problem):
    graph = MetricGraph.build(vertices, edges, UnitTable.of(units))
    assert any(p.startswith(problem) for p in validate(graph)), validate(graph)
    with pytest.raises(GraphFileError):
        parse_graph_text(serialize_graph(graph))


def test_edge_and_unit_names_keep_commas():
    # no option lists them, and the CSV writer quotes them
    g = parse_graph_text("unit u,v 1.0\nvertex a\nvertex b\nedge e,f a b 1 u,v\n")
    assert g.units.tokens() == ("u,v",) and [e.id for e in g.edges] == ["e,f"]


def test_serialize_parse_round_trip_over_random_graphs():
    # names of one token without '#', approximations of several float types
    rng = random.Random(4)
    alphabet = "abcxyz019_-./:é*"
    for i in range(300):
        g = random_graph(rng)
        name = {v: "".join(rng.choices(alphabet, k=rng.randint(1, 4))) + str(j)
                for j, v in enumerate(g.vertices)}
        kind = (float, np.float64, np.float32, int)[i % 4]
        units = UnitTable.of([(f"{t}{rng.choice(alphabet)}", kind(rng.uniform(1, 9)))
                              for t in g.units.tokens()])
        token = dict(zip(g.units.tokens(), units.tokens()))
        edges = [Edge(f"{e.id}/{rng.choice(alphabet)}", name[e.origin], name[e.terminus],
                      ExactLength(e.length.coeff, token[e.length.unit])) for e in g.edges]
        graph = MetricGraph.build([name[v] for v in g.vertices], edges, units)
        assert validate(graph) == []
        back = parse_graph_text(serialize_graph(graph))
        assert back == graph and serialize_graph(back) == serialize_graph(graph)
