import math
import random
from fractions import Fraction

import pytest

import qglab
from qglab import (MetricGraph, Step, build_lambda_subgraph, candidate_steps,
                   parse_graph, resonance_floor, simple_cycles)
from qglab.lengths import fraction_gcd

from conftest import mk, unit_grid
from randgraphs import all_steps, random_graph


def test_dumbbell_step_one(dumbbell):
    sub = build_lambda_subgraph(dumbbell, Step(Fraction(1), "one"))
    assert {e.id for e in sub.edges} == {"d1", "d2", "d3", "d4", "d5", "d6"}
    assert all(n == 1 for _, n in sub.members)


def test_dumbbell_step_half_sqrt3(dumbbell):
    sub = build_lambda_subgraph(dumbbell, Step(Fraction(1, 2), "sqrt3"))
    assert {e.id for e in sub.edges} == {"s1", "s2", "s3", "s4", "s5", "s6"}
    assert all(n == 2 for _, n in sub.members)


def test_unused_unit_gives_empty_subgraph(dumbbell):
    g = mk(["a", "b"], [("e", "a", "b", 1, "one")], {"one": 1.0, "ghost": 2.5})
    sub = build_lambda_subgraph(g, Step(Fraction(1), "ghost"))
    assert sub.is_empty()


def test_unknown_unit_rejected(dumbbell):
    with pytest.raises(KeyError):
        build_lambda_subgraph(dumbbell, Step(Fraction(1), "nope"))


# ---------------------------------------------------------------------------
# candidate steps


def test_dumbbell_first_four_candidates(dumbbell):
    cands = candidate_steps(dumbbell, 14)
    got = [(c.step.coeff, c.step.unit) for c in cands]
    assert got == [(Fraction(1), "sqrt3"), (Fraction(1, 2), "pi"),
                   (Fraction(1), "one"), (Fraction(1, 2), "sqrt3")]
    lams = [c.lam for c in cands]
    expected = [math.pi ** 2 / 3, 4.0, math.pi ** 2, 4 * math.pi ** 2 / 3]
    assert lams == pytest.approx(expected, rel=1e-12)


def test_single_edge_candidates():
    g = mk(["a", "b"], [("e", "a", "b", 1, "one")], {"one": 1.0})
    cands = candidate_steps(g, 50)
    assert [(c.step.coeff, c.step.unit) for c in cands] == \
        [(Fraction(1), "one"), (Fraction(1, 2), "one")]


def test_cutoff_below_smallest_lambda_is_empty():
    g = mk(["a", "b"], [("e", "a", "b", 1, "one")], {"one": 1.0})
    assert candidate_steps(g, math.pi ** 2 / 2) == []


def test_candidate_completeness_random():
    rng = random.Random(3)
    for _ in range(20):
        g = random_graph(rng)
        lam_max = 60.0
        cands = candidate_steps(g, lam_max)
        listed = {(c.step.coeff, c.step.unit) for c in cands}
        for c in cands:
            assert not build_lambda_subgraph(g, c.step).is_empty()
        # steps just off the list give empty subgraphs below the cutoff
        for step in all_steps(g, n_max=4):
            lam = step.lambda_value(g)
            if lam <= lam_max and (step.coeff, step.unit) not in listed:
                assert build_lambda_subgraph(g, step).is_empty()


# ---------------------------------------------------------------------------
# exactness


def test_membership_independent_of_approximations(dumbbell):
    perturbed = MetricGraph.build(
        dumbbell.vertices, dumbbell.edges,
        {t: a * (1 + 0.37 * i) for i, (t, a) in enumerate(dumbbell.units.entries)})
    for step in all_steps(dumbbell, n_max=6):
        a = build_lambda_subgraph(dumbbell, step)
        b = build_lambda_subgraph(perturbed, step)
        assert [(e.id, n) for e, n in a.members] == [(e.id, n) for e, n in b.members]


def test_monotone_nesting(dumbbell):
    base = Step(Fraction(1), "one")
    fine = Step(Fraction(1, 3), "one")
    coarse = build_lambda_subgraph(dumbbell, base)
    refined = build_lambda_subgraph(dumbbell, fine)
    counts = {e.id: n for e, n in refined.members}
    for e, n in coarse.members:
        assert counts[e.id] == 3 * n


def test_fraction_gcd():
    assert fraction_gcd(Fraction(3, 2), Fraction(1)) == Fraction(1, 2)
    assert fraction_gcd(Fraction(4, 3), Fraction(2, 3)) == Fraction(2, 3)
    assert fraction_gcd(Fraction(1, 6), Fraction(1, 4)) == Fraction(1, 12)


def test_gcd_law_on_floor_witness(dumbbell):
    floor = resonance_floor(dumbbell)
    u = floor.unit_length
    edges_by_id = {e.id: e for e in dumbbell.edges}
    for eid in floor.cycle.edge_ids():
        ratio = edges_by_id[eid].length.coeff / u.coeff
        assert ratio.denominator == 1
    # no larger rational multiple divides every edge of the witness cycle
    coeffs = [edges_by_id[eid].length.coeff for eid in floor.cycle.edge_ids()]
    g = coeffs[0]
    for c in coeffs[1:]:
        g = fraction_gcd(g, c)
    assert g == u.coeff


# ---------------------------------------------------------------------------
# resonance floor


def test_floor_loop_pendant(loop_pendant):
    floor = resonance_floor(loop_pendant)
    assert floor.lam == pytest.approx(math.pi ** 2, rel=1e-12)
    assert floor.unit_length == Step(Fraction(1), "one")


def test_floor_dumbbell(dumbbell):
    floor = resonance_floor(dumbbell)
    assert floor.lam == pytest.approx(math.pi ** 2 / 3, rel=1e-12)
    assert floor.unit_length == Step(Fraction(1), "sqrt3")


def test_floor_tree_is_infinite(path3):
    floor = resonance_floor(path3)
    assert math.isinf(floor.lam)
    assert floor.cycle is None


def test_floor_incommensurate_cycle():
    # triangle with mixed units has no commensurate cycle
    g = mk(["a", "b", "c"],
           [("e1", "a", "b", 1, "u1"), ("e2", "b", "c", 1, "u1"),
            ("e3", "c", "a", 1, "u2")],
           {"u1": 1.0, "u2": 1.4142135623730951})
    assert math.isinf(resonance_floor(g).lam)


BUNDLED = ("dumbbell.qg", "loop-pendant.qg", "triangle.qg", "tree.qg",
           "interval-pi.qg")


def floor_by_enumeration(graph):
    """Brute-force floor: largest common step over same-unit simple cycles."""
    edges = {e.id: e for e in graph.edges}
    best = None
    for cyc in simple_cycles(graph.vertices, graph.edges):
        units = {edges[eid].length.unit for eid in cyc.edge_ids()}
        if len(units) != 1:
            continue
        g = Fraction(0)
        for eid in cyc.edge_ids():
            g = fraction_gcd(g, edges[eid].length.coeff)
        step = Step(g, units.pop())
        if best is None or step.value(graph) > best.value(graph):
            best = step
    return best, (math.inf if best is None else best.lambda_value(graph))


def assert_witness(graph, floor):
    """The witness is a closed walk on one unit whose gcd is the floor step."""
    edges = {e.id: e for e in graph.edges}
    v = floor.cycle.start
    for eid, d in floor.cycle.steps:
        e = edges[eid]
        tail, head = (e.origin, e.terminus) if d > 0 else (e.terminus, e.origin)
        assert tail == v
        v = head
    assert v == floor.cycle.start
    assert {edges[eid].length.unit for eid in floor.cycle.edge_ids()} == \
        {floor.unit_length.unit}
    g = Fraction(0)
    for eid in floor.cycle.edge_ids():
        g = fraction_gcd(g, edges[eid].length.coeff)
    assert g == floor.unit_length.coeff


def test_floor_matches_cycle_enumeration():
    graphs = [parse_graph(qglab.bundled_graph_path(n)) for n in BUNDLED]
    for seed in (3, 7):
        rng = random.Random(seed)
        graphs += [random_graph(rng) for _ in range(120)]
    with_floor = 0
    for g in graphs:
        floor = resonance_floor(g)
        step, lam = floor_by_enumeration(g)
        assert floor.unit_length == step
        if step is None:
            assert math.isinf(floor.lam) and floor.cycle is None
            continue
        with_floor += 1
        assert floor.lam == pytest.approx(lam, rel=1e-12)
        assert_witness(g, floor)
    assert with_floor > 100


@pytest.mark.parametrize("n", [6, 12])
def test_floor_unit_grid(n):
    g = unit_grid(n)
    floor = resonance_floor(g)
    assert floor.lam == pytest.approx(math.pi ** 2, rel=1e-12)
    assert floor.unit_length == Step(Fraction(1), "one")
    assert_witness(g, floor)


def test_floor_triangle_strip_is_infinite():
    # 19 triangles sharing edges; edge j carries unit j mod 4, so every
    # triangle mixes units and no cycle is commensurate
    m = 19
    units = {"one": 1.0, "sqrt2": math.sqrt(2), "sqrt3": math.sqrt(3),
             "sqrt5": math.sqrt(5)}
    pairs = [(i, i + 1) for i in range(m + 1)] + [(i, i + 2) for i in range(m)]
    spec = [(f"t{a}_{b}", f"c{a}", f"c{b}", 1, list(units)[j % 4])
            for j, (a, b) in enumerate(pairs)]
    floor = resonance_floor(mk([f"c{i}" for i in range(m + 2)], spec, units))
    assert math.isinf(floor.lam)
    assert floor.unit_length is None and floor.cycle is None
