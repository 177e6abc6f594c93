import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

import qglab
from qglab import (ExactLength, MetricGraph, Step, betti, build_lambda_subgraph,
                   candidate_steps, parse_graph, resonance_floor)
from qglab.lengths import MAX_FLOOR_POPS, _unit_multiples, fraction_gcd, step_table

from conftest import floor_over_cap, mk, unit_grid
from fraction_steps import candidate_steps_reference
from randgraphs import all_steps, is_simple_cycle, random_graph


def test_step_is_exact_length():
    assert Step is ExactLength
    assert Step("6/4", "u") == ExactLength(Fraction(3, 2), "u")
    assert str(Step("6/4", "u")) == "3/2*u"


@pytest.mark.parametrize("coeff", [0, -1, Fraction(-1, 2)])
def test_nonpositive_step_rejected(coeff):
    with pytest.raises(ValueError, match="coefficient must be positive"):
        Step(coeff, "u")


@pytest.mark.parametrize("text", ["1/0", "abc"])
def test_unreadable_coefficient_named(text):
    with pytest.raises(ValueError, match=f"^bad coefficient '{text}'$"):
        Step(text, "u")


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
    assert not sub.members


def test_unknown_unit_rejected(dumbbell):
    with pytest.raises(ValueError, match="step unit 'nope' not declared"):
        build_lambda_subgraph(dumbbell, Step(Fraction(1), "nope"))


# ---------------------------------------------------------------------------
# candidate steps


def test_dumbbell_first_four_candidates(dumbbell):
    cands = candidate_steps(dumbbell, 14)
    assert cands == [Step(1, "sqrt3"), Step(Fraction(1, 2), "pi"),
                     Step(1, "one"), Step(Fraction(1, 2), "sqrt3")]
    lams = [s.lambda_value(dumbbell.units) for s in cands]
    assert lams == sorted(lams)
    expected = [math.pi ** 2 / 3, 4.0, math.pi ** 2, 4 * math.pi ** 2 / 3]
    assert lams == pytest.approx(expected, rel=1e-12)


def test_single_edge_candidates():
    g = mk(["a", "b"], [("e", "a", "b", 1, "one")], {"one": 1.0})
    cands = candidate_steps(g, 50)
    assert [(s.coeff, s.unit) for s in cands] == \
        [(Fraction(1), "one"), (Fraction(1, 2), "one")]


@pytest.mark.parametrize("lambda_max", [30.0, 200.0, 1000.0])
def test_candidate_steps_match_fraction_reference(lambda_max):
    # same steps in the same order, ties in lambda included: the units
    # "one" and "same" share an approximation, so 1*one and 1*same tie
    graphs = [parse_graph(qglab.bundled_graph_path(n)) for n in BUNDLED]
    graphs.append(mk(["a", "b", "c"],
                     [("x", "a", "b", 3, "same"), ("y", "b", "c", 1, "one"),
                      ("z", "c", "a", Fraction(1, 2), "same"), ("w", "a", "a", 2, "one")],
                     {"one": 1.0, "same": 1.0}))
    rng = random.Random(17)
    graphs += [random_graph(rng) for _ in range(150)]
    ties = 0
    for g in graphs:
        got = candidate_steps(g, lambda_max)
        assert got == candidate_steps_reference(g, lambda_max), g
        lams = [s.lambda_value(g.units) for s in got]
        ties += sum(a == b for a, b in zip(lams, lams[1:]))
    assert ties > 0


def test_step_at_lambda_max_is_kept():
    # lambda_max is lambda of 7/13648*r2 = (7/4*r2)/3412, and x/smin there
    # is 3411.9999999999986: an absolute slack of 1e-12 on the last n left
    # the step out (4873 steps); lambda_max one ulp lower leaves it out
    g = mk(["a", "b"], [("e", "a", "b", Fraction(7, 4), "r2"), ("f", "a", "b", 1, "r2")],
           {"r2": 1.4142135623730951})
    step = Step(Fraction(7, 13648), "r2")
    lam = step.lambda_value(g.units)
    assert lam == 18759086.990817238
    got = candidate_steps(g, lam)
    assert len(got) == 4874 and got[-1] == step
    assert got == candidate_steps_reference(g, lam)
    below = candidate_steps(g, math.nextafter(lam, 0))
    assert below == got[:-1] == candidate_steps_reference(g, math.nextafter(lam, 0))


def test_step_estimate_corrected_down(unit_loop):
    # one ulp below lambda(1/3*one) = 9 pi^2, x/smin rounds to 3.0: the
    # estimate n = 3 is one too many and the table stops at n = 2
    lam = math.nextafter(9 * math.pi ** 2, 0)
    assert lam == 88.82643960980421
    assert 1.0 / (math.pi / math.sqrt(lam)) == 3.0
    got = candidate_steps(unit_loop, lam)
    assert [str(s) for s in got] == ["1*one", "1/2*one"]
    assert got == candidate_steps_reference(unit_loop, lam)


def test_table_values_are_the_steps_bits():
    # the table's s and lambda, from the integer keys, are bit for bit
    # Step.value and Step.lambda_value; coefficients that reduce (6/4, 10/4),
    # gcds with a denominator and a unit no edge uses
    graphs = [mk(["a", "b", "c"],
                 [("x", "a", "b", "6/4", "u"), ("y", "b", "c", "10/4", "u"),
                  ("z", "c", "a", "9/7", "w"), ("l", "a", "a", "3", "w")],
                 {"u": 1.4142135623730951, "w": 0.7390851332151607, "ghost": 2.0})]
    rng = random.Random(5)
    for _ in range(60):
        g = random_graph(rng)
        graphs.append(MetricGraph.build(g.vertices, g.edges, [*g.units.entries, ("ghost", 1.7)]))
    rows = 0
    for g in graphs:
        table = step_table(g, 3000.0)
        steps = table.steps()
        assert [lam for lam, _, _ in table.rows] == \
            [s.lambda_value(g.units) for s in steps]
        assert [s for _, s, _ in table.rows] == [s.value(g.units) for s in steps]
        assert table.texts() == [str(s) for s in steps]
        rows += len(steps)
    assert rows > 5000


def test_cutoff_below_smallest_lambda_is_empty():
    g = mk(["a", "b"], [("e", "a", "b", 1, "one")], {"one": 1.0})
    assert candidate_steps(g, math.pi ** 2 / 2) == []


def test_candidate_completeness_random():
    rng = random.Random(3)
    for _ in range(20):
        g = random_graph(rng)
        lam_max = 60.0
        cands = candidate_steps(g, lam_max)
        listed = set(cands)
        for step in cands:
            assert build_lambda_subgraph(g, step).members
        # steps just off the list give empty subgraphs below the cutoff
        for step in all_steps(g, n_max=4):
            lam = step.lambda_value(g.units)
            if lam <= lam_max and step not in listed:
                assert not build_lambda_subgraph(g, step).members


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


@pytest.mark.parametrize("lambda_max", [0.0, -1.0, math.inf, math.nan])
def test_candidate_steps_lambda_max_positive_and_finite(dumbbell, lambda_max):
    with pytest.raises(ValueError, match="positive and finite"):
        candidate_steps(dumbbell, lambda_max)


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
    """Brute-force floor: largest common step over the simple cycles among
    each unit's edge subsets."""
    best = None
    for unit in graph.units.tokens():
        same = [e for e in graph.edges if e.length.unit == unit]
        for r in range(1, len(same) + 1):
            for cyc in combinations(same, r):
                if not is_simple_cycle(cyc):
                    continue
                step = Step(fraction_gcd(*(e.length.coeff for e in cyc)), unit)
                if best is None or step.value(graph.units) > best.value(graph.units):
                    best = step
    return best, (math.inf if best is None else best.lambda_value(graph.units))


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


def _divisors(m):
    small = [d for d in range(1, math.isqrt(m) + 1) if m % d == 0]
    return {*small, *(m // d for d in small)}


def floor_by_divisors(graph):
    """Reference floor step: within each unit with a cycle, the divisors k
    of every m_e, by trial division, in descending order, until the edges
    with k | m_e hold a cycle."""
    gcds, mults = _unit_multiples(graph)
    best = None
    for unit in graph.units.tokens():
        pairs = [(e, m) for e, m in zip(graph.edges, mults) if e.length.unit == unit]
        if betti(graph.vertices, [e for e, _ in pairs]).beta1 == 0:
            continue
        for k in sorted(set().union(*(_divisors(m) for _, m in pairs)), reverse=True):
            if betti(graph.vertices, [e for e, m in pairs if m % k == 0]).beta1:
                u = Step(k * gcds[unit], unit)
                if best is None or u.value(graph.units) > best.value(graph.units):
                    best = u
                break
    return best


def test_floor_matches_divisor_reference():
    rng = random.Random(5)
    with_floor = 0
    for _ in range(1000):
        g = random_graph(rng)
        floor = resonance_floor(g)
        assert floor.unit_length == floor_by_divisors(g), g
        with_floor += floor.unit_length is not None
    assert with_floor > 500


def test_floor_grows_one_forest_per_candidate(dumbbell, monkeypatch):
    # one `_forest` per unit (does it hold a cycle?) and one per popped k;
    # the witness's cycle system reuses the forest of the winning k
    import heapq
    import qglab.graphs as graphs
    import qglab.lengths as lengths
    forest, heappop = graphs._forest, heapq.heappop
    calls = []
    for module in (graphs, lengths):
        monkeypatch.setattr(module, "_forest", lambda *a: calls.append("forest") or forest(*a))
    monkeypatch.setattr(heapq, "heappop", lambda h: calls.append("pop") or heappop(h))
    rng = random.Random(13)
    found = 0
    for g in [dumbbell] + [random_graph(rng) for _ in range(100)]:
        calls.clear()
        floor = resonance_floor(g)
        assert calls.count("forest") == len(g.units.tokens()) + calls.count("pop"), g
        found += floor.cycle is not None
    assert found > 50


def test_floor_over_its_cap_raises():
    with pytest.raises(ValueError, match=f"more than MAX_FLOOR_POPS = {MAX_FLOOR_POPS} "):
        resonance_floor(floor_over_cap())
