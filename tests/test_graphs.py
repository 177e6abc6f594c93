import random
from fractions import Fraction

import pytest

from qglab import (ExactLength, UnitTable, betti, betti_graph, core_decomposition,
                   cycle_system, validate)
from qglab.graphs import _forest

from conftest import mk, parity_colouring, walk_end
from randgraphs import degree, random_graph


# ---------------------------------------------------------------------------
# validate


def test_validate_minimal_graph():
    g = mk(["v1", "v2"], [("e1", "v1", "v2", 1, "u")], {"u": 1.0})
    assert validate(g) == []


def test_validate_unknown_vertex():
    g = mk(["v1", "v2"], [("e1", "v1", "v9", 1, "u")], {"u": 1.0})
    assert any("unknown-vertex" in p and "v9" in p for p in validate(g))


def test_validate_nonpositive_length():
    # no graph can hold a nonpositive length: the edge is refused when built
    for coeff in (0, -1):
        with pytest.raises(ValueError, match=f"coefficient must be positive: {coeff}$"):
            mk(["v1", "v2"], [("e1", "v1", "v2", coeff, "u")], {"u": 1.0})


@pytest.mark.parametrize("vertices, edges, problem", [
    ([], [], "empty-graph: no vertices declared"),
    (["a", "a"], [], "duplicate-vertex: a"),
    (["a", "b"], [("e", "a", "b", 1, "u"), ("e", "b", "a", 2, "u")], "duplicate-edge: e"),
    (["a", "b"], [("e", "a", "b", 1, "w")], "unknown-unit: edge e uses 'w'"),
], ids=["empty", "duplicate-vertex", "duplicate-edge", "unknown-unit"])
def test_validate_code_built_graph(vertices, edges, problem):
    # graphs built in code, not read from a file, are checked by validate alone
    assert validate(mk(vertices, edges, {"u": 1.0})) == [problem]


# ---------------------------------------------------------------------------
# coefficients


class _Quarter(Fraction):
    pass


def read_coefficient(x):
    """ExactLength's coefficient by the definition: Fraction(x), positive."""
    try:
        c = Fraction(x)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"bad coefficient {x!r}") from None
    if c <= 0:
        raise ValueError(f"coefficient must be positive: {x}")
    return c


@pytest.mark.parametrize("x", [
    "3", "6/4", "007/2", "2/", "/2", "1/0", "0", "0/5", "-1", "+3", "1.5", "1e3",
    " 3", "\u0663", "abc", "-2/4", _Quarter(1, 4), _Quarter(-1, 4), Fraction(6, 4), 3, 0.5])
def test_coefficient_as_fraction_reads_it(x):
    try:
        want = read_coefficient(x)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            ExactLength(x, "u")
        assert str(got.value) == str(exc)
    else:
        coeff = ExactLength(x, "u").coeff
        assert type(coeff) is Fraction and coeff == want


def test_value_is_float_of_the_coefficient():
    rng = random.Random(5)
    units = UnitTable.of({"u": 1.7320508075688772})
    for _ in range(5000):
        digits = rng.choice((3, 20, 400))
        c = Fraction(rng.randrange(1, 10 ** digits), rng.randrange(1, 10 ** digits))
        assert ExactLength(c, "u").value(units) == float(c) * units.approx("u")


# ---------------------------------------------------------------------------
# betti


def test_betti_single_edge():
    g = mk(["v1", "v2"], [("e1", "v1", "v2", 1, "u")], {"u": 1.0})
    b = betti_graph(g)
    assert (b.beta0, b.beta1) == (1, 0)


def test_betti_loop(unit_loop):
    b = betti_graph(unit_loop)
    assert (b.beta0, b.beta1) == (1, 1)


def test_betti_dumbbell(dumbbell):
    b = betti_graph(dumbbell)
    assert (b.beta0, b.beta1) == (1, 6)


def test_betti_disconnected():
    g = mk(["a", "b", "c", "d"],
           [("e1", "a", "b", 1, "u"), ("e2", "c", "d", 1, "u"),
            ("e3", "c", "d", 1, "u")], {"u": 1.0})
    b = betti_graph(g)
    assert (b.beta0, b.beta1) == (2, 1)


# ---------------------------------------------------------------------------
# core decomposition


def test_core_of_path_is_empty(path3):
    cd = core_decomposition(path3)
    assert cd.core_edges == ()
    assert set(cd.boundary_vertices) == {"v1", "v4"}
    assert cd.proper_core_vertices == ()


def test_core_loop_pendant(loop_pendant):
    cd = core_decomposition(loop_pendant)
    assert cd.core_edges == ("e2",)
    assert cd.boundary_vertices == ("v",)
    # the loop vertex carries the pendant edge, so it is not proper
    assert cd.proper_core_vertices == ()


def test_core_dumbbell(dumbbell):
    cd = core_decomposition(dumbbell)
    assert set(cd.core_edges) == {e.id for e in dumbbell.edges} - {"p1"}
    assert cd.boundary_vertices == ("x",)
    assert set(cd.proper_core_vertices) == {"c", "tl", "tr", "bl", "br", "ll"}


def test_core_idempotent(dumbbell):
    cd = core_decomposition(dumbbell)
    core_graph = mk(
        cd.core_vertices,
        [(e.id, e.origin, e.terminus, e.length.coeff, e.length.unit)
         for e in dumbbell.edges if e.id in cd.core_edges],
        dict(dumbbell.units.entries))
    cd2 = core_decomposition(core_graph)
    assert set(cd2.core_edges) == set(cd.core_edges)


def core_by_definition(g):
    """The core by removing one vertex of degree at most one at a time;
    boundary and proper core vertices read off their definitions."""
    alive = set(g.vertices)

    def live_edges():
        return [e for e in g.edges if e.origin in alive and e.terminus in alive]

    while True:
        ends = [v for e in live_edges() for v in (e.origin, e.terminus)]
        low = [v for v in g.vertices if v in alive and ends.count(v) <= 1]
        if not low:
            break
        alive.discard(low[0])
    core = live_edges()
    proper = [v for v in g.vertices if v in alive
              and all(e in core for e in g.edges if v in (e.origin, e.terminus))]
    return (tuple(e.id for e in core), tuple(v for v in g.vertices if v in alive),
            tuple(v for v in g.vertices if degree(g, v) == 1), tuple(proper))


def test_core_decomposition_matches_definition_random():
    # loops, parallel edges and isolated vertices all occur in these draws;
    # the last graph strips one pendant vertex per layer, 300 layers deep
    rng = random.Random(31)
    graphs = [random_graph(rng, max_vertices=9, max_edges=12) for _ in range(3000)]
    graphs.append(mk([f"p{i}" for i in range(301)],
                     [("loop", "p0", "p0", 1, "one")]
                     + [(f"e{i}", f"p{i}", f"p{i + 1}", 1, "one") for i in range(300)],
                     {"one": 1.0}))
    for g in graphs:
        cd = core_decomposition(g)
        got = (cd.core_edges, cd.core_vertices, cd.boundary_vertices,
               cd.proper_core_vertices)
        assert got == core_by_definition(g), g


# ---------------------------------------------------------------------------
# cycle system


def test_cycle_system_tree(path3):
    cs = cycle_system(path3.vertices, path3.edges)
    assert cs.chords == ()
    assert cs.cycles == ()


def test_cycle_system_triangle(unit_triangle):
    cs = cycle_system(unit_triangle.vertices, unit_triangle.edges)
    assert len(cs.chords) == 1
    assert len(cs.cycles[0].steps) == 3


def test_cycle_system_two_triangles(two_triangles_shared_vertex):
    g = two_triangles_shared_vertex
    cs = cycle_system(g.vertices, g.edges)
    assert len(cs.chords) == 2
    sets = [set(c.edge_ids()) for c in cs.cycles]
    assert sets[0].isdisjoint(sets[1])
    assert all(len(s) == 3 for s in sets)


def test_cycle_walks_are_closed(dumbbell):
    edges_by_id = {e.id: e for e in dumbbell.edges}
    cs = cycle_system(dumbbell.vertices, dumbbell.edges)
    for cyc in cs.cycles:
        assert walk_end(cyc.start, cyc.steps, edges_by_id) == cyc.start


def test_fundamental_cycles_and_forest_paths_random():
    rng = random.Random(31)
    for _ in range(100):
        g = random_graph(rng)
        edges_by_id = {e.id: e for e in g.edges}
        cs = cycle_system(g.vertices, g.edges)
        tree = set(cs.tree_edges)
        for chord, cyc in zip(cs.chords, cs.cycles):
            ids = cyc.edge_ids()
            assert ids[0] == chord and set(ids[1:]) <= tree
            assert len(set(ids)) == len(ids)
            assert walk_end(cyc.start, cyc.steps, edges_by_id) == cyc.start
        for a in g.vertices:
            for b in g.vertices:
                if cs.root[a] != cs.root[b]:
                    with pytest.raises(ValueError):
                        cs.path(a, b)
                    continue
                steps = cs.path(a, b)
                ids = [eid for eid, _ in steps]
                assert set(ids) <= tree and len(set(ids)) == len(ids)
                assert walk_end(a, steps, edges_by_id) == b


def test_cycle_system_deterministic(dumbbell):
    a = cycle_system(dumbbell.vertices, dumbbell.edges)
    b = cycle_system(dumbbell.vertices, dumbbell.edges)
    assert a == b


def test_cycles_lie_in_core(dumbbell):
    cd = core_decomposition(dumbbell)
    cycles = cycle_system(dumbbell.vertices, dumbbell.edges).cycles
    assert len(cycles) == betti_graph(dumbbell).beta1
    for cyc in cycles:
        assert set(cyc.edge_ids()) <= set(cd.core_edges)


# ---------------------------------------------------------------------------
# parity forest: odd trees for 0/1 edge weights


def odd_trees(vertices, spec):
    """_forest's odd-tree count for edges given as (id, origin, terminus, weight)."""
    g = mk(vertices, [(i, o, t, 1, "one") for i, o, t, _ in spec], {"one": 1.0})
    return _forest(g.vertices, g.edges, [w for *_, w in spec])[2]


@pytest.mark.parametrize("w,odd", [(1, 1), (0, 0)])
def test_parity_forest_loop(w, odd):
    assert odd_trees(["a"], [("e", "a", "a", w)]) == odd


@pytest.mark.parametrize("w1,w2,odd", [(1, 0, 1), (0, 1, 1), (1, 1, 0), (0, 0, 0)])
def test_parity_forest_parallel_edges(w1, w2, odd):
    assert odd_trees(["a", "b"], [("e1", "a", "b", w1), ("e2", "b", "a", w2)]) == odd


def test_parity_forest_odd_mark_moves_with_root():
    # two odd triangles, each closed by its own chord, then one tree edge
    # joins them: one odd tree, not two
    triangles = [(f"{t}{i}", f"{t}{i}", f"{t}{(i + 1) % 3}", 1)
                 for t in "ab" for i in range(3)]
    vertices = [f"{t}{i}" for t in "ab" for i in range(3)]
    assert odd_trees(vertices, triangles) == 2
    assert odd_trees(vertices, triangles + [("c", "a0", "b0", 0)]) == 1
    # an odd triangle joined to a path: the mark must follow the merged root
    # so that a later odd chord elsewhere in the tree does not count twice
    path = [("p0", "x0", "x1", 0), ("p1", "x1", "x2", 1)]
    tail = [("q", "a0", "x0", 1), ("r", "x2", "x0", 0)]
    assert odd_trees(vertices[:3] + ["x0", "x1", "x2"], triangles[:3] + path + tail) == 1


@pytest.mark.parametrize("w,odd", [(0, 0), (1, 1)])
def test_parity_forest_turns_odd_at_a_late_chord(w, odd):
    # e3 joins the trees {a, b} and {d, e} at two non-root vertices with
    # parity 1 each, so the new offset of b's root needs both of them; only
    # the chord z, closing b-a-d-e-b (weights 1 + 0 + 1 + w), decides oddness
    spec = [("e1", "a", "b", 1), ("e2", "d", "e", 1), ("e3", "a", "d", 0),
            ("e4", "c", "a", 1), ("z", "b", "e", w)]
    assert odd_trees(list("abcde"), spec) == odd
    assert odd_trees(list("abcde"), spec[:-1]) == 0


def test_parity_forest_matches_colouring_random():
    rng = random.Random(5)
    for _ in range(300):
        g = random_graph(rng, max_vertices=8, max_edges=12)
        weight = {e.id: rng.randint(0, 1) for e in g.edges}
        tree, chords, odd, parities = _forest(g.vertices, g.edges,
                                              [weight[e.id] for e in g.edges])
        want = parity_colouring(g.vertices, g.edges, weight)
        assert odd == sum(o for _, o in want.values())
        assert (tree, chords) == _forest(g.vertices, g.edges)[:2]
        assert _forest(g.vertices, g.edges)[2] == 0
        # each chord's parity is its fundamental cycle's, walked edge by edge,
        # and a tree has an odd chord iff the colouring finds it odd
        cs = cycle_system(g.vertices, g.edges)
        assert parities == [sum(weight[eid] for eid in c.edge_ids()) % 2 for c in cs.cycles]
        odd_roots = {cs.root[c.start] for c, p in zip(cs.cycles, parities) if p}
        for comp, (_, comp_odd) in want.items():
            assert any(v in odd_roots for v in comp) == comp_odd


# ---------------------------------------------------------------------------
# cross-invariants


def test_beta1_equals_chord_count_random():
    rng = random.Random(11)
    for _ in range(50):
        g = random_graph(rng)
        b = betti_graph(g)
        cs = cycle_system(g.vertices, g.edges)
        assert b.beta1 == len(cs.chords)


def test_deleting_chord_drops_beta1_by_one(dumbbell):
    cs = cycle_system(dumbbell.vertices, dumbbell.edges)
    b1 = betti_graph(dumbbell).beta1
    for chord in cs.chords:
        rest = [e for e in dumbbell.edges if e.id != chord]
        assert betti(dumbbell.vertices, rest).beta1 == b1 - 1
