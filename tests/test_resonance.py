import random
from dataclasses import replace
from fractions import Fraction

import pytest

from qglab import (MetricGraph, Step, build_lambda_subgraph, resonance_dimension,
                   resonance_dimension_oracle, resonance_floor)
from qglab.graphs import cycle_system
from qglab.lengths import step_table
from qglab.resonance import (BasisConstructionError, ResonanceBasisFunction, _spool,
                             _verify_basis, integer_matrix_rank, table_counts)

from conftest import mk, parity_colouring, unit_grid, walk_end
from randgraphs import all_steps, random_graph


def walk_parity(walk, n_of) -> int:
    """Total step count of a walk mod 2, walked edge by edge."""
    return sum(n_of[eid] for eid, _ in walk.steps) % 2


def parity_components(sub):
    """Per tree of G_s's cycle system, by root in vertex order: its
    vertices, edge ids, fundamental cycles (by chord id) and the first of
    them the forest's chord parities call odd (None if none is)."""
    system = cycle_system(sub.vertices, sub.edges, sub.forest)
    root = system.root
    parts = {root[v]: ([], [], [], []) for v in sub.vertices}
    for v in sub.vertices:
        parts[root[v]][0].append(v)
    for e in sub.edges:
        parts[root[e.origin]][1].append(e.id)
    for c, odd in zip(system.cycles, sub.forest[3]):
        parts[root[c.start]][2].append(c)
        if odd:
            parts[root[c.start]][3].append(c)
    return [(verts, eids, cycles, odd[0] if odd else None)
            for verts, eids, cycles, odd in parts.values()]


def with_forest(monkeypatch, tamper):
    """Make `resonance_dimension` take (subgraph, forest) = `tamper(sub)`
    for each step subgraph sub it builds, the forest set in place of the
    subgraph's own."""
    import qglab.resonance as res
    build = res.build_lambda_subgraph

    def tampered(graph, step):
        sub, forest = tamper(build(graph, step))
        vars(sub)["forest"] = forest
        return sub

    monkeypatch.setattr(res, "build_lambda_subgraph", tampered)


# ---------------------------------------------------------------------------
# per-component parity: the forest's chord parities


def test_parity_dashed_component(dumbbell):
    sub = build_lambda_subgraph(dumbbell, Step(Fraction(1), "one"))
    comps = parity_components(sub)
    assert len(comps) == 1
    _, _, cycles, witness = comps[0]
    assert len(cycles) == 2
    assert witness is not None
    n_of = {e.id: n for e, n in sub.members}
    assert sum(n_of[eid] for eid in witness.edge_ids()) % 2 == 1


def test_parity_sqrt3_components(dumbbell):
    sub = build_lambda_subgraph(dumbbell, Step(Fraction(1, 2), "sqrt3"))
    comps = parity_components(sub)
    assert len(comps) == 2
    for _, _, cycles, witness in comps:
        assert len(cycles) == 1
        assert witness is None
    assert sub.forest[2] == 0


def test_parity_odd_loop(unit_loop):
    sub = build_lambda_subgraph(unit_loop, Step(Fraction(1), "one"))
    (_, _, cycles, witness), = parity_components(sub)
    assert len(cycles) == 1
    assert witness is not None


def test_parity_empty_subgraph(dumbbell):
    sub = build_lambda_subgraph(dumbbell, Step(Fraction(7, 5), "one"))
    assert not sub.members
    assert parity_components(sub) == []
    assert sub.forest[1:] == ([], 0, [])


def test_parity_components_match_colouring_random():
    rng = random.Random(61)
    for _ in range(120):
        g = random_graph(rng)
        for step in all_steps(g):
            sub = build_lambda_subgraph(g, step)
            n_of = {e.id: n for e, n in sub.members}
            edges_by_id = {e.id: e for e in sub.edges}
            want = parity_colouring(sub.vertices, sub.edges, n_of)
            comps = parity_components(sub)
            assert len(comps) == len(want)
            for verts, eids, cycles, w in comps:
                assert (len(cycles), w is not None) == want[frozenset(verts)]
                if w is not None:
                    assert set(w.edge_ids()) <= set(eids)
                    assert walk_end(w.start, w.steps, edges_by_id) == w.start
                    assert sum(n_of[eid] for eid in w.edge_ids()) % 2 == 1
            assert sub.forest[2] == sum(odd for _, odd in want.values())


# ---------------------------------------------------------------------------
# dimension via the cycle/parity route (dumbbell table rows frozen)


@pytest.mark.parametrize("coeff,unit,beta1,beta0_odd,dim", [
    (Fraction(1), "sqrt3", 2, 2, 0),
    (Fraction(1, 2), "pi", 0, 0, 0),
    (Fraction(1), "one", 2, 1, 1),
    (Fraction(1, 2), "sqrt3", 2, 0, 2),
])
def test_dumbbell_table(dumbbell, coeff, unit, beta1, beta0_odd, dim):
    rep = resonance_dimension(dumbbell, Step(coeff, unit))
    assert (rep.beta1, rep.beta0_odd, rep.dim) == (beta1, beta0_odd, dim)
    assert (rep.dim > 0) == (dim > 0)


def test_tree_never_resonates(path3):
    for step in all_steps(path3, n_max=5):
        assert resonance_dimension(path3, step).dim == 0


# ---------------------------------------------------------------------------
# exact oracle


def test_oracle_unit_triangle(unit_triangle):
    assert resonance_dimension_oracle(unit_triangle, Step(Fraction(1), "one")) == 0
    assert resonance_dimension_oracle(unit_triangle, Step(Fraction(1, 2), "one")) == 1


def test_oracle_empty_subgraph(unit_triangle):
    assert resonance_dimension_oracle(unit_triangle, Step(Fraction(2, 7), "one")) == 0


def test_integer_rank_against_rational_elimination():
    def rational_rank(rows):
        m = [[Fraction(x) for x in row] for row in rows]
        rank = 0
        for c in range(len(m[0]) if m else 0):
            piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
            if piv is None:
                continue
            m[rank], m[piv] = m[piv], m[rank]
            for i in range(len(m)):
                if i != rank and m[i][c]:
                    f = m[i][c] / m[rank][c]
                    m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
            rank += 1
        return rank

    rng = random.Random(5)
    for _ in range(100):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        mat = [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)]
        assert integer_matrix_rank(mat) == rational_rank(mat)


# ---------------------------------------------------------------------------
# theorem equals oracle (the central property)


def test_theorem_equals_oracle_randomized():
    rng = random.Random(42)
    for _ in range(60):
        g = random_graph(rng)
        for step in all_steps(g, n_max=8):
            got = resonance_dimension(g, step).dim
            want = resonance_dimension_oracle(g, step)
            assert got == want, (g, str(step))


def colouring_counts(graph, step):
    """(beta1, beta0_odd) of G_s by `parity_colouring`, and its cycle system."""
    sub = build_lambda_subgraph(graph, step)
    want = parity_colouring(sub.vertices, sub.edges, {e.id: n for e, n in sub.members})
    return ((sum(b for b, _ in want.values()), sum(odd for _, odd in want.values())),
            cycle_system(sub.vertices, sub.edges))


def test_grouped_table_matches_reference_and_oracle():
    # table_counts at every row of step_table(g, 1000), and resonance_dimension
    # at each row's half: s = (p/q)*g and s/2 share G_s when p is odd and
    # differ in q mod 2
    rng = random.Random(11)
    siblings = 0
    for _ in range(100):
        g = random_graph(rng)
        g = MetricGraph.build(g.vertices, g.edges, [*g.units.entries, ("ghost", 1.7)])
        table = step_table(g, 1000.0)
        for step, (beta1, odd) in zip(table.steps(), table_counts(g, table)):
            ref, system = colouring_counts(g, step)
            assert (beta1, odd) == ref
            assert beta1 - odd == resonance_dimension_oracle(g, step), (g, str(step))
            half = Step(step.coeff / 2, step.unit)
            ref_half, system_half = colouring_counts(g, half)
            rep = resonance_dimension(g, half)
            assert (rep.step, rep.beta1, rep.beta0_odd) == (half, *ref_half)
            assert rep.dim == resonance_dimension_oracle(g, half), (g, str(half))
            assert rep.lam == half.lambda_value(g.units)
            siblings += system == system_half and ref[1] != ref_half[1]
        ghost = resonance_dimension(g, Step(1, "ghost"))
        assert (ghost.beta1, ghost.beta0_odd, ghost.dim) == (0, 0, 0)
    assert siblings > 100


def test_one_step_route_equals_table_and_oracle():
    rng = random.Random(17)
    rows = 0
    for _ in range(100):
        g = random_graph(rng)
        table = step_table(g, 500.0)
        for step, (beta1, odd) in zip(table.steps(), table_counts(g, table)):
            rep = resonance_dimension(g, step)
            assert (rep.beta1, rep.beta0_odd) == (beta1, odd), (g, str(step))
            assert rep.dim == resonance_dimension_oracle(g, step), (g, str(step))
            rows += 1
    assert rows > 1000


@pytest.mark.parametrize("coeff,n,dim", [(1, 1, 0), (Fraction(1, 2), 2, 1), (Fraction(1, 3), 3, 0)])
def test_loop_odd_and_even_step_count(unit_loop, coeff, n, dim):
    # one loop of length n*s: odd n gives an odd component (beta0_odd 1)
    rep = resonance_dimension(unit_loop, Step(coeff, "one"))
    assert (rep.beta1, rep.beta0_odd, rep.dim) == (1, n % 2, dim)


def test_even_q_has_no_odd_component():
    # odd triangle (1, 1, 1) next to a ghost unit: at s = 1/2 and s = 1/4
    # (q even) every n_e is even, so beta0_odd = 0 whatever the forest says
    # at q odd
    g = mk(["a", "b", "c"], [("e1", "a", "b", 1, "one"), ("e2", "b", "c", 1, "one"),
                             ("e3", "c", "a", 1, "one")], {"one": 1.0, "ghost": 2.0})
    steps = [Step(Fraction(1, 2), "one"), Step(Fraction(1, 4), "one"), Step(1, "one"),
             Step(Fraction(1, 3), "one"), Step(1, "ghost"), Step(Fraction(1, 2), "ghost")]
    got = [(r.beta1, r.beta0_odd, r.dim) for r in (resonance_dimension(g, s) for s in steps)]
    assert got == [(1, 0, 1), (1, 0, 1), (1, 1, 0), (1, 1, 0), (0, 0, 0), (0, 0, 0)]
    # in the table, rows with even q first, so they open the (unit, p) group
    table = step_table(g, 400.0)
    table = replace(table, rows=sorted(table.rows, key=lambda row: row[2][2] % 2))
    assert table.rows[0][2] == ("one", 1, 2)
    want = [(r.beta1, r.beta0_odd) for r in (resonance_dimension(g, s) for s in table.steps())]
    assert table_counts(g, table) == want
    assert (1, 1) in want and (1, 0) in want


def test_table_is_count_only(monkeypatch):
    # the table builds no step subgraph, cycle system or basis, and
    # one forest per distinct (unit, p), s = (p/q)*g: both parities of q share it
    import qglab.resonance as res

    def refuse(*args, **kwargs):
        raise AssertionError("the resonance table built a cycle or parity structure")

    rng = random.Random(29)
    cases = []
    for _ in range(80):
        g = random_graph(rng)
        table = step_table(g, 300.0)
        rows = list(table.rows)
        rng.shuffle(rows)                   # an even q opens some groups
        table = replace(table, rows=rows)
        cases.append((g, table, [resonance_dimension_oracle(g, s) for s in table.steps()]))

    calls = []
    forest = res._forest
    monkeypatch.setattr(res, "_forest", lambda *a: calls.append(1) or forest(*a))
    for name in ("cycle_system", "_construct_basis", "build_lambda_subgraph"):
        monkeypatch.setattr(res, name, refuse)
    for g, table, want in cases:
        calls.clear()
        assert [beta1 - odd for beta1, odd in table_counts(g, table)] == want, g
        assert len(calls) == len({(unit, p) for _, _, (unit, p, _) in table.rows})


def test_grouped_table_rejects_an_undeclared_unit(dumbbell):
    # a table row's unit is always an edge's; one step's unit is checked
    resonance_dimension(dumbbell, Step(1, "one"))
    with pytest.raises(ValueError, match="not declared"):
        resonance_dimension(dumbbell, Step(1, "nope"))


def test_equilateral_oddness_is_nonbipartiteness():
    # when every n_e = 1 a component is odd iff it is not 2-colorable
    def bipartite(vertices, edges):
        color = {}
        adj = {v: [] for v in vertices}
        for e in edges:
            if e.is_loop:
                return False
            adj[e.origin].append(e.terminus)
            adj[e.terminus].append(e.origin)
        for s in vertices:
            if s in color:
                continue
            color[s] = 0
            stack = [s]
            while stack:
                u = stack.pop()
                for w in adj[u]:
                    if w not in color:
                        color[w] = 1 - color[u]
                        stack.append(w)
                    elif color[w] == color[u]:
                        return False
        return True

    rng = random.Random(17)
    for _ in range(40):
        g = random_graph(rng, units=("u1",))
        # make it equilateral: all lengths 1
        sub = build_lambda_subgraph(g, Step(Fraction(1, 1), "u1"))
        eq_members = [(e, n) for e, n in sub.members if n == 1]
        if not eq_members:
            continue
        from qglab.lengths import LambdaSubgraph
        verts = tuple(v for v in g.vertices
                      if any(v in (e.origin, e.terminus) for e, _ in eq_members))
        sub1 = LambdaSubgraph(sub.step, tuple(eq_members), verts)
        for verts, eids, _, witness in parity_components(sub1):
            edges = [e for e, _ in eq_members if e.id in eids]
            assert (witness is not None) == (not bipartite(verts, edges))


# ---------------------------------------------------------------------------
# constructive basis


def check_basis(graph, step):
    rep = resonance_dimension(graph, step, with_basis=True)
    sub = build_lambda_subgraph(graph, step)
    n_of = {e.id: n for e, n in sub.members}
    member_ids = set(n_of)
    assert len(rep.basis) == rep.dim
    for f in rep.basis:
        assert f.support()
        assert f.support() <= member_ids
        for v in graph.vertices:
            bal = 0
            for e, n in sub.members:
                b = f.coefficients.get(e.id, 0)
                if e.terminus == v:
                    bal += b * (-1) ** n
                if e.origin == v:
                    bal -= b
            assert bal == 0
    cols = sorted(member_ids)
    mat = [[f.coefficients.get(c, 0) for c in cols] for f in rep.basis]
    if mat:
        assert integer_matrix_rank(mat) == rep.dim
    return rep


def test_basis_sqrt3_triangles(dumbbell):
    rep = check_basis(dumbbell, Step(Fraction(1, 2), "sqrt3"))
    assert rep.dim == 2
    supports = [f.support() for f in rep.basis]
    assert {frozenset({"s1", "s2", "s3"}), frozenset({"s4", "s5", "s6"})} == set(supports)
    for f in rep.basis:
        assert sorted(abs(b) for b in f.coefficients.values()) == [1, 1, 1]


def test_basis_dashed_euler_walk(dumbbell):
    rep = check_basis(dumbbell, Step(Fraction(1), "one"))
    assert rep.dim == 1
    # supported on the even symmetric difference of the two odd triangles
    assert rep.basis[0].support() <= {"d1", "d2", "d3", "d4", "d5", "d6"}


def test_basis_even_loop(unit_loop):
    rep = check_basis(unit_loop, Step(Fraction(1, 2), "one"))
    assert rep.dim == 1
    assert rep.basis[0].support() == {"e"}


def test_spool_refuses_odd_walk(unit_loop, monkeypatch):
    # sin(pi x/s) wound once around a loop of 3 steps does not close: the
    # winding ends odd, and a basis whose forest calls that loop even refuses it
    assert _spool((("e", 1),), {"e": 3}) == ({"e": 1}, 1)
    with_forest(monkeypatch, lambda sub: (sub, (*sub.forest[:2], 0, [0])))
    with pytest.raises(BasisConstructionError, match="odd total step count"):
        resonance_dimension(unit_loop, Step(Fraction(1, 3), "one"), with_basis=True)


def test_basis_odd_loop_alone(unit_loop):
    rep = check_basis(unit_loop, Step(Fraction(1), "one"))
    assert rep.dim == 0
    assert rep.basis == ()


def test_basis_two_disjoint_odd_cycles_joined_by_path():
    # two odd loops joined by a path: Euler-walk doubling of the connector
    g = mk(["a", "b", "m"],
           [("l1", "a", "a", 1, "u"), ("l2", "b", "b", 1, "u"),
            ("p1", "a", "m", 1, "u"), ("p2", "m", "b", 1, "u")],
           {"u": 1.0})
    rep = check_basis(g, Step(Fraction(1), "u"))
    assert rep.dim == 1
    assert resonance_dimension_oracle(g, Step(Fraction(1), "u")) == 1
    b = rep.basis[0].coefficients
    assert {e: abs(c) for e, c in b.items()} == {"l1": 1, "l2": 1, "p1": 2, "p2": 2}


def test_basis_two_odd_cycles_sharing_edge():
    # two triangles sharing one edge; both fundamental cycles odd
    g = mk(["a", "b", "c", "d"],
           [("e1", "a", "b", 1, "u"), ("e2", "b", "c", 1, "u"),
            ("e3", "c", "a", 1, "u"), ("e4", "b", "d", 1, "u"),
            ("e5", "d", "c", 1, "u")],
           {"u": 1.0})
    rep = check_basis(g, Step(Fraction(1), "u"))
    assert rep.dim == 1
    assert resonance_dimension_oracle(g, Step(Fraction(1), "u")) == 1
    # the function lives on the even 4-cycle around the shared edge; the
    # shared edge cancels and is not stored
    f = rep.basis[0]
    assert f.support() == set(f.coefficients) == {"e1", "e3", "e4", "e5"}


def test_basis_grid_12():
    rep = check_basis(unit_grid(12), Step(Fraction(1), "one"))
    assert rep.dim == 121


def test_basis_random_cross_checked():
    rng = random.Random(99)
    for _ in range(40):
        g = random_graph(rng)
        for step in all_steps(g, n_max=6):
            rep = check_basis(g, step)
            assert rep.dim == resonance_dimension_oracle(g, step)


def test_basis_one_function_per_non_anchor_chord_random():
    # each function has +-1 on its own fundamental cycle's chord and no
    # other chord but its component's anchor chord
    rng = random.Random(57)
    for _ in range(120):
        g = random_graph(rng)
        for step in all_steps(g, n_max=6):
            rep = resonance_dimension(g, step, with_basis=True)
            comps = parity_components(build_lambda_subgraph(g, step))
            chords = {c.steps[0][0] for _, _, cycles, _ in comps for c in cycles}
            funcs = iter(rep.basis)
            for _, _, cycles, anchor in comps:
                allowed = {anchor.steps[0][0]} if anchor else set()
                for cyc in cycles:
                    if cyc is anchor:
                        continue
                    f = next(funcs)
                    own = cyc.steps[0][0]
                    assert abs(f.coefficients.get(own, 0)) == 1
                    assert f.support() & chords <= {own} | allowed
                    assert all(f.coefficients.values())
            assert next(funcs, None) is None


def reference_basis(sub):
    """The basis spooled walk by walk: each fundamental cycle of
    `cycle_system` with its parity from `walk_parity`, an odd one along
    cycle, forest path to its component's first odd cycle, that cycle and
    the path back; and the number of such detours."""
    system = cycle_system(sub.vertices, sub.edges)
    n_of = {e.id: n for e, n in sub.members}
    comps = {system.root[v]: [] for v in sub.vertices}
    for c in system.cycles:
        comps[system.root[c.start]].append(c)
    out, detours = [], 0
    for cycles in comps.values():
        anchor = next((c for c in cycles if walk_parity(c, n_of)), None)
        for c in cycles:
            if c is anchor:
                continue
            steps = c.steps
            if walk_parity(c, n_of):
                path = system.path(c.start, anchor.start)
                steps += path + anchor.steps + tuple((e, -d) for e, d in reversed(path))
                detours += 1
            b, end = _spool(steps, n_of)
            assert end == 0
            out.append(list(b.items()))
    return out, detours


def test_basis_matches_the_walk_by_walk_reference_random():
    # same functions, in the same order, with the same coefficient order
    # (which the JSON output keeps), at every step of each table
    rng = random.Random(31)
    detoured = 0
    for _ in range(60):
        g = random_graph(rng, max_edges=12)
        for step in step_table(g, 200.0).steps():
            rep = resonance_dimension(g, step, with_basis=True)
            want, detours = reference_basis(build_lambda_subgraph(g, step))
            assert [list(f.coefficients.items()) for f in rep.basis] == want
            detoured += detours
    assert detoured > 50


# ---------------------------------------------------------------------------
# floor gate


def test_no_resonance_below_floor_random():
    rng = random.Random(23)
    for _ in range(40):
        g = random_graph(rng)
        floor = resonance_floor(g)
        for step in all_steps(g, n_max=8):
            if step.lambda_value(g.units) < floor.lam * (1 - 1e-12):
                assert resonance_dimension(g, step).dim == 0


def test_dumbbell_floor_not_attained(dumbbell):
    floor = resonance_floor(dumbbell)
    rep = resonance_dimension(dumbbell, Step(Fraction(1), "sqrt3"))
    assert rep.lam == pytest.approx(floor.lam, rel=1e-12)
    assert rep.dim == 0


def test_basis_size_is_checked_against_the_table_forest(dumbbell, monkeypatch):
    # the basis is spooled from the cycle system's cycles and its size checked
    # against the weighted forest count of G_s, so a system that lost a cycle fails
    import qglab.resonance as res
    step = Step(Fraction(1, 2), "sqrt3")    # two even sqrt3 triangles, dim 2
    assert resonance_dimension(dumbbell, step, with_basis=True).dim == 2
    system_of = res.cycle_system

    def lost_cycle(*args):
        system = system_of(*args)
        return replace(system, cycles=system.cycles[:-1])

    monkeypatch.setattr(res, "cycle_system", lost_cycle)
    with pytest.raises(BasisConstructionError, match="constructed 1 functions, expected 2"):
        resonance_dimension(dumbbell, step, with_basis=True)


def test_basis_refuses_a_forest_parity_its_walk_contradicts(dumbbell, monkeypatch):
    # the two sqrt3 triangles at s = 1/2*sqrt3 are even (n_e = 2) and the
    # forest is grown from that, but the winding reads chord s3 as n = 3: a
    # chord the forest calls even, so no anchor, whose walk ends odd
    step = Step(Fraction(1, 2), "sqrt3")
    with_forest(monkeypatch, lambda sub: (replace(
        sub, members=tuple((e, 3 if e.id == "s3" else n) for e, n in sub.members)),
        sub.forest))
    with pytest.raises(BasisConstructionError, match="odd total step count"):
        resonance_dimension(dumbbell, step, with_basis=True)


def test_basis_refuses_an_even_anchor(dumbbell, monkeypatch):
    # a forest that calls the first chord's triangle odd and counts one odd
    # tree makes it the anchor, and dim 2 - 1 = 1; only its winding, which
    # ends even, catches that: the other function alone passes the size check
    step = Step(Fraction(1, 2), "sqrt3")
    with_forest(monkeypatch, lambda sub: (sub, (*sub.forest[:2], 1, [1, 0])))
    with pytest.raises(BasisConstructionError, match="anchor cycle has even total step count"):
        resonance_dimension(dumbbell, step, with_basis=True)


def test_basis_grows_one_forest(dumbbell, monkeypatch):
    # the count and the cycle system of the basis share the step subgraph's forest
    import qglab.graphs as graphs
    import qglab.lengths as lengths
    import qglab.resonance as res
    calls = []
    forest = graphs._forest
    for module in (graphs, lengths, res):
        monkeypatch.setattr(module, "_forest", lambda *a: calls.append(1) or forest(*a))
    rep = resonance_dimension(dumbbell, Step(Fraction(1, 2), "sqrt3"), with_basis=True)
    assert (rep.dim, len(rep.basis), len(calls)) == (2, 2, 1)


def test_verify_basis_rejects_corrupted_bases(dumbbell):
    step = Step(Fraction(1, 2), "sqrt3")
    sub = build_lambda_subgraph(dumbbell, step)
    rep = resonance_dimension(dumbbell, step, with_basis=True)
    f0, f1 = rep.basis
    _verify_basis(dumbbell, sub, rep.basis, rep.dim)

    changed = dict(f0.coefficients)
    eid = min(changed)
    changed[eid] += 1
    outside = dict(f1.coefficients, d1=1)       # d1 is not in G_s
    corrupted = {
        "balance": (ResonanceBasisFunction(changed), f1),
        "trivial basis function": (ResonanceBasisFunction({}), f1),
        "expected 2": (f0,),
        "leaves the subgraph": (f0, ResonanceBasisFunction(outside)),
        "rank deficient": (f0, f0),
    }
    # balanced and of full rank, but f0 touches no edge that f0 + f1 does not
    f01 = {e: f0.coefficients.get(e, 0) + f1.coefficients.get(e, 0)
           for e in set(f0.coefficients) | set(f1.coefficients)}
    assert integer_matrix_rank([[f.get(e, 0) for e in sorted(f01)]
                                for f in (f0.coefficients, f01)]) == 2
    corrupted["rank deficient or uncertified: function 0"] = (
        f0, ResonanceBasisFunction(f01))
    for message, basis in corrupted.items():
        with pytest.raises(BasisConstructionError, match=message):
            _verify_basis(dumbbell, sub, basis, rep.dim)
