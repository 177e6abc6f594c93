"""Real resonances of the Kirchhoff Laplacian, exactly.

The resonance space at lambda = pi^2/s^2 consists of eigenfunctions that
vanish at every vertex; its dimension is the number of independent cycles of
the step subgraph minus the number of its components containing a cycle of
odd total step count.  Everything in this module is integer/rational
arithmetic - no tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .graphs import CycleWalk, Edge, MetricGraph, betti, connected_components, cycle_system
from .lengths import LambdaSubgraph, Step, build_lambda_subgraph


class BasisConstructionError(RuntimeError):
    """A constructed resonance basis violated an exact constraint.

    This always signals an implementation bug, never a property of the
    input; it is raised instead of silently returning a bad basis.
    """


@dataclass(frozen=True)
class ParityComponent:
    vertices: tuple[str, ...]
    edge_ids: tuple[str, ...]
    beta1: int
    is_odd: bool                    # contains a cycle of odd total step count
    odd_witness: Optional[CycleWalk]


@dataclass(frozen=True)
class ParityReport:
    components: tuple[ParityComponent, ...]

    @property
    def beta1(self) -> int:
        return sum(c.beta1 for c in self.components)

    @property
    def beta0_odd(self) -> int:
        return sum(1 for c in self.components if c.is_odd)


def parity_report(sub: LambdaSubgraph) -> ParityReport:
    """Per-component cycle count and oddness of the step subgraph.

    Oddness is decided by a parity labeling on n_e mod 2: a component has an
    odd cycle iff the labeling admits no consistent vertex 2-coloring.  The
    witness is the conflicting edge plus the BFS-tree path between its
    endpoints (or an odd loop).
    """
    comps = []
    for verts, edges in connected_components(sub.vertices, sub.edges):
        n_of = {e.id: sub.multiplicity(e.id) for e in edges}
        b = betti(verts, edges)
        witness = _odd_cycle_witness(verts, edges, n_of)
        comps.append(ParityComponent(verts, tuple(e.id for e in edges),
                                     b.beta1, witness is not None, witness))
    return ParityReport(tuple(comps))


def _odd_cycle_witness(vertices, edges, n_of) -> Optional[CycleWalk]:
    """Parity-BFS 2-coloring; returns an odd closed walk on conflict."""
    for e in edges:
        if e.is_loop and n_of[e.id] % 2 == 1:
            return CycleWalk(e.origin, ((e.id, 1),))
    color: dict[str, int] = {}
    # BFS-tree bookkeeping for witness reconstruction
    prev: dict[str, tuple[str, Edge]] = {}
    adj: dict[str, list[Edge]] = {v: [] for v in vertices}
    for e in edges:
        if not e.is_loop:
            adj[e.origin].append(e)
            adj[e.terminus].append(e)
    for start in vertices:
        if start in color:
            continue
        color[start] = 0
        frontier = [start]
        while frontier:
            nxt = []
            for u in frontier:
                for e in adj[u]:
                    w = e.terminus if e.origin == u else e.origin
                    want = (color[u] + n_of[e.id]) % 2
                    if w not in color:
                        color[w] = want
                        prev[w] = (u, e)
                        nxt.append(w)
                    elif color[w] != want:
                        return _conflict_cycle(u, w, e, prev)
            frontier = nxt
    return None


def _conflict_cycle(u: str, w: str, e: Edge, prev) -> CycleWalk:
    """Tree path u->w (via common ancestor) closed by the conflict edge."""
    anc_u = {u}
    x = u
    while x in prev:
        x = prev[x][0]
        anc_u.add(x)
    x = w
    while x not in anc_u:
        x = prev[x][0]
    meet = x
    # walk u -e-> w, then w -> meet, then meet -> u (all along the BFS tree)
    w_to_meet = []
    x = w
    while x != meet:
        p, pe = prev[x]
        w_to_meet.append((pe.id, 1 if pe.terminus == p else -1))
        x = p
    meet_to_u = []
    x = u
    while x != meet:
        p, pe = prev[x]
        meet_to_u.append((pe.id, 1 if pe.terminus == x else -1))
        x = p
    meet_to_u.reverse()
    steps = [(e.id, 1 if e.origin == u else -1)] + w_to_meet + meet_to_u
    return CycleWalk(u, tuple(steps))


# ---------------------------------------------------------------------------
# Theorem side


@dataclass(frozen=True)
class ResonanceBasisFunction:
    """Eigenfunction b_e*sin((pi/s)x) per edge, integer coefficients."""

    coefficients: dict[str, int]    # edge id -> b_e, support only

    def support(self) -> frozenset:
        return frozenset(e for e, b in self.coefficients.items() if b)


@dataclass(frozen=True)
class ResonanceReport:
    step: Step
    lam: float
    beta1: int
    beta0_odd: int
    dim: int
    parity: ParityReport
    basis: Optional[tuple[ResonanceBasisFunction, ...]] = None

    @property
    def is_resonance(self) -> bool:
        return self.dim > 0


def resonance_dimension(graph: MetricGraph, step: Step,
                        with_basis: bool = False) -> ResonanceReport:
    """dim of the resonance space at lambda = pi^2/s^2, by the cycle count
    minus odd-component count, optionally with an explicit basis."""
    sub = build_lambda_subgraph(graph, step)
    rep = parity_report(sub)
    dim = rep.beta1 - rep.beta0_odd
    basis = None
    if with_basis:
        basis = tuple(_construct_basis(graph, sub, rep))
        _verify_basis(graph, sub, basis, dim)
    return ResonanceReport(step, step.lambda_value(graph), rep.beta1,
                           rep.beta0_odd, dim, rep, basis)


# ---------------------------------------------------------------------------
# Constructive basis


def _spool(walk_steps, n_of) -> dict[str, int]:
    """Wind sin(pi*x/s) along a closed walk; accumulate per-edge coefficients.

    Traversing an edge forward after total step count p contributes (-1)^p;
    backward it contributes -(-1)^(p+n_e).  Closure requires the total step
    count of the walk to be even.
    """
    b: dict[str, int] = {}
    p = 0
    for eid, d in walk_steps:
        n = n_of[eid]
        sgn = 1 if p % 2 == 0 else -1
        if d > 0:
            b[eid] = b.get(eid, 0) + sgn
        else:
            b[eid] = b.get(eid, 0) - sgn * (1 if n % 2 == 0 else -1)
        p += n
    if p % 2 != 0:
        raise BasisConstructionError("spooled walk has odd total step count")
    return b


def _walk_parity(walk: CycleWalk, n_of) -> int:
    return sum(n_of[eid] for eid in walk.edge_ids()) % 2


def _construct_basis(graph: MetricGraph, sub: LambdaSubgraph,
                     rep: ParityReport):
    edges_by_id = {e.id: e for e in sub.edges}
    n_of = {e.id: n for e, n in sub.members}
    out = []
    for comp in rep.components:
        cedges = [edges_by_id[i] for i in comp.edge_ids]
        cs = cycle_system(comp.vertices, cedges)
        if not cs.chords:
            continue
        cycles = dict(zip(cs.chords, cs.cycles))
        if not comp.is_odd:
            for chord in cs.chords:
                out.append(ResonanceBasisFunction(_spool(cycles[chord].steps, n_of)))
            continue
        odd_chords = [c for c in cs.chords if _walk_parity(cycles[c], n_of) == 1]
        if not odd_chords:
            raise BasisConstructionError(
                "odd component without odd fundamental cycle")
        anchor = odd_chords[0]          # smallest chord id among the odd ones
        c_anchor = cycles[anchor]
        for chord in cs.chords:
            if chord == anchor:
                continue
            cj = cycles[chord]
            if _walk_parity(cj, n_of) == 0:
                out.append(ResonanceBasisFunction(_spool(cj.steps, n_of)))
            elif set(cj.edge_ids()) & set(c_anchor.edge_ids()):
                walk = _symmetric_difference_cycle(cj, c_anchor, edges_by_id)
                out.append(ResonanceBasisFunction(_spool(walk.steps, n_of)))
            else:
                steps = _joined_walk(cj, c_anchor, cs, edges_by_id, comp.vertices)
                out.append(ResonanceBasisFunction(_spool(steps, n_of)))
    return out


def _symmetric_difference_cycle(c1: CycleWalk, c2: CycleWalk,
                                edges_by_id) -> CycleWalk:
    """The single cycle formed by the symmetric difference of two
    fundamental cycles that share at least one edge."""
    eids = set(c1.edge_ids()) ^ set(c2.edge_ids())
    adj: dict[str, list[Edge]] = {}
    for eid in eids:
        e = edges_by_id[eid]
        adj.setdefault(e.origin, []).append(e)
        adj.setdefault(e.terminus, []).append(e)
    if any(len(es) != 2 for es in adj.values()):
        raise BasisConstructionError(
            "symmetric difference of sharing cycles is not a single cycle")
    start = min(adj)
    steps: list[tuple[str, int]] = []
    v = start
    used: set[str] = set()
    while True:
        e = next((e for e in adj[v] if e.id not in used), None)
        if e is None:
            break
        used.add(e.id)
        d = 1 if e.origin == v else -1
        steps.append((e.id, d))
        v = e.terminus if d > 0 else e.origin
        if v == start:
            break
    if len(used) != len(eids) or v != start:
        raise BasisConstructionError(
            "symmetric difference walk did not close over all edges")
    return CycleWalk(start, tuple(steps))


def _joined_walk(cj: CycleWalk, cb: CycleWalk, cs, edges_by_id,
                 vertices) -> tuple:
    """Closed walk: cj, connecting tree path, cb, path reversed."""
    cj_verts = set(cj.vertex_sequence(edges_by_id))
    cb_verts = set(cb.vertex_sequence(edges_by_id))
    shared = sorted(cj_verts & cb_verts)
    if shared:
        a = b = shared[0]
        path: list[tuple[str, int]] = []
    else:
        a, b, path = _tree_path_between(cj_verts, cb_verts, cs, edges_by_id, vertices)
    w1 = cj.rotated_to(a, edges_by_id)
    w2 = cb.rotated_to(b, edges_by_id)
    rev = [(eid, -d) for eid, d in reversed(path)]
    return tuple(w1.steps) + tuple(path) + tuple(w2.steps) + tuple(rev)


def _tree_path_between(src: set, dst: set, cs, edges_by_id, vertices):
    tree_adj: dict[str, list[Edge]] = {v: [] for v in vertices}
    for eid in cs.tree_edges:
        e = edges_by_id[eid]
        tree_adj[e.origin].append(e)
        tree_adj[e.terminus].append(e)
    prev: dict[str, tuple[str, Edge]] = {}
    seen = set(src)
    frontier = sorted(src)
    target = None
    while frontier and target is None:
        nxt = []
        for u in frontier:
            for e in tree_adj[u]:
                w = e.terminus if e.origin == u else e.origin
                if w in seen:
                    continue
                seen.add(w)
                prev[w] = (u, e)
                if w in dst:
                    target = w
                    break
                nxt.append(w)
            if target:
                break
        frontier = nxt
    if target is None:
        raise BasisConstructionError("cycles not connected within component")
    steps = []
    x = target
    while x not in src:
        u, e = prev[x]
        steps.append((e.id, 1 if e.terminus == x else -1))
        x = u
    steps.reverse()
    return x, target, steps


def _verify_basis(graph: MetricGraph, sub: LambdaSubgraph, basis, dim: int):
    """Exact a-posteriori checks; failure means a bug in the constructor."""
    if len(basis) != dim:
        raise BasisConstructionError(
            f"constructed {len(basis)} functions, expected {dim}")
    members = {e.id: (e, n) for e, n in sub.members}
    member_ids = set(members)
    for f in basis:
        support = f.support()
        if not support:
            raise BasisConstructionError("trivial basis function")
        if not support <= member_ids:
            raise BasisConstructionError("basis function leaves the subgraph")
        bal: dict[str, int] = {}
        for eid in support:
            e, n = members[eid]
            b = f.coefficients[eid]
            bal[e.terminus] = bal.get(e.terminus, 0) + b * (1 if n % 2 == 0 else -1)
            bal[e.origin] = bal.get(e.origin, 0) - b
        if any(bal.values()):
            v = next(v for v in graph.vertices if bal.get(v))
            raise BasisConstructionError(
                f"Kirchhoff balance violated at vertex {v}")
    cols = sorted(member_ids)
    mat = [[f.coefficients.get(c, 0) for c in cols] for f in basis]
    if integer_matrix_rank(mat) != dim:
        raise BasisConstructionError("basis coefficient matrix rank deficient")


# ---------------------------------------------------------------------------
# Independent exact oracle


def integer_matrix_rank(rows) -> int:
    """Rank of an integer matrix by fraction-free (Bareiss) elimination."""
    m = [[int(x) for x in row] for row in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    rank = 0
    prev = 1
    for c in range(nc):
        piv = next((i for i in range(rank, nr) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(rank + 1, nr):
            for j in range(c + 1, nc):
                m[i][j] = (m[i][j] * m[rank][c] - m[i][c] * m[rank][j]) // prev
            m[i][c] = 0
        prev = m[rank][c]
        rank += 1
    return rank


def resonance_dimension_oracle(graph: MetricGraph, step: Step) -> int:
    """Exact nullity of the vertex balance system - independent of the
    cycle/parity route.

    Ansatz b_e*sin((pi/s)x) on each subgraph edge (zero at both endpoints by
    construction); the only constraints are the Kirchhoff balances
    sum_{t(e)=v} b_e*(-1)^{n_e} - sum_{o(e)=v} b_e = 0 at every vertex.
    """
    sub = build_lambda_subgraph(graph, step)
    if sub.is_empty():
        return 0
    cols = [e.id for e in sub.edges]
    col_ix = {c: i for i, c in enumerate(cols)}
    n_of = {e.id: n for e, n in sub.members}
    rows = []
    for v in graph.vertices:
        row = [0] * len(cols)
        touched = False
        for e in sub.edges:
            if e.terminus == v:
                row[col_ix[e.id]] += 1 if n_of[e.id] % 2 == 0 else -1
                touched = True
            if e.origin == v:
                row[col_ix[e.id]] -= 1
                touched = True
        if touched:
            rows.append(row)
    if not rows:
        return len(cols)
    return len(cols) - integer_matrix_rank(rows)
