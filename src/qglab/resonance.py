"""Real resonances of the Kirchhoff Laplacian, exactly.

The resonance space at lambda = pi^2/s^2 consists of eigenfunctions that
vanish at every vertex; its dimension is the number of independent cycles of
the step subgraph minus the number of its components containing a cycle of
odd total step count.  Everything in this module is integer/rational
arithmetic - no tolerances.

The dimension depends only on (unit, p, q mod 2).  Within one unit let g be
the gcd of the edge coefficients, L(e) = m_e*g, and s = (p/q)*g in lowest
terms.  Then L(e)/s = m_e*q/p is an integer exactly when p | m_e, so G_s is
fixed by p; and a cycle's step count is q*sum(m_e/p), so its parity is
fixed by q mod 2.  On the bundled dumbbell, the steps 1*sqrt3 and
1/2*sqrt3 have the same G_s (two sqrt3 triangles, beta1 = 2), but at q = 1
both triangles are odd (beta0_odd = 2, dim 0) and at q = 2 neither is
(beta0_odd = 0, dim 2).

A component is odd exactly when the signed graph with edge signs
(-1)^{n_e} is unbalanced (Harary's balance test, Michigan Math. J. 2, 1953),
so no count walks a cycle.  At one step (`resonance_dimension`) one
`graphs._forest` over G_s with weights n_e mod 2 gives beta1 (its chords)
and beta0_odd (its odd trees).  Over a step table (`table_counts`) one
forest per (unit, p) over the edges with p | m_e and weights (m_e/p) mod 2
serves every q: for even q every n_e is even and beta0_odd = 0.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from typing import Optional

from .graphs import CycleSystem, CycleWalk, MetricGraph, _forest, cycle_system, out_of_range
from .lengths import LambdaSubgraph, Step, StepTable, build_lambda_subgraph


class BasisConstructionError(RuntimeError):
    """A constructed resonance basis violated an exact constraint.

    This always signals an implementation bug, never a property of the
    input; it is raised instead of silently returning a bad basis.
    """


@dataclass(frozen=True)
class ParityComponent:
    vertices: tuple[str, ...]
    edge_ids: tuple[str, ...]
    cycles: tuple[CycleWalk, ...]   # fundamental cycles, by chord id
    odd_witness: Optional[CycleWalk]  # the first odd one of them

    @property
    def beta1(self) -> int:
        return len(self.cycles)

    @property
    def is_odd(self) -> bool:
        """Whether the component contains a cycle of odd total step count."""
        return self.odd_witness is not None


@dataclass(frozen=True)
class ParityReport:
    components: tuple[ParityComponent, ...]
    system: CycleSystem             # forest of the whole step subgraph

    @property
    def beta1(self) -> int:
        return sum(c.beta1 for c in self.components)

    @property
    def beta0_odd(self) -> int:
        return sum(1 for c in self.components if c.is_odd)


def _walk_parity(walk: CycleWalk, n_of) -> int:
    return sum(n_of[eid] for eid, _ in walk.steps) % 2


def parity_report(sub: LambdaSubgraph) -> ParityReport:
    """Per-component cycle count and oddness of the step subgraph.

    The fundamental cycles of a spanning forest form a basis of the cycle
    space over GF(2), and the parity of a cycle (its total step count mod 2)
    is linear on that space.  So a component contains an odd cycle exactly
    when one of its fundamental cycles is odd.  Its beta1 is its chord count
    and its witness is its first odd fundamental cycle in chord-id order.
    """
    edges = sub.edges
    system = cycle_system(sub.vertices, edges)
    n_of = {e.id: n for e, n in sub.members}
    parts = {system.root[v]: ([], [], []) for v in sub.vertices}
    for v in sub.vertices:
        parts[system.root[v]][0].append(v)
    for e in edges:
        parts[system.root[e.origin]][1].append(e.id)
    for c in system.cycles:
        parts[system.root[c.start]][2].append(c)
    comps = []
    for verts, eids, cycles in parts.values():
        witness = next((c for c in cycles if _walk_parity(c, n_of)), None)
        comps.append(ParityComponent(tuple(verts), tuple(eids), tuple(cycles),
                                     witness))
    return ParityReport(tuple(comps), system)


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
    basis: Optional[tuple[ResonanceBasisFunction, ...]] = None

    @property
    def is_resonance(self) -> bool:
        return self.dim > 0


def table_counts(graph: MetricGraph, table: StepTable) -> list[tuple[int, int]]:
    """(beta1, beta0_odd) at each row (unit, p, q) of `table`, s = (p/q)*g;
    dim R is their difference.  Rows that agree in (unit, p) share one
    `_forest` (module docstring), grown once the first of them is found in
    the length range: beta1 is its chord count, beta0_odd its odd-tree
    count if q is odd, else 0."""
    forests: dict[tuple[str, int], tuple[int, int]] = {}
    out = []
    for _, s, (unit, p, q) in table.rows:
        counts = forests.get((unit, p))
        if counts is None:
            wrong = out_of_range(s)
            if wrong:
                raise ValueError(f"step has {wrong}")
            pairs = [(e, m // p % 2) for e, m in zip(graph.edges, table.mults)
                     if e.length.unit == unit and m % p == 0]
            _, chords, odd = _forest(graph.vertices, [e for e, _ in pairs],
                                     [w for _, w in pairs])
            counts = forests[unit, p] = (len(chords), odd)
        out.append(counts if q % 2 else (counts[0], 0))
    return out


def resonance_dimension(graph: MetricGraph, step: Step,
                        with_basis: bool = False) -> ResonanceReport:
    """dim of the resonance space at lambda = pi^2/s^2: the cycle count
    minus the odd-component count of G_s, from one `_forest` over
    `build_lambda_subgraph` with weights n_e mod 2 (module docstring).
    With `with_basis`, also an explicit basis, built from the
    `parity_report` of the same G_s and checked against that count."""
    sub = build_lambda_subgraph(graph, step)
    _, chords, odd = _forest(sub.vertices, sub.edges, [n % 2 for _, n in sub.members])
    beta1 = len(chords)
    rep = ResonanceReport(step, step.lambda_value(graph.units), beta1, odd, beta1 - odd)
    if not with_basis:
        return rep
    basis = tuple(_construct_basis(sub, parity_report(sub)))
    _verify_basis(graph, sub, basis, rep.dim)
    return replace(rep, basis=basis)


# ---------------------------------------------------------------------------
# Constructive basis


def _spool(walk_steps, n_of) -> dict[str, int]:
    """Wind sin(pi*x/s) along a closed walk; accumulate per-edge coefficients.

    Traversing an edge forward after total step count p contributes (-1)^p;
    backward it contributes -(-1)^(p+n_e).  Closure requires the total step
    count of the walk to be even.  An edge walked more than once can cancel
    to 0; only the nonzero coefficients are returned.
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
    return {eid: c for eid, c in b.items() if c}


def _construct_basis(sub: LambdaSubgraph, rep: ParityReport):
    """One function per fundamental cycle, except the odd witness (anchor) of
    an odd component.

    An even cycle is spooled as it is.  An odd cycle cj is spooled along the
    closed walk cj, P, anchor, P reversed, where P is the forest path from
    cj's start to the anchor's start; its total step count is
    odd + odd + 2|P|, which is even.  The functions are independent: each
    fundamental cycle holds exactly one chord and P holds none, so the
    function for cj has coefficient +-1 on cj's chord, touches no chord but
    the anchor's besides, and no other function touches cj's chord.
    """
    n_of = {e.id: n for e, n in sub.members}
    out = []
    for comp in rep.components:
        anchor = comp.odd_witness       # smallest chord id among the odd ones
        for cj in comp.cycles:
            if cj is anchor:
                continue
            steps = cj.steps
            if _walk_parity(cj, n_of):
                path = rep.system.path(cj.start, anchor.start)
                back = tuple((eid, -d) for eid, d in reversed(path))
                steps = steps + path + anchor.steps + back
            out.append(ResonanceBasisFunction(_spool(steps, n_of)))
    return out


def _verify_basis(graph: MetricGraph, sub: LambdaSubgraph, basis, dim: int):
    """Exact a-posteriori checks; failure means a bug in the constructor.

    `dim` is beta1 - beta0_odd of the weighted forest that
    `resonance_dimension` grows over G_s, not of the cycle system and the
    walked parities the basis was spooled from, so the size check compares
    two independent counts.  Full rank is certified by private edges: each
    function touches an edge that no other function touches, so those edges
    pick out a dim x dim diagonal submatrix with a nonzero diagonal.
    """
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
    touches = Counter(eid for f in basis for eid in f.support())
    for i, f in enumerate(basis):
        if all(touches[eid] > 1 for eid in f.support()):
            raise BasisConstructionError(
                f"rank deficient or uncertified: function {i} has no edge of its own")


# ---------------------------------------------------------------------------
# Independent exact oracle


def integer_matrix_rank(rows) -> int:
    """Rank of an integer matrix by fraction-free (Bareiss) elimination; the
    oracle's, while the basis path certifies rank by private edges."""
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
    rows = {v: [0] * len(sub.members) for v in sub.vertices}
    for i, (e, n) in enumerate(sub.members):
        rows[e.terminus][i] += (-1) ** n
        rows[e.origin][i] -= 1
    return len(sub.members) - integer_matrix_rank(list(rows.values()))
