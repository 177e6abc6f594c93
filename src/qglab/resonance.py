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

The explicit basis (`with_basis`) reads the parity of each fundamental
cycle of G_s from the forest the count grew (`LambdaSubgraph.forest`), whose
tree its cycle system reuses.  `_construct_basis` winds each cycle once,
and the winding checks the forest's parity; `_verify_basis` reads each
function's support once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from .graphs import CycleWalk, MetricGraph, _forest, cycle_system
from .lengths import LambdaSubgraph, Step, StepTable, build_lambda_subgraph


class BasisConstructionError(RuntimeError):
    """A constructed resonance basis violated an exact constraint.

    This always signals an implementation bug, never a property of the
    input; it is raised instead of silently returning a bad basis.
    """


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


def table_counts(graph: MetricGraph, table: StepTable) -> list[tuple[int, int]]:
    """(beta1, beta0_odd) at each row (unit, p, q) of `table`, s = (p/q)*g;
    dim R is their difference.  Rows that agree in (unit, p) share one
    `_forest` (module docstring), grown at the first of them: beta1 is its
    chord count, beta0_odd its odd-tree count if q is odd, else 0.  The
    table's steps are in the length range (`lengths.step_table`)."""
    forests: dict[tuple[str, int], tuple[int, int]] = {}
    out = []
    for _, _, (unit, p, q) in table.rows:
        counts = forests.get((unit, p))
        if counts is None:
            pairs = [(e, m // p % 2) for e, m in zip(graph.edges, table.mults)
                     if e.length.unit == unit and m % p == 0]
            _, chords, odd, _ = _forest(graph.vertices, [e for e, _ in pairs],
                                        [w for _, w in pairs])
            counts = forests[unit, p] = (len(chords), odd)
        out.append(counts if q % 2 else (counts[0], 0))
    return out


def resonance_dimension(graph: MetricGraph, step: Step,
                        with_basis: bool = False) -> ResonanceReport:
    """dim of the resonance space at lambda = pi^2/s^2: the cycle count
    minus the odd-component count of G_s, from one `_forest` over
    `build_lambda_subgraph` with weights n_e mod 2 (module docstring,
    `LambdaSubgraph.forest`).  With `with_basis`, also an explicit basis,
    built from the cycles and chord parities of that forest and checked
    against that count."""
    sub = build_lambda_subgraph(graph, step)
    _, chords, odd, _ = sub.forest
    beta1 = len(chords)
    rep = ResonanceReport(step, step.lambda_value(graph.units), beta1, odd, beta1 - odd)
    if not with_basis:
        return rep
    basis = tuple(_construct_basis(sub))
    _verify_basis(graph, sub, basis, rep.dim)
    return replace(rep, basis=basis)


# ---------------------------------------------------------------------------
# Constructive basis


def _spool(walk_steps, n_of) -> tuple[dict[str, int], int]:
    """The coefficients of sin(pi*x/s) wound along a walk, and the parity of
    the walk's total step count; on a closed walk the winding closes
    exactly when that parity is even.

    Traversing an edge forward after total step count p contributes (-1)^p;
    backward it contributes -(-1)^(p+n_e).  An edge walked more than once
    can cancel to 0; only the nonzero coefficients are returned.
    """
    b: dict[str, int] = {}
    odd = 0
    for eid, d in walk_steps:
        n = n_of[eid] & 1
        b[eid] = b.get(eid, 0) + (1 - 2 * odd if d > 0 else 2 * (odd ^ n) - 1)
        odd ^= n
    return {eid: c for eid, c in b.items() if c}, odd


def _construct_basis(sub: LambdaSubgraph):
    """One function per fundamental cycle of G_s, except the anchor of each
    odd component: its first odd cycle in chord order.  Components come in
    the order of their roots in `sub.vertices`, each cycle's parity from the
    forest (`LambdaSubgraph.forest`).

    An even cycle is spooled as it is.  An odd cycle cj is spooled along the
    closed walk cj, P, anchor, P reversed, where P is the forest path from
    cj's start to the anchor's start; its total step count is
    odd + odd + 2|P|, which is even.  The functions are independent: each
    fundamental cycle holds exactly one chord and P holds none, so the
    function for cj has coefficient +-1 on cj's chord, touches no chord but
    the anchor's besides, and no other function touches cj's chord.  Each
    winding checks the forest: every spooled walk must end even and each
    anchor, wound once, odd.
    """
    system = cycle_system(sub.vertices, sub.edges, sub.forest)
    root = system.root
    pos = {v: i for i, v in enumerate(sub.vertices)}
    n_of = {e.id: n for e, n in sub.members}
    anchors: dict[str, CycleWalk] = {}
    out = []
    for cj, odd in sorted(zip(system.cycles, sub.forest[3]),
                          key=lambda c: pos[root[c[0].start]]):
        steps = cj.steps
        if odd:
            anchor = anchors.setdefault(root[cj.start], cj)
            if anchor is cj:
                if not _spool(steps, n_of)[1]:
                    raise BasisConstructionError("anchor cycle has even total step count")
                continue
            path = system.path(cj.start, anchor.start)
            steps += path + anchor.steps + tuple((eid, -d) for eid, d in reversed(path))
        b, end = _spool(steps, n_of)
        if end:
            raise BasisConstructionError("spooled walk has odd total step count")
        out.append(ResonanceBasisFunction(b))
    return out


def _verify_basis(graph: MetricGraph, sub: LambdaSubgraph, basis, dim: int):
    """Exact a-posteriori checks; failure means a bug in the constructor.

    `dim` is beta1 - beta0_odd of the weighted forest of G_s: its chords
    less its odd trees (Harary's test).  The basis has one function per
    fundamental cycle less one per component with an odd chord, whose
    oddness the winding confirmed, so the size check compares the odd-tree
    count with the walked parities.  Each function's support (its nonzero
    coefficients) is read once, for membership in G_s, the Kirchhoff
    balance at every vertex and the count of functions touching each edge.  Full rank is certified by private
    edges: each function touches an edge that no other function touches, so
    those edges pick out a dim x dim diagonal submatrix with a nonzero
    diagonal.
    """
    if len(basis) != dim:
        raise BasisConstructionError(
            f"constructed {len(basis)} functions, expected {dim}")
    # edge id -> (origin, terminus, (-1)^n_e)
    ends = {e.id: (e.origin, e.terminus, 1 - 2 * (n & 1)) for e, n in sub.members}
    touches: dict[str, int] = {}
    supports = []
    for f in basis:
        support = []
        bal: dict[str, int] = {}
        for eid, b in f.coefficients.items():
            if not b:
                continue
            if eid not in ends:
                raise BasisConstructionError("basis function leaves the subgraph")
            o, t, sign = ends[eid]
            bal[t] = bal.get(t, 0) + b * sign
            bal[o] = bal.get(o, 0) - b
            touches[eid] = touches.get(eid, 0) + 1
            support.append(eid)
        if not support:
            raise BasisConstructionError("trivial basis function")
        if any(bal.values()):
            v = next(v for v in graph.vertices if bal.get(v))
            raise BasisConstructionError(
                f"Kirchhoff balance violated at vertex {v}")
        supports.append(support)
    for i, support in enumerate(supports):
        if all(touches[eid] > 1 for eid in support):
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
