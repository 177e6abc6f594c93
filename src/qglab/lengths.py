"""Exact commensurability arithmetic for edge lengths.

A step s = L(e)/n is an exact length like the edge lengths themselves, so
`Step` is `graphs.ExactLength`; it encodes the spectral point
lambda = pi^2/s^2.  Membership of an edge in the step subgraph is an exact
rational divisibility test and never depends on the floating approximations
of the units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .graphs import CycleWalk, Edge, ExactLength, MetricGraph, betti, cycle_system
# Not called here.  The benchmark tracer (perfbench/spans.py) looks this name
# up in this module; drop the import together with that target.
from .graphs import simple_cycles  # noqa: F401

# The paper's name for a half-wavelength s = coeff*unit.
Step = ExactLength


@dataclass(frozen=True)
class LambdaSubgraph:
    """Edges whose length is a natural multiple of the step, with counts."""

    step: Step
    members: tuple[tuple[Edge, int], ...]   # (edge, n) with L(e) = n*s
    vertices: tuple[str, ...]               # induced vertex set

    @property
    def edges(self) -> tuple[Edge, ...]:
        return tuple(e for e, _ in self.members)

    def is_empty(self) -> bool:
        return not self.members


def build_lambda_subgraph(graph: MetricGraph, step: Step) -> LambdaSubgraph:
    """Subgraph of edges with L(e) = n*s for a positive integer n (exact)."""
    if step.unit not in graph.units:
        raise ValueError(f"step unit {step.unit!r} not declared in graph")
    members = []
    for e in graph.edges:
        if e.length.unit != step.unit:
            continue
        ratio = e.length.coeff / step.coeff
        if ratio.denominator == 1:
            members.append((e, ratio.numerator))
    ends = {v for e, _ in members for v in (e.origin, e.terminus)}
    verts = tuple(v for v in graph.vertices if v in ends)
    return LambdaSubgraph(step, tuple(members), verts)


def candidate_steps(graph: MetricGraph, lambda_max: float) -> list[Step]:
    """All distinct steps s = L(e)/n with pi^2/s^2 <= lambda_max.

    These are exactly the spectral points where the step subgraph is
    nonempty.  Sorted by ascending lambda (unit approximations are used for
    ordering only); deduplicated by exact (coeff, unit).
    """
    if not 0 < lambda_max < math.inf:
        raise ValueError("lambda_max must be positive and finite")
    smin = math.pi / math.sqrt(lambda_max)
    lams: dict[Step, float] = {}    # insertion order breaks ties in lambda
    for e in graph.edges:
        ln = e.length.value(graph.units)
        nmax = int(math.floor(ln / smin + 1e-12))
        for n in range(1, nmax + 1):
            step = Step(e.length.coeff / n, e.length.unit)
            if step not in lams:
                lams[step] = step.lambda_value(graph.units)
    return sorted((s for s, lam in lams.items() if lam <= lambda_max), key=lams.get)


def fraction_gcd(a: Fraction, b: Fraction) -> Fraction:
    """gcd(p1/q1, p2/q2) = gcd(p1, p2) / lcm(q1, q2)."""
    num = math.gcd(a.numerator, b.numerator)
    den = a.denominator * b.denominator // math.gcd(a.denominator, b.denominator)
    return Fraction(num, den)


def _divisors(m: int) -> set[int]:
    small = [d for d in range(1, math.isqrt(m) + 1) if m % d == 0]
    return {*small, *(m // d for d in small)}


@dataclass(frozen=True)
class ResonanceFloor:
    """Lower bound below which no resonance exists, with its witness cycle."""

    lam: float                       # may be math.inf
    unit_length: Optional[Step]      # the maximizing common unit u_C
    cycle: Optional[CycleWalk]


def resonance_floor(graph: MetricGraph) -> ResonanceFloor:
    """inf of pi^2/u_C^2 over cycles C with commensurate edges.

    A cycle is commensurate iff all its edges carry the same unit token
    (units are declared pairwise incommensurable); u_C is the gcd of the
    rational coefficients times that unit.

    No cycle is enumerated.  Within one unit, let s* be the largest u_C.
    If the step subgraph G_s has a cycle C, every edge of C is a multiple
    of s, so u_C is a multiple of s and s <= s*; conversely the cycle
    attaining s* lies in G_{s*}.  So s* is the largest step s with
    beta1(G_s) > 0.  With g the gcd of the unit's coefficients and
    L(e) = m_e*g, every u_C is k*g for a divisor k of some m_e, so only
    those steps are tried, in descending order.  Any cycle of G_{s*} has
    u_C a multiple of s* and at most s*, so a fundamental cycle of G_{s*}
    is a witness whose gcd is exactly s*.  Units are compared by
    `Step.value`.
    """
    best: Optional[tuple[Step, CycleWalk]] = None
    best_val = -math.inf
    for unit in graph.units.tokens():
        edges = [e for e in graph.edges if e.length.unit == unit]
        if betti(graph.vertices, edges).beta1 == 0:
            continue
        g = Fraction(0)
        for e in edges:
            g = fraction_gcd(g, e.length.coeff)
        mult = [int(e.length.coeff / g) for e in edges]
        for k in sorted(set().union(*map(_divisors, mult)), reverse=True):
            sub = [e for e, m in zip(edges, mult) if m % k == 0]
            forest = cycle_system(graph.vertices, sub)
            if forest.chords:
                u = Step(k * g, unit)
                if u.value(graph.units) > best_val:
                    best_val = u.value(graph.units)
                    best = (u, forest.cycles[0])
                break
    if best is None:
        return ResonanceFloor(math.inf, None, None)
    u, cyc = best
    return ResonanceFloor(math.pi ** 2 / best_val ** 2, u, cyc)
