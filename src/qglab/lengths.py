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

from .graphs import (CycleWalk, Edge, ExactLength, MetricGraph, betti, cycle_system,
                     out_of_range)
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


def _check_unit(graph: MetricGraph, step: Step) -> None:
    if step.unit not in graph.units:
        raise ValueError(f"step unit {step.unit!r} not declared in graph")
    wrong = out_of_range(step, graph.units)
    if wrong:
        raise ValueError(f"step has {wrong}")


def build_lambda_subgraph(graph: MetricGraph, step: Step) -> LambdaSubgraph:
    """Subgraph of edges with L(e) = n*s for a positive integer n (exact):
    the definition, one rational division (a/b)/(c/d) = (a*d)/(b*c) per
    edge in integers, which the oracle uses."""
    _check_unit(graph, step)
    c, d = step.coeff.numerator, step.coeff.denominator
    members = []
    for e in graph.edges:
        if e.length.unit != step.unit:
            continue
        n, r = divmod(e.length.coeff.numerator * d, e.length.coeff.denominator * c)
        if r == 0:
            members.append((e, n))
    ends = {v for e, _ in members for v in (e.origin, e.terminus)}
    return LambdaSubgraph(step, tuple(members), tuple(v for v in graph.vertices if v in ends))


def fraction_gcd(*xs: Fraction) -> Fraction:
    """gcd(p1/q1, p2/q2, ...) = gcd(p1, p2, ...) / lcm(q1, q2, ...)."""
    return Fraction(math.gcd(*(x.numerator for x in xs)),
                    math.lcm(*(x.denominator for x in xs)))


def _unit_multiples(graph: MetricGraph) -> tuple[dict[str, Fraction], list[int]]:
    """The gcd g of each used unit's coefficients, and m_e = L(e)/g for each
    edge in graph order: (a/G)*(D/b) for L(e) = a/b and g = G/D."""
    coeffs: dict[str, list[Fraction]] = {}
    for e in graph.edges:
        coeffs.setdefault(e.length.unit, []).append(e.length.coeff)
    gcds = {unit: fraction_gcd(*cs) for unit, cs in coeffs.items()}
    mults = []
    for e in graph.edges:
        c, g = e.length.coeff, gcds[e.length.unit]
        mults.append(c.numerator // g.numerator * (g.denominator // c.denominator))
    return gcds, mults


def _step_ratio(step: Step, g: Fraction) -> tuple[int, int]:
    """(p, q) with s = (p/q)*g and gcd(p, q) = 1.

    An edge with L(e) = m_e*g is a multiple of s exactly when p | m_e, and
    then n_e = (m_e/p)*q.
    """
    num = step.coeff.numerator * g.denominator
    den = step.coeff.denominator * g.numerator
    d = math.gcd(num, den)
    return num // d, den // d


# The most (edge, n) pairs, sum_e floor(L_e*sqrt(lambda_max)/pi), that
# `candidate_steps` enumerates; more is a ValueError.  Each pair costs about
# a microsecond and, as a distinct step, a few hundred bytes, and the
# spectral commands count at about as many points.
MAX_STEP_PAIRS = 100_000


def candidate_steps(graph: MetricGraph, lambda_max: float) -> list[Step]:
    """All distinct steps s = L(e)/n with pi^2/s^2 <= lambda_max.

    These are exactly the spectral points where the step subgraph is
    nonempty.  Sorted by ascending lambda (unit approximations are used for
    ordering only), ties in the order the steps are first met.  A step is
    named exactly by its unit and the integers (m_e/d, n/d), d = gcd(m_e, n):
    s = L(e)/n = (m_e/d)/(n/d)*g.  Above `MAX_STEP_PAIRS` (edge, n) pairs,
    counted in O(E) before any is made, this is a ValueError.
    """
    if not 0 < lambda_max < math.inf:
        raise ValueError("lambda_max must be positive and finite")
    smin = math.pi / math.sqrt(lambda_max)
    lengths = [e.length.value(graph.units) for e in graph.edges]
    # each count capped, so the sum stays a small int and exceeds the cap
    # exactly when the true sum does
    nmaxes = [int(min(x / smin + 1e-12, MAX_STEP_PAIRS + 1)) for x in lengths]
    if sum(nmaxes) > MAX_STEP_PAIRS:
        raise ValueError(
            f"lambda_max = {lambda_max:g} needs more than MAX_STEP_PAIRS = "
            f"{MAX_STEP_PAIRS} candidate (edge, n) pairs; Weyl's estimate "
            f"L_tot*sqrt(lambda_max)/pi of the eigenvalue count is "
            f"{math.fsum(lengths) / smin:.3g}")
    _, mults = _unit_multiples(graph)
    steps: dict[tuple[str, int, int], tuple[float, Step]] = {}   # insertion order breaks ties
    for e, m, nmax in zip(graph.edges, mults, nmaxes):
        unit = e.length.unit
        for n in range(1, nmax + 1):
            d = math.gcd(m, n)
            key = (unit, m // d, n // d)
            if key not in steps:
                step = Step(e.length.coeff / n, unit)
                steps[key] = (step.lambda_value(graph.units), step)
    return [s for lam, s in sorted(steps.values(), key=lambda x: x[0]) if lam <= lambda_max]


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
    `Step.value`.  Each divisor is tested by a `betti` count; the witness
    comes from one `cycle_system`, at the s* returned.
    """
    best: Optional[tuple[Step, list[Edge]]] = None
    best_val = -math.inf
    gcds, mults = _unit_multiples(graph)
    for unit in graph.units.tokens():
        pairs = [(e, m) for e, m in zip(graph.edges, mults) if e.length.unit == unit]
        edges = [e for e, _ in pairs]
        if betti(graph.vertices, edges).beta1 == 0:
            continue
        g = gcds[unit]
        for k in sorted(set().union(*(_divisors(m) for _, m in pairs)), reverse=True):
            sub = [e for e, m in pairs if m % k == 0]
            if betti(graph.vertices, sub).beta1:
                u = Step(k * g, unit)
                if u.value(graph.units) > best_val:
                    best_val = u.value(graph.units)
                    best = (u, sub)
                break
    if best is None:
        return ResonanceFloor(math.inf, None, None)
    u, sub = best
    return ResonanceFloor(math.pi ** 2 / best_val ** 2, u,
                          cycle_system(graph.vertices, sub).cycles[0])
