"""Exact commensurability arithmetic for edge lengths.

A step s = L(e)/n is an exact length like the edge lengths themselves, so
`Step` is `graphs.ExactLength`; it encodes the spectral point
lambda = pi^2/s^2.  Membership of an edge in the step subgraph is an exact
rational divisibility test and never depends on the floating approximations
of the units.

The candidate steps up to a cutoff are one `StepTable` (`step_table`): each
distinct step once, named by its integer key (unit, p, q), s = (p/q)*g with
g the gcd of the unit's edge coefficients, with its value and lambda
computed once from those integers, bit for bit those of its `Step`.  The
spectral brackets, `candidate_steps` and the resonance count of every row
(`resonance.table_counts`) read it: `resonances` straight from
`step_table`, `visibility` from the table its `Spectrum` carries.  A `Step`
is made only where one is asked for.  A step given on its own is valued
through `build_lambda_subgraph`, one exact division per edge.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import itemgetter
from typing import Optional

from .graphs import (CycleWalk, Edge, ExactLength, MetricGraph, _forest, cycle_system,
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

    @cached_property
    def forest(self) -> tuple[list[Edge], list[Edge], int, list[int]]:
        """`graphs._forest` over these edges with weights n mod 2: tree
        edges, chords, odd-tree count and the step-count parity of each
        chord's fundamental cycle, grown once for the resonance count and
        the basis (its cycle system and its anchors)."""
        return _forest(self.vertices, self.edges, [n & 1 for _, n in self.members])


def build_lambda_subgraph(graph: MetricGraph, step: Step) -> LambdaSubgraph:
    """Subgraph of edges with L(e) = n*s for a positive integer n (exact):
    the definition, one rational division (a/b)/(c/d) = (a*d)/(b*c) per
    edge in integers, which the oracle and `resonance_dimension` use."""
    if step.unit not in graph.units:
        raise ValueError(f"step unit {step.unit!r} not declared in graph")
    wrong = out_of_range(step, graph.units)
    if wrong:
        raise ValueError(f"step has {wrong}")
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


# The most (edge, n) pairs, sum_e max{n : pi^2/(L_e/n)^2 <= lambda_max},
# that `step_table` enumerates; more is a ValueError.  Each pair costs about
# a microsecond and, as a distinct step, a few hundred bytes, and the
# spectral commands count at about as many points.
MAX_STEP_PAIRS = 100_000


@dataclass(frozen=True)
class StepTable:
    """The distinct candidate steps s with pi^2/s^2 <= lambda_max
    (`step_table`), one row (lambda, s, key) each, lambda and s as floats,
    in ascending lambda, ties in the order first met.  The key
    (unit, p, q) names s exactly: s = (p/q)*g with gcd(p, q) = 1, where
    g = gcds[unit] is the gcd of the unit's edge coefficients and
    L(e) = mults[e]*g for the e-th edge (`_unit_multiples`)."""

    rows: list[tuple[float, float, tuple[str, int, int]]]
    gcds: dict[str, Fraction]
    mults: list[int]

    def steps(self) -> list[Step]:
        gcds = self.gcds
        return [Step(Fraction(p * gcds[u].numerator, q * gcds[u].denominator), u)
                for _, _, (u, p, q) in self.rows]

    def texts(self) -> list[str]:
        """str(step) of each row, from the reduced integers."""
        scale = {u: (g.numerator, g.denominator) for u, g in self.gcds.items()}
        out = []
        for _, _, (u, p, q) in self.rows:
            num, den = scale[u]
            num, den = p * num, q * den
            d = math.gcd(num, den)
            out.append(f"{num // d}*{u}" if d == den else f"{num // d}/{den // d}*{u}")
        return out


def step_table(graph: MetricGraph, lambda_max: float) -> StepTable:
    """All distinct steps s = L(e)/n with pi^2/s^2 <= lambda_max: exactly
    the spectral points where the step subgraph is nonempty.

    Each step is met as its key (unit, m_e/d, n/d), d = gcd(m_e, n), and its
    value and lambda are computed once by the float operations of
    `ExactLength.value` and `lambda_value`: int/int division is correctly
    rounded, so (p*G)/(q*D) for g = G/D is the float of the reduced
    coefficient, bit for bit.  Lambda does not decrease in n, so each edge's
    n run up to the last one with lambda <= lambda_max, which that lambda
    decides next to the estimate L_e*sqrt(lambda_max)/pi.  Their count is
    formed in O(E) before any step is made; above `MAX_STEP_PAIRS` it is a
    ValueError.  So is a smallest step outside `graphs.out_of_range`, with
    the message of `build_lambda_subgraph`, so that every step of the table
    is one the single-step route takes.
    """
    if not 0 < lambda_max < math.inf:
        raise ValueError("lambda_max must be positive and finite")
    units = graph.units
    gcds, mults = _unit_multiples(graph)
    scale = {u: (g.numerator, g.denominator, units.approx(u)) for u, g in gcds.items()}
    pi2 = math.pi ** 2

    def value(unit: str, num: int, den: int) -> float:
        g_num, g_den, approx = scale[unit]
        return num * g_num / (den * g_den) * approx

    smin = math.pi / math.sqrt(lambda_max)
    lengths = [e.length.value(units) for e in graph.edges]
    nmaxes = []
    for e, m, x in zip(graph.edges, mults, lengths):
        # each count capped, so the sum stays a small int and exceeds the cap
        # exactly when the true sum does
        n = int(min(x / smin, MAX_STEP_PAIRS + 1))
        while n > 0 and pi2 / value(e.length.unit, m, n) ** 2 > lambda_max:
            n -= 1
        while n <= MAX_STEP_PAIRS and pi2 / value(e.length.unit, m, n + 1) ** 2 <= lambda_max:
            n += 1
        nmaxes.append(n)
    if sum(nmaxes) > MAX_STEP_PAIRS:
        raise ValueError(
            f"lambda_max = {lambda_max:g} needs more than MAX_STEP_PAIRS = "
            f"{MAX_STEP_PAIRS} candidate (edge, n) pairs; Weyl's estimate "
            f"L_tot*sqrt(lambda_max)/pi of the eigenvalue count is "
            f"{math.fsum(lengths) / smin:.3g}")
    keys: dict[tuple[str, int, int], None] = {}    # insertion order breaks ties
    for e, m, nmax in zip(graph.edges, mults, nmaxes):
        unit = e.length.unit
        for n in range(1, nmax + 1):
            d = math.gcd(m, n)
            keys[unit, m // d, n // d] = None
    rows = []
    for key in keys:
        s = value(*key)
        rows.append((pi2 / s ** 2, s, key))
    rows.sort(key=itemgetter(0))
    wrong = out_of_range(min(s for _, s, _ in rows)) if rows else None
    if wrong:
        raise ValueError(f"step has {wrong}")
    return StepTable(rows, gcds, mults)


def candidate_steps(graph: MetricGraph, lambda_max: float) -> list[Step]:
    """The steps of `step_table`, in its order."""
    return step_table(graph, lambda_max).steps()


# The most candidates k that `resonance_floor` pops in one unit, each for a
# `_forest` over the unit's edges.  No bundled, test or benchmark graph
# pops more than 14.
MAX_FLOOR_POPS = 2_000


@dataclass(frozen=True)
class ResonanceFloor:
    """Lower bound below which no resonance exists, with its witness cycle."""

    lam: float                       # may be math.inf
    unit_length: Optional[Step]      # the maximizing common unit u_C
    cycle: Optional[CycleWalk]


def resonance_floor(graph: MetricGraph,
                    multiples: Optional[tuple[dict[str, Fraction], list[int]]] = None
                    ) -> ResonanceFloor:
    """inf of pi^2/u_C^2 over cycles C with commensurate edges.

    A cycle is commensurate iff all its edges carry the same unit token
    (units are declared pairwise incommensurable); u_C is the gcd of the
    rational coefficients times that unit.

    No cycle is enumerated.  Within one unit, let s* be the largest u_C.
    If the step subgraph G_s has a cycle C, every edge of C is a multiple
    of s, so u_C is a multiple of s and s <= s*; conversely the cycle
    attaining s* lies in G_{s*}.  So s* is the largest step s with
    beta1(G_s) > 0.  With g the gcd of the unit's coefficients and
    L(e) = m_e*g, every u_C is k*g for k the gcd of the m_e of a set of
    edges.  Those k are tried largest first, from a max-heap seeded with
    the distinct m_e: a popped k whose edges with k | m_e hold a cycle (a
    chord of their `_forest`) gives s* = k*g; otherwise each gcd(k, m_e)
    not seen before is pushed.  The gcd of a set A plus an edge e is
    gcd(gcd(A), m_e), so every such k is pushed before anything below it is
    popped, and k = 1 holds every edge.  More than MAX_FLOOR_POPS pops in
    one unit is a ValueError.  Any cycle of G_{s*} has u_C a multiple of s*
    and at most s*, so a fundamental cycle of G_{s*} is a witness whose gcd
    is exactly s*.  Units are compared by `Step.value`; the witness comes
    from the `cycle_system` of the forest that found the s* returned.
    `multiples` are `_unit_multiples(graph)` where the caller has them, as a
    `StepTable` does.
    """
    best: Optional[tuple[Step, list[Edge], tuple]] = None
    best_val = -math.inf
    gcds, mults = multiples or _unit_multiples(graph)
    for unit in graph.units.tokens():
        pairs = [(e, m) for e, m in zip(graph.edges, mults) if e.length.unit == unit]
        if not _forest(graph.vertices, [e for e, _ in pairs])[1]:
            continue
        distinct = {m for _, m in pairs}
        heap = [-m for m in distinct]
        heapq.heapify(heap)
        seen = set(distinct)
        for _ in range(MAX_FLOOR_POPS):
            k = -heapq.heappop(heap)
            sub = [e for e, m in pairs if m % k == 0]
            forest = _forest(graph.vertices, sub)
            if forest[1]:
                break
            for m in distinct:
                d = math.gcd(k, m)
                if d not in seen:
                    seen.add(d)
                    heapq.heappush(heap, -d)
        else:
            raise ValueError(f"the resonance floor of unit {unit!r} needs more than "
                             f"MAX_FLOOR_POPS = {MAX_FLOOR_POPS} common-step candidates")
        u = Step(k * gcds[unit], unit)
        if u.value(graph.units) > best_val:
            best_val = u.value(graph.units)
            best = (u, sub, forest)
    if best is None:
        return ResonanceFloor(math.inf, None, None)
    u, sub, forest = best
    return ResonanceFloor(math.pi ** 2 / best_val ** 2, u,
                          cycle_system(graph.vertices, sub, forest).cycles[0])
