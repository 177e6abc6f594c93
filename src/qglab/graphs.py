"""Metric graph data model and combinatorial machinery.

Graphs are stored with a fixed edge orientation (origin, terminus); loops and
parallel edges are allowed everywhere.  Every exact length, of an edge or of
a step, is one `ExactLength`: a positive rational times a declared unit.  All
functions here are pure and the data types are immutable, so they can be
used from worker processes without locking.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from typing import Iterable, Mapping, Optional, Sequence


# The largest decimal exponent of a coefficient, as in ``1e200``, that is read.
# `int` reads at most 4,300 digits in each part of the mantissa, so past this
# exponent a coefficient lies beyond 10^+-700.  A length L = c*u in range
# (`out_of_range`, within 10^+-155) with a positive float unit u (within
# 10^-324 and 10^309) needs c within 10^+-480, so no such coefficient can be
# in range; it is refused before `Fraction` builds 10^exp.
MAX_EXPONENT = 5000


def _read_fraction(x) -> Fraction:
    """Fraction(x), with the ASCII forms ``p`` and ``p/q`` read as integers
    and a decimal exponent past MAX_EXPONENT refused."""
    if type(x) is str:
        p, slash, q = x.partition("/")
        if p.isascii() and p.isdigit() and (not slash or q.isascii() and q.isdigit()):
            return Fraction(int(p), int(q) if slash else 1)
        _, e, exp = x.upper().rpartition("E")
        if e and abs(int(exp)) > MAX_EXPONENT:
            raise ValueError(f"decimal exponent beyond {MAX_EXPONENT}")
    return Fraction(x)


@dataclass(frozen=True)
class ExactLength:
    """Positive rational coefficient times a declared unit token: an edge
    length L(e), or a step s = L(e)/n, which encodes lambda = pi^2/s^2.

    The coefficient may be given in any form `Fraction` reads (``6/4``);
    one it cannot read, or one that is not positive, is a ValueError.
    """

    coeff: Fraction
    unit: str

    def __post_init__(self):
        coeff = self.coeff
        if type(coeff) is not Fraction:
            try:
                coeff = _read_fraction(coeff)
            except (ValueError, ZeroDivisionError):
                raise ValueError(f"bad coefficient {self.coeff!r}") from None
        if coeff.numerator <= 0:      # the denominator is always positive
            raise ValueError(f"coefficient must be positive: {self.coeff}")
        object.__setattr__(self, "coeff", coeff)

    def value(self, units: "UnitTable") -> float:
        # float(c) is numerator / denominator (numbers.Rational.__float__)
        c = self.coeff
        return c.numerator / c.denominator * units.approx(self.unit)

    def lambda_value(self, units: "UnitTable") -> float:
        return math.pi ** 2 / self.value(units) ** 2

    def __str__(self):
        return f"{self.coeff}*{self.unit}"


@dataclass(frozen=True)
class UnitTable:
    """Declared length units with positive decimal approximations.

    Units are declared pairwise incommensurable by the user; nothing here
    tries to infer commensurability from the approximations, which are used
    for ordering and reporting only.
    """

    entries: tuple[tuple[str, float], ...]         # in declaration order
    _by_token: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # floats, numpy scalars too; a token given twice maps to its first
        entries = tuple((t, float(a)) for t, a in self.entries)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "_by_token", dict(reversed(entries)))

    @classmethod
    def of(cls, mapping: Mapping[str, float] | Iterable[tuple[str, float]]) -> "UnitTable":
        items = tuple(mapping.items()) if isinstance(mapping, Mapping) else tuple(mapping)
        return cls(items)

    def tokens(self) -> tuple[str, ...]:
        return tuple(t for t, _ in self.entries)

    def approx(self, token: str) -> float:
        try:
            return self._by_token[token]
        except KeyError:
            raise KeyError(f"unknown unit {token!r}") from None

    def __contains__(self, token: str) -> bool:
        return token in self._by_token


@dataclass(frozen=True)
class Edge:
    id: str
    origin: str
    terminus: str
    length: ExactLength


@dataclass(frozen=True)
class MetricGraph:
    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]
    units: UnitTable

    @classmethod
    def build(cls, vertices: Sequence[str], edges: Sequence[Edge],
              units: UnitTable | Mapping[str, float]) -> "MetricGraph":
        if not isinstance(units, UnitTable):
            units = UnitTable.of(units)
        return cls(tuple(vertices), tuple(edges), units)


def out_of_range(length: ExactLength | float, units: Optional[UnitTable] = None
                 ) -> Optional[str]:
    """What is wrong with a length L, an `ExactLength` valued in `units` or
    a float, whose value leaves the range that keeps L^2, 1/L^2 and
    pi^2/L^2 finite and normal floats, with a factor 4 to spare for their
    rounding; None inside it.  A value too large for a float is inf."""
    if units is not None:
        try:
            length = length.value(units)
        except OverflowError:
            length = math.inf
    lo, hi = 4 / math.sqrt(sys.float_info.max), 1 / math.sqrt(4 * sys.float_info.min)
    return None if lo <= length <= hi else f"length {length:.3g}, outside [{lo:.3g}, {hi:.3g}]"


def validate(graph: MetricGraph) -> list[str]:
    """Check the MetricGraph invariants, among them that a .qg file holds
    the graph (`graphfile.serialize_graph`): names of one token without '#',
    vertex names also without ',' (the separator of `--vertices`) and not
    `auto` (its automatic selection), units declared once with a positive
    finite approximation; edge lengths: `out_of_range`.  Returns a list of
    violations.  A length object that several edges share (the parser makes
    one per distinct coefficient text and unit) is ranged once, and each of
    its edges reported."""
    problems = []
    ranged: dict[int, Optional[str]] = {}       # id(length) -> out_of_range
    if not graph.vertices:
        problems.append("empty-graph: no vertices declared")
    for kind, names in (("unit", graph.units.tokens()), ("vertex", graph.vertices),
                        ("edge", [e.id for e in graph.edges])):
        problems += [f"bad-name: {kind} {n!r} is not one token without '#'"
                     for n in names if str(n).split() != [n] or "#" in n]
        problems += [f"duplicate-{kind}: {n}" for n, m in Counter(names).items() if m > 1]
    problems += [f"bad-name: vertex {v!r} holds ',', which separates the ids of --vertices"
                 for v in graph.vertices if "," in v]
    problems += ["bad-name: vertex 'auto' is the name of --vertices' automatic selection"
                 for v in graph.vertices if v == "auto"]
    problems += [f"unit-approx: unit {t} has {a!r}, not positive and finite"
                 for t, a in graph.units.entries if not 0 < a < math.inf]
    vertices = set(graph.vertices)
    for e in graph.edges:
        for v in (e.origin, e.terminus):
            if v not in vertices:
                problems.append(f"unknown-vertex: edge {e.id} references {v}")
        if e.length.unit not in graph.units:
            problems.append(f"unknown-unit: edge {e.id} uses {e.length.unit!r}")
            continue
        key = id(e.length)
        if key not in ranged:
            ranged[key] = out_of_range(e.length, graph.units)
        wrong = ranged[key]
        if wrong:
            problems.append(f"length-range: edge {e.id} has {wrong}")
    return problems


# ---------------------------------------------------------------------------
# Connectivity and Betti numbers


@dataclass(frozen=True)
class BettiData:
    beta0: int
    beta1: int


def betti(vertices: Sequence[str], edges: Sequence[Edge]) -> BettiData:
    """Trees and chords of the one union-find forest, `_forest`."""
    tree, chords, *_ = _forest(vertices, edges)
    return BettiData(beta0=len(vertices) - len(tree), beta1=len(chords))


def betti_graph(graph: MetricGraph) -> BettiData:
    return betti(graph.vertices, graph.edges)


# ---------------------------------------------------------------------------
# Core decomposition


@dataclass(frozen=True)
class CoreDecomposition:
    core_edges: tuple[str, ...]
    core_vertices: tuple[str, ...]
    boundary_vertices: tuple[str, ...]      # degree one in the full graph
    proper_core_vertices: tuple[str, ...]   # all incident edges in the core


def core_decomposition(graph: MetricGraph) -> CoreDecomposition:
    """Iteratively strip vertices of degree at most one; what remains is the
    core.  A worklist lowers each neighbour's degree as a vertex is stripped,
    so every edge end is visited once."""
    full = Counter(v for e in graph.edges for v in (e.origin, e.terminus))
    deg = full.copy()
    nbrs: dict[str, list[str]] = {v: [] for v in graph.vertices}
    for e in graph.edges:
        nbrs[e.origin].append(e.terminus)
        nbrs[e.terminus].append(e.origin)
    alive = set(graph.vertices)
    # a vertex enters once: at degree <= 1, or when its degree falls from 2 to 1;
    # a loop keeps its vertex at degree >= 2
    work = [v for v in graph.vertices if full[v] <= 1]
    while work:
        v = work.pop()
        alive.discard(v)
        for w in nbrs[v]:
            if w in alive:
                deg[w] -= 1
                if deg[w] == 1:
                    work.append(w)

    core_edges = tuple(e.id for e in graph.edges
                       if e.origin in alive and e.terminus in alive)
    core_vertices = tuple(v for v in graph.vertices if v in alive)
    boundary = tuple(v for v in graph.vertices if full[v] == 1)
    proper = tuple(v for v in core_vertices if deg[v] == full[v])
    return CoreDecomposition(core_edges, core_vertices, boundary, proper)


# ---------------------------------------------------------------------------
# Spanning forests, fundamental cycles


@dataclass(frozen=True)
class CycleWalk:
    """Closed oriented edge walk: steps (edge id, +1 forward / -1 backward)."""

    start: str
    steps: tuple[tuple[str, int], ...]

    def edge_ids(self) -> tuple[str, ...]:
        return tuple(eid for eid, _ in self.steps)


@dataclass(frozen=True)
class CycleSystem:
    """Spanning forest of a graph, with one fundamental cycle per chord.

    Each tree is rooted at its first vertex in input order.  `up` maps every
    other vertex to (parent, tree edge id, +1 if that edge runs from the
    parent to the vertex, else -1); `depth` counts the tree edges to the root.
    """

    tree_edges: tuple[str, ...]
    chords: tuple[str, ...]
    cycles: tuple[CycleWalk, ...]   # one fundamental cycle per chord
    root: Mapping[str, str]
    up: Mapping[str, tuple[str, str, int]]
    depth: Mapping[str, int]

    def path(self, a: str, b: str) -> tuple[tuple[str, int], ...]:
        """Oriented steps of the unique forest path from a to b, found by
        climbing from both ends to their common ancestor."""
        if self.root[a] != self.root[b]:
            raise ValueError(f"{a!r} and {b!r} lie in different trees")
        return _climb(self.up, self.depth, a, b)


def _climb(up, depth, a: str, b: str) -> tuple[tuple[str, int], ...]:
    """CycleSystem.path for two vertices known to share a tree."""
    rise: list[tuple[str, int]] = []
    fall: list[tuple[str, int]] = []
    while a != b:
        if depth[a] >= depth[b]:
            a, eid, d = up[a]
            rise.append((eid, -d))
        else:
            b, eid, d = up[b]
            fall.append((eid, d))
    return tuple(rise + fall[::-1])


def _forest(vertices: Sequence[str], edges: Sequence[Edge],
            weights: Sequence[int] | None = None
            ) -> tuple[list[Edge], list[Edge], int, list[int]]:
    """Tree edges and chords of the spanning forest that union-find builds
    taking edges in sorted id order, how many trees hold a cycle of odd
    total 0/1 edge weight, and the weight parity of each chord's fundamental
    cycle, in chord order.  The count is Harary's balance test of the signed
    graph with signs (-1)^weight (Michigan Math. J. 2, 1953; Zaslavsky,
    Discrete Appl. Math. 4, 1982).  Each vertex carries its parity to its
    leader, so a chord's end parities and weight XOR to the parity of its
    fundamental cycle; an odd one marks its root odd, and a union moves the
    mark to the new root.  Serves `betti`, `cycle_system`, the resonance
    count (one forest per step, or per (unit, p) of a step table), the
    resonance basis and the resonance floor."""
    leader = {v: (v, 0) for v in vertices}     # v -> (leader, weight parity to it)
    odd: set[str] = set()                      # roots of odd trees

    def find(v):
        acc = 0
        u, p = leader[v]
        while u != v:
            w, q = leader[u]
            leader[v] = (w, p ^ q)
            acc ^= p ^ q
            v = w
            u, p = leader[v]
        return v, acc

    tree: list[Edge] = []
    chords: list[Edge] = []
    parities: list[int] = []
    pairs = zip(edges, weights if weights is not None else repeat(0))
    for e, w in sorted(pairs, key=lambda ew: ew[0].id):
        (ro, po), (rt, pt) = find(e.origin), find(e.terminus)
        if ro == rt:
            chords.append(e)
            parities.append(po ^ pt ^ w)
            if parities[-1]:
                odd.add(ro)
        else:
            leader[ro] = (rt, po ^ pt ^ w)
            if ro in odd:
                odd.remove(ro)
                odd.add(rt)
            tree.append(e)
    return tree, chords, len(odd), parities


def cycle_system(vertices: Sequence[str], edges: Sequence[Edge],
                 forest: Optional[tuple] = None) -> CycleSystem:
    """Spanning forest plus one fundamental cycle per chord.

    Deterministic: edges are considered in sorted id order, so the forest is
    the lexicographically smallest one; each cycle is its chord, taken
    forward from the chord's origin, closed by the forest path back.
    `forest` is what `_forest` returned for these vertices and edges, with
    any weights (they decide no tree edge), when the caller has grown it.
    """
    tree, chords, *_ = forest or _forest(vertices, edges)
    adj: dict[str, list[tuple[str, str, int]]] = {v: [] for v in vertices}
    for e in tree:
        adj[e.origin].append((e.terminus, e.id, 1))
        adj[e.terminus].append((e.origin, e.id, -1))

    root: dict[str, str] = {}
    up: dict[str, tuple[str, str, int]] = {}
    depth: dict[str, int] = {}
    for r in vertices:
        if r in root:
            continue
        root[r], depth[r] = r, 0
        stack = [r]
        while stack:
            u = stack.pop()
            for w, eid, d in adj[u]:
                if w not in root:
                    root[w], up[w], depth[w] = r, (u, eid, d), depth[u] + 1
                    stack.append(w)

    cycles = tuple(CycleWalk(e.origin, ((e.id, 1),) + _climb(up, depth, e.terminus, e.origin))
                   for e in chords)
    return CycleSystem(tuple(e.id for e in tree), tuple(e.id for e in chords), cycles,
                       root, up, depth)

