"""Seeded random multigraph generator and brute-force checks for the theorem-vs-oracle sweeps."""

import random
from fractions import Fraction

from qglab import Edge, ExactLength, MetricGraph, Step


def random_graph(rng: random.Random, max_vertices=6, max_edges=9,
                 max_pq=6, units=("u1", "u2")) -> MetricGraph:
    nv = rng.randint(1, max_vertices)
    vertices = [f"v{i}" for i in range(nv)]
    ne = rng.randint(1, max_edges)
    edges = []
    for j in range(ne):
        o = rng.choice(vertices)
        t = rng.choice(vertices)   # loops and parallels welcome
        p = rng.randint(1, max_pq)
        q = rng.randint(1, max_pq)
        unit = rng.choice(units[:rng.randint(1, len(units))])
        edges.append(Edge(f"e{j}", o, t, ExactLength(Fraction(p, q), unit)))
    table = {u: a for u, a in zip(units, (1.0, 1.4142135623730951))}
    return MetricGraph.build(vertices, edges, table)


def is_simple_cycle(edges) -> bool:
    """Whether an edge subset is one simple cycle: every vertex it touches
    has degree two in it, and it is connected."""
    deg = {}
    for e in edges:
        deg[e.origin] = deg.get(e.origin, 0) + 1
        deg[e.terminus] = deg.get(e.terminus, 0) + 1
    if any(d != 2 for d in deg.values()):
        return False
    vs = set(deg)
    adj = {v: set() for v in vs}
    for e in edges:
        adj[e.origin].add(e.terminus)
        adj[e.terminus].add(e.origin)
    start = next(iter(vs))
    seen, stack = {start}, [start]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == vs


def degree(graph: MetricGraph, v: str) -> int:
    """Edge ends at v; a loop counts twice."""
    return sum((e.origin == v) + (e.terminus == v) for e in graph.edges)


def all_steps(graph: MetricGraph, n_max=8) -> list[Step]:
    """Every candidate step s = L(e)/n with n <= n_max, deduplicated."""
    seen = set()
    out = []
    for e in graph.edges:
        for n in range(1, n_max + 1):
            key = (e.length.coeff / n, e.length.unit)
            if key not in seen:
                seen.add(key)
                out.append(Step(*key))
    return out
