"""Seeded random multigraph generator for the theorem-vs-oracle sweeps."""

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
