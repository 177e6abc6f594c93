"""Seeded graph generators, independent of the qglab package.

A graph is a plain dict so that the benchmark's checker can read it without
going through the code under test:

    {"units": [(token, approx), ...], "vertices": [id, ...],
     "edges": [(id, origin, terminus, Fraction, unit), ...]}

`to_qg` writes the `.qg` text the CLI parses, and `parse_qg` reads the
bundled example files back into the same dict form.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

CHAIN_UNITS = {"one": 1.0, "sqrt2": math.sqrt(2.0), "sqrt3": math.sqrt(3.0),
        "sqrt5": math.sqrt(5.0)}


def unit_grid(n: int) -> dict:
    """n x n square grid, every edge of length 1*one (no seed: fixed)."""
    vid = lambda i, j: f"g{i}_{j}"
    vertices = [vid(i, j) for i in range(n) for j in range(n)]
    edges = []
    for i in range(n):
        for j in range(n):
            if j + 1 < n:
                edges.append((f"h{i}_{j}", vid(i, j), vid(i, j + 1), Fraction(1), "one"))
            if i + 1 < n:
                edges.append((f"v{i}_{j}", vid(i, j), vid(i + 1, j), Fraction(1), "one"))
    return {"units": [("one", 1.0)], "vertices": vertices, "edges": edges}


def triangle_chain(m: int) -> dict:
    """Strip of m triangles: vertices 0..m+1, edges (i, i+1) and (i, i+2).

    Consecutive triangles share an edge, so the number of simple cycles grows
    exponentially in m.  Edge j has length 1 times unit j mod 4 of the four
    pairwise incommensurable units {1, sqrt2, sqrt3, sqrt5}, edges (i, i+1)
    first; the strip is the same for every seed.
    """
    pairs = [(i, i + 1) for i in range(m + 1)] + [(i, i + 2) for i in range(m)]
    units = list(CHAIN_UNITS)
    edges = [(f"t{a}_{b}", f"c{a}", f"c{b}", Fraction(1), units[j % len(units)])
             for j, (a, b) in enumerate(pairs)]
    return {"units": list(CHAIN_UNITS.items()), "vertices": [f"c{i}" for i in range(m + 2)],
            "edges": edges}


def random_multigraph(rng: random.Random, nv: int, ne: int, max_pq: int = 6) -> dict:
    """nv vertices and ne edges drawn like the test suite's random sweep:
    loops and parallel edges allowed, lengths p/q * {1, sqrt2}."""
    units = ("u1", "u2")
    vertices = [f"v{i}" for i in range(nv)]
    edges = []
    for j in range(ne):
        o = rng.choice(vertices)
        t = rng.choice(vertices)
        p = rng.randint(1, max_pq)
        q = rng.randint(1, max_pq)
        unit = rng.choice(units[:rng.randint(1, len(units))])
        edges.append((f"e{j}", o, t, Fraction(p, q), unit))
    return {"units": [("u1", 1.0), ("u2", math.sqrt(2.0))], "vertices": vertices,
            "edges": edges}


def has_isolated_vertex(graph: dict) -> bool:
    touched = {v for _, o, t, _, _ in graph["edges"] for v in (o, t)}
    return any(v not in touched for v in graph["vertices"])


def total_length(graph: dict) -> float:
    approx = dict(graph["units"])
    return sum(float(c) * approx[u] for _, _, _, c, u in graph["edges"])


def to_qg(graph: dict) -> str:
    lines = [f"unit {tok} {approx!r}" for tok, approx in graph["units"]]
    lines += [f"vertex {v}" for v in graph["vertices"]]
    lines += [f"edge {eid} {o} {t} {c.numerator}/{c.denominator} {u}"
              for eid, o, t, c, u in graph["edges"]]
    return "\n".join(lines) + "\n"


def parse_qg(text: str) -> dict:
    units, vertices, edges = [], [], []
    for raw in text.splitlines():
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        if parts[0] == "unit":
            units.append((parts[1], float(parts[2])))
        elif parts[0] == "vertex":
            vertices.append(parts[1])
        elif parts[0] == "edge":
            eid, o, t, c, u = parts[1:]
            edges.append((eid, o, t, Fraction(c), u))
        else:
            raise ValueError(f"unknown directive {parts[0]!r}")
    return {"units": units, "vertices": vertices, "edges": edges}
