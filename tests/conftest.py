import os

# One BLAS thread, set before numpy is imported: unpinned OpenBLAS threads
# made the stacked small-matrix eigh calls of a busy host up to 300x slower.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import math  # noqa: E402
from fractions import Fraction  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import qglab  # noqa: E402
from qglab import Edge, ExactLength, MetricGraph, parse_graph  # noqa: E402


def mk(vertices, edge_spec, units):
    """edge_spec: list of (id, origin, terminus, coeff, unit)."""
    edges = [Edge(i, o, t, ExactLength(Fraction(c), u))
             for i, o, t, c, u in edge_spec]
    return MetricGraph.build(vertices, edges, units)


def walk_end(start, steps, edges_by_id):
    """End vertex of an oriented edge walk; fails if a step does not leave
    from the vertex the walk has reached."""
    v = start
    for eid, d in steps:
        e = edges_by_id[eid]
        tail, head = (e.origin, e.terminus) if d > 0 else (e.terminus, e.origin)
        assert tail == v, (start, steps)
        v = head
    return v


def parity_colouring(vertices, edges, n_of):
    """Reference for the odd count and chord parities of graphs._forest:
    components by search, beta1 = |E| - |V| + 1 each, and a component is odd
    iff colouring its vertices by step count (or weight) mod 2 along a search
    tree leaves some edge (or loop) inconsistent."""
    adj = {v: [] for v in vertices}
    for e in edges:
        adj[e.origin].append((e.terminus, e))
        adj[e.terminus].append((e.origin, e))
    colour, out = {}, {}
    for s in vertices:
        if s in colour:
            continue
        colour[s], comp, stack = 0, {s}, [s]
        while stack:
            u = stack.pop()
            for w, e in adj[u]:
                if w not in colour:
                    colour[w] = (colour[u] + n_of[e.id]) % 2
                    comp.add(w)
                    stack.append(w)
        cedges = [e for e in edges if e.origin in comp]
        odd = any((colour[e.origin] + n_of[e.id]) % 2 != colour[e.terminus]
                  for e in cedges)
        out[frozenset(comp)] = (len(cedges) - len(comp) + 1, odd)
    return out


def on_a_pole(ks, lengths, tol=1e-6):
    """Whether |sin kL_e| < tol, at each real k in ks (rows) and edge e
    (columns)."""
    return np.abs(np.sin(np.multiply.outer(ks, lengths))) < tol


def unit_grid(n):
    """n x n square grid with unit edges."""
    vid = lambda i, j: f"g{i}_{j}"
    spec = []
    for i in range(n):
        for j in range(n):
            if j + 1 < n:
                spec.append((f"h{i}_{j}", vid(i, j), vid(i, j + 1), 1, "one"))
            if i + 1 < n:
                spec.append((f"v{i}_{j}", vid(i, j), vid(i + 1, j), 1, "one"))
    return mk([vid(i, j) for i in range(n) for j in range(n)], spec, {"one": 1.0})


@pytest.fixture(scope="session")
def dumbbell():
    return parse_graph(qglab.bundled_graph_path("dumbbell.qg"))


@pytest.fixture(scope="session")
def loop_pendant():
    return parse_graph(qglab.bundled_graph_path("loop-pendant.qg"))


@pytest.fixture(scope="session")
def interval_pi():
    return parse_graph(qglab.bundled_graph_path("interval-pi.qg"))


@pytest.fixture(scope="session")
def unit_triangle():
    return parse_graph(qglab.bundled_graph_path("triangle.qg"))


@pytest.fixture(scope="session")
def path3():
    return parse_graph(qglab.bundled_graph_path("tree.qg"))


@pytest.fixture
def unit_loop():
    return mk(["w"], [("e", "w", "w", 1, "one")], {"one": 1.0})


@pytest.fixture
def theta():
    # two vertices joined by three parallel unit edges
    return mk(["u", "v"],
              [("e1", "u", "v", 1, "one"),
               ("e2", "u", "v", 1, "one"),
               ("e3", "u", "v", 1, "one")],
              {"one": 1.0})


@pytest.fixture
def two_triangles_shared_vertex():
    # two unit triangles glued at one vertex (the dashed part of dumbbell)
    return mk(["c", "a1", "a2", "b1", "b2"],
              [("t1", "c", "a1", 1, "one"), ("t2", "c", "a2", 1, "one"),
               ("t3", "a1", "a2", 1, "one"),
               ("u1", "c", "b1", 1, "one"), ("u2", "c", "b2", 1, "one"),
               ("u3", "b1", "b2", 1, "one")],
              {"one": 1.0})


PI = math.pi


def floor_over_cap():
    """A star of edges 1/p over the first 12 primes p next to a 2-cycle of
    edges 1/N, N the product of the primes: with g = 1/N every gcd
    N/prod(A) of a set A of primes is tried, 4,094 of them, before the
    2-cycle's k = 1."""
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    n = math.prod(primes)
    spec = [(f"s{p}", "c", f"l{p}", Fraction(1, p), "one") for p in primes]
    spec += [("a", "x", "y", Fraction(1, n), "one"), ("b", "x", "y", Fraction(1, n), "one")]
    return mk(["c", "x", "y", *(f"l{p}" for p in primes)], spec, {"one": 1.0})
