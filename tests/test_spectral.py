import contextlib
import io
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

import qglab.cli
from qglab import (Edge, ExactLength, MetricGraph, Step, assemble_secular, betti_graph,
                   eigenvalues_in, kernels)

from qglab.spectral import _edge_arrays

from conftest import mk, on_a_pole, random_length_grid, unit_grid
from eigenphase import eigenphase_count
from randgraphs import degree, random_graph
from secular import assemble_real


def nullity(graph, k, tol=1e-8):
    """The nullity of Lambda(k) of the split graph, which must equal that of
    the (2E+V) secular matrix of the tests' reference module: the number of
    singular values below tol times the largest one, for Lambda(k) at least
    the size of its entries (a one-vertex Lambda(k) is 1 x 1)."""
    eo, et, ln, _ = _edge_arrays(graph)
    nv = len(graph.vertices)
    _, lam, size, *_ = next(kernels.vertex_matrices(eo, et, ln, nv, [float(k)]))
    counts = []
    for a, scale in ((lam[0], size[0]), (assemble_real(eo, et, ln, nv, [k])[0], 1e-300)):
        s = np.linalg.svd(a, compute_uv=False)
        counts.append(int(np.sum(s < tol * max(s[0], scale))))
    assert counts[0] == counts[1], (graph, k, counts)
    return counts[0]


# ---------------------------------------------------------------------------
# the vertex matrix Lambda(k) of the split graph


def test_interval_nullity_at_eigenvalue(interval_pi):
    assert nullity(interval_pi, 1.0) == 1
    assert nullity(interval_pi, 1.5) == 0
    assert nullity(interval_pi, 2.0) == 1


def test_loop_nullity_multiplicity_two(unit_loop):
    assert nullity(unit_loop, 2 * math.pi) == 2
    assert nullity(unit_loop, 5.0) == 0


def test_nullity_at_zero_is_component_count(dumbbell, path3):
    two = mk(["a", "b", "c", "d"],
             [("e1", "a", "b", 1, "u"), ("e2", "c", "d", 1, "u")], {"u": 1.0})
    for g in (dumbbell, path3, two):
        assert nullity(g, 0.0) == betti_graph(g).beta0


def test_system_dimensions(dumbbell, interval_pi):
    # V + |split|, the edges split on a pole: none on the dumbbell at k = 1,
    # the one edge of length pi on interval_pi
    n = len(dumbbell.vertices)
    assert assemble_secular(dumbbell, 1.0).shape == (n, n)
    n = len(interval_pi.vertices) + 1
    assert assemble_secular(interval_pi, 1.0).shape == (n, n)


def test_isolated_vertex_rejected():
    g = mk(["a", "b", "z"], [("e", "a", "b", 1, "u")], {"u": 1.0})
    with pytest.raises(ValueError, match="isolated"):
        assemble_secular(g, 1.0)


def test_negative_wavenumber_rejected(interval_pi):
    with pytest.raises(ValueError, match="k must be nonnegative"):
        assemble_secular(interval_pi, -1.0)


def test_nullity_invariant_under_orientation_flip(loop_pendant):
    flipped = MetricGraph.build(
        loop_pendant.vertices,
        [Edge(e.id, e.terminus, e.origin, e.length) for e in loop_pendant.edges],
        dict(loop_pendant.units.entries))
    for k in (1.0, 2.0, 2 * math.pi, 4.5):
        assert nullity(loop_pendant, k) == nullity(flipped, k)


def test_nullity_invariant_under_subdivision(unit_triangle):
    # split e1 into two half edges through a new vertex
    edges = [e for e in unit_triangle.edges if e.id != "e1"]
    edges += [Edge("e1a", "v1", "mid", ExactLength(Fraction(1, 2), "one")),
              Edge("e1b", "mid", "v2", ExactLength(Fraction(1, 2), "one"))]
    divided = MetricGraph.build(list(unit_triangle.vertices) + ["mid"], edges,
                                dict(unit_triangle.units.entries))
    for k in (1.0, math.pi, 2 * math.pi, 3.3):
        assert nullity(unit_triangle, k) == nullity(divided, k)


# ---------------------------------------------------------------------------
# eigenvalue scan


def test_interval_spectrum(interval_pi):
    spec = eigenvalues_in(interval_pi, 10)
    lams = [(h.lam, h.multiplicity) for h in spec.eigenvalues]
    assert len(lams) == 4
    for (lam, mult), want in zip(lams, (0, 1, 4, 9)):
        assert mult == 1
        assert lam == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("lambda_max", [0.0, -1.0, math.inf, math.nan])
def test_lambda_max_must_be_positive_and_finite(interval_pi, lambda_max):
    with pytest.raises(ValueError, match="positive and finite"):
        eigenvalues_in(interval_pi, lambda_max)


def test_loop_spectrum_multiplicities(unit_loop):
    spec = eigenvalues_in(unit_loop, 160)
    got = [(h.lam, h.multiplicity) for h in spec.eigenvalues]
    assert got[0] == (0.0, 1)
    assert len(got) == 3
    for (lam, mult), n in zip(got[1:], (1, 2)):
        assert mult == 2
        assert math.sqrt(lam) == pytest.approx(2 * math.pi * n, abs=1e-9)


def test_loop_pendant_detects_resonant_eigenvalue(loop_pendant):
    spec = eigenvalues_in(loop_pendant, 45)
    hit = min(spec.eigenvalues, key=lambda h: abs(h.lam - 4 * math.pi ** 2))
    assert hit.multiplicity == 1
    assert abs(hit.k - 2 * math.pi) <= 1e-9
    assert hit.step == Step(Fraction(1, 2), "one")
    assert all(h.step is None for h in spec.eigenvalues if h is not hit)


def test_eigenvalue_on_the_cutoff_step(interval_pi):
    # lambda = 4 lies on the step 1/2*pi and exactly on the cutoff
    spec = eigenvalues_in(interval_pi, 4.0)
    assert [(h.lam, h.multiplicity) for h in spec.eigenvalues] == [(0.0, 1), (1.0, 1),
                                                                  (4.0, 1)]
    assert all(h.lam <= 4.0 for h in spec.eigenvalues)


def test_two_steps_in_one_bracket_take_neither():
    # units declared incommensurable but 1e-13 apart: their step brackets at
    # k = pi overlap, and the hit there must not pick one of the two steps
    g = mk(["v"], [("a", "v", "v", 1, "a"), ("b", "v", "v", 1, "b")],
           {"a": 1.0, "b": 1.0 + 1e-13})
    spec = eigenvalues_in(g, 12)
    hit = spec.eigenvalues[-1]
    assert hit.k == pytest.approx(math.pi, rel=1e-12)
    assert hit.step is None
    assert len(spec.warnings) == 1 and "no step assigned" in spec.warnings[0]


def test_long_edge_spectrum_linear_in_hits():
    # 14,236 Neumann eigenvalues (n pi / L)^2, each on its own step L/n; the
    # step lookups are sorted searches, not hits x steps comparisons
    length = 10 ** 4
    edge = mk(["a", "b"], [("e", "a", "b", length, "one")], {"one": 1.0})
    t0 = time.perf_counter()
    spec = eigenvalues_in(edge, 20.0)
    assert time.perf_counter() - t0 < 2.0
    assert len(spec.eigenvalues) == math.floor(length * math.sqrt(20) / math.pi) + 1 == 14236
    assert not spec.warnings
    assert all(h.multiplicity == 1 for h in spec.eigenvalues)
    assert [h.step for h in spec.eigenvalues[1:4]] == [
        Step(length, "one"), Step(length // 2, "one"), Step(Fraction(length, 3), "one")]


def test_scan_deterministic(interval_pi):
    a = eigenvalues_in(interval_pi, 10)
    b = eigenvalues_in(interval_pi, 10)
    assert a == b


def _spectral_graphs(seed, count):
    """`count` random multigraphs without the isolated vertices that the
    spectral operations reject."""
    rng = random.Random(seed)
    graphs = []
    while len(graphs) < count:
        g = random_graph(rng)
        if all(degree(g, v) for v in g.vertices):
            graphs.append(g)
    return graphs


def test_reported_lambda_matches_nullity(loop_pendant, dumbbell):
    graphs = [(loop_pendant, 45), (dumbbell, 200)]
    graphs += [(g, 60) for seed in (3, 7) for g in _spectral_graphs(seed, 50)]
    for g, lambda_max in graphs:
        spec = eigenvalues_in(g, lambda_max)
        assert not spec.warnings
        for h in spec.eigenvalues[1:]:
            assert nullity(g, h.k) == h.multiplicity, (g, h)


def test_dumbbell_finds_close_eigenvalues(dumbbell):
    # 6.28761 lies 0.0044 from the eigenvalue at 2 pi
    spec = eigenvalues_in(dumbbell, 200)
    assert sum(h.multiplicity for h in spec.eigenvalues[1:]) == 77
    for k in (6.28761, 8.44234, 9.20392):
        assert any(abs(h.k - k) < 1e-4 for h in spec.eigenvalues), k


def test_no_hit_above_lambda_max():
    # strip of 8 triangles, edge j of unit j mod 4 of {1, sqrt2, sqrt3, sqrt5};
    # the next eigenvalue, 25.0064, lies just above the cut
    units = {"one": 1.0, "sqrt2": math.sqrt(2), "sqrt3": math.sqrt(3),
             "sqrt5": math.sqrt(5)}
    pairs = [(i, i + 1) for i in range(9)] + [(i, i + 2) for i in range(8)]
    strip = mk([f"c{i}" for i in range(10)],
               [(f"t{a}_{b}", f"c{a}", f"c{b}", 1, list(units)[j % 4])
                for j, (a, b) in enumerate(pairs)], units)
    spec = eigenvalues_in(strip, 25)
    assert spec.eigenvalues[-1].lam > 20
    assert all(h.lam <= 25 for h in spec.eigenvalues)


def test_short_loop_has_only_zero_below_cutoff():
    # the first positive eigenvalue of a loop of length 1/6 is (12 pi)^2
    loop = mk(["w"], [("e", "w", "w", Fraction(1, 6), "one")], {"one": 1.0})
    spec = eigenvalues_in(loop, 60)
    assert [(h.lam, h.multiplicity) for h in spec.eigenvalues] == [(0.0, 1)]


def test_grid_multiplicity_at_half_pi():
    spec = eigenvalues_in(unit_grid(4), 15)
    hit = min(spec.eigenvalues, key=lambda h: abs(h.k - math.pi / 2))
    assert hit.k == pytest.approx(math.pi / 2, abs=1e-10)
    assert hit.multiplicity == 4


def test_random_length_grid_matches_eigenphase_count():
    # a 6 x 6 grid whose edges have lengths p/q and p/q sqrt 2, p, q <= 6:
    # poles of many widths, where every other grid here is equilateral
    graph = random_length_grid(6, random.Random(0))
    got = eigenvalues_in(graph, 12)
    assert not got.warnings
    eo, et, ln, _ = _edge_arrays(graph)
    want = eigenphase_count(eo, et, ln, len(graph.vertices), [math.sqrt(12)])[0]
    assert sum(h.multiplicity for h in got.eigenvalues if h.lam > 0) == want == 150


def test_uncertified_count_warns(interval_pi, monkeypatch):
    # a vertex eigenvalue at 0 that does not move with k has no root within
    # REFINE_TOL of the point: its sign is rounding, and the count must show
    exact = kernels.vertex_count

    def stalled(*args):
        count, mu, dmu = exact(*args)
        at = np.asarray(args[4]) > 2.0
        mu[at, 0] = dmu[at, 0] = 0.0
        return count, mu, dmu

    monkeypatch.setattr(kernels, "vertex_count", stalled)
    spec = eigenvalues_in(interval_pi, 10)
    assert len(spec.warnings) == 1 and "not certified" in spec.warnings[0]
    path = str(qglab.bundled_graph_path("interval-pi.qg"))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert qglab.cli.main(["spectrum", path, "--lambda-max", "10"]) == 2


def test_out_of_bracket_count_is_a_falling_count(dumbbell, monkeypatch):
    # a count above its bracket's upper end leaves a child bracket across
    # which N falls, and the falling-count check reports it; the fault hits
    # the first refinement call, after the bracket ends are counted
    exact = kernels.vertex_count
    calls = []

    def overcounting(*args):
        count, mu, dmu = exact(*args)
        calls.append(args[4])
        return count + 100 * (len(calls) == 2) * (np.asarray(args[4]) > 4.0), mu, dmu

    monkeypatch.setattr(kernels, "vertex_count", overcounting)
    spec = eigenvalues_in(dumbbell, 45)
    assert len(spec.warnings) == 1
    assert spec.warnings[0].startswith("vertex count falls across")
    calls.clear()
    path = str(qglab.bundled_graph_path("dumbbell.qg"))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert qglab.cli.main(["spectrum", path, "--lambda-max", "45"]) == 2


def test_refinement_counts_the_same_points(dumbbell, monkeypatch):
    # the points counted per call on the dumbbell at lambda <= 200: a faster
    # refinement must come from cheaper rounds, not from other points, and a
    # change to the algorithm updates this list knowingly
    sizes = []
    exact = kernels.vertex_count

    def recording(*args):
        sizes.append(len(args[4]))
        return exact(*args)

    monkeypatch.setattr(kernels, "vertex_count", recording)
    eigenvalues_in(dumbbell, 200)
    assert sizes == [38, 34, 72, 106, 118, 88, 46, 20, 4, 4]


def test_near_pole_points_are_counted_with_their_edges_split(monkeypatch):
    # the eigenvalue 5.3e-6 below the scar at 4 pi^2 lies between two steps
    # 1e-7 apart, so its bracket is refined next to the poles, where the
    # plain V x V vertex matrix loses its inertia: every point there is
    # counted with its edges on a pole split
    g = mk(["v", "w"], [("l", "v", "v", 1, "one"), ("p", "v", "w", 1, "u")],
           {"one": 1.0, "u": 0.5000001})
    ln = _edge_arrays(g)[2]
    seen = []
    exact = kernels.vertex_count

    def recording(*args):
        count, mu, dmu = exact(*args)
        seen.extend(zip(np.asarray(args[4]).tolist(), np.sum(~np.isnan(mu), axis=1).tolist()))
        return count, mu, dmu

    monkeypatch.setattr(kernels, "vertex_count", recording)
    spec = eigenvalues_in(g, 45)
    assert not spec.warnings
    hit = min(spec.eigenvalues, key=lambda h: abs(h.lam - 39.4784123406))
    assert hit.lam == pytest.approx(39.4784123406, abs=1e-9) and hit.step is None
    near = [(k, size) for k, size in seen if on_a_pole([k], ln).any()]
    assert any(abs(k - hit.k) < 1e-9 for k, _ in near)
    assert all(size > len(g.vertices) for _, size in near)


# ---------------------------------------------------------------------------
# equilateral spectrum oracle (von Below, Linear Algebra Appl. 71, 1985)


def equilateral_spectrum(graph, lambda_max):
    """(lambda, multiplicity) up to lambda_max of a connected graph whose
    edges all have length 1, without the secular system.  A loop adds 2 to
    its vertex's entry of the adjacency matrix A and to its degree.

    Off k = n pi, lambda = k^2 is an eigenvalue exactly when cos k is an
    eigenvalue of D^-1/2 A D^-1/2, with the same multiplicity.  At k = n pi
    the multiplicity is E - V + 2 if n is even or the graph is bipartite,
    and E - V otherwise.
    """
    vix = {v: i for i, v in enumerate(graph.vertices)}
    adj = np.zeros((len(vix), len(vix)))
    for e in graph.edges:
        adj[vix[e.origin], vix[e.terminus]] += 1
        adj[vix[e.terminus], vix[e.origin]] += 1
    s = 1 / np.sqrt(adj.sum(axis=1))
    mus = np.linalg.eigvalsh(s[:, None] * adj * s[None, :])
    bipartite = abs(mus[0] + 1) < 1e-9
    clusters = []                       # [cos k, multiplicity], cos k in (-1, 1)
    for mu in mus[np.abs(mus) < 1 - 1e-9]:
        if clusters and mu - clusters[-1][0] < 1e-9:
            clusters[-1][1] += 1
        else:
            clusters.append([mu, 1])
    kmax = math.sqrt(lambda_max)
    out = [(0.0, 1)]
    for mu, m in clusters:
        theta = math.acos(mu)
        for j in range(int(kmax / (2 * math.pi)) + 1):
            out += [(k * k, m) for k in (2 * math.pi * j + theta,
                                         2 * math.pi * (j + 1) - theta) if k <= kmax]
    excess = len(graph.edges) - len(graph.vertices)
    for n in range(1, int(kmax / math.pi) + 1):
        m = excess + 2 if n % 2 == 0 or bipartite else excess
        if m > 0:
            out.append(((n * math.pi) ** 2, m))
    return sorted(out)


def _unit_graph(vertices, pairs):
    return mk(vertices, [(f"e{j}", a, b, 1, "one") for j, (a, b) in enumerate(pairs)],
              {"one": 1.0})


def _random_equilateral(seed, nv, extra):
    """A connected unit-edge multigraph without loops: a random tree on nv
    vertices and `extra` more edges, parallel ones allowed."""
    rng = random.Random(seed)
    vs = [f"r{i}" for i in range(nv)]
    pairs = [(vs[rng.randrange(i)], vs[i]) for i in range(1, nv)]
    pairs += [tuple(rng.sample(vs, 2)) for _ in range(extra)]
    return _unit_graph(vs, pairs)


EQUILATERAL = pytest.mark.parametrize("graph,lambda_max", [
    (unit_grid(4), 40),
    (unit_grid(6), 12),
    (_unit_graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")]), 100),
    (_unit_graph([f"p{i}" for i in range(5)],
                 [(f"p{i}", f"p{(i + 1) % 5}") for i in range(5)]), 100),
    (_unit_graph(list("abcd"), [(a, b) for a in "abcd" for b in "abcd" if a < b]), 100),
    (_unit_graph(["a", "b", "m"], [("a", "b"), ("a", "b"), ("a", "m"), ("m", "b")]), 100),
    (_unit_graph([f"c{i}" for i in range(8)],
                 [(f"c{i}", f"c{i + 1}") for i in range(7)]
                 + [(f"c{i}", f"c{i + 2}") for i in range(6)]), 60),
    (unit_grid(10), 3),
    *((_random_equilateral(seed, nv, extra), 40)
      for seed, nv, extra in ((1, 5, 4), (2, 7, 5), (3, 8, 8))),
    (_unit_graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a"), ("a", "a")]), 80),
    (_unit_graph(["a", "b"], [("a", "a"), ("a", "b")]), 80),
    (_unit_graph(["a"], [("a", "a")] * 3), 80),
    (_unit_graph(list("abcd"), [(a, b) for a in "abcd" for b in "abcd" if a < b]
                 + [("d", "d")]), 80),
], ids=["grid4", "grid6", "triangle", "pentagon", "K4", "theta", "strip8", "grid10",
        "random5", "random7", "random8", "triangle_loop", "loop_pendant", "bouquet3",
        "K4_loop"])


@EQUILATERAL
def test_equilateral_spectrum_matches_von_below(graph, lambda_max):
    want = equilateral_spectrum(graph, lambda_max)
    assert all(abs(lam - lambda_max) > 1e-6 for lam, _ in want)
    spec = eigenvalues_in(graph, lambda_max)
    assert not spec.warnings
    got = [(h.lam, h.multiplicity) for h in spec.eigenvalues]
    assert [m for _, m in got] == [m for _, m in want]
    for (lam, _), (ref, _) in zip(got, want):
        assert lam == pytest.approx(ref, rel=1e-8, abs=1e-8)



@EQUILATERAL
def test_off_step_hits_sit_at_their_eigenvalue(graph, lambda_max):
    # each hit is the secant root of its closed bracket, to rounding, not a
    # point up to REFINE_TOL/2 away from the eigenvalue
    want = [lam for lam, m in equilateral_spectrum(graph, lambda_max)[1:] if m == 1]
    hits = [h for h in eigenvalues_in(graph, lambda_max).eigenvalues[1:]
            if h.multiplicity == 1 and h.step is None]
    assert hits or not want
    for h in hits:
        ref = math.sqrt(min(want, key=lambda lam: abs(lam - h.lam)))
        assert abs(h.k - ref) <= 1e-14 * ref, (h, ref)


@pytest.mark.parametrize("n", [1_000_003, 100_000_007])
def test_count_jump_below_one_gives_no_row(n):
    # a 2-cycle of lengths 1 and 1/n: near 2*pi the vertex count rises and
    # falls by rounding, so brackets with jumps of 0 and -1 appear
    g = mk(["a", "b"], [("e1", "a", "b", 1, "one"), ("e2", "a", "b", Fraction(1, n), "one")],
           {"one": 1.0})
    spec = eigenvalues_in(g, 200.0)
    assert min(h.multiplicity for h in spec.eigenvalues) >= 1
    assert any(w.startswith("vertex count falls across") for w in spec.warnings)


def test_circle_where_the_theta_slope_overflows():
    # a circle of length L = 4e-150 in two edges, up to lambda_max = 1e308:
    # near k = 1e154 the denominator of theta's slope overflows, which drops
    # the Newton step there, and every double eigenvalue (2 pi n / L)^2 is found
    g = mk(["a", "b"], [("e1", "a", "b", Fraction("1e-150"), "one"),
                        ("e2", "a", "b", Fraction("3e-150"), "one")], {"one": 1.0})
    spec = eigenvalues_in(g, 1e308)
    assert not spec.warnings and spec.eigenvalues[0].multiplicity == 1
    hits = spec.eigenvalues[1:]
    assert len(hits) == 6366
    for n, h in enumerate(hits, 1):
        want = (2 * math.pi * n / 4e-150) ** 2
        assert h.multiplicity == 2 and abs(h.lam - want) <= 1e-12 * want, (n, h)
