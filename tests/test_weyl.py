import gc
import math
import random
import weakref

import numpy as np
import pytest

from qglab import (MetricGraph, Step, VertexSelection, bundled_graph_path, candidate_steps,
                   eigenvalues_in, kernels, ntd_matrix, parse_graph, residue,
                   resonance_dimension, select_vertices, visibility_report)
from qglab.spectral import _edge_arrays
from qglab.weyl import COND_MAX, NearSpectrumError

from conftest import mk, unit_grid
from randgraphs import degree, random_graph
from secular import assemble_complex, unknowns


def single_unit_edge():
    return mk(["v1", "v2"], [("e", "v1", "v2", 1, "one")], {"one": 1.0})


# ---------------------------------------------------------------------------
# vertex selection


def test_select_auto_loop_pendant(loop_pendant):
    sel = select_vertices(loop_pendant)
    assert sel.vertices == ("v",)
    assert sel.mode == "auto"
    assert not sel.warnings


def test_select_auto_dumbbell(dumbbell):
    sel = select_vertices(dumbbell)
    assert set(sel.vertices) == {"x", "c", "tl", "tr", "bl", "br", "ll"}


def test_select_auto_single_edge():
    sel = select_vertices(single_unit_edge())
    assert sel.vertices == ("v1", "v2")


def test_select_explicit_warns_when_too_small(dumbbell):
    sel = select_vertices(dumbbell, ["c"])
    assert (sel.vertices, sel.mode) == (("c",), "explicit")
    assert sel.warnings


def test_select_explicit_superset_ok(loop_pendant):
    sel = select_vertices(loop_pendant, ["v", "w"])
    assert not sel.warnings


def test_select_explicit_empty_rejected(dumbbell):
    with pytest.raises(ValueError):
        select_vertices(dumbbell, [])


# ---------------------------------------------------------------------------
# Neumann-to-Dirichlet samples


def test_single_edge_closed_form():
    g = single_unit_edge()
    sel = select_vertices(g)
    m = ntd_matrix(g, sel, -1.0)
    coth1 = math.cosh(1) / math.sinh(1)
    csch1 = 1 / math.sinh(1)
    assert m[0, 0] == pytest.approx(coth1, abs=1e-10)
    assert m[1, 1] == pytest.approx(coth1, abs=1e-10)
    assert m[0, 1] == pytest.approx(csch1, abs=1e-10)
    assert m[1, 0] == pytest.approx(csch1, abs=1e-10)


def test_symmetry_and_conjugation(dumbbell):
    sel = select_vertices(dumbbell)
    rng = random.Random(1)
    for _ in range(5):
        mu = complex(rng.uniform(-5, 5), rng.uniform(0.5, 3))
        m = ntd_matrix(dumbbell, sel, mu)
        assert np.linalg.norm(m - m.T) <= 1e-10 * np.linalg.norm(m)
        mc = ntd_matrix(dumbbell, sel, mu.conjugate())
        assert np.allclose(mc, m.conjugate(), rtol=0, atol=1e-10 * np.linalg.norm(m))


def test_real_mu_gives_a_real_symmetric_matrix(dumbbell, loop_pendant):
    # M_B is real on the real axis off the spectrum: no rounding may leave
    # an imaginary part, above the spectrum (real k) or below it (k = i kappa)
    for g in (dumbbell, loop_pendant):
        sel = select_vertices(g)
        for mu in (5.0, 12.3, 50.5, -1.0, -40.0, -1e4):
            for m in (ntd_matrix(g, sel, mu), ntd_matrix(g, sel, complex(mu, 0.0))):
                assert np.all(m.imag == 0), (g, mu)
                assert np.linalg.norm(m - m.T) <= 1e-12 * np.linalg.norm(m)


def test_decay_along_negative_axis(loop_pendant):
    sel = select_vertices(loop_pendant)
    n2 = np.linalg.norm(ntd_matrix(loop_pendant, sel, -1e2))
    n4 = np.linalg.norm(ntd_matrix(loop_pendant, sel, -1e4))
    assert n4 < n2
    assert n4 < 1e-1


def test_near_spectrum_rejected():
    g = single_unit_edge()
    sel = select_vertices(g)
    with pytest.raises(NearSpectrumError):
        ntd_matrix(g, sel, math.pi ** 2 + 1e-13)


def test_ntd_at_zero_is_on_spectrum(interval_pi):
    # lambda = 0 is an eigenvalue of every graph: the constants
    with pytest.raises(NearSpectrumError):
        ntd_matrix(interval_pi, select_vertices(interval_pi), 0.0)


@pytest.mark.parametrize("mu", [math.inf, -math.inf, math.nan, complex(1.0, math.inf)])
def test_ntd_rejects_non_finite_mu(mu):
    g = single_unit_edge()
    with pytest.raises(ValueError, match="finite"):
        ntd_matrix(g, select_vertices(g), mu)


@pytest.mark.parametrize("call", [
    lambda g, sel: eigenvalues_in(g, 5.0),
    lambda g, sel: residue(g, sel, math.pi ** 2, 1),
    lambda g, sel: ntd_matrix(g, sel, -1.0),
    lambda g, sel: ntd_matrix(g, sel, 0.0),
    lambda g, sel: visibility_report(g, sel, 5.0),
], ids=["eigenvalues_in", "residue", "ntd_matrix", "ntd_matrix_at_0",
        "visibility_report"])
def test_isolated_vertex_rejected_everywhere(call):
    g = mk(["a", "b", "z"], [("e", "a", "b", 1, "u")], {"u": 1.0})
    with pytest.raises(ValueError, match="isolated"):
        call(g, VertexSelection(("a", "b"), "explicit"))


def test_ntd_across_edge_dirichlet_pole():
    # mu = pi^2 is a Dirichlet point of e1 but no eigenvalue of the path
    # a-m-b, which is a Neumann interval of length 1 + sqrt(2)
    g = mk(["a", "m", "b"], [("e1", "a", "m", 1, "one"), ("e2", "m", "b", 1, "sqrt2")],
           {"one": 1.0, "sqrt2": math.sqrt(2)})
    k, length = math.pi, 1 + math.sqrt(2)
    diag, off = -1 / (k * math.tan(k * length)), -1 / (k * math.sin(k * length))
    m = ntd_matrix(g, select_vertices(g, ["a", "b"]), k ** 2)
    assert np.allclose(m, [[diag, off], [off, diag]], rtol=0, atol=1e-12)
    m3 = ntd_matrix(g, select_vertices(g, ["a", "m", "b"]), k ** 2)
    assert np.all(np.isfinite(m3))
    assert np.linalg.norm(m3 - m3.T) <= 1e-12 * np.linalg.norm(m3)
    assert np.allclose(m3[np.ix_([0, 2], [0, 2])], m, rtol=0, atol=1e-12)


def secular_ntd(graph, selection, mu):
    """M_B(mu) from the inverse of the (2E+V) secular matrix, and its condition."""
    eo, et, ln, vix = _edge_arrays(graph)
    a = assemble_complex(eo, et, ln, len(graph.vertices), [mu])[0]
    rows = unknowns(len(graph.edges), [vix[v] for v in selection.vertices])[2]
    return np.linalg.inv(a)[np.ix_(rows, rows)], np.linalg.cond(a)


def test_ntd_matches_secular_reference(dumbbell, loop_pendant, interval_pi, path3):
    # on a Dirichlet pole of e1 (mu = pi^2), deep on the negative axis, where
    # cos/sin would overflow (the suite turns warnings into errors), at
    # random complex mu on random graphs, and on and next to eigenvalues on a
    # step, where every edge sits on or next to a pole
    pole = mk(["a", "m", "b"], [("e1", "a", "m", 1, "one"), ("e2", "m", "b", 1, "sqrt2")],
              {"one": 1.0, "sqrt2": math.sqrt(2)})
    cases = [(g, mu) for g in (pole, dumbbell, loop_pendant, interval_pi)
             for mu in (math.pi ** 2, -1.0, -1e4, -1e6)]
    rng = random.Random(5)
    while len(cases) < 200:
        g = random_graph(rng)
        if all(degree(g, v) for v in g.vertices):
            cases += [(g, complex(rng.uniform(-50, 50), rng.uniform(-5, 5)))]
    steps = [(g, h.lam) for g in (path3, interval_pi)
             for h in eigenvalues_in(g, 20).eigenvalues if h.step is not None]
    assert len(steps) == 5 and steps[0][1] == pytest.approx(math.pi ** 2)
    cases += [(g, lam * (1 + d)) for g, lam in steps for d in (0.0, 1e-10, 1e-8, 1e-6)]
    checked = 0
    for g, mu in cases:
        sel = VertexSelection(tuple(g.vertices), "explicit")
        ref, cond = secular_ntd(g, sel, mu)
        if cond > 10 * COND_MAX:
            with pytest.raises(NearSpectrumError):
                ntd_matrix(g, sel, mu)
        elif cond < COND_MAX / 10:
            # both solves lose about eps * cond relative next to an eigenvalue
            m = ntd_matrix(g, sel, mu)
            tol = max(1e-12, 1e-15 * cond)
            assert np.linalg.norm(m - ref) <= tol * max(np.linalg.norm(ref), 1.0), (g, mu)
            checked += 1
    assert checked > 200


# ---------------------------------------------------------------------------
# residues


def contour_residue(graph, selection, lam, radius, nodes=64):
    """Reference residue: the trapezoid sum of M_B over |mu - lam| = radius,
    and the rank it has above max(1e-8 sigma_1, 1e-12 ||M_B(lam + radius)||).
    M_B at the nodes comes from one stacked inverse of the (2E+V) secular
    matrices of the tests' reference module, each with condition at most
    1e12."""
    w = np.exp(1j * (2 * math.pi * np.arange(nodes) / nodes))
    eo, et, ln, vix = _edge_arrays(graph)
    a = assemble_complex(eo, et, ln, len(graph.vertices), lam + radius * w)
    inv = np.linalg.inv(a)
    # ||A||_F ||A^-1||_F >= cond_2(A): only nodes above that bound need the SVD
    loose = ~(np.linalg.norm(a, axis=(1, 2)) * np.linalg.norm(inv, axis=(1, 2)) <= 1e12)
    assert np.all(np.linalg.cond(a[loose]) <= 1e12)
    rows = unknowns(len(graph.edges), [vix[v] for v in selection.vertices])[2]
    samples = inv[:, rows][:, :, rows]
    mat = np.tensordot(w, samples, axes=1) * (radius / nodes)
    sv = np.linalg.svd(mat, compute_uv=False)
    floor = 1e-12 * np.linalg.norm(samples[0], 2)      # w[0] = 1
    return mat, int(np.sum(sv > max(1e-8 * (sv[0] if len(sv) else 0.0), floor)))


def test_residue_zero_at_invisible_eigenvalue(loop_pendant):
    lam = 4 * math.pi ** 2
    r = min((lam - 36.8180306641) / 2, 0.5)
    for vertices in (["v"], ["v", "w"], None):
        sel = (select_vertices(loop_pendant) if vertices is None
               else select_vertices(loop_pendant, vertices))
        est = residue(loop_pendant, sel, lam, 1)
        assert est.rank == 0
        assert est.separation <= 1e-6
        reference = np.linalg.norm(ntd_matrix(loop_pendant, sel, lam + r), 2)
        assert np.linalg.norm(est.matrix) <= 1e-8 * reference


def test_residue_rank_one_simple_eigenvalue(interval_pi):
    sel = select_vertices(interval_pi)
    est = residue(interval_pi, sel, 1.0, 1)
    assert est.rank == 1
    # Neumann interval of length pi: Res_1 M = -(2/pi) * outer(phi, phi)
    # with phi = (cos 0, cos pi) = (1, -1)
    want = -(2 / math.pi) * np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert np.allclose(est.matrix, want, atol=1e-8)


def test_residue_at_zero_counts_components():
    two = mk(["a", "b", "c", "d"],
             [("e1", "a", "b", 1, "u"), ("e2", "c", "d", 1, "u")], {"u": 1.0})
    sel = select_vertices(two)
    est = residue(two, sel, 0.0, 2)
    assert est.rank == 2
    # constants normalised per component: -1/L on each component's block
    assert np.allclose(est.matrix, -np.kron(np.eye(2), np.ones((2, 2))), atol=1e-12)


def test_residue_as_large_as_the_system(unit_loop):
    # at 4 pi^2 the unit loop's Lambda(k) is 2 x 2 (its vertex and the one
    # that splits it) and its null space is all of it: cos and sin of 2 pi x,
    # of which w sees sqrt(2) cos 2 pi x, normalised, alone
    est = residue(unit_loop, select_vertices(unit_loop), 4 * math.pi ** 2, 2)
    assert est.separation <= 1e-6 and est.rank == 1
    assert est.matrix == pytest.approx(np.array([[-2.0]]), abs=1e-12)


@pytest.mark.parametrize("lam, multiplicity, message", [
    (-1.0, 1, "lambda must be nonnegative"),
    (2.5, 0, r"multiplicity must lie in 1\.\.2$"),
    (2.5, 3, r"multiplicity must lie in 1\.\.2$"),
])
def test_residue_rejects_bad_arguments(interval_pi, lam, multiplicity, message):
    with pytest.raises(ValueError, match=message):
        residue(interval_pi, select_vertices(interval_pi), lam, multiplicity)


def residue_rows(graph, lambda_max):
    """(closed-form residue, contour residue, contour rank) at every
    eigenvalue <= lambda_max; each contour's radius is at most half the
    distance to the neighbouring eigenvalues."""
    sel = select_vertices(graph)
    cutoff = lambda_max + 1          # no eigenvalue in (last hit, cutoff]
    hits = eigenvalues_in(graph, cutoff).eigenvalues
    lams = [h.lam for h in hits] + [cutoff]
    for i, hit in enumerate(hits):
        if hit.lam > lambda_max:
            break
        gap = min(lams[i + 1] - hit.lam, hit.lam - lams[i - 1] if i else math.inf)
        yield (residue(graph, sel, hit.lam, hit.multiplicity),
               *contour_residue(graph, sel, hit.lam, min(gap / 2, 0.5)))


def test_closed_form_residue_matches_contour(dumbbell, loop_pendant, interval_pi,
                                             unit_triangle, path3):
    graphs = [(g, 45.0) for g in (dumbbell, loop_pendant, interval_pi,
                                   unit_triangle, path3)]
    for seed in (3, 7):
        rng = random.Random(seed)
        drawn = 0
        while drawn < 50:
            g = random_graph(rng)
            if any(degree(g, v) == 0 for v in g.vertices):
                continue
            graphs.append((g, 30.0))
            drawn += 1
    rows = visible = 0
    for g, lambda_max in graphs:
        for est, ref, ref_rank in residue_rows(g, lambda_max):
            assert est.rank == ref_rank, (g, est.lam)
            assert est.separation <= 1e-6
            if ref_rank:
                assert np.linalg.norm(est.matrix - ref) <= 1e-8 * np.linalg.norm(ref)
                visible += 1
            rows += 1
    assert rows > 1000 and visible > 500


def test_pole_order_one(interval_pi):
    # (mu - lam)^2 M(mu) -> 0 along a radius shrink
    sel = select_vertices(interval_pi)
    lam = 1.0
    norms = []
    for rho in (0.4, 0.2, 0.1, 0.05):
        mu = lam + rho
        m = ntd_matrix(interval_pi, sel, mu)
        norms.append(abs(mu - lam) ** 2 * np.linalg.norm(m))
    assert all(b < a for a, b in zip(norms, norms[1:]))
    # (mu - lam)^2 M ~ rho * ||Res||, so an 8x radius shrink gives roughly 8x
    assert norms[-1] < 0.25 * norms[0]


# ---------------------------------------------------------------------------
# visibility


def test_visibility_loop_pendant_invisible(loop_pendant):
    rep = visibility_report(loop_pendant, select_vertices(loop_pendant), 45)
    row = min(rep.rows, key=lambda r: abs(r.lam - 4 * math.pi ** 2))
    assert row.dim_ker == 1
    assert row.rank_residue == 0
    assert row.dim_resonance == 1
    assert row.classification == "invisible"
    assert row.identity_ok
    assert all(r.identity_ok for r in rep.rows)


def test_visibility_below_floor_fully_visible(dumbbell):
    # below pi^2/3 every eigenvalue is a pole with full rank
    rep = visibility_report(dumbbell, select_vertices(dumbbell), 3.2)
    assert rep.rows
    # no eigenvalue lies on a step here
    assert all(r.step is None for r in rep.rows)
    for row in rep.rows:
        assert row.dim_resonance == 0
        assert row.rank_residue == row.dim_ker
        assert row.classification == "fully-visible"


def test_visibility_identity_random_small():
    rng = random.Random(4)
    done = 0
    while done < 3:
        g = random_graph(rng, max_vertices=3, max_edges=3, max_pq=2, units=("u1",))
        if any(degree(g, v) == 0 for v in g.vertices):
            continue
        rep = visibility_report(g, select_vertices(g), 30.0)
        assert all(r.identity_ok for r in rep.rows)
        done += 1


def test_visibility_unit_grid_6x6():
    # multiplicities up to 26: degenerate residues, full rank and partial
    g = unit_grid(6)
    rep = visibility_report(g, select_vertices(g), 12.0)
    assert all(r.identity_ok for r in rep.rows) and not rep.warnings
    assert any(r.dim_ker == 6 and r.rank_residue == 6 for r in rep.rows)
    top = rep.rows[-1]
    assert top.lam == pytest.approx(math.pi ** 2, rel=1e-12)
    assert (top.dim_ker, top.rank_residue, top.dim_resonance) == (26, 1, 25)
    assert top.classification == "partially-visible"


def test_visibility_certifies_a_step_the_count_missed(loop_pendant, monkeypatch):
    # dim ker >= dim R at every step: a count that skips the scar at k = 2 pi
    # leaves no row there, and the step's certificate must still fail
    exact = kernels.vertex_count

    def skipping(*args):
        count, mu, dmu = exact(*args)
        return count - (np.asarray(args[4]) > 2 * math.pi), mu, dmu

    monkeypatch.setattr(kernels, "vertex_count", skipping)
    rep = visibility_report(loop_pendant, select_vertices(loop_pendant), 45)
    assert all(abs(r.lam - 4 * math.pi ** 2) > 1e-6 for r in rep.rows)
    assert any("step 1/2*one" in w and "below dim R 1" in w for w in rep.warnings)


@pytest.mark.parametrize("scale", [1e-8, 1e-4, 1e4, 1e8])
def test_visibility_does_not_depend_on_the_length_unit(scale):
    # lengths times c and lambda_max over c^2 scale every eigenvalue by 1/c^2
    # and change nothing else: the same table and no warning
    for name, lambda_max in (("dumbbell.qg", 45), ("loop-pendant.qg", 45), ("triangle.qg", 100),
                             ("tree.qg", 100), ("interval-pi.qg", 45)):
        g = parse_graph(bundled_graph_path(name))
        scaled = MetricGraph.build(g.vertices, g.edges,
                                   {u: a * scale for u, a in g.units.entries})
        sel = select_vertices(g)
        want, got = ([(r.dim_ker, r.rank_residue, r.dim_resonance, r.step, r.classification)
                      for r in rep.rows] + list(rep.warnings)
                     for rep in (visibility_report(g, sel, lambda_max),
                                 visibility_report(scaled, sel, lambda_max / scale ** 2)))
        assert got == want and len(want) > 4, name


def test_visibility_explicit_subset_flagged(dumbbell):
    sel = select_vertices(dumbbell, ["x"])
    rep = visibility_report(dumbbell, sel, 2.0)
    assert any("unverified" in w for w in rep.warnings)


def test_results_do_not_keep_their_graph_alive():
    graph = parse_graph(bundled_graph_path("dumbbell.qg"))
    ref = weakref.ref(graph)
    table = [resonance_dimension(graph, s) for s in candidate_steps(graph, 200.0)]
    vis = visibility_report(graph, select_vertices(graph), 45.0)
    basis = resonance_dimension(graph, Step(1, "one"), with_basis=True)
    assert table and vis.rows and basis.basis is not None
    del graph
    gc.collect()
    assert ref() is None
