import csv
import importlib
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import qglab
from qglab import (candidate_steps, lengths, parse_graph, resonance_dimension,
                   resonance_dimension_oracle, serialize_graph)
from qglab.cli import ERROR, OK, WARNINGS, _dumps, main

from conftest import floor_over_cap, mk, unit_grid
from fraction_steps import candidate_steps_reference
from randgraphs import random_graph


@pytest.fixture(scope="module")
def paths():
    return {name.split(".")[0]: str(qglab.bundled_graph_path(name))
            for name in ("dumbbell.qg", "loop-pendant.qg", "interval-pi.qg")}


def run(capsys, argv):
    code = main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


# ---------------------------------------------------------------------------
# spectrum


def test_spectrum_json(paths, capsys, tmp_path):
    out = tmp_path / "spec.json"
    code, _, _ = run(capsys, ["spectrum", paths["interval-pi"],
                              "--lambda-max", "10", "--format", "json",
                              "-o", str(out)])
    assert code == OK
    doc = json.loads(out.read_text())
    assert doc["meta"]["lambda_max"] == 10
    assert "scan_factor" not in doc["meta"]
    assert "nullity_tol" not in doc["meta"]
    lams = [float(r["lambda"]) for r in doc["rows"]]
    assert lams == pytest.approx([0, 1, 4, 9], abs=1e-9)


def test_spectrum_table_stdout(paths, capsys):
    code, out, _ = run(capsys, ["spectrum", paths["interval-pi"],
                                "--lambda-max", "5"])
    assert code == OK
    assert "lambda" in out.splitlines()[0]
    assert len(out.splitlines()) == 4  # header + 0, 1, 4


def test_spectrum_csv(paths, capsys):
    code, out, _ = run(capsys, ["spectrum", paths["interval-pi"],
                                "--lambda-max", "5", "--format", "csv"])
    assert code == OK
    rows = list(csv.DictReader(out.splitlines()))
    assert [r["multiplicity"] for r in rows] == ["1", "1", "1"]


# ---------------------------------------------------------------------------
# resonances


def test_resonances_dumbbell_table(paths, capsys, tmp_path):
    out = tmp_path / "res.json"
    code, _, _ = run(capsys, ["resonances", paths["dumbbell"],
                              "--lambda-max", "14", "--format", "json",
                              "-o", str(out)])
    assert code == OK
    doc = json.loads(out.read_text())
    assert doc["meta"]["lambda_floor"] == pytest.approx(math.pi ** 2 / 3)
    got = [(r["step"], r["dim_R"], r["resonance"]) for r in doc["rows"]]
    assert got == [("1*sqrt3", 0, "no"), ("1/2*pi", 0, "no"),
                   ("1*one", 1, "yes"), ("1/2*sqrt3", 2, "yes")]


def test_resonances_unit_grid_6x6(capsys, tmp_path):
    # the floor of a 36-vertex grid must not depend on its cycle count
    g = tmp_path / "grid6.qg"
    g.write_text(serialize_graph(unit_grid(6)))
    code, out, _ = run(capsys, ["resonances", str(g), "--lambda-max", "200",
                                "--format", "json"])
    assert code == OK
    doc = json.loads(out)
    assert doc["meta"]["lambda_floor"] == pytest.approx(math.pi ** 2, rel=1e-12)
    assert "cycle_budget" not in doc["meta"]
    assert doc["rows"][0]["step"] == "1*one"


def test_resonances_tree_empty(capsys, tmp_path):
    p = str(qglab.bundled_graph_path("tree.qg"))
    code, out, _ = run(capsys, ["resonances", p, "--lambda-max", "2"])
    assert code == OK
    assert "(no rows)" in out


def _resonance_rows(out: str, fmt: str) -> list[dict]:
    if fmt == "json":
        return json.loads(out)["rows"]
    if fmt == "csv":
        return list(csv.DictReader(out.splitlines()))
    header, *lines = out.splitlines()        # "(no rows)" and no lines when empty
    return [dict(zip(header.split(), line.split())) for line in lines]


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
def test_resonance_rows_match_fraction_reference_and_oracle(capsys, tmp_path, fmt):
    # rows built from the Fraction path: one Step per (edge, n), its
    # lambda_value, and the nullity of the vertex balance system
    graphs = [(parse_graph(qglab.bundled_graph_path(n)), 200.0) for n in BUNDLED]
    rng = random.Random(23)
    graphs += [(random_graph(rng), rng.choice([30.0, 200.0, 1000.0])) for _ in range(40)]
    steps = 0
    for i, (g, lambda_max) in enumerate(graphs):
        path = tmp_path / f"g{i}.qg"
        path.write_text(serialize_graph(g))
        code, out, err = run(capsys, ["resonances", str(path), "--lambda-max",
                                      repr(lambda_max), "--format", fmt])
        assert code == OK, err
        ref = candidate_steps_reference(g, lambda_max)
        want = [(f"{s.lambda_value(g.units):.12g}", str(s), resonance_dimension_oracle(g, s))
                for s in ref]
        got = [(r["lambda"], r["step"], int(r["dim_R"])) for r in _resonance_rows(out, fmt)]
        assert got == want, (i, fmt)
        steps += len(ref)
    assert steps > 1000


# ---------------------------------------------------------------------------
# visibility


def test_visibility_json_has_diagnostics(paths, capsys, tmp_path):
    out = tmp_path / "vis.json"
    code, _, _ = run(capsys, ["visibility", paths["loop-pendant"],
                              "--lambda-max", "45", "--format", "json",
                              "-o", str(out)])
    assert code == OK
    doc = json.loads(out.read_text())
    assert doc["meta"]["vertices"] == ["v"]
    assert "rank_tol" not in doc["meta"]
    row = min(doc["rows"], key=lambda r: abs(float(r["lambda"]) - 4 * math.pi ** 2))
    assert row["class"] == "invisible"
    assert row["identity"] == "ok"
    assert "residue_diagnostics" in row
    assert row["residue_diagnostics"]["separation"] <= 1e-6


def test_visibility_dumbbell_readme_command(paths, capsys):
    code, out, err = run(capsys, ["visibility", paths["dumbbell"], "--lambda-max", "45"])
    assert code == OK, err
    rows = out.splitlines()[1:]
    assert len(rows) > 20
    assert all(r.split()[5] == "ok" for r in rows)


def test_visibility_explicit_subset_warns(paths, capsys):
    code, _, err = run(capsys, ["visibility", paths["dumbbell"],
                                "--lambda-max", "2", "--vertices", "x"])
    assert code == WARNINGS
    assert "warning:" in err


def test_visibility_warns_on_unseparated_eigenspace(paths, capsys, monkeypatch):
    # a hit off the spectrum has no nullspace to take the residue from: the
    # self-check must warn and the command exit 2
    import qglab.weyl
    from qglab.spectral import EigenvalueHit, Spectrum
    exact = qglab.weyl.eigenvalues_in

    def with_false_hit(graph, lambda_max):
        spec = exact(graph, lambda_max)
        false = EigenvalueHit(lam=2.5, multiplicity=1, k=math.sqrt(2.5), sigma_min=0.0)
        return Spectrum(tuple(sorted(spec.eigenvalues + (false,), key=lambda h: h.lam)),
                        spec.warnings, spec.table)

    monkeypatch.setattr(qglab.weyl, "eigenvalues_in", with_false_hit)
    code, out, err = run(capsys, ["visibility", paths["interval-pi"], "--lambda-max", "3"])
    assert code == WARNINGS
    assert "lambda=2.5 not separated" in err
    assert len(out.splitlines()) == 4        # header, 0, 1, 2.5


def test_visibility_step_of_a_near_step_eigenvalue(capsys, tmp_path):
    # a unit loop with a pendant of length 0.5000001: the scar at 4 pi^2 sits
    # on the step 1/2*one and the eigenvalue 5.3e-6 below it on none; the step
    # 1*u lies within 1e-6 relative of both and holds neither
    graph = tmp_path / "near-step.qg"
    graph.write_text("unit one 1.0\nunit u 0.5000001\nvertex v\nvertex w\n"
                     "edge l v v 1/1 one\nedge p v w 1/1 u\n")
    code, out, err = run(capsys, ["visibility", str(graph), "--lambda-max", "45",
                                  "--format", "json"])
    assert code == OK, err
    rows = {r["lambda"]: r for r in json.loads(out)["rows"]}
    scar = rows["39.4784176044"]
    assert (scar["step"], scar["dim_R"], scar["identity"]) == ("1/2*one", 1, "ok")
    assert rows["39.4784123406"]["step"] == "-"
    g = qglab.parse_graph(str(graph))
    rep = qglab.visibility_report(g, qglab.select_vertices(g), 45)
    near = min(rep.rows, key=lambda r: abs(r.lam - 39.4784123406))
    assert near.notes == ("no commensurate structure detected",)


# ---------------------------------------------------------------------------
# basis


def test_basis_json(paths, capsys):
    code, out, _ = run(capsys, ["basis", paths["dumbbell"],
                                "--step", "1/2", "sqrt3"])
    assert code == OK
    doc = json.loads(out)
    assert doc["dim_R"] == 2
    assert len(doc["functions"]) == 2
    for f in doc["functions"]:
        assert all(isinstance(b, int) for b in f.values())


def test_basis_unknown_unit_fails(paths, capsys):
    code, _, err = run(capsys, ["basis", paths["dumbbell"],
                                "--step", "1", "nope"])
    assert code == ERROR
    assert err.splitlines() == ["error: step unit 'nope' not declared in graph"]


def test_basis_output_independent_of_hash_seed(tmp_path):
    # two triangles sharing an edge: the basis function is spooled along the
    # symmetric difference of their fundamental cycles
    g = mk(["a", "b", "c", "d"],
           [("e1", "a", "b", 1, "u"), ("e2", "b", "c", 1, "u"),
            ("e3", "c", "a", 1, "u"), ("e4", "b", "d", 1, "u"),
            ("e5", "d", "c", 1, "u")],
           {"u": 1.0})
    path = tmp_path / "g.qg"
    path.write_text(serialize_graph(g))
    env = dict(os.environ, PYTHONPATH=str(Path(qglab.__file__).parents[1]))
    outs = set()
    for seed in range(8):
        env["PYTHONHASHSEED"] = str(seed)
        proc = subprocess.run([sys.executable, "-m", "qglab.cli", "basis", str(path),
                               "--step", "1", "u"],
                              capture_output=True, text=True, env=env, check=True)
        outs.add(proc.stdout)
    assert len(outs) == 1


# ---------------------------------------------------------------------------
# ntd


def test_ntd_single_edge(capsys, tmp_path):
    g = tmp_path / "edge.qg"
    g.write_text("unit one 1.0\nvertex a\nvertex b\nedge e a b 1/1 one\n")
    code, out, _ = run(capsys, ["ntd", str(g), "--mu-re", "-1",
                                "--format", "json"])
    assert code == OK
    doc = json.loads(out)
    coth1 = math.cosh(1) / math.sinh(1)
    assert float(doc["rows"][0]["a"].split("+")[0]) == pytest.approx(coth1, abs=1e-9)


def test_ntd_negative_exponent_with_equals(paths, capsys):
    code, out, err = run(capsys, ["ntd", paths["dumbbell"], "--mu-re=-1e6",
                                  "--format", "json"])
    assert code == OK and not err
    assert json.loads(out)["meta"]["mu"] == "(-1000000+0j)"


def test_ntd_negative_exponent_after_a_space(paths, capsys):
    # argparse alone reads "-1e6" after a space as an option and exits 1
    joined = run(capsys, ["ntd", paths["dumbbell"], "--mu-re=-1e6", "--mu-im=-2e-3"])
    assert joined[0] == OK and joined[1]
    for argv in (["--mu-re", "-1e6", "--mu-im", "-2e-3"], ["--mu-r", "-1e6", "--mu-i", "-2e-3"]):
        assert run(capsys, ["ntd", paths["dumbbell"], *argv]) == joined


def test_ntd_near_spectrum_errors(paths, capsys):
    code, _, err = run(capsys, ["ntd", paths["interval-pi"],
                                "--mu-re", str(1 + 1e-13)])
    assert code == ERROR
    assert "error:" in err


def test_ntd_at_zero_errors(paths, capsys):
    code, out, err = run(capsys, ["ntd", paths["interval-pi"], "--mu-re", "0"])
    assert code == ERROR and not out
    assert "eigenvalue" in err


@pytest.mark.parametrize("command", [["ntd", "--mu-re", "-1"],
                                     ["visibility", "--lambda-max", "10"]])
def test_repeated_vertex_selection_exit_1(paths, capsys, command):
    # a repeated id would give the NtD matrix two rows but one column for it
    code, out, err = run(capsys, command[:1] + [paths["dumbbell"]] + command[1:]
                         + ["--vertices", "c,c,x"])
    assert code == ERROR and not out
    assert err.splitlines() == ["error: repeated vertices in selection: ['c']"]


# ---------------------------------------------------------------------------
# error handling


def test_parse_errors_exit_1(capsys, tmp_path):
    bad = tmp_path / "bad.qg"
    bad.write_text("vertex a\nedge e a b 1/1 ghost\n")
    code, _, err = run(capsys, ["spectrum", str(bad), "--lambda-max", "5"])
    assert code == ERROR
    assert "bad.qg:2" in err


TRIANGLE = ("vertex a\nvertex b\nvertex c\n"
            "edge e1 a b {c} one\nedge e2 b c 1 one\nedge e3 c a 1 one\n")


@pytest.mark.parametrize("command, unit, coeff", [
    ("spectrum", "1.0", "1e400"), ("spectrum", "1.0", "1e-400"),
    ("spectrum", "1e300", "1"), ("resonances", "1e-200", "1"),
    ("spectrum", "1e-320", "1/1000")])
def test_length_outside_the_float_range_exit_1(capsys, tmp_path, command, unit, coeff):
    bad = tmp_path / "far.qg"
    bad.write_text(f"unit one {unit}\n" + TRIANGLE.format(c=coeff))
    code, out, err = run(capsys, [command, str(bad), "--lambda-max", "10"])
    assert code == ERROR and not out
    assert err.startswith("error:") and "edge e1" in err and "length" in err


def test_missing_file_exit_1(capsys):
    code, _, err = run(capsys, ["spectrum", "/no/such/file.qg",
                                "--lambda-max", "5"])
    assert code == ERROR


def test_unwritable_output_exit_1(paths, capsys, tmp_path):
    target = tmp_path / "missing" / "x"
    code, out, err = run(capsys, ["spectrum", paths["interval-pi"], "--lambda-max", "5",
                                  "-o", str(target)])
    assert code == ERROR and not out
    assert err.startswith("error:") and str(target) in err


def test_basis_zero_denominator_exit_1(paths, capsys):
    code, _, err = run(capsys, ["basis", paths["dumbbell"], "--step", "1/0", "one"])
    assert code == ERROR
    assert err == "error: bad coefficient '1/0'\n"


@pytest.mark.parametrize("coeff, message", [
    ("abc", "bad coefficient 'abc'"), ("0", "coefficient must be positive: 0"),
    # steps outside the float range of edge lengths
    ("1e400", "step has length inf, outside [2.98e-154, 3.35e+153]"),
    ("1e300", "step has length 1e+300, outside [2.98e-154, 3.35e+153]"),
    ("1e-200", "step has length 1e-200, outside [2.98e-154, 3.35e+153]"),
    ("1e-160", "step has length 1e-160, outside [2.98e-154, 3.35e+153]")])
def test_basis_bad_step_exit_1(paths, capsys, coeff, message):
    code, out, err = run(capsys, ["basis", paths["dumbbell"], "--step", coeff, "one"])
    assert code == ERROR and not out
    assert err == f"error: {message}\n"


def test_falling_vertex_count_exit_2(capsys, tmp_path):
    graph = tmp_path / "two-cycle.qg"
    graph.write_text("unit one 1.0\nvertex a\nvertex b\n"
                     "edge e1 a b 1 one\nedge e2 a b 1/100000007 one\n")
    code, out, err = run(capsys, ["spectrum", str(graph), "--lambda-max", "200",
                                  "--format", "csv"])
    assert code == WARNINGS
    assert "warning: vertex count falls across" in err
    assert all(int(r["multiplicity"]) >= 1 for r in csv.DictReader(out.splitlines()))


def _run_process(argv, timeout):
    env = dict(os.environ, PYTHONPATH=str(Path(qglab.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "qglab.cli", *argv], capture_output=True,
                          text=True, env=env, timeout=timeout)


def test_huge_exponent_coefficient_exit_1(capsys, tmp_path):
    # Fraction would build 10^exp first: 0.7 s at 1e3000000, and no end at
    # 1e1000000000; past the exponent bound no coefficient can be in range
    graph = tmp_path / "huge.qg"
    graph.write_text("unit one 1.0\nvertex a\nedge x a a 1e1000000000 one\n")
    proc = _run_process(["spectrum", str(graph), "--lambda-max", "5"], timeout=10)
    assert proc.returncode == ERROR
    assert proc.stderr == f"error: {graph}:3: bad coefficient '1e1000000000'\n"
    graph.write_text("unit one 1.0\nvertex a\nedge x a a 1e3000000 one\n")
    start = time.perf_counter()
    code, _, err = run(capsys, ["spectrum", str(graph), "--lambda-max", "5"])
    assert code == ERROR and "bad coefficient" in err
    assert time.perf_counter() - start < 0.1
    graph.write_text("unit one 1.0\nvertex a\nedge x a a 1e200 one\n")
    code, _, err = run(capsys, ["spectrum", str(graph), "--lambda-max", "5"])
    assert code == ERROR
    assert err == (f"error: {graph}: length-range: edge x has length 1e+200, "
                   f"outside [2.98e-154, 3.35e+153]\n")


def test_resonance_floor_of_a_huge_denominator(tmp_path):
    # edges 1 and 1/N, N = 10^30 + 57 (prime): the floor step is 1/N, found
    # without trying the divisors of N
    n = 10 ** 30 + 57
    graph = tmp_path / "two-cycle.qg"
    graph.write_text(f"unit one 1.0\nvertex a\nvertex b\n"
                     f"edge e1 a b 1 one\nedge e2 a b 1/{n} one\n")
    proc = _run_process(["resonances", str(graph), "--lambda-max", "200",
                         "--format", "json"], timeout=10)
    assert proc.returncode == OK, proc.stderr
    assert json.loads(proc.stdout)["meta"]["lambda_floor"] == pytest.approx(
        math.pi ** 2 * n ** 2, rel=1e-12)


def test_resonance_floor_over_its_cap_exit_1(capsys, tmp_path):
    graph = tmp_path / "star.qg"
    graph.write_text(serialize_graph(floor_over_cap()))
    code, out, err = run(capsys, ["resonances", str(graph), "--lambda-max", "1"])
    assert code == ERROR and not out
    assert err == ("error: the resonance floor of unit 'one' needs more than "
                   f"MAX_FLOOR_POPS = {lengths.MAX_FLOOR_POPS} common-step candidates\n")


def test_each_bad_line_reported(capsys, tmp_path):
    bad = tmp_path / "bad.qg"
    bad.write_text("unit u 1.0\nvertex a\nfrobnicate\nunit w inf\n")
    code, _, err = run(capsys, ["spectrum", str(bad), "--lambda-max", "5"])
    assert code == ERROR
    lines = err.splitlines()
    assert len(lines) == 2
    assert all(line.startswith("error:") for line in lines)
    assert "bad.qg:3:" in lines[0] and "bad.qg:4:" in lines[1]


@pytest.mark.parametrize("command", ["spectrum", "resonances", "visibility"])
def test_infinite_lambda_max_exit_1(paths, capsys, command):
    code, out, err = run(capsys, [command, paths["dumbbell"], "--lambda-max", "inf"])
    assert code == ERROR and not out
    assert err == "error: lambda_max must be positive and finite\n"


@pytest.mark.parametrize("command", ["spectrum", "resonances", "visibility"])
def test_huge_lambda_max_exit_1_fast(paths, capsys, command):
    # about 1e150 (edge, n) pairs: refused from their O(E) count
    t0 = time.perf_counter()
    code, out, err = run(capsys, [command, paths["dumbbell"], "--lambda-max", "1e300"])
    assert time.perf_counter() - t0 < 1.0
    assert code == ERROR and not out
    assert "MAX_STEP_PAIRS = 100000" in err and "Weyl's estimate" in err
    assert err.startswith("error: lambda_max = 1e+300 ") and err.endswith(" is 5.72e+150\n")


def test_step_pair_cap_is_exact(paths, monkeypatch):
    # interval-pi has one edge of length pi: floor(sqrt(lambda_max)) pairs
    monkeypatch.setattr(lengths, "MAX_STEP_PAIRS", 10)
    graph = parse_graph(paths["interval-pi"])
    assert len(candidate_steps(graph, 100)) == 10
    with pytest.raises(ValueError, match="MAX_STEP_PAIRS = 10 "):
        candidate_steps(graph, 121)


def test_bad_usage_exit_1(capsys):
    assert main(["spectrum"]) == ERROR
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert main(["--help"]) == OK
    capsys.readouterr()


def test_tracer_targets_resolve(monkeypatch):
    # the benchmark tracer wraps these names and stops on any it cannot find
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import spans
    missing = [(mod, attr) for _, mod, attr, _ in spans.TARGETS
               if not hasattr(importlib.import_module(mod), attr)]
    assert missing == []


# ---------------------------------------------------------------------------
# JSON output


DATA = Path(str(qglab.bundled_graph_path("tree.qg"))).parent
BUNDLED = sorted(p.name for p in DATA.glob("*.qg"))


def _largest_resonance_step(path):
    graph = parse_graph(path)
    rep = max((resonance_dimension(graph, s) for s in candidate_steps(graph, 30)),
              key=lambda r: r.dim)
    return [f"{rep.step.coeff}", rep.step.unit]


@pytest.mark.parametrize("name", BUNDLED)
@pytest.mark.parametrize("command", ["spectrum", "resonances", "visibility", "ntd", "basis"])
def test_json_output_is_json_dumps_indent_2(capsys, name, command):
    path = str(qglab.bundled_graph_path(name))
    if command == "basis":
        argv = ["basis", path, "--step", *_largest_resonance_step(path)]
    elif command == "ntd":
        argv = ["ntd", path, "--mu-re", "-1", "--format", "json"]
    else:
        argv = [command, path, "--lambda-max", "30", "--format", "json"]
    code, out, _ = run(capsys, argv)
    assert code in (OK, WARNINGS)
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


@pytest.mark.parametrize("obj", [
    {"meta": {"command": "resonances"}, "rows": []},
    {},
    [],
    None,
    [None, math.inf, -math.inf, math.nan, 0.1, -0.0, 10 ** 30, True, ""],
    {"meta": {"lambda_floor": None, "lambda_max": math.inf, "x": math.nan},
     "rows": [{"lambda": "1", "residue_diagnostics": {
         "singular_values": [1.0, 2e-300], "separation": math.inf}},
              {"lambda": "2", "residue_diagnostics": {
                  "singular_values": [], "separation": math.nan}}]},
    {"meta": {"vertices": ["\u00e9", "\u03bb\u2081", "\U0001d53b"]},
     "rows": [{"vertex": "\u00e9", "\u00e9": "1+0j"}]},
    {"rows": [{"a": "}", "b": "{"}, {"a": "},\n      {", "b": "\"quoted\""},
              {"a": "line\nbreak", "b": "\\"}]},
    {"rows": [{"a": 1}, {}, {"a": []}, {"a": {}}]},
    {"rows": [{"a": 1}, {}]},
    [{}, {}],
    {"functions": [{"e1": 1, "e2": -1}, {"e3": 1}], "beta1": 2},
    [[1, [2, [3, {}]]], ({"a": (1, 2)},)],
    {1: "int key", 2.5: "float key", None: "null key", True: "bool key"},
])
def test_dumps_is_json_dumps_indent_2(obj):
    assert _dumps(obj) == json.dumps(obj, indent=2)
