import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qglab
from qglab import serialize_graph
from qglab.cli import ERROR, OK, WARNINGS, main

from conftest import mk, unit_grid


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
                        spec.warnings)

    monkeypatch.setattr(qglab.weyl, "eigenvalues_in", with_false_hit)
    code, out, err = run(capsys, ["visibility", paths["interval-pi"], "--lambda-max", "3"])
    assert code == WARNINGS
    assert "lambda=2.5 not separated" in err
    assert len(out.splitlines()) == 4        # header, 0, 1, 2.5


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
    assert "error:" in err


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


def test_ntd_near_spectrum_errors(paths, capsys):
    code, _, err = run(capsys, ["ntd", paths["interval-pi"],
                                "--mu-re", str(1 + 1e-13)])
    assert code == ERROR
    assert "error:" in err


def test_ntd_at_zero_errors(paths, capsys):
    code, out, err = run(capsys, ["ntd", paths["interval-pi"], "--mu-re", "0"])
    assert code == ERROR and not out
    assert "eigenvalue" in err


# ---------------------------------------------------------------------------
# error handling


def test_parse_errors_exit_1(capsys, tmp_path):
    bad = tmp_path / "bad.qg"
    bad.write_text("vertex a\nedge e a b 1/1 ghost\n")
    code, _, err = run(capsys, ["spectrum", str(bad), "--lambda-max", "5"])
    assert code == ERROR
    assert "bad.qg:2" in err


def test_missing_file_exit_1(capsys):
    code, _, err = run(capsys, ["spectrum", "/no/such/file.qg",
                                "--lambda-max", "5"])
    assert code == ERROR


def test_bad_usage_exit_1(capsys):
    assert main(["spectrum"]) == ERROR
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert main(["--help"]) == OK
    capsys.readouterr()
