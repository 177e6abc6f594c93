"""The benchmark tracer (perfbench/spans.py) wraps qglab functions by the
names its TARGETS list; a traced benchmark run stops on a name the package
lacks.  These tests keep those names resolving and one traced op of each
command readable by its metrics."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import qglab
import qglab.cli

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves(spans):
    for _, modname, attr, _ in spans.TARGETS:
        assert callable(getattr(importlib.import_module(modname), attr)), (modname, attr)


def test_traced_ops_give_layer_metrics(spans, capsys):
    path = str(qglab.bundled_graph_path("dumbbell.qg"))
    ops = [["spectrum", path, "--lambda-max", "45"],
           ["visibility", path, "--lambda-max", "45"],
           ["resonances", path, "--lambda-max", "200"],
           ["basis", path, "--step", "1/2", "sqrt3"]]
    tracer = spans.Tracer()
    tracer.install()
    try:
        for i, argv in enumerate(ops):
            tracer.op = (0, i)
            assert qglab.cli.main(argv) in (0, 2), argv   # the wrapped main
            tracer.op = None
    finally:
        tracer.uninstall()
    capsys.readouterr()
    m = spans.layer_metrics(tracer.spans, 0)
    assert m["cli.calls"] == 4 and m["graphfile.parse_calls"] == 4
    assert m["spectral.eigenvalues_in_calls"] == 2
    assert m["resonance.dimension_calls"] == 1
    assert all(f"{layer}.self_s" in m for layer in spans.LAYERS)
