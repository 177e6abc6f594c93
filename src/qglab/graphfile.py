"""Line-oriented graph file format (.qg).

    # comment
    unit   <token> <decimal approximation>
    vertex <id>
    edge   <id> <from> <to> <p>/<q> <unit>

Units and vertices must be declared before use; coefficients are accepted in
any rational form (``3``, ``3/2``, ``6/4``) and normalized on load.  Each
distinct (coefficient text, unit) is read into one `ExactLength`, which every
edge that repeats it shares, so `graphs.validate` ranges it once; an error is
still reported on each line and each edge it concerns.
"""

from __future__ import annotations

import math
from pathlib import Path

from .graphs import Edge, ExactLength, MetricGraph, validate


class GraphFileError(ValueError):
    def __init__(self, errors: list[str]):
        self.errors = errors
        super().__init__("; ".join(errors))


def parse_graph_text(text: str, source: str = "<string>") -> MetricGraph:
    units: dict[str, float] = {}
    vertices: dict[str, None] = {}      # ordered set
    edges: dict[str, Edge] = {}
    lengths: dict[tuple[str, str], ExactLength] = {}   # (coefficient text, unit)
    errors: list[str] = []

    def err(lineno, msg):
        errors.append(f"{source}:{lineno}: {msg}")

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kw = parts[0]
        if kw == "unit":
            if len(parts) != 3:
                err(lineno, "expected: unit <token> <approx>")
                continue
            tok = parts[1]
            if tok in units:
                err(lineno, f"duplicate unit {tok!r}")
                continue
            try:
                approx = float(parts[2])
            except ValueError:
                err(lineno, f"bad unit approximation {parts[2]!r}")
                continue
            if not 0 < approx < math.inf:
                err(lineno, f"unit approximation must be positive and finite: {parts[2]}")
                continue
            units[tok] = approx
        elif kw == "vertex":
            if len(parts) != 2:
                err(lineno, "expected: vertex <id>")
                continue
            if parts[1] in vertices:
                err(lineno, f"duplicate vertex {parts[1]!r}")
                continue
            vertices[parts[1]] = None
        elif kw == "edge":
            if len(parts) != 6:
                err(lineno, "expected: edge <id> <from> <to> <p>/<q> <unit>")
                continue
            eid, vfrom, vto, coeff_s, unit = parts[1:]
            if eid in edges:
                err(lineno, f"duplicate edge {eid!r}")
                continue
            for v in (vfrom, vto):
                if v not in vertices:
                    err(lineno, f"undeclared vertex {v!r}")
            if unit not in units:
                err(lineno, f"undeclared unit {unit!r}")
                continue
            length = lengths.get((coeff_s, unit))
            if length is None:
                try:
                    length = lengths[coeff_s, unit] = ExactLength(coeff_s, unit)
                except ValueError as exc:   # a bad or nonpositive coefficient
                    err(lineno, str(exc))
                    continue
            edges[eid] = Edge(eid, vfrom, vto, length)
        else:
            err(lineno, f"unknown directive {kw!r}")
    if errors:
        raise GraphFileError(errors)
    graph = MetricGraph.build(vertices, edges.values(), units)
    violations = validate(graph)
    if violations:
        raise GraphFileError([f"{source}: {v}" for v in violations])
    return graph


def parse_graph(path: str | Path) -> MetricGraph:
    p = Path(path)
    return parse_graph_text(p.read_text(encoding="utf-8-sig"), source=str(p))


def serialize_graph(graph: MetricGraph) -> str:
    lines = []
    for tok, approx in graph.units.entries:
        lines.append(f"unit {tok} {approx!r}")
    for v in graph.vertices:
        lines.append(f"vertex {v}")
    for e in graph.edges:
        c = e.length.coeff
        lines.append(f"edge {e.id} {e.origin} {e.terminus} "
                     f"{c.numerator}/{c.denominator} {e.length.unit}")
    return "\n".join(lines) + "\n"
