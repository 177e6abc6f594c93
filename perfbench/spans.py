"""Spans around the calls into each qglab module, recorded from outside.

`Tracer.install` replaces each target function by a wrapper in the module
namespace its callers look it up in (for example `qglab.lengths.simple_cycles`,
which `resonance_floor` calls as a global).  A wrapper records a span only
while an operation is current, so the checker's own calls are not traced.
A target the package does not have stops the traced run, and so does a
call whose arguments or result the metrics cannot read: a figure must not
read 0 because the code it measures moved.

A span is [name, start, end, parent index, (pass, op), info]; spans stay in
memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

# span name, module the caller looks it up in, attribute, info hook
TARGETS = [
    ("cli.main", "qglab.cli", "main", None),
    ("graphfile.parse_graph", "qglab.cli", "parse_graph", None),
    ("spectral.eigenvalues_in", "qglab.cli", "eigenvalues_in", "hits"),
    ("spectral.eigenvalues_in", "qglab.weyl", "eigenvalues_in", "hits"),
    ("spectral.assemble_secular", "qglab.spectral", "assemble_secular", None),
    ("spectral.refine", "qglab.spectral", "_golden_min", None),
    ("kernels.scan_sigma_min", "qglab.kernels", "scan_sigma_min", "scan"),
    ("weyl.visibility_report", "qglab.cli", "visibility_report", None),
    ("weyl.select_vertices", "qglab.cli", "select_vertices", None),
    ("weyl.residue", "qglab.weyl", "residue", "residue"),
    ("weyl.ntd_matrix", "qglab.weyl", "ntd_matrix", None),
    ("weyl.ntd_matrix", "qglab.cli", "ntd_matrix", None),
    ("weyl.cond", "numpy.linalg", "cond", "under:weyl.ntd_matrix"),
    ("graphs.simple_cycles", "qglab.lengths", "simple_cycles", "len"),
    ("graphs.core_decomposition", "qglab.weyl", "core_decomposition", None),
    ("graphs.cycle_system", "qglab.resonance", "cycle_system", None),
    ("lengths.candidate_steps", "qglab.cli", "candidate_steps", "len"),
    ("lengths.candidate_steps", "qglab.weyl", "candidate_steps", "len"),
    ("lengths.resonance_floor", "qglab.cli", "resonance_floor", None),
    ("resonance.resonance_dimension", "qglab.cli", "resonance_dimension", "dim"),
    ("resonance.resonance_dimension", "qglab.weyl", "resonance_dimension", "dim"),
    ("resonance.basis", "qglab.resonance", "_construct_basis", None),
    ("resonance.basis", "qglab.resonance", "_verify_basis", None),
]


def _info(kind, args, kwargs, out):
    """Small per-span facts the metrics need, read from arguments/results."""
    if kind == "hits":
        return sum(1 for h in out.eigenvalues if h.lam > 0)
    if kind == "scan":
        eo, _, _, nv, ks = args[:5]
        return len(ks), 2 * len(eo) + nv
    if kind == "residue":
        from qglab.weyl import ResidueOptions
        opts = (args[4] if len(args) > 4 else kwargs.get("opts")) or ResidueOptions()
        return out.nodes, opts.max_nodes
    if kind == "len":
        return len(out)
    if kind == "dim":
        return out.dim
    return None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = None               # (pass, op index) while an operation runs
        self._restore: list[tuple] = []

    def install(self):
        for name, modname, attr, kind in TARGETS:
            mod = importlib.import_module(modname)
            fn = getattr(mod, attr)
            self._restore.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, name, kind))

    def uninstall(self):
        for mod, attr, fn in reversed(self._restore):
            setattr(mod, attr, fn)
        self._restore.clear()

    def _wrap(self, fn, name, kind):
        spans, stack = self.spans, self.stack
        under = kind[6:] if kind and kind.startswith("under:") else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None or (under and (not stack or spans[stack[-1]][0] != under)):
                return fn(*args, **kwargs)
            rec = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                rec[5] = "raised " + type(exc).__name__
                raise
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if kind and not under:
                rec[5] = _info(kind, args, kwargs, out)
            return out
        return wrapper

    def write(self, path: str):
        with open(path, "w") as fh:
            for name, t0, t1, parent, op, info in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1, "parent": parent,
                                     "pass": op[0], "op": op[1], "info": info}) + "\n")


LAYERS = ("cli", "graphfile", "spectral", "kernels", "weyl", "graphs", "lengths",
          "resonance")
UNITS = {"kernels.svd_gflop_computed": "GFLOP", "kernels.matrix_dim_max": "rows",
         "spectral.hit_ratio": "ratio", "weyl.ntd_per_residue": "ratio",
         "resonance.resonant_ratio": "ratio"}


def unit(name: str) -> str:
    return "s" if name.endswith("_s") else UNITS.get(name, "count")


def layer_metrics(spans: list[list], pass_no: int) -> dict[str, float]:
    """Per-layer figures of one pass; indices stay those of the whole list,
    which the parent links use."""
    mine = [i for i, s in enumerate(spans) if s[4][0] == pass_no]
    dur = {i: spans[i][2] - spans[i][1] for i in mine}
    child = dict.fromkeys(mine, 0.0)
    by = {}
    for i in mine:
        if spans[i][3] >= 0:
            child[spans[i][3]] += dur[i]
        by.setdefault(spans[i][0], []).append(i)

    def total(name):
        return sum(dur[i] for i in by.get(name, ()))

    def calls(name):
        return len(by.get(name, ()))

    def infos(name):
        return [spans[i][5] for i in by.get(name, ())]

    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(dur[i] - child[i] for i in mine
                                   if spans[i][0].split(".", 1)[0] == layer)

    scans = [x for x in infos("kernels.scan_sigma_min") if isinstance(x, tuple)]
    m["kernels.scan_calls"] = calls("kernels.scan_sigma_min")
    m["kernels.scan_s"] = total("kernels.scan_sigma_min")
    m["kernels.grid_points"] = sum(n for n, _ in scans if n > 1)
    m["kernels.refine_points"] = sum(n for n, _ in scans if n == 1)
    m["kernels.matrix_dim_max"] = max((d for _, d in scans), default=0)
    # full SVD (U, S, V^T) of a d x d matrix: about 21 d^3 flops (Golub & Van Loan)
    m["kernels.svd_gflop_computed"] = sum(n * 21.0 * d ** 3 for n, d in scans) / 1e9

    eig = set(by.get("spectral.eigenvalues_in", ()))
    cands = sum(1 for i in by.get("spectral.assemble_secular", ()) if spans[i][3] in eig)
    hits = sum(x for x in infos("spectral.eigenvalues_in") if isinstance(x, int))
    m["spectral.eigenvalues_in_calls"] = len(eig)
    m["spectral.eigenvalues_in_s"] = total("spectral.eigenvalues_in")
    m["spectral.refine_s"] = total("spectral.refine")
    m["spectral.candidates"] = cands
    m["spectral.hits"] = hits
    m["spectral.hit_ratio"] = hits / cands if cands else 0.0

    res = [x for x in infos("weyl.residue") if isinstance(x, tuple)]
    residue_ix = set(by.get("weyl.residue", ()))
    ntd_in_residue = sum(1 for i in by.get("weyl.ntd_matrix", ()) if spans[i][3] in residue_ix)
    m["weyl.visibility_s"] = total("weyl.visibility_report")
    m["weyl.residue_calls"] = calls("weyl.residue")
    m["weyl.residue_s"] = total("weyl.residue")
    m["weyl.ntd_calls"] = calls("weyl.ntd_matrix")
    m["weyl.ntd_s"] = total("weyl.ntd_matrix")
    m["weyl.cond_s"] = total("weyl.cond")
    m["weyl.contour_nodes"] = sum(n for n, _ in res)
    m["weyl.ntd_per_residue"] = ntd_in_residue / len(residue_ix) if residue_ix else 0.0
    m["weyl.residue_at_max_nodes"] = sum(1 for n, cap in res if n >= cap)
    m["weyl.near_spectrum_errors"] = sum(1 for x in infos("weyl.ntd_matrix")
                                         if x == "raised NearSpectrumError")

    m["graphs.simple_cycles_s"] = total("graphs.simple_cycles")
    m["graphs.simple_cycles_found"] = sum(x for x in infos("graphs.simple_cycles")
                                          if isinstance(x, int))
    m["graphs.core_decomposition_s"] = total("graphs.core_decomposition")
    m["graphs.cycle_system_s"] = total("graphs.cycle_system")

    m["lengths.candidate_steps_s"] = total("lengths.candidate_steps")
    m["lengths.candidates"] = sum(x for x in infos("lengths.candidate_steps")
                                  if isinstance(x, int))
    m["lengths.resonance_floor_s"] = total("lengths.resonance_floor")

    dims = [x for x in infos("resonance.resonance_dimension") if isinstance(x, int)]
    m["resonance.dimension_calls"] = len(dims)
    m["resonance.dimension_s"] = total("resonance.resonance_dimension")
    m["resonance.basis_s"] = total("resonance.basis")
    m["resonance.resonant_ratio"] = sum(1 for d in dims if d > 0) / len(dims) if dims else 0.0

    m["graphfile.parse_calls"] = calls("graphfile.parse_graph")
    m["graphfile.parse_s"] = total("graphfile.parse_graph")
    m["cli.calls"] = calls("cli.main")
    return m
