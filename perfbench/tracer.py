"""Span tracing of the sthdg layers, installed from outside the package.

`install` replaces the public functions of each `sthdg` module (and the
names other `sthdg` modules imported them under) by timing wrappers.  A span
is (layer, start, end, parent index); spans are kept in memory and summarised
by `summarise` once the command has returned.  A layer's time is the sum of
its spans' self time: duration minus the time covered by directly nested
spans.  Only `solver.solve` (around `apply_dirichlet`) and
`verify.saturation_self` (around subgrid build, assembly and solves) contain
other spans; the other layers therefore report plain busy time.

Counts are read from the values the wrapped calls return, so they are exact
and repeat between runs of the same code.
"""

from __future__ import annotations

import functools
import resource
import sys
import time

# layer -> [(module, attribute)], attribute "Class.method" for methods
TARGETS = {
    "problem.get_problem": [("problem", "get_problem")],
    "mesh.build": [("mesh", "SpaceTimeMesh.build")],
    "mesh.refine": [("mesh", "SpaceTimeMesh.refine_and_coarsen"),
                    ("mesh", "SpaceTimeMesh.refine_uniform")],
    "assembly.assemble": [("assembly", "assemble")],
    "assembly.apply_dirichlet": [("assembly", "apply_dirichlet")],
    "solver.solve": [("solver", "solve")],
    "estimator.estimate": [("estimator", "estimate")],
    "estimator.error_norms": [("estimator", "error_norms")],
    "adapt.mark": [("adapt", "mark")],
    "vtk_io.center_values": [("vtk_io", "center_values")],
    "vtk_io.write": [("vtk_io", "write_mesh_vtk")],
    "verify.build_subgrid": [("verify", "build_subgrid")],
    "verify.oswald": [("verify", "oswald_constant")],
    "verify.saturation_self": [("verify", "measure_saturation")],
    "verify.inequality": [("verify", "inequality_constants")],
    "verify.bubble": [("verify", "bubble_constants")],
}

COUNTS = ("assembly.dofs_total", "assembly.nnz_total", "solver.blocks_total",
          "solver.max_block_dofs", "solver.residual_max", "solver.rss_growth_mb")


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Records spans and counts for one command run (`run_id`)."""

    def __init__(self, run_id: str, layers=None):
        self.run_id = run_id
        self.layers = set(TARGETS) if layers is None else set(layers)
        self.spans: list[list] = []  # [layer, start, end, parent]
        self._stack: list[int] = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self._systems: dict[int, dict] = {}  # assemble span -> mesh/system size

    def _on_result(self, layer: str, idx: int, out, rss_before: float) -> None:
        c = self.counts
        if layer == "assembly.assemble":
            self._systems[idx] = {"elements": out.dofmap.mesh.n_elements,
                                  "dofs": out.n_dofs, "nnz": out.A.nnz}
            c["assembly.dofs_total"] += out.n_dofs
            c["assembly.nnz_total"] += out.A.nnz
        elif layer == "solver.solve":
            rep = out[1]
            c["solver.blocks_total"] += rep.n_blocks
            c["solver.max_block_dofs"] = max(
                c["solver.max_block_dofs"], max(rep.block_sizes or [rep.n_dofs]))
            c["solver.residual_max"] = max(c["solver.residual_max"], rep.residual)
            c["solver.rss_growth_mb"] += _maxrss_mb() - rss_before

    def wrap(self, layer: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rss_before = _maxrss_mb() if layer == "solver.solve" else 0.0
            idx = len(self.spans)
            self.spans.append([layer, time.perf_counter(), None,
                               self._stack[-1] if self._stack else None])
            self._stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.spans[idx][2] = time.perf_counter()
                self._stack.pop()
            self._on_result(layer, idx, out, rss_before)
            return out

        return traced

    def install(self) -> None:
        """Wrap every target in `self.layers` wherever sthdg refers to it."""
        modules = [m for name, m in sys.modules.items()
                   if name == "sthdg" or name.startswith("sthdg.")]
        for layer, targets in TARGETS.items():
            if layer not in self.layers:
                continue
            for mod_name, attr in targets:
                mod = sys.modules[f"sthdg.{mod_name}"]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        setattr(cls, meth, classmethod(self.wrap(layer, raw.__func__)))
                    else:
                        setattr(cls, meth, self.wrap(layer, raw))
                    continue
                orig = getattr(mod, attr)
                wrapped = self.wrap(layer, orig)
                for m in modules:
                    for name, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, name, wrapped)

    def seconds_in(self, layer: str) -> float:
        """Busy time of the outermost spans of `layer`."""
        total = 0.0
        for name, t0, t1, parent in self.spans:
            if name == layer and (parent is None or self.spans[parent][0] != layer):
                total += t1 - t0
        return total

    def summarise(self, run_s: float) -> dict:
        """Per-layer self time, counts, coverage and per-cycle rows."""
        child_time = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent is not None:
                child_time[parent] += t1 - t0
        layer_s = {f"{layer}_s": 0.0 for layer in TARGETS}
        top_s = 0.0
        for i, (name, t0, t1, parent) in enumerate(self.spans):
            layer_s[f"{name}_s"] += (t1 - t0) - child_time[i]
            if parent is None and name != "problem.get_problem":
                top_s += t1 - t0
        metrics = dict(layer_s)
        metrics.update(self.counts)
        metrics["cli.unattributed_s"] = run_s - top_s
        return {
            "run_id": self.run_id,
            "metrics": metrics,
            "busy_s": {f"{layer}_s": self.seconds_in(layer) for layer in TARGETS},
            "coverage": top_s / run_s if run_s > 0 else 0.0,
            "cycles": self._cycle_rows(child_time),
            "spans": [[self.run_id] + s for s in self.spans],
        }

    def _cycle_rows(self, child_time: list[float]) -> list[dict]:
        """One row per study cycle; a cycle starts at a top-level assemble.

        Spans before the first assemble (the initial mesh build) fold into
        cycle 0, and the refine that ends a cycle belongs to that cycle.
        Commands without a top-level assemble (verify) give no rows.
        """
        rows: list[dict] = []
        carry: dict[str, float] = {}
        for i, (name, t0, t1, parent) in enumerate(self.spans):
            if name == "problem.get_problem":
                continue
            if name == "assembly.assemble" and parent is None:
                rows.append({"cycle": len(rows), **self._systems[i], "layers_s": carry})
                carry = {}
            layers = rows[-1]["layers_s"] if rows else carry
            layers[name] = layers.get(name, 0.0) + (t1 - t0) - child_time[i]
        return rows
