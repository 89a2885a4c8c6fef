"""The benchmark's tracer wraps sthdg functions by name, unguarded: a target
that was renamed or deleted breaks every traced benchmark run.  A traced
study must also still report what its run.json reports."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_targets() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.TARGETS


def test_every_tracer_target_resolves():
    missing = []
    for layer, targets in _tracer_targets().items():
        for module, attr in targets:
            obj = importlib.import_module(f"sthdg.{module}")
            if "." in attr:
                # Tracer.install reads methods from the class's own __dict__
                cls_name, meth = attr.split(".")
                cls = getattr(obj, cls_name, None)
                ok = cls is not None and meth in vars(cls)
            else:
                ok = callable(getattr(obj, attr, None))
            if not ok:
                missing.append(f"{layer}: sthdg.{module}.{attr}")
    assert not missing, missing


# every layer an adaptive study goes through, and the run.json phase that
# contains each timed layer's spans
_STUDY_LAYERS = {"problem.get_problem", "mesh.build", "mesh.refine", "assembly.assemble",
                 "assembly.apply_dirichlet", "solver.solve", "estimator.estimate",
                 "estimator.error_norms", "adapt.mark", "vtk_io.center_values",
                 "vtk_io.write"}
_PHASE_LAYERS = {
    "assemble": ("assembly.assemble",),
    "solve": ("solver.solve", "assembly.apply_dirichlet"),
    "estimate": ("estimator.estimate",),
    "norms": ("estimator.error_norms",),
    "vtk": ("vtk_io.center_values", "vtk_io.write"),
}


def test_traced_study_matches_run_json(tmp_path):
    # the benchmark child with tracing on, as the benchmark runs it
    root = _TRACER.parents[1]
    result, out = tmp_path / "result.json", tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.update(dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                              "NUMEXPR_NUM_THREADS"), "1"))
    cmd = [sys.executable, str(root / "perfbench" / "child.py"), str(result), "1", "t", "--",
           "study", "--problem", "rotating-pulse", "--eps", "1e-3", "--dim", "2", "--ps", "1",
           "--slabs", "2", "--cells", "2", "--mode", "amr", "--cycles", "2", "--out", str(out)]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(result.read_text())["trace"]
    cycles = json.loads((out / "run.json").read_text())["cycles"]

    assert _STUDY_LAYERS <= {span[1] for span in trace["spans"]}
    assert len(trace["cycles"]) == len(cycles) == 2
    for row, cycle in zip(trace["cycles"], cycles):
        assert row["dofs"] == cycle["n_dofs"]
        # what the solver did sits next to its block counts
        assert cycle["solver_method"] == "block-lu"
        assert type(cycle["lu_fill"]) is int and cycle["lu_fill"] > 0
        # a phase lap encloses the wrapped calls it times
        for phase, layers in _PHASE_LAYERS.items():
            traced = sum(row["layers_s"].get(layer, 0.0) for layer in layers)
            assert traced > 0, (row["cycle"], phase)
            assert traced <= cycle["phase_s"][phase] + 5e-7, (row["cycle"], phase)
