"""The benchmark's tracer wraps sthdg functions by name, unguarded: a target
that was renamed or deleted breaks every traced benchmark run.  A traced
study must also still report what its run.json reports, the study
workload must still write its reference outputs byte for byte, and the
verify workload must still pass the benchmark's check of its output."""

import hashlib
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from sthdg.cli import main

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
        fill = cycle["solve"]["fill"]
        assert len(fill) == len(cycle["solve"]["block_sizes"])
        assert all(type(f) is int and f > 0 for f in fill)
        # a phase lap encloses the wrapped calls it times
        for phase, layers in _PHASE_LAYERS.items():
            traced = sum(row["layers_s"].get(layer, 0.0) for layer in layers)
            assert traced > 0, (row["cycle"], phase)
            assert traced <= cycle["phase_s"][phase] + 5e-7, (row["cycle"], phase)


# SHA-256 of cycle_00.vtk .. cycle_05.vtk of `pulse-amr-h`, recorded at
# commit fb00f8c; the benchmark checks only the CSV, so these pin the rest
_PULSE_VTK_SHA256 = (
    "e5ebb45febef81c7b7ab43316c2b0d8d2223afc54a0d5adf6d2ec15416080912",
    "3974d7d617eb7018fac75cd99bd70c4e6854b87131d34e553afd78385e362bde",
    "c110f12bd076ffe659d034e26aec4b206f53fb95eef8db021fd859949c3141d8",
    "4f18ecb83ace9132c2fa49f520deaf2ae6fa7977fb70628b5635f4edef253dca",
    "1a217edf926463259498791ca39afee319e8d96a4d06e306c4c06050d5c7e3ef",
    "e6e731736f0b627300b97b17c1ac0599e436f8ffb4f2ce1311272cae6b02700b",
)


def _perfbench_run(monkeypatch):
    """perfbench/run.py as a module, for its workloads and its `check`."""
    monkeypatch.syspath_prepend(str(_TRACER.parent))  # run.py imports its siblings
    spec = importlib.util.spec_from_file_location("perfbench_run", _TRACER.parent / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)  # for its dataclass
    spec.loader.exec_module(run)
    return run


def test_pulse_amr_h_outputs_are_byte_identical(tmp_path, monkeypatch):
    run = _perfbench_run(monkeypatch)
    wl = run.WORKLOADS["pulse-amr-h"]
    assert main(wl.argv(0, tmp_path)) == 0
    ref = wl.ref_path("pulse-amr-h", 0)
    assert (tmp_path / wl.output).read_bytes() == ref.read_bytes()
    digests = [hashlib.sha256((tmp_path / f"cycle_{c:02d}.vtk").read_bytes()).hexdigest()
               for c in range(wl.vtk_cycles)]
    assert digests == list(_PULSE_VTK_SHA256)


# SHA-256 of constants.csv of `verify-sine1d` at seeds 0 and 1, recorded at
# commit 03634b6; the benchmark compares the CSV to its reference only to
# 1e-8, and two saturation_rho rows of the seed-0 reference already differ
# from these bytes in the last printed digit
_VERIFY_SINE1D_SHA256 = (
    "3fec7e67112c0a1f503e851b7cc7892abd478a54a69820b8f1af33f99e400512",
    "874801c75d0942b99610768a58471fc96be4272c49f6716b9def59e872d9d71f",
)


def test_verify_sine1d_matches_its_reference(tmp_path, monkeypatch):
    # the benchmark's check of the verify workload (two-level subgrid
    # systems, averaging, inequality constants), and the bytes, per seed
    run = _perfbench_run(monkeypatch)
    wl = run.WORKLOADS["verify-sine1d"]
    for seed, digest in enumerate(_VERIFY_SINE1D_SHA256):
        out = tmp_path / f"seed-{seed}"
        assert main(wl.argv(seed, out)) == 0
        ref = wl.ref_path("verify-sine1d", seed)
        assert ref.exists()
        got = run.check.read_csv(out / wl.output)
        assert run.check.compare(got, run.check.read_csv(ref)) == []
        assert hashlib.sha256((out / wl.output).read_bytes()).hexdigest() == digest, seed
