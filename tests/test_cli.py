import argparse
import dataclasses
import json
import math
import os

import pytest

from sthdg.adapt import StudyRecord
from sthdg.cli import ConfigError, build_config, main


def _ns(**kw):
    base = dict(config=None, problem=None, eps=None, dim=None, ps=None,
                cycles=None, mode=None, dt_policy=None, slabs=None,
                cells=None, out=None, seed=None, threads=None)
    base.update(kw)
    return argparse.Namespace(**base)


def test_build_config_defaults():
    cfg = build_config("solve", _ns())
    assert cfg.problem == "rotating-pulse"
    assert cfg.eps == 1e-2
    assert cfg.dim == 2 and cfg.ps == 1
    assert cfg.mode == "amr" and cfg.dt_policy == "h"


def test_build_config_flag_coercion_and_validation():
    cfg = build_config("study", _ns(eps="0.5", cells="7"))
    assert cfg.eps == 0.5 and cfg.cells == 7
    with pytest.raises(ConfigError):
        build_config("solve", _ns(eps="abc"))
    with pytest.raises(ConfigError):
        build_config("solve", _ns(eps="-1"))
    with pytest.raises(ConfigError):
        build_config("solve", _ns(dim="3"))
    with pytest.raises(ConfigError):
        build_config("study", _ns(mode="bisection"))
    with pytest.raises(ConfigError):
        build_config("solve", _ns(threads="0"))


def test_ini_and_flag_precedence(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[study]\neps = 0.2\ncells = 3\ndt-policy = h2\n")
    cfg = build_config("study", _ns(config=str(ini), cells="5"))
    assert cfg.eps == 0.2       # from INI
    assert cfg.cells == 5       # flag wins
    assert cfg.dt_policy == "h2"  # hyphenated key normalized


def test_ini_unknown_key(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[x]\nepsilon = 0.2\n")
    with pytest.raises(ConfigError):
        build_config("solve", _ns(config=str(ini)))
    with pytest.raises(ConfigError):
        build_config("solve", _ns(config=str(tmp_path / "missing.ini")))


def test_invalid_config_exits_2_without_artifacts(tmp_path, capsys):
    out = tmp_path / "never"
    rc = main(["solve", "--eps", "abc", "--out", str(out)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    # an unknown problem, or one not defined in the asked dimension
    assert main(["study", "--problem", "no-such", "--out", str(out)]) == 2
    assert main(["verify", "--problem", "rotating-pulse", "--dim", "1",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.count("error: ") == 2
    assert not out.exists()


def test_bad_flags_exit_2(capsys):
    assert main(["solve", "--dt-policy", "h3"]) == 2
    capsys.readouterr()


def test_flags_a_command_does_not_read_exit_2(tmp_path, capsys):
    # solve runs no cycles and no study mode; verify has no study mode
    out = tmp_path / "never"
    assert main(["solve", "--cycles", "3", "--out", str(out)]) == 2
    assert main(["solve", "--mode", "uniform", "--out", str(out)]) == 2
    assert main(["verify", "--mode", "amr", "--out", str(out)]) == 2
    assert not out.exists()
    capsys.readouterr()


def test_solve_writes_artifacts(tmp_path, capsys):
    rc = main(["solve", "--problem", "sine", "--dim", "1", "--eps", "0.1",
               "--slabs", "2", "--cells", "2", "--out", str(tmp_path)])
    assert rc == 0
    line = capsys.readouterr().out
    assert "n_dofs=" in line and "eta=" in line and "eff=" in line
    assert (tmp_path / "solution.vtk").exists()
    manifest = json.loads((tmp_path / "run.json").read_text())
    assert manifest["status"] == "ok"
    assert manifest["config"]["problem"] == "sine"
    # solve is one study cycle: its record is the cycle's StudyRecord
    assert manifest["config"]["cycles"] == 1
    assert set(manifest["timings_s"]) == {"problem", "solve"}
    assert manifest["timings_s"]["problem"] >= 0
    [c] = manifest["cycles"]
    assert set(c) == {f.name for f in dataclasses.fields(StudyRecord)}
    assert c["cycle"] == 0 and f"n_dofs={c['n_dofs']} " in line
    assert set(c["phase_s"]) == {"assemble", "solve", "estimate", "norms", "vtk", "refine"}
    assert 0 <= c["solve"]["residual"] <= 1e-10 and sum(c["solve"]["fill"]) > 0
    assert "numpy" in manifest["versions"]
    text = (tmp_path / "solution.vtk").read_text()
    assert "SCALARS eta_K float 1" in text
    assert "SCALARS u float 1" in text


def test_solve_is_the_first_study_cycle(tmp_path, capsys):
    flags = ["--problem", "sine", "--dim", "1", "--eps", "0.1",
             "--slabs", "2", "--cells", "2"]
    a, b = tmp_path / "solve", tmp_path / "study"
    assert main(["solve", *flags, "--out", str(a)]) == 0
    line = capsys.readouterr().out
    assert main(["study", *flags, "--cycles", "1", "--out", str(b)]) == 0
    capsys.readouterr()
    assert (a / "solution.vtk").read_bytes() == (b / "cycle_00.vtk").read_bytes()
    assert not (a / "study.csv").exists()
    # the printed values are the study.csv row's, to the printed digits
    row = dict(zip(*(ln.split(",") for ln in (b / "study.csv").read_text().splitlines())))
    assert line.split() == [f"n_elements={row['n_elements']}", f"n_dofs={row['n_dofs']}",
                            f"eta={float(row['eta']):.6g}",
                            f"error={float(row['true_error']):.6g}",
                            f"eff={float(row['eff_index']):.4g}"]
    solve_cycles = json.loads((a / "run.json").read_text())["cycles"]
    study_cycles = json.loads((b / "run.json").read_text())["cycles"]
    assert len(solve_cycles) == len(study_cycles) == 1
    assert set(solve_cycles[0]) == set(study_cycles[0])
    assert set(solve_cycles[0]["phase_s"]) == set(study_cycles[0]["phase_s"])


def test_solve_solver_failure_exits_3(tmp_path, monkeypatch, capsys):
    import sthdg.adapt as adapt_mod
    from sthdg.solver import SolverError

    def boom(sys_):
        raise SolverError("synthetic failure")

    monkeypatch.setattr(adapt_mod, "solve", boom)
    rc = main(["solve", "--problem", "sine", "--dim", "1", "--eps", "0.1",
               "--slabs", "1", "--cells", "2", "--out", str(tmp_path)])
    assert rc == 3
    assert "synthetic failure" in capsys.readouterr().err
    assert not (tmp_path / "solution.vtk").exists()
    manifest = json.loads((tmp_path / "run.json").read_text())
    assert manifest["status"] == "solver_failure"
    assert manifest["cycles"] == []


def test_study_writes_artifacts(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    rc = main(["study", "--problem", "sine", "--dim", "1", "--eps", "0.1",
               "--cycles", "2", "--slabs", "2", "--cells", "2",
               "--out", str(tmp_path)])
    assert rc == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert len(rows) == 2
    csv_lines = (tmp_path / "study.csv").read_text().splitlines()
    assert csv_lines[0] == "cycle,n_elements,n_dofs,eta,true_error,eff_index,wall_ms"
    assert csv_lines[1:] == rows
    assert (tmp_path / "cycle_00.vtk").exists()
    assert (tmp_path / "cycle_01.vtk").exists()
    manifest = json.loads((tmp_path / "run.json").read_text())
    assert manifest["status"] == "ok"
    # per-cycle timings live in run.json; the CSV keeps wall_ms pinned to 0
    cycles = manifest["cycles"]
    assert [c["cycle"] for c in cycles] == [0, 1]
    for c, row in zip(cycles, rows):
        cycle, n_elements, n_dofs, *_, wall_ms = row.split(",")
        assert (c["n_elements"], c["n_dofs"]) == (int(n_elements), int(n_dofs))
        assert c["wall_ms"] > 0 and wall_ms == "0"
        # solver statistics go to run.json only, never to the CSV
        rep = c["solve"]
        assert rep["n_dofs"] == c["n_dofs"] and 1 <= max(rep["block_sizes"]) <= c["n_dofs"]
        assert 1 <= max(rep["factored"]) <= max(rep["block_sizes"])
        assert 0 <= rep["residual"] <= 1e-10
        # phase seconds: the cycle's wall time covers all but the refine
        # that follows it
        phases = c["phase_s"]
        rss = c["phase_maxrss_mb"]
        # run.json keeps the phases in the order they ran
        assert list(phases) == list(rss) == ["assemble", "solve", "estimate", "norms",
                                             "vtk", "refine"]
        assert min(phases.values()) >= 0 and rss["refine"] > 0
        assert sum(phases.values()) <= c["wall_ms"] / 1e3 + phases["refine"] + 1e-5
        # peak RSS after each phase never falls in file order
        mb = list(rss.values())
        assert all(math.isfinite(v) for v in mb) and mb == sorted(mb)
    # the thread caps that actually apply: an inherited value wins
    assert manifest["threads"]["OMP_NUM_THREADS"] == "3"
    assert manifest["threads"] == {
        var: os.environ[var] for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                         "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}


def test_run_json_holds_each_cycle_solve_report(tmp_path, monkeypatch, capsys):
    import numpy as np

    import sthdg.adapt as adapt_mod
    from sthdg import solver
    from sthdg.solver import causal_levels

    # every level that holds element and facet dofs is factored on its
    # element Schur complement
    monkeypatch.setattr(solver, "_CONDENSE_MIN", {1: 0})
    seen, mixed = [], []  # each cycle's report, and which of its levels are mixed
    run_study = adapt_mod.run_study

    def spy(*args, on_cycle, **kw):
        def hook(cycle, mesh, sys_, x, est, rec):
            seen.append(dataclasses.asdict(rec.solve))
            level = causal_levels(sys_.A, sys_.free_mask())
            n_elem = np.bincount(level[:sys_.dofmap.n_elem_dofs], minlength=level.max() + 1)
            mixed.append(((n_elem > 0) & (n_elem < np.bincount(level))).tolist())
            on_cycle(cycle, mesh, sys_, x, est, rec)

        return run_study(*args, on_cycle=hook, **kw)

    monkeypatch.setattr(adapt_mod, "run_study", spy)
    assert main(["study", "--problem", "sine", "--dim", "1", "--eps", "0.1", "--cycles", "2",
                 "--slabs", "2", "--cells", "2", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    cycles = json.loads((tmp_path / "run.json").read_text())["cycles"]
    assert [c["solve"] for c in cycles] == seen and len(seen) == 2
    for c, both in zip(cycles, mixed):
        rep = c["solve"]
        assert len(rep["block_sizes"]) == len(rep["fill"]) == len(rep["factored"]) == len(both)
        assert sum(rep["block_sizes"]) == rep["n_dofs"] == c["n_dofs"]
        assert [f < n for f, n in zip(rep["factored"], rep["block_sizes"])] == both
        assert any(both)


def test_study_runs_are_byte_identical(tmp_path):
    args = ["study", "--problem", "sine", "--dim", "1", "--eps", "0.1",
            "--cycles", "2", "--slabs", "2", "--cells", "2"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert (a / "study.csv").read_bytes() == (b / "study.csv").read_bytes()
    assert (a / "cycle_01.vtk").read_bytes() == (b / "cycle_01.vtk").read_bytes()


def test_study_solver_failure_exits_3(tmp_path, monkeypatch, capsys):
    import sthdg.adapt as adapt_mod
    from sthdg.solver import SolverError

    def boom(sys_):
        raise SolverError("synthetic failure")

    monkeypatch.setattr(adapt_mod, "solve", boom)
    rc = main(["study", "--problem", "sine", "--dim", "1", "--eps", "0.1",
               "--cycles", "2", "--slabs", "1", "--cells", "2",
               "--out", str(tmp_path)])
    assert rc == 3
    assert "partial outputs" in capsys.readouterr().err
    # header-only CSV survives, manifest records the failure
    lines = (tmp_path / "study.csv").read_text().splitlines()
    assert len(lines) == 1
    manifest = json.loads((tmp_path / "run.json").read_text())
    assert manifest["status"] == "solver_failure"


def test_study_out_of_memory_exits_3(tmp_path, monkeypatch, capsys):
    import sthdg.solver as solver_mod

    def oom(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(solver_mod.spla, "splu", oom)
    rc = main(["study", "--problem", "sine", "--dim", "1", "--eps", "0.1",
               "--cycles", "1", "--slabs", "2", "--cells", "2",
               "--out", str(tmp_path)])
    assert rc == 3
    assert "MemoryError" in capsys.readouterr().err
    assert (tmp_path / "study.csv").exists()
    manifest = json.loads((tmp_path / "run.json").read_text())
    assert manifest["status"] == "solver_failure"


def test_study_out_of_memory_outside_solver_exits_3(tmp_path, monkeypatch, capsys):
    import sthdg.adapt as adapt_mod

    calls = {"n": 0}
    real_assemble = adapt_mod.assemble

    def assemble_oom_on_second(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] >= 2:
            raise MemoryError
        return real_assemble(*args, **kwargs)

    monkeypatch.setattr(adapt_mod, "assemble", assemble_oom_on_second)
    rc = main(["study", "--problem", "sine", "--dim", "1", "--eps", "0.1",
               "--cycles", "3", "--slabs", "2", "--cells", "2",
               "--out", str(tmp_path)])
    assert rc == 3
    assert "out of memory" in capsys.readouterr().err
    lines = (tmp_path / "study.csv").read_text().splitlines()
    assert len(lines) == 2  # header and the one completed cycle
    assert (tmp_path / "cycle_00.vtk").exists()
    manifest = json.loads((tmp_path / "run.json").read_text())
    assert manifest["status"] == "out_of_memory"
    assert [c["cycle"] for c in manifest["cycles"]] == [0]


def test_verify_writes_constants(tmp_path, capsys):
    rc = main(["verify", "--problem", "sine", "--dim", "1", "--eps", "0.1",
               "--cycles", "1", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    lines = (tmp_path / "constants.csv").read_text().splitlines()
    assert lines[0] == "inequality,level,samples,constant"
    names = {ln.split(",")[0] for ln in lines[1:]}
    assert {"bubble_elem_c2", "inv_time_deriv", "oswald_averaging",
            "saturation_rho"} <= names
    assert len(out.strip().splitlines()) == len(lines) - 1
    manifest = json.loads((tmp_path / "run.json").read_text())
    assert set(manifest["timings_s"]) == {"problem", "bubbles", "inequalities",
                                          "oswald", "saturation"}


def test_log_level_env(tmp_path, monkeypatch, capsys):
    import logging

    monkeypatch.setenv("STHDG_LOG", "INFO")
    # reset logging so basicConfig applies the new level
    root = logging.getLogger()
    for h in root.handlers[:]:
        root.removeHandler(h)
    rc = main(["solve", "--problem", "linear", "--dim", "1", "--eps", "1",
               "--slabs", "1", "--cells", "1", "--out", str(tmp_path)])
    assert rc == 0
    err = capsys.readouterr().err
    assert "config:" in err
    assert err.count("solve: ") == 1  # one line per solve
    assert err.count("problem linear-1d: ") == 1  # with its set-up seconds
    for h in root.handlers[:]:
        root.removeHandler(h)
