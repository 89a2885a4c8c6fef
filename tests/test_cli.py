import argparse
import json
import os

import pytest

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
    assert not out.exists()


def test_bad_flags_exit_2(capsys):
    assert main(["solve", "--dt-policy", "h3"]) == 2
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
    assert {"assemble", "solve", "estimate_and_dump"} <= set(manifest["timings_s"])
    assert "numpy" in manifest["versions"]
    text = (tmp_path / "solution.vtk").read_text()
    assert "SCALARS eta_K float 1" in text
    assert "SCALARS u float 1" in text


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
        assert 1 <= c["solver_blocks"] and 1 <= c["max_block_dofs"] <= c["n_dofs"]
        assert 0 <= c["residual"] <= 1e-10
    # the thread caps that actually apply: an inherited value wins
    assert manifest["threads"]["OMP_NUM_THREADS"] == "3"
    assert manifest["threads"] == {
        var: os.environ[var] for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                         "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}


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

    def oom(A, b):
        raise MemoryError

    monkeypatch.setattr(solver_mod.spla, "spsolve", oom)
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
    assert {"bubbles", "inequalities", "oswald", "saturation"} <= set(
        manifest["timings_s"])


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
    for h in root.handlers[:]:
        root.removeHandler(h)
