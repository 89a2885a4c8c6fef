import dataclasses
import json
import math
import os

from sthdg import cli
from sthdg.adapt import StudyRecord
from sthdg.cli import main


def _config(monkeypatch, argv):
    """The config `main` resolves for argv; the command itself is stubbed out."""
    seen = []

    def record(cfg, spec, out, timings):
        seen.append(dict(vars(cfg)))
        return 0

    monkeypatch.setattr(cli, "_cmd_study", record)
    monkeypatch.setattr(cli, "_cmd_verify", record)
    assert main(argv) == 0
    [cfg] = seen
    return cfg


def _exits_2(argv, out, capsys):
    """main(argv) exits 2 with an error message, no traceback, and writes nothing."""
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    assert not out.exists()


# each command's config holds exactly the options its code reads: the
# mesh options go to solve and study, the seed to verify alone
_COMMON = dict(problem="rotating-pulse", eps=1e-2, dim=2, ps=1, out=".", threads=1)
_MESH = dict(dt_policy="h", slabs=2, cells=2)
_DEFAULT_CONFIG = {"solve": dict(_COMMON, **_MESH, cycles=1, mode="amr"),
                   "study": dict(_COMMON, **_MESH, cycles=3, mode="amr"),
                   "verify": dict(_COMMON, cycles=3, seed=0)}


def test_defaults(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for command, want in _DEFAULT_CONFIG.items():
        assert _config(monkeypatch, [command]) == dict(want, command=command)


def test_flag_coercion_and_validation(tmp_path, monkeypatch, capsys):
    cfg = _config(monkeypatch, ["study", "--eps", "0.5", "--cells", "7",
                                "--out", str(tmp_path)])
    assert (cfg["eps"], cfg["cells"]) == (0.5, 7)
    assert type(cfg["eps"]) is float and type(cfg["cells"]) is int
    cfg = _config(monkeypatch, ["verify", "--seed", "5", "--out", str(tmp_path)])
    assert cfg["seed"] == 5 and type(cfg["seed"]) is int
    out = tmp_path / "never"
    # a non-finite eps would reach the solver and end in a singular LU
    for argv in (["solve", "--eps", "abc"], ["solve", "--eps", "-1"], ["solve", "--eps", "0"],
                 ["solve", "--eps", "nan"], ["solve", "--eps", "inf"],
                 ["solve", "--dim", "3"], ["study", "--mode", "bisection"],
                 ["solve", "--threads", "0"], ["study", "--cycles", "0"],
                 ["verify", "--seed", "-1"], ["solve", "--ps", "1.5"]):
        _exits_2(argv, out, capsys)


def test_ini_and_flag_precedence(tmp_path, monkeypatch):
    ini = tmp_path / "run.ini"
    ini.write_text("[study]\neps = 0.2\ncells = 3\ndt-policy = h2\n")
    cfg = _config(monkeypatch, ["study", str(ini), "--cells", "5", "--out", str(tmp_path)])
    assert cfg["eps"] == 0.2       # from INI
    assert cfg["cells"] == 5       # flag wins
    assert cfg["dt_policy"] == "h2"  # hyphenated key normalized
    assert "config" not in cfg     # the INI path is not an option
    # a key the command takes no flag for is accepted and has no effect
    ini.write_text("[a]\ncycles = 4\n[b]\nmode = uniform\nslabs = 5\n"
                   "dt-policy = h2\nseed = 3\n")
    cfg = _config(monkeypatch, ["solve", str(ini), "--out", str(tmp_path)])
    assert (cfg["cycles"], cfg["mode"], cfg["slabs"], cfg["dt_policy"]) == (1, "amr", 5, "h2")
    assert "seed" not in cfg
    cfg = _config(monkeypatch, ["study", str(ini), "--out", str(tmp_path)])
    assert (cfg["cycles"], cfg["mode"], cfg["slabs"], cfg["dt_policy"]) == (4, "uniform", 5, "h2")
    assert "seed" not in cfg
    cfg = _config(monkeypatch, ["verify", str(ini), "--out", str(tmp_path)])
    assert (cfg["cycles"], cfg["seed"]) == (4, 3)
    assert not {"mode", "slabs", "cells", "dt_policy"} & set(cfg)


def test_ini_unknown_key(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    out = tmp_path / "never"
    for text in ("[x]\nepsilon = 0.2\n", "[x]\nconfig = other.ini\n", "[x]\nhelp = 1\n"):
        ini.write_text(text)
        _exits_2(["solve", str(ini)], out, capsys)
    _exits_2(["solve", str(tmp_path / "missing.ini")], out, capsys)


def test_bad_ini_exits_2(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    out = tmp_path / "never"
    for text in ("eps = 0.1\n",                       # no section header
                 "[run]\neps = 0.1\neps = 0.2\n",     # a key given twice
                 "[run]\nout = 100%\n",               # a broken interpolation
                 "[run]\neps = nan\n", "[run]\neps = inf\n", "[run]\neps = abc\n",
                 "[run]\ndim = 3\n", "[run]\ndt-policy = h3\n", "[run]\ncells = 0\n"):
        ini.write_text(text)
        _exits_2(["solve", str(ini)], out, capsys)


def test_run_json_config(tmp_path, capsys):
    # each command records exactly its own options; solve records its one
    # amr cycle
    flags = ["--problem", "sine", "--dim", "1", "--eps", "0.1"]
    for argv, cycles in ((["solve"], 1), (["study", "--cycles", "2"], 2),
                         (["verify", "--cycles", "1"], 1)):
        out = tmp_path / argv[0]
        assert main([*argv, *flags, "--out", str(out)]) == 0
        config = json.loads((out / "run.json").read_text())["config"]
        assert config == dict(_DEFAULT_CONFIG[argv[0]], problem="sine", eps=0.1, dim=1,
                              command=argv[0], cycles=cycles, out=str(out))
    capsys.readouterr()


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
    # solve runs no cycles and no study mode; verify builds its own meshes
    # and has no study mode; only verify samples at random
    out = tmp_path / "never"
    for argv in (["solve", "--cycles", "3"], ["solve", "--mode", "uniform"],
                 ["verify", "--mode", "amr"], ["verify", "--slabs", "3"],
                 ["verify", "--cells", "3"], ["verify", "--dt-policy", "h2"],
                 ["solve", "--seed", "1"], ["study", "--seed", "1"]):
        assert main([*argv, "--out", str(out)]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


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
        assert wall_ms == "0"
        # solver statistics go to run.json only, never to the CSV
        rep = c["solve"]
        assert rep["n_dofs"] == c["n_dofs"] and 1 <= max(rep["block_sizes"]) <= c["n_dofs"]
        assert 1 <= max(rep["factored"]) <= max(rep["block_sizes"])
        assert 0 <= rep["residual"] <= 1e-10
        phases = c["phase_s"]
        rss = c["phase_maxrss_mb"]
        # run.json keeps the phases in the order they ran
        assert list(phases) == list(rss) == ["assemble", "solve", "estimate", "norms",
                                             "vtk", "refine"]
        assert min(phases.values()) >= 0 and rss["refine"] > 0
        # peak RSS after each phase never falls in file order
        mb = list(rss.values())
        assert all(math.isfinite(v) for v in mb) and mb == sorted(mb)
    # the phases are disjoint laps of the study's clock
    assert sum(sum(c["phase_s"].values()) for c in cycles) <= manifest["timings_s"]["study"]
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
