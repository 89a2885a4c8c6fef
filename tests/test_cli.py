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
# mesh options and the mode go to study, the seed to verify
_COMMON = dict(problem="rotating-pulse", eps=1e-2, dim=2, ps=1, out=".", cycles=3)
_DEFAULT_CONFIG = {"study": dict(_COMMON, dt_policy="h", slabs=2, cells=2, mode="amr"),
                   "verify": dict(_COMMON, seed=0)}


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
    for argv in (["study", "--eps", "abc"], ["study", "--eps", "-1"], ["study", "--eps", "0"],
                 ["study", "--eps", "nan"], ["study", "--eps", "inf"],
                 ["study", "--dim", "3"], ["study", "--mode", "bisection"],
                 ["study", "--threads", "2"], ["study", "--cycles", "0"],
                 ["verify", "--seed", "-1"], ["study", "--ps", "1.5"],
                 # no such command: one solve is `study --cycles 1`
                 ["solve", "--problem", "sine", "--dim", "1"]):
        _exits_2(argv, out, capsys)


def test_argument_file_and_flag_precedence(tmp_path, monkeypatch):
    # an @file's lines are arguments read where the file stands: a later
    # flag overrides the file, the file overrides an earlier flag
    args = tmp_path / "run.args"
    args.write_text("--eps=0.2\n--cells\n3\n--dt-policy=h2\n")
    cfg = _config(monkeypatch, ["study", f"@{args}", "--cells", "5", "--out", str(tmp_path)])
    assert (cfg["eps"], cfg["cells"], cfg["dt_policy"]) == (0.2, 5, "h2")
    cfg = _config(monkeypatch, ["study", "--cells", "5", f"@{args}", "--out", str(tmp_path)])
    assert cfg["cells"] == 3
    assert set(cfg) == set(_DEFAULT_CONFIG["study"]) | {"command"}


def test_argument_file_values_reach_run_json(tmp_path, capsys):
    # the file's values reach run.json's config like flags
    args = tmp_path / "run.args"
    args.write_text("--problem=sine\n--dim=1\n--eps=0.5\n--cycles=1\n")
    out = tmp_path / "run"
    assert main(["study", f"@{args}", "--eps", "0.3", "--out", str(out)]) == 0
    config = json.loads((out / "run.json").read_text())["config"]
    assert config == dict(_DEFAULT_CONFIG["study"], problem="sine", eps=0.3, dim=1,
                          cycles=1, command="study", out=str(out))
    capsys.readouterr()


def test_argument_file_unknown_options_exit_2(tmp_path, capsys):
    # an option no command takes, or one of the other command, and a
    # missing @file
    args = tmp_path / "run.args"
    out = tmp_path / "never"
    for command, text in (("study", "--epsilon=0.2\n"), ("study", "--seed=3\n"),
                          ("verify", "--slabs=2\n")):
        args.write_text(text)
        _exits_2([command, f"@{args}"], out, capsys)
    _exits_2(["study", f"@{tmp_path / 'missing.args'}"], out, capsys)


def test_bad_argument_files_exit_2(tmp_path, capsys):
    args = tmp_path / "run.args"
    out = tmp_path / "never"
    # invalid values, and a flag and its value on one line (one argument per line)
    for text in ("--eps=nan\n", "--eps=inf\n", "--eps=abc\n", "--dim=3\n",
                 "--dt-policy=h3\n", "--cells=0\n", "--eps 0.2\n"):
        args.write_text(text)
        _exits_2(["study", f"@{args}"], out, capsys)
    # a bare path is not an argument file: the INI form is not read
    ini = tmp_path / "run.ini"
    ini.write_text("[run]\neps = 0.2\n")
    _exits_2(["study", str(ini)], out, capsys)


def test_run_json_config(tmp_path, capsys):
    # each command records exactly its own options
    flags = ["--problem", "sine", "--dim", "1", "--eps", "0.1"]
    for argv, cycles in ((["study", "--cycles", "2"], 2), (["verify", "--cycles", "1"], 1)):
        out = tmp_path / argv[0]
        assert main([*argv, *flags, "--out", str(out)]) == 0
        config = json.loads((out / "run.json").read_text())["config"]
        assert config == dict(_DEFAULT_CONFIG[argv[0]], problem="sine", eps=0.1, dim=1,
                              command=argv[0], cycles=cycles, out=str(out))
    capsys.readouterr()


def test_invalid_config_exits_2_without_artifacts(tmp_path, capsys):
    out = tmp_path / "never"
    rc = main(["study", "--eps", "abc", "--out", str(out)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    # an unknown problem, or one not defined in the asked dimension
    assert main(["study", "--problem", "no-such", "--out", str(out)]) == 2
    assert main(["verify", "--problem", "rotating-pulse", "--dim", "1",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.count("error: ") == 2
    assert not out.exists()


def test_out_naming_a_file_exits_2(tmp_path, capsys):
    # --out that names an existing file, or a path below one, is a bad
    # configuration: exit 2, no traceback, the file untouched
    taken = tmp_path / "taken"
    taken.write_text("keep\n")
    for out in (taken, taken / "sub"):
        argv = ["study", "--problem", "sine", "--dim", "1", "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err
    assert taken.read_text() == "keep\n"
    assert list(tmp_path.iterdir()) == [taken]


def test_bad_flags_exit_2(capsys):
    assert main(["study", "--dt-policy", "h3"]) == 2
    capsys.readouterr()


def test_flags_a_command_does_not_read_exit_2(tmp_path, capsys):
    # verify builds its own meshes and has no study mode; only verify
    # samples at random
    out = tmp_path / "never"
    for argv in (["verify", "--mode", "amr"], ["verify", "--slabs", "3"],
                 ["verify", "--cells", "3"], ["verify", "--dt-policy", "h2"],
                 ["study", "--seed", "1"]):
        assert main([*argv, "--out", str(out)]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


def test_solve_writes_artifacts(tmp_path, capsys):
    # one solve is a study of one cycle
    rc = main(["study", "--problem", "sine", "--dim", "1", "--eps", "0.1", "--cycles", "1",
               "--slabs", "2", "--cells", "2", "--out", str(tmp_path)])
    assert rc == 0
    [row] = capsys.readouterr().out.splitlines()
    assert (tmp_path / "study.csv").read_text().splitlines()[1:] == [row]
    manifest = json.loads((tmp_path / "run.json").read_text())
    assert manifest["status"] == "ok"
    assert manifest["config"]["problem"] == "sine"
    assert manifest["config"]["cycles"] == 1
    assert set(manifest["timings_s"]) == {"problem", "study"}
    assert manifest["timings_s"]["problem"] >= 0
    # the cycle's record is its StudyRecord
    [c] = manifest["cycles"]
    assert set(c) == {f.name for f in dataclasses.fields(StudyRecord)}
    assert c["cycle"] == 0 and row.startswith(f"0,{c['n_elements']},{c['n_dofs']},")
    assert set(c["phase_s"]) == {"assemble", "solve", "estimate", "norms", "vtk", "refine"}
    assert 0 <= c["solve"]["residual"] <= 1e-10 and sum(c["solve"]["fill"]) > 0
    assert "numpy" in manifest["versions"]
    text = (tmp_path / "cycle_00.vtk").read_text()
    assert "SCALARS eta_K float 1" in text
    assert "SCALARS u float 1" in text


def test_solve_solver_failure_exits_3(tmp_path, monkeypatch, capsys):
    # one solve is a one-cycle study
    import sthdg.adapt as adapt_mod
    from sthdg.solver import SolverError

    def boom(sys_):
        raise SolverError("synthetic failure")

    monkeypatch.setattr(adapt_mod, "solve", boom)
    rc = main(["study", "--problem", "sine", "--dim", "1", "--eps", "0.1", "--cycles", "1",
               "--slabs", "1", "--cells", "2", "--out", str(tmp_path)])
    assert rc == 3
    assert "synthetic failure" in capsys.readouterr().err
    assert not (tmp_path / "cycle_00.vtk").exists()
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
    # element Schur complement (the study runs p_s = 1)
    monkeypatch.setattr(solver, "_CONDENSE_MIN", 0)
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
    rc = main(["study", "--problem", "linear", "--dim", "1", "--eps", "1", "--cycles", "1",
               "--slabs", "1", "--cells", "1", "--out", str(tmp_path)])
    assert rc == 0
    err = capsys.readouterr().err
    assert "config:" in err
    assert err.count("solve: ") == 1  # one line per solve
    assert err.count("problem linear-1d: ") == 1  # with its set-up seconds
    for h in root.handlers[:]:
        root.removeHandler(h)
