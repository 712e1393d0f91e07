"""Problem-file format and the command line interface."""

from __future__ import annotations

import dataclasses
import re

import numpy as np
import pytest

from ctrlstop import mc, pde
from ctrlstop.cli import (
    ProblemFileError,
    emit_problem_file,
    load_problem,
    main,
    parse_problem_file,
)
from ctrlstop.hamilton import TruncationIndex
from ctrlstop.model import CoefficientField, build_builtin
from ctrlstop.paths import TimeGrid, simulate_controlled

from oracles import per_control

GOOD_FILE = """
# a plain at-the-money put
[problem] dim=1 T=1.0 name="demo"
[params] sigma0=0.2 K=1.0
[controls] points=0.0
[sigma] expr="sigma0"
[f] expr="0"
[gamma] expr="0"
[g] expr="max(K-x1,0)"
[h] expr="max(K-x1,0)"
[growth] C_f=0.0 C_sigma_inv=5.0 C_poly=1.0 p=1.0
[domain] lo=-3.0 hi=5.0
"""


@pytest.mark.parametrize("name", ["bachelier_put", "controlled_drift_abs", "decaying_obstacle"])
def test_emit_parse_round_trip(name):
    spec = build_builtin(name)
    again = parse_problem_file(emit_problem_file(spec))
    assert again.name == spec.name
    assert again.dim == spec.dim
    assert again.horizon_T == spec.horizon_T
    assert np.array_equal(again.controls.points, spec.controls.points)
    assert np.array_equal(again.domain.lo, spec.domain.lo)
    assert again.growth == spec.growth
    rng = np.random.default_rng(0)
    X = rng.uniform(spec.domain.lo, spec.domain.hi, size=(64, spec.dim))
    for t in (0.0, 0.37):
        assert np.array_equal(again.sigma(t, X), spec.sigma(t, X))
        assert np.array_equal(again.h(t, X), spec.h(t, X))
        for part, again_part in zip(spec.control_table(t, X), again.control_table(t, X)):
            assert np.array_equal(again_part, part)
    assert np.array_equal(again.g(X), spec.g(X))


def test_parse_good_file():
    spec = parse_problem_file(GOOD_FILE)
    assert spec.name == "demo"
    assert spec.controls.k == 1
    assert spec.domain.radius == 5.0


@pytest.mark.parametrize(
    "mangle,message",
    [
        (lambda s: s.replace("[growth] C_f=0.0 C_sigma_inv=5.0 C_poly=1.0 p=1.0\n", ""), "missing sections"),
        (lambda s: s + "stray line\n", "expected '\\[section\\]"),
        (lambda s: s + "[bogus] a=1\n", "unknown section"),
        (lambda s: s + "[problem] ???\n", "malformed key=value"),
        (lambda s: s.replace("dim=1", "dim=one"), "not a number"),
        (lambda s: s.replace("points=0.0", "points=a;b"), "cannot parse points"),
        (lambda s: s.replace('[sigma] expr="sigma0"', '[sigma] expr="max(1,2"'), "unbalanced"),
        (lambda s: s.replace('[g] expr="max(K-x1,0)"', '[g] expr="abs(x1"'), "offset 7"),
        (lambda s: s.replace("T=1.0", "Q=1.0"), "needs key T="),
        (lambda s: s.replace("lo=-3.0 hi=5.0", "lo=-3.0,1.0 hi=5.0"), "1 or 1 entries"),
    ],
)
def test_parse_rejects_malformed_files(mangle, message):
    with pytest.raises(ProblemFileError, match=message):
        parse_problem_file(mangle(GOOD_FILE))


def test_parse_rejects_invalid_problems():
    bad = GOOD_FILE.replace('[h] expr="max(K-x1,0)"', '[h] expr="max(K-x1,0.5)"')
    with pytest.raises(ProblemFileError, match="rejected by validation: terminal_barrier"):
        parse_problem_file(bad)


def test_emit_requires_expression_backing():
    """No coefficient field lacks an expression, so every spec can be written out."""
    c = build_builtin("bachelier_put").coefficients
    fields = {f.name: getattr(c, f.name) for f in dataclasses.fields(c) if f.init}
    for name in ("sigma_exprs", "f_exprs", "gamma_expr", "g_expr", "h_expr"):
        with pytest.raises(TypeError, match=name):
            CoefficientField(**{k: v for k, v in fields.items() if k != name})


def test_load_problem_from_disk(tmp_path):
    path = tmp_path / "demo.prob"
    path.write_text(GOOD_FILE)
    assert load_problem(path).name == "demo"


def test_main_requires_exactly_one_problem_source(capsys):
    assert main(["solve-pde", "--builtin", "bachelier_put", "--problem", "x"]) == 2
    assert main(["solve-pde"]) == 2
    err = capsys.readouterr().err
    assert "exactly one of --builtin or --problem" in err


def test_main_rejects_bad_inputs(tmp_path, capsys):
    assert main(["solve-pde", "--builtin", "nope", "--nx", "51"]) == 2
    assert main(["solve-pde", "--builtin", "bachelier_put", "--param", "K"]) == 2
    assert main(["solve-pde", "--builtin", "controlled_drift_abs", "--param", "d=3", "--nx", "11"]) == 2
    assert main(["solve-pde", "--builtin", "bachelier_put", "--x0", "1,2", "--nx", "51"]) == 2
    assert main(["solve-pde", "--builtin", "bachelier_put", "--trunc-n", "2", "--nx", "51"]) == 2
    bad = tmp_path / "bad.prob"
    bad.write_text(GOOD_FILE.replace('[g] expr="max(K-x1,0)"', '[g] expr="abs(x1"'))
    assert main(["solve-pde", "--problem", str(bad)]) == 2
    assert "offset 7" in capsys.readouterr().err


def test_solve_pde_writes_deterministic_csv(tmp_path, capsys):
    argv = [
        "solve-pde",
        "--builtin", "bachelier_put",
        "--nx", "81",
        "--out", str(tmp_path),
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "v(0, 1) = 0.0" in out
    csv_path = tmp_path / "value_policy.csv"
    first = csv_path.read_bytes()
    header = first.decode().splitlines()[0]
    assert header == "t,x1,value,h,a_index,stop"
    assert main(argv) == 0
    assert csv_path.read_bytes() == first


@pytest.mark.parametrize(
    "builtin, params, knobs, trunc, generator",
    [
        ("decaying_obstacle", {"beta": 2.0}, ["--generator", "dominating"], None, "dominating"),
        ("controlled_drift_abs", {"h_floor": 0.8}, ["--trunc-n", "2", "--trunc-m", "2"], TruncationIndex(2, 2), "hstar"),
    ],
    ids=["dominating", "truncated"],
)
def test_solve_pde_stop_column_is_the_solved_binding_record(tmp_path, builtin, params, knobs, trunc, generator):
    argv = ["solve-pde", "--builtin", builtin, "--nx", "81", "--out", str(tmp_path)]
    for key, val in params.items():
        argv += ["--param", f"{key}={val}"]
    assert main(argv + knobs) == 0
    spec = build_builtin(builtin, params)
    grid = pde.make_grid(spec, 81, generator=generator)
    field = pde.solve(spec, grid, trunc=trunc, generator=generator)
    lines = (tmp_path / "value_policy.csv").read_text().splitlines()
    assert lines[0].split(",")[-1] == "stop"
    stop = np.array([int(line.rsplit(",", 1)[1]) for line in lines[1:]], dtype=bool)
    assert np.array_equal(stop, field.stop_mask.ravel())
    assert np.all(field.stop_mask[-1])
    # the a_index column is the sweep's control record: -1 throughout under phi
    a_index = np.array([int(line.split(",")[-2]) for line in lines[1:]])
    assert np.array_equal(a_index, field.control.ravel())
    assert np.all(a_index == -1) == (generator == "dominating")


@pytest.mark.parametrize(
    "command, sizes",
    [("solve-pde", ["--nx", "81"]), ("solve-mc", ["--paths", "200", "--steps", "4"])],
)
def test_dominating_generator_rejects_truncation_flags(command, sizes, capsys):
    argv = [command, "--builtin", "controlled_drift_abs", "--param", "h_floor=0.8", "--generator", "dominating"]
    assert main(argv + ["--trunc-n", "1", "--trunc-m", "1"] + sizes) == 2
    assert "takes no truncation" in capsys.readouterr().err


def test_solve_mc_reports_and_writes(tmp_path, capsys):
    argv = [
        "solve-mc",
        "--builtin", "decaying_obstacle",
        "--paths", "2000",
        "--steps", "10",
        "--seed", "3",
        "--basis", "local:15",
        "--out", str(tmp_path),
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "y0 = 0." in out
    assert "skorokhod residual = 0.0" in out
    lines = (tmp_path / "rbsde.csv").read_text().splitlines()
    assert lines[0] == "node,t,mean_y,mean_abs_z,mean_dk,reflection_frequency"
    assert len(lines) == 12  # header + 11 nodes


@pytest.mark.parametrize(
    "params, generator, line",
    [
        (["--param", "d=5"], "hstar", "H* controls: 32 of 243"),
        ([], "hstar", "H* controls: 2 of 3"),
        (["--param", "h_floor=0.8"], "dominating", None),
    ],
)
def test_solve_mc_reports_the_controls_hstar_evaluates(params, generator, line, capsys):
    argv = ["solve-mc", "--builtin", "controlled_drift_abs", *params, "--generator", generator]
    assert main(argv + ["--paths", "500", "--steps", "4", "--basis", "poly:2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [x for x in lines if x.startswith("H* controls")] == ([line] if line else [])
    if line:
        assert lines[lines.index(line) - 1].startswith("skorokhod residual = ")


def test_solve_mc_rejects_unknown_basis():
    argv = ["solve-mc", "--builtin", "bachelier_put", "--paths", "100", "--steps", "4", "--basis", "fourier:3"]
    assert main(argv) == 2


def test_simulate_reports_the_gap(tmp_path, capsys):
    argv = [
        "simulate",
        "--builtin", "controlled_drift_abs",
        "--nx", "161",
        "--paths", "4000",
        "--steps", "40",
        "--seed", "1",
        "--out", str(tmp_path),
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "extracted policy" in out
    assert "constant control (0.0)" in out
    strategy_lines = (tmp_path / "strategy.csv").read_text().splitlines()
    assert strategy_lines[0] == "strategy,mean,stderr,fraction_stopped_early"
    assert len(strategy_lines) == 8  # header + optimal + 6 challengers
    path_lines = (tmp_path / "paths.csv").read_text().splitlines()
    assert path_lines[0] == "path,node,t,x1,a,logM"
    assert len(path_lines) == 1 + 200 * 41


SHADOWING_FILE = """
[problem] dim=1 T=1.0 name="put-like"
[params] x1=2.0
[controls] points=0.0
[sigma] expr="0.2"
[f] expr="0"
[gamma] expr="0"
[g] expr="max(1-x1,0)"
[h] expr="max(1-x1,0)"
[growth] C_f=0.0 C_sigma_inv=5.0 C_poly=1.0 p=1.0
[domain] lo=-3.0 hi=5.0
"""


def test_a_parameter_that_shadows_a_variable_is_a_problem_file_error(tmp_path, capsys):
    problem = tmp_path / "shadow.txt"
    problem.write_text(SHADOWING_FILE)
    with pytest.raises(ProblemFileError, match="shadow"):
        load_problem(problem)
    out = tmp_path / "mc"
    assert main(["solve-mc", "--problem", str(problem), "--paths", "500", "--steps", "5", "--out", str(out)]) == 2
    assert "shadow the variables" in capsys.readouterr().err
    assert not out.exists()


LOCALVOL_FILE = """
[problem] dim=2 T=1.0 name="policy-2d-localvol"
[controls] points=-1.0,-1.0;-1.0,0.0;-1.0,1.0;0.0,-1.0;0.0,0.0;0.0,1.0;1.0,-1.0;1.0,0.0;1.0,1.0
[sigma] expr="0.8+0.2*tanh(x1), 0, 0, 0.8+0.2*tanh(x2+t)"
[f] expr="a1, a2"
[gamma] expr="-0.2*(a1*a1+a2*a2)"
[g] expr="max(1-0.5*x1-0.5*x2,0)"
[h] expr="max(1-0.5*x1-0.5*x2,0)*(1+0.5*(1-t))"
[growth] C_f=1.5 C_sigma_inv=1.6666666666666667 C_poly=10.0 p=1.0
[domain] lo=-4.0,-4.0 hi=4.0,4.0
"""


def _per_control_log_terms(spec, batch):
    """theta . dB - 0.5 |theta|^2 dt per path and step [n, N], theta solved one control at a time.

    dB = sigma^{-1}(X_{i+1} - X_i) is the recorded step's increment under the
    driftless law, so the sum is the path's log-likelihood ratio against it.
    """
    n, N, d = batch.increments.shape
    terms = np.empty((n, N))
    for i in range(N):
        t = float(batch.grid.nodes[i])
        X, idx = batch.states[:, i], batch.controls[:, i]
        dB = np.linalg.solve(spec.sigma(t, X), (batch.states[:, i + 1] - X)[..., None])[..., 0]
        theta = np.zeros((n, d))
        for k in np.unique(idx):
            sel = idx == k
            fv = per_control(spec, t, X[sel], spec.controls.points[k])[0]
            theta[sel] = np.linalg.solve(spec.sigma(t, X[sel]), fv[..., None])[..., 0]
        terms[:, i] = np.einsum("nd,nd->n", theta, dB) - 0.5 * batch.grid.dt * np.einsum("nd,nd->n", theta, theta)
    return terms


def test_simulate_paths_csv_log_density_is_the_running_sum(tmp_path, capsys):
    problem = tmp_path / "localvol.txt"
    problem.write_text(LOCALVOL_FILE)
    argv = ["simulate", "--problem", str(problem), "--nx", "41", "--paths", "400", "--steps", "8"]
    argv += ["--seed", "4", "--x0", "0.8,0.8", "--dump-paths", "40", "--out", str(tmp_path / "sim")]
    assert main(argv) in (0, 1)  # 1 only flags the optimality report; the CSVs are written either way
    capsys.readouterr()
    spec = load_problem(problem)
    field = pde.solve(spec, pde.make_grid(spec, 41))
    batch = simulate_controlled(spec, field, 0.0, [0.8, 0.8], TimeGrid(0.0, 1.0, 8), 40, 4)
    terms = _per_control_log_terms(spec, batch)
    assert len(np.unique(batch.controls)) > 1 and np.any(terms != 0.0)
    lines = (tmp_path / "sim" / "paths.csv").read_text().splitlines()
    assert lines[0] == "path,node,t,x1,x2,a,logM" and len(lines) == 1 + 40 * 9
    for p in range(40):
        log_m = 0.0
        for i in range(9):
            row = lines[1 + 9 * p + i].split(",")
            assert row[3:5] == [repr(float(x)) for x in batch.states[p, i]]
            assert row[6] == repr(log_m), (p, i)
            if i < 8:
                log_m += float(terms[p, i])


CONSTANT_DRIFT_FILE = """
[problem] dim=1 T=1.0 name="constant-drift"
[controls] points=0.5
[sigma] expr="1"
[f] expr="a1"
[gamma] expr="0"
[g] expr="max(1-x1,0)"
[h] expr="max(1-x1,0)"
[growth] C_f=0.5 C_sigma_inv=1.0 C_poly=1.0 p=1.0
[domain] lo=-4.0 hi=4.0
"""


def test_simulate_paths_csv_log_density_of_a_constant_drift_is_closed_form(tmp_path, capsys):
    """Drift theta under sigma = 1: log dP^theta/dP^0 of a path is theta (X_N - x0) - theta^2 T / 2."""
    problem = tmp_path / "drift.txt"
    problem.write_text(CONSTANT_DRIFT_FILE)
    argv = ["simulate", "--problem", str(problem), "--nx", "41", "--paths", "400", "--steps", "10"]
    argv += ["--seed", "2", "--x0", "0.3", "--dump-paths", "50", "--out", str(tmp_path / "sim")]
    assert main(argv) in (0, 1)
    capsys.readouterr()
    lines = (tmp_path / "sim" / "paths.csv").read_text().splitlines()
    assert lines[0] == "path,node,t,x1,a,logM" and len(lines) == 1 + 50 * 11
    theta = 0.5
    for p in range(50):
        last = lines[1 + 11 * p + 10].split(",")
        x_end, log_m = float(last[3]), float(last[5])
        assert abs(log_m - (theta * (x_end - 0.3) - 0.5 * theta**2 * 1.0)) < 1e-12, p


def test_simulate_rejects_dump_paths_below_one_before_any_work(tmp_path, capsys):
    argv = ["simulate", "--builtin", "controlled_drift_abs", "--nx", "41", "--paths", "2000"]
    assert main([*argv, "--dump-paths", "0", "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--dump-paths must be at least 1" in captured.err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["solve-pde", "simulate"])
def test_cfl_flag_is_gone(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--builtin", "bachelier_put", "--cfl", "0.5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --cfl" in capsys.readouterr().err


def test_core_fraction_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ladder", "--builtin", "controlled_drift_abs", "--core-fraction", "0.5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --core-fraction" in capsys.readouterr().err


def test_ladder_command(capsys):
    argv = [
        "ladder",
        "--builtin", "controlled_drift_abs",
        "--nx", "61",
        "--n-list", "1,5",
        "--m-list", "1,5",
        "--paths", "0",
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "exhaustion gap: 0.0" in out


def test_verify_subset(tmp_path, capsys):
    assert main(["verify", "--only", "6", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "[PASS]  6" in out
    assert "1/1 checks passed" in out
    assert "[PASS]  6" in (tmp_path / "verify.txt").read_text()
    # id 10 is retired, so it is refused like any id that names no check
    assert main(["verify", "--only", "10"]) == 2
    assert main(["verify", "--only", "99"]) == 2


def test_convergence_command(capsys):
    argv = ["convergence", "--builtin", "bachelier_put", "--nx-list", "51,101,201"]
    assert main(argv) == 0
    assert "refinement contracts" in capsys.readouterr().out
    assert main(["convergence", "--builtin", "bachelier_put", "--nx-list", "51,101"]) == 2


def test_ladder_solves_a_listed_covering_pair_once(monkeypatch, capsys):
    """Box radius 4 is covered by (5, 5), a listed pair: four pairs and the untruncated solve, per ladder."""
    calls = {"pde": 0, "mc": 0}

    def counted(key, fn):
        def wrapped(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(pde, "solve", counted("pde", pde.solve))
    monkeypatch.setattr(mc, "solve_rbsde", counted("mc", mc.solve_rbsde))
    argv = ["ladder", "--builtin", "controlled_drift_abs", "--nx", "41", "--n-list", "1,5", "--m-list", "1,5"]
    assert main([*argv, "--paths", "500", "--steps", "5"]) == 0
    assert re.findall(r"exhaustion gap: (\S+)", capsys.readouterr().out) == ["0.0", "0.0"]
    assert calls == {"pde": 5, "mc": 5}
