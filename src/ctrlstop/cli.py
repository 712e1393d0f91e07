"""Command line interface and the line-oriented problem-file format.

A problem file is a sequence of ``[section] key=value ...`` lines::

    [problem] dim=1 T=1.0 name="out-of-the-money"
    [params] sigma0=0.2 K=0.9
    [controls] points=0.0
    [sigma] expr="sigma0"
    [f] expr="0"
    [gamma] expr="0"
    [g] expr="max(K-x1,0)"
    [h] expr="max(K-x1,0)"
    [growth] C_f=0.0 C_sigma_inv=5.0 C_poly=1.0 p=1.0
    [domain] lo=-3.0 hi=5.0

Values are bare tokens or double-quoted strings; ``#`` starts a comment
line.  Control points are semicolon-separated vectors with comma-separated
components; multi-entry expression sections (sigma row-major, f per axis)
separate entries with top-level commas.  Loaded problems are validated and
rejected with the failing checks named.
"""

from __future__ import annotations

import argparse
import csv
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import acceptance, mc, pde, strategy
from .hamilton import GENERATORS, TruncationIndex
from .model import ProblemSpec, build_builtin, validate
from .paths import TimeGrid, _log_density_step, _step, simulate_controlled, simulate_uncontrolled

__all__ = ["parse_problem_file", "emit_problem_file", "load_problem", "ProblemFileError", "main"]


class ProblemFileError(ValueError):
    pass


_SECTION_RE = re.compile(r"^\[(\w+)\]\s*(.*)$")
_PAIR_RE = re.compile(r'(\w+)=("(?:[^"]*)"|\S+)')

_SECTIONS = ("problem", "params", "controls", "sigma", "f", "gamma", "g", "h", "growth", "domain")
_REQUIRED = tuple(s for s in _SECTIONS if s != "params")


def _split_top_level(text: str) -> list[str]:
    """Split on commas not nested inside parentheses."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ProblemFileError("unbalanced ')' in expression list")
        elif ch == "," and depth == 0:
            parts.append(text[start:i].strip())
            start = i + 1
    if depth != 0:
        raise ProblemFileError("unbalanced '(' in expression list")
    parts.append(text[start:].strip())
    return parts


def parse_problem_file(text: str) -> ProblemSpec:
    sections: dict[str, dict[str, str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _SECTION_RE.match(line)
        if not m:
            raise ProblemFileError(f"line {lineno}: expected '[section] key=value ...'")
        name, rest = m.group(1), m.group(2)
        if name not in _SECTIONS:
            raise ProblemFileError(f"line {lineno}: unknown section [{name}]")
        pairs = sections.setdefault(name, {})
        consumed = 0
        for pm in _PAIR_RE.finditer(rest):
            key, val = pm.group(1), pm.group(2)
            if val.startswith('"'):
                val = val[1:-1]
            pairs[key] = val
            consumed += len(pm.group(0))
        if rest.strip() and consumed == 0:
            raise ProblemFileError(f"line {lineno}: malformed key=value pairs")
    missing = [s for s in _REQUIRED if s not in sections]
    if missing:
        raise ProblemFileError(f"missing sections: {', '.join('[' + s + ']' for s in missing)}")

    def need(section, key):
        try:
            return sections[section][key]
        except KeyError:
            raise ProblemFileError(f"section [{section}] needs key {key}=") from None

    def number(section, key, cast=float):
        raw = need(section, key)
        try:
            return cast(raw)
        except ValueError:
            raise ProblemFileError(f"section [{section}]: {key}={raw!r} is not a number") from None

    dim = number("problem", "dim", int)
    horizon = number("problem", "T")
    name = sections["problem"].get("name", "custom")

    params = {}
    for key, raw in sections.get("params", {}).items():
        try:
            params[key] = float(raw)
        except ValueError:
            raise ProblemFileError(f"section [params]: {key}={raw!r} is not a number") from None

    raw_points = need("controls", "points")
    try:
        points = [[float(c) for c in vec.split(",")] for vec in raw_points.split(";")]
    except ValueError:
        raise ProblemFileError(f"section [controls]: cannot parse points={raw_points!r}") from None

    def axis_list(section, key):
        """Comma-separated numbers; build_builtin broadcasts one value or checks one per axis."""
        raw = need(section, key)
        try:
            return [float(c) for c in raw.split(",")]
        except ValueError:
            raise ProblemFileError(f"section [{section}]: cannot parse {key}={raw!r}") from None

    try:
        spec = build_builtin(
            "custom",
            {
                "name": name,
                "dim": dim,
                "T": horizon,
                "sigma": tuple(_split_top_level(need("sigma", "expr"))),
                "f": tuple(_split_top_level(need("f", "expr"))),
                "gamma": need("gamma", "expr"),
                "g": need("g", "expr"),
                "h": need("h", "expr"),
                "controls": points,
                "growth": {
                    "C_f": number("growth", "C_f"),
                    "C_sigma_inv": number("growth", "C_sigma_inv"),
                    "C_poly": number("growth", "C_poly"),
                    "p": number("growth", "p"),
                },
                "lo": axis_list("domain", "lo"),
                "hi": axis_list("domain", "hi"),
                "params": params,
            },
        )
    except ProblemFileError:
        raise
    except Exception as exc:
        raise ProblemFileError(f"cannot assemble problem: {exc}") from exc

    report = validate(spec, samples=1024, seed=0)
    if not report.passed:
        names = ", ".join(c.name for c in report.failing())
        raise ProblemFileError(f"problem rejected by validation: {names}")
    return spec


def load_problem(path: str | Path) -> ProblemSpec:
    return parse_problem_file(Path(path).read_text())


def emit_problem_file(spec: ProblemSpec) -> str:
    """Inverse of ``parse_problem_file``: every coefficient is written as the source of its expression."""
    c = spec.coefficients
    lines = [f'[problem] dim={spec.dim} T={spec.horizon_T!r} name="{spec.name}"']
    if c.params:
        pairs = " ".join(f"{k}={float(v)!r}" for k, v in sorted(c.params.items()))
        lines.append(f"[params] {pairs}")
    points = ";".join(",".join(repr(float(v)) for v in row) for row in spec.controls.points)
    lines.append(f"[controls] points={points}")
    lines.append(f'[sigma] expr="{", ".join(e.source for e in c.sigma_exprs)}"')
    lines.append(f'[f] expr="{", ".join(e.source for e in c.f_exprs)}"')
    lines.append(f'[gamma] expr="{c.gamma_expr.source}"')
    lines.append(f'[g] expr="{c.g_expr.source}"')
    lines.append(f'[h] expr="{c.h_expr.source}"')
    gr = spec.growth
    lines.append(
        f"[growth] C_f={gr.C_f!r} C_sigma_inv={gr.C_sigma_inv!r} C_poly={gr.C_poly!r} p={gr.p!r}"
    )
    lo = ",".join(repr(float(v)) for v in spec.domain.lo)
    hi = ",".join(repr(float(v)) for v in spec.domain.hi)
    lines.append(f"[domain] lo={lo} hi={hi}")
    return "\n".join(lines) + "\n"


# -- CSV writers ---------------------------------------------------------------


def _fmt(v) -> str:
    return repr(float(v))


def _write_csv(path: Path, header: list[str], rows) -> None:
    with path.open("w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def write_value_policy_csv(path: Path, spec: ProblemSpec, field: pde.ValueField) -> None:
    grid = field.grid
    nodes = grid.nodes()
    header = ["t"] + [f"x{j + 1}" for j in range(grid.dim)] + ["value", "h", "a_index", "stop"]

    def rows():
        for i, t in enumerate(grid.times):
            h = spec.h(float(t), nodes)
            vals = field.values[i].ravel()
            args = field.control[i].ravel()
            stops = field.stop_mask[i].ravel()
            for r in range(nodes.shape[0]):
                yield (
                    [_fmt(t)]
                    + [_fmt(x) for x in nodes[r]]
                    + [_fmt(vals[r]), _fmt(h[r]), int(args[r]), int(stops[r])]
                )

    _write_csv(path, header, rows())


def write_rbsde_csv(path: Path, result: mc.BackwardSolveResult) -> None:
    header = ["node", "t", "mean_y", "mean_abs_z", "mean_dk", "reflection_frequency"]
    y, k, z, refl = result.y_nodes, result.k_increments, result.diagnostics["mean_abs_z"], result.reflection_frequency
    rows = [
        [i, _fmt(t), _fmt(np.mean(y[:, i])), _fmt(z[i]), _fmt(np.mean(k[:, i])), _fmt(refl[i])]
        for i, t in enumerate(result.grid.nodes)
    ]
    _write_csv(path, header, rows)


def write_strategy_csv(path: Path, rows_in) -> None:
    header = ["strategy", "mean", "stderr", "fraction_stopped_early"]
    rows = [
        [name, _fmt(est.mean), _fmt(est.stderr), _fmt(est.breakdown.fraction_stopped_early)]
        for name, est in rows_in
    ]
    _write_csv(path, header, rows)


def write_paths_csv(path: Path, spec: ProblemSpec, batch) -> None:
    """One row per node of each path of a ``simulate_controlled`` batch.

    ``logM`` is the log-likelihood ratio so far against the driftless law: each step adds
    ``_log_density_step``'s term for the driftless increment sigma^{-1}(X_{i+1} - X_i).
    """
    steps = batch.grid.steps
    times = batch.grid.nodes
    header = ["path", "node", "t"] + [f"x{j + 1}" for j in range(batch.dim)] + ["a", "logM"]
    terms = np.empty((steps, batch.count))
    for i, t in enumerate(times[:-1].tolist()):
        X = _step(batch.states, i)
        sig = spec.sigma(t, X)
        dB = spec.sigma_solve(sig, _step(batch.states, i + 1) - X)
        terms[i] = _log_density_step(spec, t, X, sig, _step(batch.controls, i), dB, batch.grid.dt)

    def rows():
        for p in range(batch.count):
            log_m = 0.0
            for i in range(steps + 1):
                a = int(batch.controls[p, i]) if i < steps else -1
                yield [p, i, _fmt(times[i])] + [_fmt(x) for x in batch.states[p, i]] + [a, _fmt(log_m)]
                if i < steps:
                    log_m += float(terms[i, p])

    _write_csv(path, header, rows())


# -- subcommands ---------------------------------------------------------------


def _add_problem_args(sp):
    sp.add_argument("--builtin", help="builtin family name")
    sp.add_argument("--param", action="append", default=[], metavar="KEY=VALUE")
    sp.add_argument("--problem", help="problem file path")


def _resolve_spec(args) -> ProblemSpec:
    if bool(args.builtin) == bool(args.problem):
        raise ProblemFileError("give exactly one of --builtin or --problem")
    if args.problem:
        if args.param:
            raise ProblemFileError("--param only applies to --builtin")
        return load_problem(args.problem)
    params = {}
    for item in args.param:
        if "=" not in item:
            raise ProblemFileError(f"--param needs KEY=VALUE, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            params[key] = float(raw)
        except ValueError:
            raise ProblemFileError(f"--param {key}: {raw!r} is not a number") from None
    return build_builtin(args.builtin, params)


def _parse_x0(arg: str | None, spec: ProblemSpec) -> np.ndarray:
    if arg is None:
        return 0.5 * (spec.domain.lo + spec.domain.hi)
    vals = [float(v) for v in arg.split(",")]
    if len(vals) == 1 and spec.dim > 1:
        vals = vals * spec.dim
    if len(vals) != spec.dim:
        raise ProblemFileError(f"--x0 needs {spec.dim} components")
    return np.asarray(vals, dtype=float)


def _parse_basis(arg: str) -> mc.RegressionBasis:
    kind, _, num = arg.partition(":")
    if kind in ("local", "local-partition"):
        return mc.RegressionBasis(kind="local-partition", cells_per_axis=int(num or 25))
    if kind in ("poly", "polynomial"):
        return mc.RegressionBasis(kind="polynomial", degree=int(num or 5))
    raise ProblemFileError(f"unknown basis {arg!r}; use local:<cells> or poly:<degree>")


def _trunc_from(args) -> TruncationIndex | None:
    if args.trunc_n is None and args.trunc_m is None:
        return None
    if args.trunc_n is None or args.trunc_m is None:
        raise ProblemFileError("--trunc-n and --trunc-m must be given together")
    return TruncationIndex(n=args.trunc_n, m=args.trunc_m)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_solve_pde(args) -> int:
    spec = _resolve_spec(args)
    grid = pde.make_grid(spec, args.nx, nt=args.nt, generator=args.generator)
    field = pde.solve(spec, grid, trunc=_trunc_from(args), generator=args.generator)
    x0 = _parse_x0(args.x0, spec)
    print(f"problem: {spec.name} (d={spec.dim}, T={spec.horizon_T})")
    print(f"grid: nx={grid.nx} nt={grid.nt} dt={grid.dt:.3e} cfl_ratio={field.scheme_meta['cfl_ratio']:.3f}")
    print(f"v(0, {','.join(f'{v:g}' for v in x0)}) = {field.at(0.0, x0)!r}")
    frac = float(np.mean(field.stop_mask[:-1]))
    print(f"stop region (before horizon): {frac:.4%} of nodes")
    if args.out:
        out = _out_dir(args)
        write_value_policy_csv(out / "value_policy.csv", spec, field)
        print(f"wrote {out / 'value_policy.csv'}")
    return 0


def _cmd_solve_mc(args) -> int:
    spec = _resolve_spec(args)
    x0 = _parse_x0(args.x0, spec)
    tg = TimeGrid(0.0, spec.horizon_T, args.steps)
    batch = simulate_uncontrolled(spec, 0.0, x0, tg, args.paths, args.seed)
    basis = _parse_basis(args.basis)
    result = mc.solve_rbsde(spec, batch, basis, trunc=_trunc_from(args), generator=args.generator)
    print(f"problem: {spec.name} (d={spec.dim}, T={spec.horizon_T})")
    print(f"paths={args.paths} steps={args.steps} seed={args.seed} basis={args.basis}")
    print(f"y0 = {result.y0!r} +- {result.se_y0:.3e}")
    print(f"skorokhod residual = {mc.skorokhod_residual(result)!r}")
    if args.generator == "hstar":
        print(f"H* controls: {spec._hstar_rows.size} of {spec.controls.k}")
    if args.out:
        out = _out_dir(args)
        write_rbsde_csv(out / "rbsde.csv", result)
        print(f"wrote {out / 'rbsde.csv'}")
    return 0


def _cmd_simulate(args) -> int:
    if args.dump_paths < 1:
        raise ValueError(f"--dump-paths must be at least 1, got {args.dump_paths}")
    spec = _resolve_spec(args)
    x0 = _parse_x0(args.x0, spec)
    grid = pde.make_grid(spec, args.nx, nt=args.nt)
    field = pde.solve(spec, grid)
    tg = TimeGrid(0.0, spec.horizon_T, args.steps)
    report = strategy.optimality_gap(spec, field, tg, x0, args.paths, seed=args.seed)
    print(f"problem: {spec.name}; v(0,x0) = {report.field_value!r}")
    opt = report.optimal
    print(
        f"extracted policy: mean={opt.mean!r} stderr={opt.stderr:.3e} "
        f"stopped early={opt.breakdown.fraction_stopped_early:.4f} "
        f"(field gap {report.field_gap:.3e} <= budget {report.field_budget:.3e}: {report.field_ok})"
    )
    for row in report.rows:
        mark = "ok" if row.ok else "BEATS OPTIMAL"
        print(f"  {row.name}: mean={row.estimate.mean:.6f} gap={row.gap:+.6f} ({mark})")
    if args.out:
        out = _out_dir(args)
        rows = [("extracted policy", opt)] + [(r.name, r.estimate) for r in report.rows]
        write_strategy_csv(out / "strategy.csv", rows)
        batch = simulate_controlled(spec, field, 0.0, x0, tg, min(args.paths, args.dump_paths), args.seed)
        write_paths_csv(out / "paths.csv", spec, batch)
        print(f"wrote {out / 'strategy.csv'} and {out / 'paths.csv'}")
    return 0 if report.passed else 1


def _cmd_ladder(args) -> int:
    spec = _resolve_spec(args)
    n_list = [int(v) for v in args.n_list.split(",")]
    m_list = [int(v) for v in args.m_list.split(",")]
    grid = pde.make_grid(spec, args.nx)
    report = pde.ladder(spec, grid, n_list, m_list)
    print(f"grid ladder on {spec.name}: n in {report.n_list}, m in {report.m_list}")
    for key in sorted(report.sup_gap_core):
        print(f"  (n={key[0]}, m={key[1]}): core gap {report.sup_gap_core[key]:.3e}")
    print(f"ordering violations: n {report.violation_n:.2e}, m {report.violation_m:.2e}")
    print(f"exhaustion gap: {report.exhaustion_gap!r}")
    ok = report.monotone
    if args.paths > 0:
        x0 = _parse_x0(args.x0, spec)
        tg = TimeGrid(0.0, spec.horizon_T, args.steps)
        batch = simulate_uncontrolled(spec, 0.0, x0, tg, args.paths, args.seed)
        mrep = mc.truncation_ladder_mc(spec, batch, _parse_basis(args.basis), n_list, m_list)
        print(
            f"path ladder ({args.paths} paths): y0 untruncated {mrep.y0_untruncated!r}, "
            f"exhaustion gap: {mrep.exhaustion_gap!r}"
        )
        for comp in mrep.comparisons:
            print(
                f"  {comp.axis}: {comp.low}->{comp.high} (fixed {comp.fixed}): "
                f"paired diff {comp.mean_diff:+.4e} +- {comp.se:.1e} ({'ok' if comp.ok else 'VIOLATION'})"
            )
        ok = ok and mrep.passed
    return 0 if ok else 1


def _cmd_verify(args) -> int:
    only = None
    if args.only:
        only = {int(v) for v in args.only.split(",")}
        unknown = only - set(acceptance.CHECK_IDS)
        if unknown:
            raise ProblemFileError(f"unknown check ids: {sorted(unknown)}")
    results = acceptance.run_all(only=only)
    text = acceptance.render(results)
    print(text)
    if args.out:
        out = _out_dir(args)
        (out / "verify.txt").write_text(text + "\n")
    return 0 if all(r.passed for r in results) else 1


def _cmd_convergence(args) -> int:
    spec = _resolve_spec(args)
    x0 = _parse_x0(args.x0, spec)
    nx_list = [int(v) for v in args.nx_list.split(",")]
    if len(nx_list) < 3:
        raise ProblemFileError("--nx-list needs at least three levels")
    values = []
    for nx in nx_list:
        field = pde.solve(spec, pde.make_grid(spec, nx))
        values.append(field.at(0.0, x0))
        print(f"nx={nx}: v(0,x0) = {values[-1]!r}")
    diffs = [abs(values[i + 1] - values[i]) for i in range(len(values) - 1)]
    ok = True
    for i in range(len(diffs) - 1):
        ratio = diffs[i] / diffs[i + 1] if diffs[i + 1] > 0 else math.inf
        print(f"level {i}: |v_{nx_list[i + 1]} - v_{nx_list[i]}| = {diffs[i]:.3e} (next ratio {ratio:.2f})")
        ok = ok and ratio >= 1.5
    print(f"last gap {diffs[-1]:.3e}")
    print("refinement " + ("contracts" if ok else "DOES NOT contract"))
    return 0 if ok else 1


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ctrlstop",
        description="Finite-horizon control-and-stopping solver (finite differences and regression Monte Carlo).",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve-pde", help="backward finite-difference sweep")
    _add_problem_args(sp)
    sp.add_argument("--nx", type=int, default=201)
    sp.add_argument("--nt", type=int, default=None)
    sp.add_argument("--generator", choices=GENERATORS, default="hstar")
    sp.add_argument("--trunc-n", type=int, default=None)
    sp.add_argument("--trunc-m", type=int, default=None)
    sp.add_argument("--x0", default=None)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=_cmd_solve_pde)

    sp = sub.add_parser("solve-mc", help="regression Monte-Carlo backward solve")
    _add_problem_args(sp)
    sp.add_argument("--paths", type=int, default=20000)
    sp.add_argument("--steps", type=int, default=50)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--basis", default="local:25")
    sp.add_argument("--generator", choices=GENERATORS, default="hstar")
    sp.add_argument("--trunc-n", type=int, default=None)
    sp.add_argument("--trunc-m", type=int, default=None)
    sp.add_argument("--x0", default=None)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=_cmd_solve_mc)

    sp = sub.add_parser("simulate", help="forward-simulate the extracted strategy and challengers")
    _add_problem_args(sp)
    sp.add_argument("--nx", type=int, default=201)
    sp.add_argument("--nt", type=int, default=None)
    sp.add_argument("--paths", type=int, default=20000)
    sp.add_argument("--steps", type=int, default=50)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--x0", default=None)
    sp.add_argument("--dump-paths", type=int, default=200)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=_cmd_simulate)

    sp = sub.add_parser("ladder", help="truncation ladder on both solvers")
    _add_problem_args(sp)
    sp.add_argument("--nx", type=int, default=161)
    sp.add_argument("--n-list", default="1,2,4")
    sp.add_argument("--m-list", default="1,2,4")
    sp.add_argument("--paths", type=int, default=0, help="0 skips the Monte-Carlo ladder")
    sp.add_argument("--steps", type=int, default=25)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--basis", default="local:25")
    sp.add_argument("--x0", default=None)
    sp.set_defaults(fn=_cmd_ladder)

    sp = sub.add_parser("verify", help="run the acceptance checks")
    sp.add_argument("--only", default=None, help="comma-separated check ids")
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=_cmd_verify)

    sp = sub.add_parser("convergence", help="grid-refinement study")
    _add_problem_args(sp)
    sp.add_argument("--nx-list", default="101,201,401")
    sp.add_argument("--x0", default=None)
    sp.set_defaults(fn=_cmd_convergence)

    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:  # ProblemFileError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
