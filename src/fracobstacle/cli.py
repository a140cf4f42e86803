"""Command-line front end: solve, verify, sweep, oracle-check.

Exit codes are a stable contract:
    0  success (all requested checks passed)
    2  configuration or usage error (also an output path that cannot be written)
    3  solver failure (iteration limit; a partial record is still written)
    4  verification failure (some check failed or solvers disagree)

Result documents are JSON with floats serialized to 17 significant digits
(null when not finite); identical config and seed produce byte-identical
output except for the timing_seconds field.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
import time

import numpy as np

from .config import _SOLVER_METHODS, ConfigError, RunConfig, parse_config
from .solvers import (
    SOLVERS,
    PenaltyParams,
    ProblemSpec,
    Solution,
    SolverError,
    SolverParams,
    brute_force_oracle,
    kkt_violation,
    make_solution,
    solve_active_set,
    solve_penalty,
)
from .verify import (
    Report,
    check_bounds_cinfty,
    check_comparison_in_f,
    check_kkt,
    check_lewy_stampacchia,
    check_linfty_dependence,
    check_minty,
    check_smallest_supersolution,
    check_truncation_identities,
    _worst,
)

SCHEMA_VERSION = 1
ORACLE_AGREE_TOL = 1e-7
SWEEP_COLUMNS = ("axis", "value", "solver", "converged", "iterations",
                 "energy", "kkt_violation", "max_penalty_gap", "status")


# --- deterministic JSON ----------------------------------------------------

def _json_float(x: float) -> str:
    """17 significant digits; JSON null for a non-finite value."""
    if not math.isfinite(x):
        return "null"
    s = format(x, ".17g")
    if "." not in s and "e" not in s and "E" not in s:
        s += ".0"
    return s


def _fmt_float(x: float) -> str:
    """_json_float for the CSV writers, which refuse a non-finite value."""
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    return _json_float(x)


def dumps(obj) -> str:
    """Deterministic JSON: insertion-ordered keys, 17-significant-digit floats,
    null for a NaN or an infinity."""
    out = []
    _emit(obj, out)
    return "".join(out)


def _emit(obj, out: list):
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_json_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if not isinstance(k, str):
                raise TypeError(f"JSON object keys must be strings, got {k!r}")
            if i:
                out.append(", ")
            out.append(json.dumps(k))
            out.append(": ")
            _emit(v, out)
        out.append("}")
    elif isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.dtype == np.float64:
        out.append("[" + ", ".join(map(_json_float, obj.tolist())) + "]")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        out.append("[")
        for i, v in enumerate(list(obj)):
            if i:
                out.append(", ")
            _emit(v, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


# --- solving ---------------------------------------------------------------

def run_single(spec: ProblemSpec, method: str, params: SolverParams,
               penalty_params: PenaltyParams | None):
    """Solve with the chosen method; returns (Solution, penalty-extras or None).

    The extras are the penalty route's record fields, which solve_penalty
    returns, like its Solution, in the coordinates of spec.
    """
    if method in SOLVERS:
        return SOLVERS[method](spec, params), None
    result = solve_penalty(spec, penalty_params, params)
    extras = {"epsilon": result.epsilon, "outer_iterations": result.outer_iterations,
              "damping_used": result.damping_used, "max_gap": result.max_gap,
              "u_eps": result.u_eps}
    return result.solution, extras


def _base_record(command: str, cfg: RunConfig, spec: ProblemSpec) -> dict:
    grid = spec.op.grid
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": dict(cfg.echo),
        "grid": {"a": grid.a, "b": grid.b, "n": grid.n, "h": grid.h},
        "s": cfg.s,
    }


def _solution_fields(spec: ProblemSpec, sol: Solution, extras: dict | None) -> dict:
    return {
        "solver_id": sol.solver_id,
        "converged": sol.converged,
        "iterations": sol.iterations,
        "x": spec.op.grid.nodes(),
        "psi": spec.psi,
        "f": spec.f,
        "u": sol.u,
        "residual": sol.residual,
        "active_set": [int(i) for i in sol.active_set],
        "energy": spec.op.energy(sol.u, spec.f),
        "penalty": extras,
    }


def _write_json(record: dict, path: str | None, started: float):
    record["timing_seconds"] = time.perf_counter() - started
    if path:
        text = dumps(record) + "\n"  # before open, so a failed dumps leaves no file
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _check_output_path(path: str | None):
    """Refuse, before any work, a path whose directory is missing or that is a
    directory; opening it late would fail after the solve.  Creates no file,
    so a failed serialization still leaves none."""
    if not path:
        return
    if os.path.isdir(path):
        raise ConfigError(f"output path {path!r} is a directory")
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise ConfigError(f"output path {path!r}: its directory does not exist")


def _solver_failure(record: dict, exc: SolverError, cfg: RunConfig, spec: ProblemSpec,
                    started: float, solver_id: str | None = None) -> int:
    """Write the exit-3 record.  One without a solution gets the failed solve's
    best Solution, else psi^+ as an unconverged solve of solver_id."""
    if "u" not in record:
        best = getattr(exc, "best", None)
        sol = best if isinstance(best, Solution) else make_solution(
            spec, spec.default_start(), 0, solver_id or cfg.solver_method, False,
            cfg.solver_params)
        record.update(_solution_fields(spec, sol, None))
    record.setdefault("reports", [])
    record["error"] = str(exc)
    _write_json(record, cfg.output_json, started)
    print(f"solver failure: {exc}", file=sys.stderr)
    return 3


def _write_csv(path: str, header, rows):
    rows = list(rows)  # before open, so a value _fmt_float refuses leaves no file
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_solution_csv(path: str, spec: ProblemSpec, sol: Solution):
    active = np.zeros(spec.n, dtype=int)
    active[sol.active_set] = 1
    columns = (spec.op.grid.nodes(), spec.psi, spec.f, sol.u, sol.residual)
    rows = zip(*(map(_fmt_float, c.tolist()) for c in columns), active.tolist())
    _write_csv(path, ("x", "psi", "f", "u", "r", "active"), rows)


# --- subcommands -----------------------------------------------------------

def cmd_solve(cfg: RunConfig, spec: ProblemSpec, record: dict, started: float) -> int:
    sol, extras = run_single(spec, cfg.solver_method, cfg.solver_params,
                             cfg.penalty_params)
    record.update(_solution_fields(spec, sol, extras))
    record["reports"] = []
    _write_json(record, cfg.output_json, started)
    if cfg.output_csv:
        _write_solution_csv(cfg.output_csv, spec, sol)
    viol, _ = kkt_violation(spec, sol.u, sol.residual)
    print(f"solved: n={cfg.n} s={cfg.s} solver={sol.solver_id} "
          f"iterations={sol.iterations} energy={record['energy']:.9g} "
          f"kkt_violation={viol:.3e}")
    return 0


def _verify_reports(cfg: RunConfig, spec: ProblemSpec, sol: Solution,
                    u: np.ndarray) -> list[Report]:
    tol, samples, seed = cfg.verify_tol, cfg.verify_samples, cfg.seed
    reports = [
        check_kkt(spec, u, tol=tol),
        check_lewy_stampacchia(spec, u, tol=tol),
        check_minty(spec, u, samples=samples, tol=tol, seed=seed + 1),
        check_smallest_supersolution(spec, u, samples=samples, seed=seed + 2, tol=tol),
        check_bounds_cinfty(spec, u, tol=tol),
        check_truncation_identities(spec.op, samples=samples, seed=seed + 3),
    ]
    # The comparison checkers take the active-set solution of spec, never u.
    exact = (sol.u if sol.solver_id == "active_set"
             else solve_active_set(spec, cfg.solver_params).u)
    rng = np.random.default_rng(seed + 4)
    f2 = spec.f - np.abs(rng.normal(size=spec.n)) * 0.5 * (1.0 + float(np.abs(spec.f).max()))
    reports.append(check_comparison_in_f(spec, exact, f2, tol=tol, params=cfg.solver_params))
    psi2 = spec.psi + rng.normal(size=spec.n) * 0.3 * (1.0 + float(np.abs(spec.psi).max()))
    reports.append(check_linfty_dependence(spec, exact, psi2, tol=tol, params=cfg.solver_params))
    return reports


def _oracle_agreement(cfg: RunConfig, spec: ProblemSpec,
                      oracle: Solution) -> tuple[dict[str, float], Report]:
    """Max-norm distance of each solver's solution from the oracle's, and the
    oracle_agreement Report that decides them (a NaN distance fails it)."""
    deviations = {name: float(np.abs(solver(spec, cfg.solver_params).u - oracle.u).max())
                  for name, solver in SOLVERS.items()}
    report = _worst("oracle_agreement", list(deviations.values()), ORACLE_AGREE_TOL, cfg.seed)
    return deviations, report


def cmd_verify(cfg: RunConfig, spec: ProblemSpec, record: dict, started: float,
               inject_corruption: bool) -> int:
    sol, extras = run_single(spec, cfg.solver_method, cfg.solver_params,
                             cfg.penalty_params)
    u = sol.u.copy()
    if inject_corruption:
        u[spec.n // 2] = spec.psi[spec.n // 2] - 1.0
    record.update(_solution_fields(spec, sol, extras))
    record["corrupted"] = inject_corruption
    reports = _verify_reports(cfg, spec, sol, u)
    if spec.n <= 12:
        reports.append(_oracle_agreement(
            cfg, spec, brute_force_oracle(spec, cfg.solver_params))[1])
    record["reports"] = [r.as_dict() for r in reports]
    _write_json(record, cfg.output_json, started)
    print(f"{'check':<26}{'result':<8}{'worst_violation':<18}{'tol':<10}")
    for r in reports:
        status = "N/A" if r.inconclusive else "PASS" if r.passed else "FAIL"
        print(f"{r.check_id:<26}{status:<8}{r.worst_violation:<18.6e}{r.tol:<10.1e}")
    inconclusive = sum(r.inconclusive for r in reports)
    if inconclusive:
        print(f"{inconclusive} check(s) inconclusive")
    failed = [r for r in reports if not r.passed]
    if failed:
        print(f"{len(failed)} check(s) failed", file=sys.stderr)
        return 4
    print("all checks passed")
    return 0


def cmd_sweep(cfg: RunConfig) -> int:
    if cfg.sweep_axis is None:
        raise ConfigError("sweep requires sweep.axis and sweep.values")
    csv_path = cfg.output_csv
    if not csv_path:
        raise ConfigError("sweep requires a CSV output path (output.csv or --csv)")
    axis, values = cfg.sweep_axis, cfg.sweep_values
    # Every row's problem is built and checked before any row is solved, so an
    # input error exits 2 with no row written and a row records only a solver
    # failure.  Every epsilon shares one problem, so one operator: the penalty
    # solver's eps-free setup (its active-set solve) then runs once.
    if axis == "epsilon":
        specs = [cfg.build_problem()] * len(values)
    else:
        specs = [cfg.build_problem(s=float(v) if axis == "s" else None,
                                   n=int(v) if axis == "n" else None) for v in values]
    method = "penalty" if axis == "epsilon" else cfg.solver_method
    rows = []
    for value in values:
        spec = specs.pop(0)  # released with its row, its operator's caches too
        row = {c: "" for c in SWEEP_COLUMNS}
        row["axis"], row["value"] = axis, value
        pparams = cfg.penalty_params
        if axis == "epsilon":
            pparams = dataclasses.replace(pparams, epsilon=float(value))
        try:
            sol, extras = run_single(spec, method, cfg.solver_params, pparams)
            viol, _ = kkt_violation(spec, sol.u, sol.residual)
            row["solver"] = sol.solver_id
            row["converged"] = int(sol.converged)
            row["iterations"] = sol.iterations
            row["energy"] = _fmt_float(spec.op.energy(sol.u, spec.f))
            row["kkt_violation"] = _fmt_float(viol)
            if extras is not None:
                row["max_penalty_gap"] = _fmt_float(extras["max_gap"])
            row["status"] = "ok"
        except SolverError as exc:
            row["status"] = f"error: {exc}"
        rows.append(row)
    _write_csv(csv_path, SWEEP_COLUMNS, ([row[c] for c in SWEEP_COLUMNS] for row in rows))
    bad = sum(1 for row in rows if row["status"] != "ok")
    print(f"sweep over {axis}: {len(rows)} point(s), {bad} failure(s), "
          f"wrote {csv_path}")
    return 0 if bad == 0 else 3


def cmd_oracle_check(cfg: RunConfig, spec: ProblemSpec, record: dict, started: float) -> int:
    oracle = brute_force_oracle(spec, cfg.solver_params)
    record.update(_solution_fields(spec, oracle, None))
    record["reports"] = []
    deviations, report = _oracle_agreement(cfg, spec, oracle)
    record["oracle_deviations"] = deviations
    record["oracle_agree_tol"] = ORACLE_AGREE_TOL
    _write_json(record, cfg.output_json, started)
    for name, dev in deviations.items():
        print(f"{name:<12} max deviation from oracle: {dev:.3e}")
    if not report.passed:
        print(f"disagreement beyond {ORACLE_AGREE_TOL:g}", file=sys.stderr)
        return 4
    print("all solvers agree with the enumeration oracle")
    return 0


# --- entry point -----------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracobstacle",
        description="Obstacle-problem solver and theorem checker for the "
                    "1-D restricted fractional Laplacian.")
    sub = parser.add_subparsers(dest="command", required=True)
    flags = {
        "--out": dict(metavar="PATH", help="JSON result path"),
        "--solver": dict(choices=_SOLVER_METHODS, help="override solver.method"),
    }

    def command(name, summary, *names):
        """A subcommand taking --config, --seed and the named flags.  sweep
        reads no seed, but takes --seed so one argument list fits all four."""
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", required=True, metavar="PATH",
                       help="flat key-value config file")
        p.add_argument("--seed", type=int, metavar="INT",
                       help="override the config seed")
        for flag in names:
            p.add_argument(flag, **flags[flag])
        return p

    command("solve", "solve one obstacle problem", "--out", "--solver").add_argument(
        "--csv", metavar="PATH", help="also write per-node CSV (x,psi,f,u,r,active)")
    command("verify", "solve and run all theorem checkers", "--out", "--solver").add_argument(
        "--inject-corruption", action="store_true",
        help="corrupt the solution before checking (test only)")
    command("sweep", "parameter sweep to CSV", "--solver").add_argument(
        "--csv", metavar="PATH", help="CSV output path")
    command("oracle-check", "compare all solvers against enumeration", "--out")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    flags = {"seed": args.seed, "solver.method": getattr(args, "solver", None),
             "output.json": getattr(args, "out", None), "output.csv": getattr(args, "csv", None)}
    try:
        cfg = parse_config(args.config, flags)
        # A command takes --out or --csv exactly when it writes that output.
        if hasattr(args, "out"):
            _check_output_path(cfg.output_json)
        if hasattr(args, "csv"):
            _check_output_path(cfg.output_csv)

        if args.command == "sweep":
            return cmd_sweep(cfg)
        started = time.perf_counter()
        spec = cfg.build_problem()
        record = _base_record(args.command, cfg, spec)
        try:
            if args.command == "solve":
                return cmd_solve(cfg, spec, record, started)
            if args.command == "verify":
                return cmd_verify(cfg, spec, record, started, args.inject_corruption)
            return cmd_oracle_check(cfg, spec, record, started)
        except SolverError as exc:  # in the main solve, a checker's or the oracle's
            return _solver_failure(record, exc, cfg, spec, started,
                                   "oracle" if args.command == "oracle-check" else None)
    except (ConfigError, ValueError, OSError) as exc:
        # ValueError: a constructor or solver precondition (overflowing preset or
        # operator, n too large, ...); OSError: a write that fails after the checks
        # of _check_output_path
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
