"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass/fail line (visible with -s; `pytest -v` also shows
one PASSED/FAILED line per criterion).  Criteria 1-3 share the same 100
seeded random instances, built once per session.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from fracobstacle import (
    Grid,
    PenaltyParams,
    ProblemSpec,
    SolverParams,
    assemble_operator,
    brute_force_oracle,
    check_bounds_cinfty,
    check_comparison_in_f,
    check_kkt,
    check_lewy_stampacchia,
    check_linfty_dependence,
    check_minty,
    check_truncation_identities,
    kernel_constant,
    run_obstacle_convergence,
    solve_active_set,
    solve_penalty,
    solve_projected_gradient,
    solve_psor,
)
from fracobstacle.cli import dumps, main
from fracobstacle.solvers import OracleAmbiguityError

DATA_DIR = Path(__file__).parent / "data"
PARAMS = SolverParams(tol=1e-10)


def report_line(num, desc, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num:2d}: {desc}{' | ' + detail if detail else ''}",
          flush=True)
    return ok


def _criterion1_instance(seed):
    rng = np.random.default_rng(seed)
    n = 6 + seed % 7
    s = (0.25, 0.5, 0.75)[seed % 3]
    op = assemble_operator(Grid(0.0, 1.0, n), s)
    return ProblemSpec(op=op, psi=rng.normal(size=n), f=rng.normal(size=n))


@pytest.fixture(scope="module")
def criterion1_data():
    instances = []
    start = time.perf_counter()
    for seed in range(100):
        for attempt in range(10):
            spec = _criterion1_instance(seed + 100_000 * attempt)
            try:
                oracle = brute_force_oracle(spec, PARAMS)
                break
            except OracleAmbiguityError:
                continue
        else:
            pytest.fail(f"degenerate instances for seed {seed}")
        solutions = {
            "psor": solve_psor(spec, PARAMS),
            "pg": solve_projected_gradient(spec, PARAMS),
            "activeset": solve_active_set(spec, PARAMS),
        }
        instances.append((spec, oracle, solutions))
    elapsed = time.perf_counter() - start
    return instances, elapsed


def test_criterion_01_oracle_equivalence(criterion1_data):
    instances, elapsed = criterion1_data
    worst = 0.0
    for spec, oracle, solutions in instances:
        for sol in solutions.values():
            worst = max(worst, float(np.abs(sol.u - oracle.u).max()))
    ok = worst <= 1e-7 and elapsed < 60.0
    assert report_line(1, "three solvers match enumeration oracle on 100 instances",
                       ok, f"worst deviation {worst:.2e}, runtime {elapsed:.1f}s")


def test_criterion_02_kkt_complementarity(criterion1_data):
    instances, _ = criterion1_data
    worst = -np.inf
    ok = True
    for spec, oracle, solutions in instances:
        for sol in solutions.values():
            rep = check_kkt(spec, sol.u, tol=1e-8)
            worst = max(worst, rep.worst_violation)
            ok = ok and rep.passed
    # n = 128 preset problems
    grid = Grid(0.0, 1.0, 128)
    x = grid.nodes()
    presets = [
        (0.5 - 8.0 * (x - 0.5) ** 2, np.zeros(128)),
        (np.where((x >= 0.3) & (x <= 0.7), 1.0, -1.0), np.full(128, -0.5)),
        (np.full(128, -1.0), np.sin(2 * np.pi * x)),
    ]
    for s in (0.25, 0.5, 0.75):
        op = assemble_operator(grid, s)
        for psi, f in presets:
            spec = ProblemSpec(op, psi, f)
            rep = check_kkt(spec, solve_active_set(spec, PARAMS).u, tol=1e-8)
            worst = max(worst, rep.worst_violation)
            ok = ok and rep.passed
    psor128 = ProblemSpec(assemble_operator(grid, 0.5), presets[0][0], presets[0][1])
    rep = check_kkt(psor128, solve_psor(psor128, SolverParams(tol=1e-9)).u, tol=1e-8)
    ok = ok and rep.passed
    assert report_line(2, "KKT at 1e-8 on criterion-1 instances and n=128 presets",
                       ok, f"worst violation {worst:.2e}")


def test_criterion_03_lewy_stampacchia(criterion1_data):
    instances, _ = criterion1_data
    worst = -np.inf
    ok = True
    for spec, oracle, solutions in instances:
        rep = check_lewy_stampacchia(spec, solutions["psor"].u, tol=1e-8)
        worst = max(worst, rep.worst_violation)
        ok = ok and rep.passed
    assert report_line(3, "0 <= r <= (A(psi-w_f)^+)^+ at 1e-8 on criterion-1 instances",
                       ok, f"worst violation {worst:.2e}")


def test_criterion_04_penalty_sandwich():
    params = SolverParams(tol=1e-8)
    ok = True
    worst_low, worst_high = 0.0, 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed + 4000)
        n = 8 + seed % 3
        s = (0.25, 0.5, 0.75)[seed % 3]
        op = assemble_operator(Grid(0.0, 1.0, n), s)
        spec = ProblemSpec(op, psi=np.abs(rng.normal(size=n)), f=np.zeros(n))
        gaps = []
        for eps in (1e-1, 1e-2, 1e-3):
            result = solve_penalty(spec, PenaltyParams(epsilon=eps), params)
            gap = result.u_eps - result.solution.u
            gaps.append(float(gap.max()))
            worst_low = max(worst_low, float(-gap.min()))
            worst_high = max(worst_high, float(gap.max()) - eps)
            ok = ok and gap.min() >= -1e-7 and gap.max() <= eps + 1e-7
        ok = ok and gaps[1] <= gaps[0] + 1e-9 and gaps[2] <= gaps[1] + 1e-9
    assert report_line(4, "u <= u_eps <= u + eps on 20 instances, gap monotone in eps",
                       ok, f"worst below {worst_low:.2e}, worst above-eps {worst_high:.2e}")


def test_criterion_05_linfty_dependence():
    ok = True
    worst = -np.inf
    for seed in range(100):
        rng = np.random.default_rng(seed + 5000)
        op = assemble_operator(Grid(0.0, 1.0, 16), (0.25, 0.5, 0.75)[seed % 3])
        psi1 = rng.normal(size=16)
        psi2 = psi1 + rng.normal(size=16) * rng.uniform(0.1, 2.0)
        f = rng.normal(size=16)
        spec = ProblemSpec(op, psi1, f)
        u = solve_active_set(spec, PARAMS).u
        rep = check_linfty_dependence(spec, u, psi2, tol=1e-8, params=PARAMS)
        worst = max(worst, rep.worst_violation)
        ok = ok and rep.passed
    assert report_line(5, "sup-norm dependence bounds on 100 obstacle pairs",
                       ok, f"worst violation {worst:.2e}")


def test_criterion_06_comparison_principles():
    ok = True
    worst = -np.inf
    for seed in range(50):
        rng = np.random.default_rng(seed + 6000)
        op = assemble_operator(Grid(0.0, 1.0, 12), (0.25, 0.5, 0.75)[seed % 3])
        psi = rng.normal(size=12)
        f2 = rng.normal(size=12)
        f1 = f2 + np.abs(rng.normal(size=12))
        spec = ProblemSpec(op, psi, f1)
        u = solve_active_set(spec, PARAMS).u
        rep = check_comparison_in_f(spec, u, f2, tol=1e-8, params=PARAMS)
        worst = max(worst, rep.worst_violation)
        ok = ok and rep.passed
        # monotonicity in the obstacle (smallest-supersolution order)
        psi2 = psi - np.abs(rng.normal(size=12))
        u1 = solve_active_set(ProblemSpec(op, psi, f2), PARAMS).u
        u2 = solve_active_set(ProblemSpec(op, psi2, f2), PARAMS).u
        viol = float((u2 - u1).max())
        worst = max(worst, viol)
        ok = ok and viol <= 1e-8
    assert report_line(6, "comparison in f and monotonicity in psi, 50 ordered pairs each",
                       ok, f"worst violation {worst:.2e}")


def test_criterion_07_minty_certificate():
    ok = True
    worst = -np.inf
    for seed in range(20):
        rng = np.random.default_rng(seed + 7000)
        n = 10 + seed % 5
        op = assemble_operator(Grid(0.0, 1.0, n), (0.25, 0.5, 0.75)[seed % 3])
        spec = ProblemSpec(op, psi=rng.normal(size=n), f=rng.normal(size=n))
        sol = solve_active_set(spec, PARAMS)
        rep = check_minty(spec, sol.u, samples=1000, tol=1e-8, seed=seed)
        worst = max(worst, rep.worst_violation)
        ok = ok and rep.passed
    assert report_line(7, "Minty pairing >= -1e-8(1+||v||), 1000 draws x 20 instances",
                       ok, f"worst violation {worst:.2e}")


def test_criterion_08_sharp_zero_forcing_bounds():
    ok = True
    worst = -np.inf
    for seed in range(100):
        rng = np.random.default_rng(seed + 8000)
        op = assemble_operator(Grid(0.0, 1.0, 16), (0.25, 0.5, 0.75)[seed % 3])
        psi = rng.normal(size=16) * rng.uniform(0.2, 3.0)
        spec = ProblemSpec(op, psi=psi, f=np.zeros(16))
        u = solve_active_set(spec, PARAMS).u
        psi_plus = np.maximum(psi, 0.0)
        viol = max(float((psi_plus - u).max()), float(u.max() - psi_plus.max()))
        worst = max(worst, viol)
        ok = ok and viol <= 1e-8 and check_bounds_cinfty(spec, u, tol=1e-8).passed
    assert report_line(8, "psi^+ <= u <= max psi^+ at 1e-8 on 100 obstacles",
                       ok, f"worst violation {worst:.2e}")


def test_criterion_09_truncation_suite():
    ok = True
    worst = -np.inf
    margins = []
    for s in (0.25, 0.5, 0.75):
        op = assemble_operator(Grid(0.0, 1.0, 12), s)
        rep = check_truncation_identities(op, samples=500, seed=9000 + int(s * 100))
        worst = max(worst, rep.worst_violation)
        margins.append(rep.note)
        ok = ok and rep.passed
    assert report_line(9, "truncation inequalities on 500 vectors, strict margins positive",
                       ok, f"worst violation {worst:.2e}")


def test_criterion_10_obstacle_convergence():
    op = assemble_operator(Grid(0.0, 1.0, 32), 0.5)
    x = op.grid.nodes()
    psi = np.where((x >= 0.4) & (x <= 0.6), 0.5, -0.5)
    bump = np.maximum(0.0, 1.0 - ((x - 0.15) / 0.1) ** 2)
    deltas = [2.0**-k for k in range(1, 11)]
    rep = run_obstacle_convergence(op, np.zeros(32), psi, deltas, bump,
                                   tol=1e-10, energy_threshold=1e-6, params=PARAMS)
    ok = rep.passed and rep.sup_bounds_ok and rep.monotone_flag
    for err, d in zip(rep.sup_errors, deltas):
        ok = ok and err <= d * np.abs(bump).max() + 1e-10
    assert report_line(10, "perturbation schedule: sup bounds, monotone energy, final < 1e-6",
                       ok, f"final energy error {rep.energy_errors[-1]:.2e}")


def test_criterion_11_operator_structure():
    ok = abs(kernel_constant(0.5) - 1.0 / math.pi) <= 1e-12
    rng = np.random.default_rng(11)
    for s in (0.1, 0.25, 0.5, 0.75, 0.9):
        for (a, b, n) in [(0.0, 1.0, 2), (0.0, 1.0, 16), (-1.0, 3.0, 64), (0.0, 1.0, 128)]:
            op = assemble_operator(Grid(a, b, n), s)
            ok = ok and np.all(op.weights > 0) and np.all(np.diff(op.weights) <= 0)
            telescope = math.fsum(op.weights) + float(op.tail(n))
            ok = ok and abs(telescope - op.diag / 2.0) <= 1e-13 * (op.diag / 2.0)
            offsum = 2.0 * np.cumsum(np.concatenate([[0.0], op.weights]))
            row_margin = op.diag - np.array(
                [offsum[i] / 2.0 + offsum[n - 1 - i] / 2.0 for i in range(n)])
            ok = ok and np.all(row_margin >= float(op.tail(n)) * (1 - 1e-12))
            for _ in range(5):
                v, w = rng.normal(size=n), rng.normal(size=n)
                sym = abs(op.bilinear(v, w) - op.bilinear(w, v))
                ok = ok and sym <= 1e-12 * np.linalg.norm(v) * np.linalg.norm(w)
                ok = ok and op.bilinear(v, v) > 0
    assert report_line(11, "M-matrix structure, telescoping 1e-13, kernel constant 1/pi",
                       ok)


def test_criterion_12_cli_contract(tmp_path):
    cfg_text = (DATA_DIR / "golden_solve.cfg").read_text()
    cfg = tmp_path / "run.cfg"
    cfg.write_text(cfg_text)
    out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    ok = main(["solve", "--config", str(cfg), "--out", out1]) == 0
    ok = ok and main(["solve", "--config", str(cfg), "--out", out2]) == 0

    def stripped(path):
        with open(path) as fh:
            record = json.load(fh)
        record.pop("timing_seconds", None)
        return dumps(record)

    ok = ok and stripped(out1) == stripped(out2)
    golden = json.loads((DATA_DIR / "golden_solve.json").read_text())
    golden.pop("timing_seconds", None)
    ok = ok and stripped(out1) == dumps(golden)
    bad = tmp_path / "bad.cfg"
    bad.write_text(cfg_text + "\nunknown.key = 1\n")
    ok = ok and main(["solve", "--config", str(bad)]) == 2
    hard = tmp_path / "hard.cfg"
    hard.write_text(cfg_text.replace("solver.method = activeset",
                                     "solver.method = pg")
                    + "\nsolver.max_iter = 2\nsolver.tol = 1e-14\n")
    ok = ok and main(["solve", "--config", str(hard),
                      "--out", str(tmp_path / "h.json")]) == 3
    ok = ok and main(["verify", "--config", str(cfg), "--inject-corruption"]) == 4
    ok = ok and main(["verify", "--config", str(cfg),
                      "--out", str(tmp_path / "v.json")]) == 0
    assert report_line(12, "exit codes 0/2/3/4 and byte-stable JSON vs golden file", ok)
