import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracobstacle import (
    ConvergenceReport,
    ProblemSpec,
    SolverParams,
    assemble_operator,
    check_bounds_cinfty,
    check_comparison_in_f,
    check_kkt,
    check_lewy_stampacchia,
    check_linfty_dependence,
    check_minty,
    check_smallest_supersolution,
    check_truncation_identities,
    make_solution,
    run_obstacle_convergence,
    solve_active_set,
    solve_linear,
    solve_psor,
)
from fracobstacle import cli
from fracobstacle.config import parse_config_text
from fracobstacle.solvers import kkt_violation, roundoff_tol
from fracobstacle.verify import _worst

from conftest import (make_op, manufactured_instance, oracle_instance, random_instance,
                      readme_bump_config)

PARAMS = SolverParams(tol=1e-10)
GOLDEN_VERIFY = (Path(__file__).parent / "data" / "golden_verify.cfg").read_text()


# --- the worst-violation reduction ---------------------------------------------------

def test_worst_takes_the_first_maximum():
    report = _worst("x", np.array([-1.0, 2.0, 0.5, 2.0]), tol=2.0, seed=4, note="n")
    assert (report.worst_index_or_sample, report.worst_violation) == (1, 2.0)
    assert report.passed and report.samples == 4 and report.seed == 4
    assert not _worst("x", np.array([2.0]), tol=1.0).passed
    assert not _worst("x", np.array([0.0]), tol=1.0, holds=False).passed


def test_worst_a_nan_is_worst_and_fails():
    report = _worst("x", np.array([3.0, np.nan, 1.0, np.nan]), tol=10.0)
    assert report.worst_index_or_sample == 1 and np.isnan(report.worst_violation)
    assert not report.passed


def test_sampling_checkers_fail_on_a_nan_in_u():
    cfg = parse_config_text(GOLDEN_VERIFY)
    spec = cfg.build_problem()
    u = solve_active_set(spec, cfg.solver_params).u
    bad = u.copy()
    bad[5] = np.nan
    seed, samples, tol = cfg.seed, cfg.verify_samples, cfg.verify_tol
    minty = check_minty(spec, bad, samples=samples, tol=tol, seed=seed + 1)
    assert not minty.passed and np.isnan(minty.worst_violation)
    good, nan = (check_smallest_supersolution(spec, v, samples=samples, seed=seed + 2, tol=tol)
                 for v in (u, bad))
    assert good.passed and good.note == "feasible draws: 4/20"
    assert not nan.passed and not nan.inconclusive and np.isnan(nan.worst_violation)
    assert nan.note == good.note


def test_sampling_checkers_need_a_draw():
    spec, oracle = oracle_instance(200, n=10)
    for check in (lambda: check_minty(spec, oracle.u, samples=0),
                  lambda: check_smallest_supersolution(spec, oracle.u, samples=0),
                  lambda: check_truncation_identities(spec.op, samples=0)):
        with pytest.raises(ValueError, match="samples must be at least 1, got 0"):
            check()


# --- KKT -------------------------------------------------------------------------

def test_kkt_passes_on_oracle_solution():
    spec, oracle = oracle_instance(200, n=10)
    report = check_kkt(spec, oracle.u, tol=1e-9)
    assert report.passed
    assert report.check_id == "kkt"


def test_kkt_fails_on_unsolved_iterate():
    # psi^+ on an instance with a nontrivial inactive set generically violates
    # dual feasibility or complementarity
    for seed in range(5):
        spec, oracle = oracle_instance(seed + 210, n=10)
        start = spec.default_start()
        if np.abs(start - oracle.u).max() < 1e-6:
            continue
        report = check_kkt(spec, start, tol=1e-9)
        assert not report.passed
        assert report.worst_violation > 0
        return
    pytest.fail("no instance produced a nontrivial start")


def test_kkt_exact_on_trivial_zero_problem():
    op = make_op(n=8)
    spec = ProblemSpec(op, psi=-np.ones(8), f=np.zeros(8))
    report = check_kkt(spec, np.zeros(8), tol=0.0 + 1e-300)
    assert report.passed
    assert report.worst_violation <= 0.0


# --- Lewy-Stampacchia ---------------------------------------------------------------

def test_lewy_stampacchia_trivial_zero_case():
    op = make_op(n=8)
    spec = ProblemSpec(op, psi=-np.ones(8), f=np.zeros(8))
    report = check_lewy_stampacchia(spec, np.zeros(8), tol=1e-12)
    assert report.passed
    assert report.worst_violation <= 0.0
    assert report.worst_index_or_sample == 0  # every node ties at 0: the first


def test_lewy_stampacchia_equality_for_constant_obstacle():
    # u = psi = 1, f = 0: residual A*1 meets the bound (A*1)^+ with equality
    op = make_op(n=10)
    spec = ProblemSpec(op, psi=np.ones(10), f=np.zeros(10))
    report = check_lewy_stampacchia(spec, np.ones(10), tol=1e-12)
    assert report.passed
    assert abs(report.worst_violation) <= 1e-12


def test_lewy_stampacchia_random_sweep():
    for seed in range(25):
        spec, oracle = oracle_instance(seed + 220, n=10)
        assert check_lewy_stampacchia(spec, oracle.u, tol=1e-8).passed


def test_lewy_stampacchia_detects_violations():
    spec, oracle = oracle_instance(230, n=10)
    bad = oracle.u + 0.5   # breaks the upper bound on the inactive set
    report = check_lewy_stampacchia(spec, bad, tol=1e-8)
    assert not report.passed


# --- Minty -------------------------------------------------------------------------

def test_minty_pairing_vanishes_at_solution_direction():
    spec, oracle = oracle_instance(240, n=10)
    h = spec.op.grid.h
    pairing = h * np.dot(spec.op.apply(oracle.u) - spec.f, oracle.u - oracle.u)
    assert pairing == 0.0


def test_minty_single_coordinate_expansion():
    # v = u + t e_i: the pairing is h (t r_i + t^2 D), nonnegative up to tol
    spec, oracle = oracle_instance(250, n=8)
    h, D = spec.op.grid.h, spec.op.diag
    for i in (0, 3, 7):
        t = 0.37
        v = oracle.u.copy()
        v[i] += t
        pairing = h * np.dot(spec.op.apply(v) - spec.f, v - oracle.u)
        r_i = (spec.op.apply(oracle.u) - spec.f)[i]
        assert pairing == pytest.approx(h * (t * r_i + t * t * D), rel=1e-10)
        assert pairing >= -1e-10


def test_minty_large_sample_run():
    spec = random_instance(260, n=16)
    sol = solve_active_set(spec, PARAMS)
    report = check_minty(spec, sol.u, samples=1000, tol=1e-8, seed=3)
    assert report.passed
    assert report.samples == 1000


def test_minty_reports_are_bit_reproducible():
    spec = random_instance(270, n=12)
    sol = solve_active_set(spec, PARAMS)
    r1 = check_minty(spec, sol.u, samples=100, tol=1e-8, seed=5)
    r2 = check_minty(spec, sol.u, samples=100, tol=1e-8, seed=5)
    assert r1.worst_violation == r2.worst_violation
    assert r1 == r2


# --- smallest supersolution ----------------------------------------------------------

def test_supersolution_inactive_obstacle_equality():
    # psi far below omega_f: u = omega_f and the q = 0 supersolution is u itself
    op = make_op(n=9)
    f = np.abs(np.random.default_rng(4).normal(size=9))
    omega = solve_linear(op, f)
    spec = ProblemSpec(op, psi=omega - 2.0, f=f)
    sol = solve_active_set(spec, PARAMS)
    assert np.abs(sol.u - omega).max() <= 1e-9
    report = check_smallest_supersolution(spec, sol.u, samples=100, seed=6)
    assert report.passed and not report.inconclusive


def test_supersolution_fails_a_u_raised_above_the_solution_at_one_node():
    # psi lies 1 below A^{-1} f, so every draw U = A^{-1}(f + q), q >= 0, is
    # a usable supersolution, and the solution lies below each.  A u raised
    # by 1 at one node lies above some draw there, so it is no smallest
    # supersolution: the check must fail it.
    op = make_op(n=12)
    f = np.random.default_rng(5).normal(size=12)
    spec = ProblemSpec(op, psi=solve_linear(op, f) - 1.0, f=f)
    u = solve_active_set(spec, PARAMS).u
    assert check_smallest_supersolution(spec, u, samples=50, seed=3).passed
    u[6] += 1.0
    report = check_smallest_supersolution(spec, u, samples=50, seed=3)
    assert not report.passed and report.note == "feasible draws: 50/50"


def test_supersolution_random_solutions():
    for seed in range(5):
        spec, oracle = oracle_instance(seed + 280, n=10)
        report = check_smallest_supersolution(spec, oracle.u, samples=200, seed=seed)
        assert report.passed


def test_supersolution_inconclusive_when_obstacle_unreachable():
    op = make_op(n=8)
    spec = ProblemSpec(op, psi=np.full(8, 1e9), f=np.zeros(8))
    sol = solve_active_set(spec, PARAMS)
    report = check_smallest_supersolution(spec, sol.u, samples=20, seed=0)
    assert report.inconclusive
    assert report.passed  # flagged, not failed


# --- comparison and dependence ---------------------------------------------------------

def test_comparison_equal_forcings():
    spec = random_instance(300, n=10)
    u = solve_active_set(spec).u
    report = check_comparison_in_f(spec, u, spec.f.copy())
    assert report.passed
    assert report.worst_violation <= 1e-9


def test_comparison_constant_versus_zero():
    op = make_op(n=10)
    psi = np.random.default_rng(7).normal(size=10)
    spec = ProblemSpec(op, psi, np.ones(10))
    report = check_comparison_in_f(spec, solve_active_set(spec).u, np.zeros(10))
    assert report.passed


def test_comparison_rejects_unordered_pair():
    op = make_op(n=6)
    with pytest.raises(ValueError):
        check_comparison_in_f(ProblemSpec(op, np.zeros(6), np.zeros(6)), np.zeros(6),
                              np.ones(6))


def test_comparison_random_ordered_pairs():
    rng = np.random.default_rng(8)
    for seed in range(20):
        spec = random_instance(seed + 310, n=10)
        f2 = spec.f - np.abs(rng.normal(size=10))
        assert check_comparison_in_f(spec, solve_active_set(spec).u, f2).passed


def test_linfty_dependence_constant_shift():
    op = make_op(n=12)
    rng = np.random.default_rng(9)
    psi1 = rng.normal(size=12)
    spec = ProblemSpec(op, psi1, np.zeros(12))
    report = check_linfty_dependence(spec, solve_active_set(spec).u, psi1 + 0.3)
    assert report.passed


def test_linfty_dependence_identical_obstacles():
    op = make_op(n=12)
    psi = np.random.default_rng(10).normal(size=12)
    spec = ProblemSpec(op, psi, np.zeros(12))
    report = check_linfty_dependence(spec, solve_active_set(spec).u, psi.copy())
    assert report.passed
    assert report.worst_violation <= 1e-9


def test_linfty_dependence_random_pairs():
    rng = np.random.default_rng(11)
    for seed in range(20):
        spec = random_instance(seed + 330, n=16)
        psi2 = spec.psi + rng.normal(size=16) * 0.7
        assert check_linfty_dependence(spec, solve_active_set(spec).u, psi2,
                                       tol=1e-8).passed


def test_linfty_dependence_fails_on_a_u_below_the_solution():
    # psi2 = psi: u2 is the solution, so only the negative side sees u - u2 < 0.
    spec = random_instance(335, n=12)
    u = solve_active_set(spec, PARAMS).u.copy()
    u[5] -= 1e-3
    report = check_linfty_dependence(spec, u, spec.psi.copy())
    assert not report.passed and report.worst_violation == pytest.approx(1e-3)


# --- sup-norm bounds ----------------------------------------------------------------

def test_bounds_constant_obstacle_pins_solution():
    op = make_op(n=10)
    spec = ProblemSpec(op, psi=np.ones(10), f=np.zeros(10))
    sol = solve_active_set(spec, PARAMS)
    np.testing.assert_allclose(sol.u, np.ones(10), atol=1e-12)
    assert check_bounds_cinfty(spec, sol.u).passed


def test_bounds_zero_forcing_sharp():
    for seed in range(20):
        spec = random_instance(seed + 340, n=12, zero_f=True)
        sol = solve_active_set(spec, PARAMS)
        report = check_bounds_cinfty(spec, sol.u, tol=1e-8)
        assert report.passed
        assert np.all(sol.u <= np.maximum(spec.psi, 0.0).max() + 1e-8)
        assert np.all(sol.u >= np.maximum(spec.psi, 0.0) - 1e-8)


def test_bounds_zero_forcing_fails_above_max_psi_plus():
    # Raised at one node, u stays above the lower bound; only the upper fails.
    spec = random_instance(341, n=12, zero_f=True)
    u = solve_active_set(spec, PARAMS).u.copy()
    u[int(np.argmax(u))] += 1e-3
    report = check_bounds_cinfty(spec, u, tol=1e-8)
    assert not report.passed and report.worst_violation == pytest.approx(1e-3)


def test_bounds_lower_dominates_omega_for_nonnegative_forcing():
    rng = np.random.default_rng(12)
    op = make_op(n=10)
    f = np.abs(rng.normal(size=10))
    spec = ProblemSpec(op, psi=rng.normal(size=10), f=f)
    sol = solve_active_set(spec, PARAMS)
    omega = solve_linear(op, f)
    assert np.all(sol.u >= omega - 1e-9)
    report = check_bounds_cinfty(spec, sol.u)
    assert report.passed and report.note == ""
    # The upper bound max psi^+ + A^{-1} f^+ holds, and is what fails above it.
    upper = np.maximum(spec.psi, 0.0).max() + omega
    assert np.all(sol.u <= upper)
    k = int(np.argmin(upper - sol.u))
    u = sol.u.copy()
    u[k] = upper[k] + 1e-6
    report = check_bounds_cinfty(spec, u)
    assert not report.passed and report.worst_index_or_sample == k
    assert report.worst_violation == pytest.approx(1e-6, rel=1e-6)


def test_bounds_upper_fails_above_max_psi_plus_under_negative_forcing():
    # The README bump, forcing -0.5: f^+ = 0, so u <= max psi^+ at every node.
    cfg = parse_config_text(readme_bump_config(512, 0.9))
    spec = cfg.build_problem()
    u = solve_active_set(spec, cfg.solver_params).u.copy()
    assert check_bounds_cinfty(spec, u).passed
    free = np.flatnonzero(u - spec.psi > cfg.solver_params.active_tol)
    k = int(free[len(free) // 4])
    u[k] = np.maximum(spec.psi, 0.0).max() + 1e-3
    report = check_bounds_cinfty(spec, u, tol=1e-8)
    assert not report.passed and report.worst_index_or_sample == k
    assert report.worst_violation == pytest.approx(1e-3, rel=1e-9)


@pytest.mark.parametrize("n", [511, 4095, 16383])
def test_bounds_upper_on_the_manufactured_instance(n):
    # f^+ reaches 3.8 to 4.5 here; the bound V = max psi^+ + A^{-1} f^+ sits
    # 0.37 to 0.38 above the instance's solution u* at its closest node.
    spec, u, _ = manufactured_instance(n, 0.9)
    upper = np.maximum(spec.psi, 0.0).max() + solve_linear(spec.op, np.maximum(spec.f, 0.0))
    assert np.maximum(spec.f, 0.0).max() > 3.0
    assert (upper - u).min() > 0.3
    assert check_bounds_cinfty(spec, u).passed
    k = int(np.argmin(upper - u))
    u = u.copy()
    u[k] = upper[k] + 1e-6
    report = check_bounds_cinfty(spec, u)
    assert not report.passed and report.worst_index_or_sample == k
    assert report.worst_violation == pytest.approx(1e-6, rel=1e-6)


# --- truncation identities -----------------------------------------------------------

def test_truncation_identities_sweep():
    report = check_truncation_identities(make_op(n=14, s=0.5), samples=500, seed=1)
    assert report.passed
    assert "min margin" in report.note


def test_truncation_identities_other_orders():
    for s in (0.25, 0.75):
        assert check_truncation_identities(make_op(n=10, s=s), samples=200,
                                           seed=2).passed


def test_truncation_identities_fail_without_strictness():
    # A diagonal A meets every inequality with equality, <A v^+, v^-> = 0,
    # up to the FFT matvec's roundoff (5.3e-15 here): only the strictness
    # condition can fail it.
    op = make_op(n=12, s=0.5)
    report = check_truncation_identities(
        dataclasses.replace(op, weights=np.zeros_like(op.weights)), samples=50, seed=4)
    assert abs(report.worst_violation) <= 64 * np.finfo(float).eps * op.diag
    assert not report.passed


def test_truncation_identities_five_matvecs_per_draw(monkeypatch):
    # Counts matvec rows: a (k, n) stack is k products, a vector one.
    op = make_op(n=300, s=0.5)
    rows = []
    apply = type(op).apply
    monkeypatch.setattr(type(op), "apply",
                        lambda self, v: rows.append(len(np.atleast_2d(v))) or apply(self, v))
    assert check_truncation_identities(op, samples=7, seed=3).passed
    assert sum(rows) == 5 * 7


def test_truncation_reports_are_bit_reproducible():
    op = make_op(n=9)
    r1 = check_truncation_identities(op, samples=50, seed=9)
    r2 = check_truncation_identities(op, samples=50, seed=9)
    assert r1 == r2


# --- convergence experiment -----------------------------------------------------------

def _plateau_problem(n=32):
    op = make_op(n=n, s=0.5)
    x = op.grid.nodes()
    psi = np.where((x >= 0.4) & (x <= 0.6), 0.5, -0.5)
    return op, psi


def test_convergence_zero_perturbation_gives_zero_errors():
    op, psi = _plateau_problem()
    report = run_obstacle_convergence(op, np.zeros(32), psi,
                                      deltas=[0.5, 0.25, 0.125],
                                      perturbation=np.zeros(32))
    assert report.sup_errors == (0.0, 0.0, 0.0)
    assert report.energy_errors == (0.0, 0.0, 0.0)
    assert report.monotone_flag


def test_convergence_constant_perturbation_obeys_sup_bound():
    op, psi = _plateau_problem()
    deltas = [2.0**-k for k in range(1, 11)]
    report = run_obstacle_convergence(op, np.zeros(32), psi, deltas=deltas,
                                      perturbation=np.ones(32))
    assert report.sup_bounds_ok
    for err, d in zip(report.sup_errors, deltas):
        assert err <= d + 1e-10


def test_convergence_bump_in_inactive_region():
    # perturbation supported away from the contact set: for small delta the
    # obstacle stays below the solution there and u_k == u exactly
    op, psi = _plateau_problem()
    x = op.grid.nodes()
    bump = np.maximum(0.0, 1.0 - ((x - 0.15) / 0.1) ** 2)
    deltas = [2.0**-k for k in range(1, 11)]
    report = run_obstacle_convergence(op, np.zeros(32), psi, deltas=deltas,
                                      perturbation=bump)
    assert report.passed
    assert report.energy_errors[-1] < 1e-6


def test_convergence_validates_schedule():
    op, psi = _plateau_problem()
    with pytest.raises(ValueError):
        run_obstacle_convergence(op, np.zeros(32), psi, deltas=[0.5, 0.25],
                                 perturbation=np.ones(32))
    with pytest.raises(ValueError):
        run_obstacle_convergence(op, np.zeros(32), psi, deltas=[0.5, 0.5, 0.25],
                                 perturbation=np.ones(32))
    with pytest.raises(ValueError):
        run_obstacle_convergence(op, np.zeros(32), psi, deltas=[0.5, 0.25, 0.0],
                                 perturbation=np.ones(32))


def test_convergence_report_validates_lengths():
    with pytest.raises(ValueError):
        ConvergenceReport(deltas=(1.0, 0.5), sup_errors=(0.0, 0.0),
                          energy_errors=(0.0, 0.0), sup_bounds=(1.0, 0.5),
                          monotone_flag=True, sup_bounds_ok=True,
                          energy_threshold=1e-6, passed=True)


# --- whole-suite sweep (spec invariant) -----------------------------------------------

def test_all_checkers_pass_on_oracle_solutions():
    rng = np.random.default_rng(99)
    count = 0
    for seed in range(100):
        spec, oracle = oracle_instance(seed + 1000)
        assert check_kkt(spec, oracle.u, tol=1e-8).passed
        assert check_lewy_stampacchia(spec, oracle.u, tol=1e-8).passed
        assert check_minty(spec, oracle.u, samples=50, tol=1e-8, seed=seed).passed
        assert check_smallest_supersolution(spec, oracle.u, samples=50,
                                            seed=seed).passed
        assert check_bounds_cinfty(spec, oracle.u, tol=1e-8).passed
        f2 = spec.f - np.abs(rng.normal(size=spec.n))
        assert check_comparison_in_f(spec, oracle.u, f2, tol=1e-8).passed
        psi2 = spec.psi + rng.normal(size=spec.n) * 0.5
        assert check_linfty_dependence(spec, oracle.u, psi2, tol=1e-8).passed
        count += 1
    assert count == 100


# --- mutation kill table -----------------------------------------------------------

GOLDEN_PG = (Path(__file__).parent / "data" / "golden_pg.cfg").read_text()
# Which single-solution checkers fail on each wrong candidate.  Sharper
# sampling in minty or smallest_supersolution must edit this table.
KILLS = {"kkt": True, "lewy_stampacchia": True, "minty": False,
         "smallest_supersolution": False, "bounds_cinfty": False}


def solution_mutants(spec, u, active_tol):
    """The exact u and four wrong candidates, each more than 1e-3 away."""
    psi = spec.psi
    free = u - psi > active_tol
    return {
        "exact": u,
        "u+1e-2": np.maximum(psi, np.where(free, u + 1e-2, u)),
        "u-1e-2": np.maximum(psi, np.where(free, u - 1e-2, u)),
        "1.1u": np.where(free, 1.1 * u, u),
        "psi+": spec.default_start(),
    }


def single_solution_reports(cfg, spec, v):
    tol, samples, seed = cfg.verify_tol, cfg.verify_samples, cfg.seed
    return [
        check_kkt(spec, v, tol=tol),
        check_lewy_stampacchia(spec, v, tol=tol),
        check_minty(spec, v, samples=samples, tol=tol, seed=seed + 1),
        check_smallest_supersolution(spec, v, samples=samples, seed=seed + 2, tol=tol),
        check_bounds_cinfty(spec, v, tol=tol),
    ]


@pytest.mark.parametrize("n", [12, 300])
def test_single_solution_checkers_kill_table(n):
    cfg = parse_config_text(GOLDEN_PG)
    spec = cfg.build_problem(n=n)
    u = solve_active_set(spec, cfg.solver_params).u
    for name, v in solution_mutants(spec, u, cfg.solver_params.active_tol).items():
        assert name == "exact" or np.abs(v - u).max() > 1e-3
        reports = single_solution_reports(cfg, spec, v)
        killed = {r.check_id: not r.passed for r in reports}
        expected = {c: name != "exact" and kills for c, kills in KILLS.items()}
        assert killed == expected, name
        assert not any(r.inconclusive for r in reports)


@pytest.mark.parametrize("n", [12, 300])
def test_verify_exits_4_on_every_solution_mutant(tmp_path, monkeypatch, n):
    """The whole verify run, handed each candidate as its main solve."""
    text = GOLDEN_PG.replace("grid.n = 300", f"grid.n = {n}")
    cfg = parse_config_text(text)
    spec = cfg.build_problem()
    u = solve_active_set(spec, cfg.solver_params).u
    path, out = tmp_path / "run.cfg", tmp_path / "out.json"
    path.write_text(text)
    for name, v in solution_mutants(spec, u, cfg.solver_params.active_tol).items():
        monkeypatch.setattr(cli, "run_single", lambda spec, method, params, pparams: (
            make_solution(spec, v, 1, "pg", True, params), None))
        code = cli.main(["verify", "--config", str(path), "--out", str(out)])
        failed = {r["check_id"] for r in json.loads(out.read_text())["reports"]
                  if not r["passed"]}
        if name == "exact":
            assert (code, failed) == (0, set())
        else:
            assert code == 4 and {"kkt", "lewy_stampacchia"} <= failed, name


# Which checkers fail when they are handed a wrong operator together with
# the solution of the true one.  Every theorem holds for any M-matrix, so
# only the residual checks see the wrong operator.
OPERATOR_KILLS = {"kkt": True, "lewy_stampacchia": True, "minty": False,
                  "smallest_supersolution": False, "bounds_cinfty": False,
                  "truncation_identities": False}


@pytest.mark.parametrize("n", [12, 300])
def test_operator_mutant_kill_table(n):
    cfg = parse_config_text(GOLDEN_PG)
    spec = cfg.build_problem(n=n)
    op = spec.op
    u = solve_active_set(spec, cfg.solver_params).u
    mutants = {
        "s+0.05": assemble_operator(op.grid, op.s + 0.05),
        "D-2tail(n)": dataclasses.replace(op, diag=op.diag - 2.0 * op.tail(n)),
        "1.01A": dataclasses.replace(op, diag=1.01 * op.diag, weights=1.01 * op.weights),
    }
    for name, mutant in mutants.items():
        reports = single_solution_reports(cfg, ProblemSpec(mutant, spec.psi, spec.f), u)
        reports.append(check_truncation_identities(mutant, samples=cfg.verify_samples,
                                                   seed=cfg.seed + 3))
        killed = {r.check_id: not r.passed for r in reports}
        assert killed == OPERATOR_KILLS, name


# --- large n: the matrix-free active set -----------------------------------------------

@settings(max_examples=10, deadline=None, derandomize=True)
@given(n=st.integers(min_value=1024, max_value=2048),
       s=st.floats(min_value=0.05, max_value=0.8),
       c=st.floats(min_value=-1.0, max_value=0.2),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_large_n_active_set_meets_kkt_and_checkers(n, s, c, seed):
    """The active set solves its free blocks by Strang-preconditioned CG;
    here its solutions meet the solver's KKT tol and pass the
    Lewy-Stampacchia and comparison checkers at their defaults.

    The range stops at s = 0.8 and n = 2048 because the solver's tol is
    absolute: matvec roundoff grows like D ||u||_inf eps, and at s = 0.9, or
    at n = 4096 with s >= 0.75, the KKT violation of a correct solution
    reaches 2e-10 to 3e-9.  Even in this range the corner n = 2048, s = 0.8
    reads 4e-11 to 9.4e-11, where the FFT matvec's own roundoff (3e-10
    against the dense product) sets the floor; the examples are derandomized so
    that each run tests the same instances.  check_kkt decides against the
    roundoff floor 64 eps D max(1, ||u||_inf) where that exceeds its tol
    (2.9e-9 at n = 2048, s = 0.8), so the solver's tol is asserted on
    kkt_violation itself.
    """
    rng = np.random.default_rng(seed)
    op = make_op(n=n, s=s)
    x = op.grid.nodes()
    psi = 0.5 - 8.0 * (x - 0.5) ** 2
    for k, a in enumerate(rng.normal(size=4) * 0.02, start=1):
        psi += a / k * np.sin(k * np.pi * x)
    f = np.full(n, c)
    spec = ProblemSpec(op, psi, f)
    sol = solve_active_set(spec)
    assert sol.solver_id == "active_set"
    assert kkt_violation(spec, sol.u)[0] <= SolverParams().tol
    assert check_kkt(spec, sol.u, tol=SolverParams().tol).passed
    assert check_lewy_stampacchia(spec, sol.u).passed
    f2 = f - np.abs(rng.normal(size=n)) * 0.5
    assert check_comparison_in_f(spec, sol.u, f2).passed


@settings(max_examples=3, deadline=None)
@given(n=st.sampled_from([4096, 8192]),
       s=st.floats(min_value=0.9, max_value=0.95),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_active_set_at_n4096_and_above_passes_the_checkers(n, s, seed):
    """The README bump, perturbed as above, at sizes whose 2n is 5-smooth
    and s near 1; each instance takes 0.4 to 1.8 s on a 2-core x86-64 box at
    one BLAS thread.  The KKT violation reads 6.7e-10 to 5.6e-9 there,
    above the solver's absolute tol of 1e-10, so only the checkers are
    asserted, at their defaults: check_kkt
    and check_lewy_stampacchia decide against the roundoff floor
    64 eps D max(1, ||u||_inf), 2.9e-8 to 1.4e-7 at these sizes, which the
    violations stay 25 to 51 times below.
    """
    rng = np.random.default_rng(seed)
    op = make_op(n=n, s=s)
    x = op.grid.nodes()
    psi = 0.5 - 8.0 * (x - 0.5) ** 2
    for k, a in enumerate(rng.normal(size=4) * 0.02, start=1):
        psi += a / k * np.sin(k * np.pi * x)
    f = np.full(n, -0.5)
    spec = ProblemSpec(op, psi, f)
    sol = solve_active_set(spec)
    assert sol.converged
    for check in (check_kkt, check_lewy_stampacchia, check_bounds_cinfty):
        assert check(spec, sol.u).passed, check.__name__
    f2 = f - np.abs(rng.normal(size=n)) * 0.5
    assert check_comparison_in_f(spec, sol.u, f2).passed


def test_residual_checkers_hold_to_the_roundoff_of_a_large_operator():
    """At n = 16383, s = 0.9 the active set solves the manufactured instance
    to 1.3e-14, yet matvec roundoff puts its KKT and Lewy-Stampacchia
    violations between 1.4e-8 and 1.8e-8, above verify.tol = 1e-8.  Both checks
    decide against max(tol, 64 eps D max(1, ||u||_inf)) = 3.49e-7 and record
    it; a u lowered by 1e-6 at one free node, a dual violation of D 1e-6 =
    25, still fails both."""
    spec, exact, contact = manufactured_instance(16383, 0.9)
    u = solve_active_set(spec).u
    assert np.abs(u - exact).max() <= 1e-12
    floor = 64.0 * np.finfo(float).eps * spec.op.diag  # ||u||_inf < 1
    for check in (check_kkt, check_lewy_stampacchia):
        report = check(spec, u, tol=1e-8)
        assert report.passed and 1e-8 < report.worst_violation, check.__name__
        assert report.tol == roundoff_tol(spec.op, u, 1e-8) == pytest.approx(floor)
    lowered = u.copy()
    lowered[int(np.flatnonzero(~contact)[0])] -= 1e-6
    for check in (check_kkt, check_lewy_stampacchia):
        assert not check(spec, lowered, tol=1e-8).passed, check.__name__
