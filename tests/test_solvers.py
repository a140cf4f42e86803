import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracobstacle import (
    IterationLimitError,
    OracleAmbiguityError,
    PenaltyParams,
    ProblemSpec,
    Solution,
    SolverError,
    SolverParams,
    brute_force_oracle,
    check_lewy_stampacchia,
    check_smallest_supersolution,
    kkt_violation,
    make_solution,
    solve_active_set,
    solve_linear,
    solve_penalty,
    solve_projected_gradient,
    solve_psor,
    solvers,
)
import fracobstacle
from fracobstacle import operator, verify
from fracobstacle.cli import main
from fracobstacle.config import parse_config_text

from conftest import (count_active_set_calls, lower_one_free_value, make_op,
                      manufactured_instance, oracle_instance, random_instance,
                      readme_bump_config)

PARAMS = SolverParams(tol=1e-10)
# The message of a conjugate-gradient solve that runs out of PCG_MAX_ITER = 1.
PCG_FAIL = ("preconditioned conjugate gradients did not reach relative residual 1e-15 "
            "within 1 iterations")


def assert_reports_best_violation(exc, spec):
    """The give-up message ends with the KKT violation of the best iterate."""
    viol = kkt_violation(spec, exc.value.best.u)[0]
    assert str(exc.value).endswith(f"(violation {viol:.3e})")
    return viol


def assert_solution_invariants(spec, sol, tol):
    gap = sol.u - spec.psi
    assert np.all(gap >= -tol)
    assert np.all(sol.residual >= -tol)
    assert np.all(sol.residual * gap <= tol * (1.0 + np.abs(sol.residual)))


def looped_kkt_violation(spec, u, residual):
    """Reference for kkt_violation: each part's own argmax, kept when it beats
    the earlier parts' maximum, and a NaN ends the search."""
    gap = u - spec.psi
    value, index = -math.inf, 0
    for part in (-gap, -residual, residual * gap / (1.0 + np.abs(residual))):
        i = int(part.argmax())
        if part[i] > value or math.isnan(part[i]):
            value, index = float(part[i]), i
            if math.isnan(value):
                break
    return value, index


# Few distinct values, so that ties within and across the parts are common.
KKT_VALUES = st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0])


def draw_kkt_instance(data, n):
    """A spec, an iterate u and a residual r drawn from KKT_VALUES, with NaN
    and infinities seeded into u and r."""
    vectors = st.lists(KKT_VALUES | st.floats(-3.0, 3.0), min_size=n, max_size=n)
    psi, u, r = (np.array(data.draw(vectors)) for _ in range(3))
    for v in (u, r):
        for i in data.draw(st.lists(st.integers(0, n - 1), max_size=2)):
            v[i] = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    return ProblemSpec(make_op(n=n), psi, np.zeros(n)), u, r


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(min_value=1, max_value=12))
def test_kkt_violation_matches_looped_reference(data, n):
    spec, u, r = draw_kkt_instance(data, n)
    with np.errstate(invalid="ignore"):
        got = kkt_violation(spec, u, residual=r)
        want = looped_kkt_violation(spec, u, r)
    assert got[1] == want[1]
    assert np.array(got[0]).tobytes() == np.array(want[0]).tobytes()  # -0.0, NaN too


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(min_value=1, max_value=12),
       tol=st.sampled_from([1e-10, 0.5, 1.0, 2.0]))
def test_screened_stop_test_matches_kkt_violation(data, n, tol):
    # tol on the drawn values, so that r_i = -tol ties the screen's bound
    spec, u, r = draw_kkt_instance(data, n)
    with np.errstate(invalid="ignore"):
        assert solvers._kkt_met(spec, u, r, tol) == (kkt_violation(spec, u, r)[0] <= tol)


@pytest.mark.parametrize("r, met", [
    ([-0.5, 0.0], True),  # r_0 = -tol: the violation equals tol
    ([np.nextafter(-0.5, -1.0), 0.0], False),
    ([-0.0, 0.0], True),
    ([math.nan, 0.0], False),
    ([math.nan, -1.0], False),
    ([-math.inf, 0.0], False),
])
def test_screened_stop_test_at_its_bound(r, met):
    spec = ProblemSpec(make_op(n=2), np.zeros(2), np.zeros(2))
    with np.errstate(invalid="ignore"):
        assert solvers._kkt_met(spec, np.zeros(2), np.array(r), 0.5) is met


# --- parameter validation ------------------------------------------------------

@pytest.mark.parametrize("kwargs", [
    {"tol": 0.0}, {"tol": -1e-3}, {"relaxation": 0.0}, {"relaxation": 2.0},
    {"max_iter": 0}, {"active_tol": 0.0},
])
def test_solver_params_validation(kwargs):
    with pytest.raises(ValueError):
        SolverParams(**kwargs)


@pytest.mark.parametrize("kwargs", [
    {"epsilon": 0.0}, {"epsilon": -1.0}, {"epsilon": math.nan},
    {"max_outer": 0},
])
def test_penalty_params_validation(kwargs):
    with pytest.raises(ValueError):
        PenaltyParams(**kwargs)


@pytest.mark.parametrize("eps", [1e-3, 1e-2, 0.5])
def test_penalty_theta_is_cubic_smoothstep(eps):
    params = PenaltyParams(epsilon=eps)
    assert params.theta(0.0) == 1.0 and params.theta(eps) == 0.0
    vals = params.theta(np.linspace(-eps, 2.0 * eps, 1001))
    assert vals.min() >= 0.0 and vals.max() <= 1.0
    assert np.all(np.diff(vals) <= 0.0)
    # slope is -theta': a central difference of theta, vanishing outside (0, eps)
    t = np.linspace(-eps, 2.0 * eps, 301)
    h = 1e-6 * eps
    slope = params.slope(t)
    central = (params.theta(t - h) - params.theta(t + h)) / (2.0 * h)
    assert slope.min() >= 0.0 and slope.max() <= 1.5 / eps
    np.testing.assert_allclose(slope, central, rtol=0.0, atol=1e-5 / eps)
    assert np.all(slope[(t <= 0.0) | (t >= eps)] == 0.0)


def test_problem_spec_validation():
    op = make_op(n=4)
    with pytest.raises(ValueError):
        ProblemSpec(op, psi=np.zeros(5), f=np.zeros(4))
    with pytest.raises(ValueError, match="obstacle values must be finite"):
        ProblemSpec(op, psi=np.full(4, np.nan), f=np.zeros(4))
    # The CLI's only finiteness check on preset values: an overflowing preset
    # reaches it as an inf.
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="forcing values must be finite"):
            ProblemSpec(op, psi=np.zeros(4), f=np.array([0.0, bad, 0.0, 0.0]))
    spec = ProblemSpec(op, psi=-np.ones(4), f=np.zeros(4))
    assert np.all(spec.default_start() >= spec.psi)
    np.testing.assert_array_equal(spec.default_start(), np.zeros(4))


@pytest.mark.parametrize("b", [1.0, 1e6])  # D = 6.4, and D = 6.4e-6 < 1
@pytest.mark.parametrize("family", ["psi", "f"])
def test_problem_spec_refuses_data_whose_products_overflow(family, b):
    # 256 n max(1, D) M^2 must stay finite; at n = 4 on (0, 1) it is 6.5e303
    # for M = 1e150 and overflows for M = 1e153.  Off (0, 1) D < 1, and the
    # draws' own squares v.v decide; f counts through ||A^{-1}||_inf.
    op = make_op(n=4, b=b)
    tail = 2.0 * float(op.tail(4))
    for value, refused in ((1e150, False), (1e153, True)):
        data = {"psi": np.zeros(4), "f": np.zeros(4)}
        data[family] = np.full(4, value * (tail if family == "f" else 1.0))
        if refused:
            with pytest.raises(ValueError, match="obstacle and forcing too large"):
                ProblemSpec(op, **data)
        else:
            ProblemSpec(op, **data)


# --- linear solve ---------------------------------------------------------------

def test_solve_linear_zero_rhs():
    op = make_op(n=9)
    np.testing.assert_array_equal(solve_linear(op, np.zeros(9)), np.zeros(9))


def test_solve_linear_single_node_closed_form():
    # one interior node on (0, 1): h = 0.5, D = 8/pi, so A w = 1 gives pi/8
    op = make_op(n=1, s=0.5, a=0.0, b=1.0)
    w = solve_linear(op, np.ones(1))
    assert w[0] == pytest.approx(math.pi / 8.0, rel=1e-14)


def test_solve_linear_inverse_positivity():
    # weak maximum principle: f >= 0 implies A^{-1} f >= 0
    rng = np.random.default_rng(11)
    for n in (20, 600):
        op = make_op(n=n, s=0.35)
        for _ in range(100):
            f = np.abs(rng.normal(size=n))
            assert np.all(solve_linear(op, f) >= 0)


@pytest.mark.parametrize("n, s, seed, bound", [
    pytest.param(40, 0.6, 12, 1e-10, id="n40-s0.6"),
    pytest.param(600, 0.5, 13, 1e-9, id="n600-s0.5"),
])
def test_solve_linear_residual_tolerance(n, s, seed, bound):
    rng = np.random.default_rng(seed)
    op = make_op(n=n, s=s)
    f = rng.normal(size=n)
    w = solve_linear(op, f)
    assert np.linalg.norm(op.apply(w) - f) <= bound * np.linalg.norm(f)


def test_solve_linear_gives_up_with_a_plain_solver_error(monkeypatch):
    # The inverse generators' conjugate gradients keep no iterate when they
    # give up: theirs approximates A^{-1} e_0, which answers no A w = f.
    monkeypatch.setattr(operator, "PCG_MAX_ITER", 1)
    with pytest.raises(SolverError, match=f"^{PCG_FAIL}$") as exc:
        solve_linear(make_op(n=32), np.ones(32))
    assert type(exc.value) is SolverError


def test_solve_linear_is_one_function_of_the_operator_module():
    # The package, solvers and verify share the operator module's one
    # solve_linear, and the generators it reads stay private.
    assert (fracobstacle.solve_linear is operator.solve_linear is solvers.solve_linear
            is verify.solve_linear)
    assert not hasattr(operator.FracLapOperator, "inverse_generators")


def test_inverse_generators_computed_once_per_operator(monkeypatch):
    # Counts the conjugate-gradient solves of the operator module: the
    # inverse generators' A x = e_0.  The active set's free blocks call the
    # name bound in solvers, and are not counted.
    calls, real_pcg = [], operator._pcg

    def counting_pcg(*args):
        calls.append(1)
        return real_pcg(*args)

    monkeypatch.setattr(operator, "_pcg", counting_pcg)
    spec = random_instance(21, n=32, s=0.5)
    u = solve_active_set(spec, PARAMS).u
    check_lewy_stampacchia(spec, u)
    check_smallest_supersolution(spec, u, samples=20)
    solve_penalty(spec, PenaltyParams(epsilon=1e-2), PARAMS)  # its reduction solves A w = f
    assert len(calls) == 1


@pytest.mark.parametrize("n", [1, 2, 3, 12, 100, 511, 512])
@pytest.mark.parametrize("s", [0.05, 0.25, 0.5, 0.9, 0.95])
def test_solve_linear_matches_dense_solve(n, s):
    # The Gohberg-Semencul solve against LAPACK's on the dense matrix; the
    # largest relative error measured on this grid is 2.8e-12.
    op = make_op(n=n, s=s)
    f = np.random.default_rng(n).normal(size=n)
    f_before = f.copy()
    w = solve_linear(op, f)
    want = np.linalg.solve(op.dense(), f)
    assert np.abs(w - want).max() <= 1e-11 * np.abs(want).max()
    assert f.tobytes() == f_before.tobytes()


def test_solve_linear_rejects_nonfinite():
    op = make_op(n=3)
    with pytest.raises(ValueError):
        solve_linear(op, np.array([1.0, np.inf, 0.0]))


# --- the spec's derived data: shift = A^{-1} f and the Lewy-Stampacchia bound ----------

def test_reduction_identity_for_zero_forcing():
    spec = random_instance(21, zero_f=True)
    np.testing.assert_array_equal(spec.shift, np.zeros(spec.n))
    np.testing.assert_array_equal(spec.psi - spec.shift, spec.psi)


def test_reduction_obstacle_equal_to_shift():
    op = make_op(n=8)
    f = np.random.default_rng(22).normal(size=8)
    spec = ProblemSpec(op, psi=solve_linear(op, f), f=f)
    assert np.abs(spec.psi - spec.shift).max() <= 1e-12


def test_reduction_self_consistency():
    for seed in range(5):
        spec = random_instance(seed + 30)
        direct = solve_psor(spec, PARAMS)
        reduced_spec = ProblemSpec(spec.op, psi=spec.psi - spec.shift, f=np.zeros(spec.n))
        via_reduction = solve_psor(reduced_spec, PARAMS).u + spec.shift
        assert np.abs(direct.u - via_reduction).max() <= 10 * PARAMS.tol


@pytest.mark.parametrize("zero_f", [False, True])
def test_shift_and_ls_bound_are_read_only_and_computed_once(zero_f, monkeypatch):
    spec = random_instance(23, n=64, s=0.5, zero_f=zero_f)
    calls = []
    real = solvers.solve_linear
    monkeypatch.setattr(solvers, "solve_linear",
                        lambda op, f: calls.append(f) or real(op, f))
    w, bound = spec.shift, spec.ls_bound
    assert spec.shift is w and spec.ls_bound is bound and len(calls) == 1
    assert calls[0] is spec.f
    monkeypatch.undo()
    assert w.tobytes() == solve_linear(spec.op, spec.f).tobytes()
    expected = np.maximum(spec.op.apply(np.maximum(spec.psi - w, 0.0)), 0.0)
    assert bound.tobytes() == expected.tobytes()
    for array in (w, bound):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0


def test_spec_keeps_read_only_copies_of_its_data():
    # A caller's later write to its own arrays cannot make shift and ls_bound stale.
    op = make_op(n=12)
    psi, f = np.full(12, 0.3), np.full(12, -0.5)
    spec = ProblemSpec(op, psi=psi, f=f)
    w, bound = spec.shift.copy(), spec.ls_bound.copy()
    psi[:] = 9.0
    f[:] = 9.0
    assert (spec.psi == 0.3).all() and (spec.f == -0.5).all()
    assert spec.shift.tobytes() == w.tobytes() and spec.ls_bound.tobytes() == bound.tobytes()
    for array in (spec.psi, spec.f):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0


# --- PSOR -----------------------------------------------------------------------

def test_psor_nonpositive_obstacle_zero_forcing():
    op = make_op(n=12)
    spec = ProblemSpec(op, psi=-np.abs(np.random.default_rng(1).normal(size=12)),
                       f=np.zeros(12))
    sol = solve_psor(spec, PARAMS)
    np.testing.assert_array_equal(sol.u, np.zeros(12))
    assert sol.converged and sol.active_set.size == 0


def test_psor_constant_obstacle_fully_active():
    op = make_op(n=12)
    spec = ProblemSpec(op, psi=np.ones(12), f=np.zeros(12))
    sol = solve_psor(spec, PARAMS)
    np.testing.assert_array_equal(sol.u, np.ones(12))
    assert set(sol.active_set) == set(range(12))


def test_psor_matches_oracle():
    for seed in range(10):
        spec, oracle = oracle_instance(seed, n=10)
        sol = solve_psor(spec, PARAMS)
        assert np.abs(sol.u - oracle.u).max() <= 10 * PARAMS.tol
        assert_solution_invariants(spec, sol, PARAMS.tol)


def test_psor_single_sweep_matches_literal_update_formula():
    # reference: the componentwise update written out exactly as documented
    spec = random_instance(77, n=9)
    params = SolverParams(tol=1e-14, max_iter=1, relaxation=1.5)
    op, psi, f = spec.op, spec.psi, spec.f
    D, omega = op.diag, params.relaxation
    A = op.dense()
    u = spec.default_start()
    for i in range(9):
        offdiag = A[i] @ u - D * u[i]
        gs = (1.0 - omega) * u[i] + (omega / D) * (f[i] - offdiag)
        u[i] = max(psi[i], gs)
    with pytest.raises(IterationLimitError) as exc:
        solve_psor(spec, params)
    np.testing.assert_allclose(exc.value.best.u, u, rtol=0, atol=1e-15)


def test_psor_iteration_limit_carries_best_iterate():
    spec = random_instance(5, n=10)
    with pytest.raises(IterationLimitError) as exc:
        solve_psor(spec, SolverParams(tol=1e-12, max_iter=2))
    best = exc.value.best
    assert best.converged is False
    assert best.u.shape == (10,)
    assert assert_reports_best_violation(exc, spec) > 0


# --- projected gradient ---------------------------------------------------------

def test_projected_gradient_trivial_zero():
    op = make_op(n=10)
    spec = ProblemSpec(op, psi=-np.ones(10), f=np.zeros(10))
    sol = solve_projected_gradient(spec, PARAMS)
    np.testing.assert_array_equal(sol.u, np.zeros(10))


def assert_energy_descent(n, steps):
    # the energies of the real iterates: u_0, then u_k for each k in steps,
    # from the give-up record of a run with max_iter = k
    params = lambda k: SolverParams(tol=1e-14, max_iter=k)
    for seed in range(5):
        spec = random_instance(seed + 50, n=n)
        energies = [spec.op.energy(spec.default_start(), spec.f)]
        for k in steps:
            with pytest.raises(IterationLimitError) as exc:
                solve_projected_gradient(spec, params(k))
            energies.append(spec.op.energy(exc.value.best.u, spec.f))
        assert np.all(np.diff(energies) <= 1e-12 * (1.0 + abs(energies[0])))


def test_projected_gradient_energy_descent():
    assert_energy_descent(None, range(1, 31))


def test_projected_gradient_energy_descent_on_the_fft_path():
    assert_energy_descent(600, (10, 50, 200))


def test_projected_gradient_matches_psor():
    for seed in range(5):
        spec = random_instance(seed + 60, n=10)
        pg = solve_projected_gradient(spec, PARAMS)
        ps = solve_psor(spec, PARAMS)
        assert np.abs(pg.u - ps.u).max() <= 10 * PARAMS.tol
        assert_solution_invariants(spec, pg, PARAMS.tol)


def mfista_steps(spec, k):
    """k steps of projected gradient's update, written out operation for
    operation: the last accepted iterate, and how many steps were rejected
    and how many restarted."""
    op, psi, f = spec.op, spec.psi, spec.f
    eta, eps = 1.0 / op.lambda_max_bound(), np.finfo(float).eps
    x = spec.default_start()
    ax = op.apply(x)
    jx = 0.5 * np.dot(x, ax) - np.dot(f, x)
    y, ay, t = x, ax, 1.0
    rejected = restarted = 0
    for _ in range(k):
        z = np.maximum(psi, y - eta * (ay - f))
        az = op.apply(z)
        quad, lin = 0.5 * np.dot(z, az), np.dot(f, z)
        restart = np.dot(y - z, z - x) > 0.0
        x_old, ax_old = x, ax
        if quad - lin <= jx + eps * (abs(quad) + abs(lin)):
            x, ax, jx = z, az, quad - lin
        else:
            rejected += 1
        if restart:
            y, ay, t = x, ax, 1.0
            restarted += 1
            continue
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        a, b = t / t_next, (t - 1.0) / t_next
        y = x + a * (z - x) + b * (x - x_old)
        ay = ax + a * (az - ax) + b * (ax - ax_old)
        t = t_next
    return x, rejected, restarted


@pytest.mark.parametrize("k", [1, 5, 50])
def test_projected_gradient_iteration_limit_carries_last_checked_iterate(k):
    # the failure record is the last accepted iterate, the one the stop test
    # judged last; by k = 50 the run has restarted and rejected a step
    spec = random_instance(61, n=10)
    u, rejected, restarted = mfista_steps(spec, k)
    assert k < 50 or (rejected and restarted)
    with pytest.raises(IterationLimitError) as exc:
        solve_projected_gradient(spec, SolverParams(tol=1e-14, max_iter=k))
    best = exc.value.best
    assert best.iterations == k
    assert best.u.tobytes() == u.tobytes()
    assert_reports_best_violation(exc, spec)


# --- active set ------------------------------------------------------------------

def test_active_set_fully_active_after_first_pass():
    op = make_op(n=12)
    spec = ProblemSpec(op, psi=np.ones(12), f=np.zeros(12))
    sol = solve_active_set(spec, PARAMS)
    np.testing.assert_array_equal(sol.u, np.ones(12))
    assert sol.iterations <= 3
    assert sol.solver_id == "active_set"


def test_active_set_empty_iterate():
    op = make_op(n=12)
    spec = ProblemSpec(op, psi=-np.ones(12), f=np.zeros(12))
    sol = solve_active_set(spec, PARAMS)
    np.testing.assert_array_equal(sol.u, np.zeros(12))
    assert sol.active_set.size == 0


def test_active_set_exact_match_with_oracle():
    for seed in range(10):
        spec, oracle = oracle_instance(seed + 70, n=12)
        sol = solve_active_set(spec, PARAMS)
        assert np.abs(sol.u - oracle.u).max() <= 1e-10
        assert_solution_invariants(spec, sol, 1e-10)


def bump_instance(n, s):
    op = make_op(n=n, s=s)
    x = op.grid.nodes()
    return ProblemSpec(op, psi=0.5 - 8.0 * (x - 0.5) ** 2, f=np.full(n, -0.5))


@pytest.mark.parametrize("s", [0.25, 0.5])
def test_active_set_matrix_free_agrees_with_psor(s):
    # n = 600: the free blocks on a second FFT length
    spec = bump_instance(600, s)
    sol = solve_active_set(spec, PARAMS)
    assert sol.solver_id == "active_set" and sol.converged
    assert np.abs(sol.u - solve_psor(spec, PARAMS).u).max() <= 1e-8
    assert kkt_violation(spec, sol.u)[0] <= PARAMS.tol


@pytest.mark.parametrize("s", [0.5, 0.9])
@pytest.mark.parametrize("n", [511, 4095])
def test_active_set_recovers_manufactured_solution(n, s, monkeypatch):
    # Counts the free-block matvecs through _pcg, warm-start checks
    # included: 35 (s = 0.5) and 53 (s = 0.9) at n = 511, 52 and 64 at
    # n = 4095.  An identity preconditioner takes 14169 at n = 4095,
    # s = 0.5 and runs out of PCG_MAX_ITER at s = 0.9.
    rows, real_pcg = [], solvers._pcg

    def counting_pcg(matvec, precondition, *args):
        return real_pcg(lambda x: rows.append(1) or matvec(x), precondition, *args)

    monkeypatch.setattr(solvers, "_pcg", counting_pcg)
    spec, u_star, contact = manufactured_instance(n, s)
    sol = solve_active_set(spec)
    assert sol.converged
    np.testing.assert_array_equal(sol.active_set, np.flatnonzero(contact))
    assert np.abs(sol.u - u_star).max() <= 1e-12
    assert 0 < len(rows) <= 80


def test_active_set_iteration_limit_carries_best_iterate():
    spec = bump_instance(600, 0.5)
    with pytest.raises(IterationLimitError, match="active set") as exc:
        solve_active_set(spec, SolverParams(max_iter=2))
    best = exc.value.best
    assert not best.converged and best.solver_id == "active_set"
    assert assert_reports_best_violation(exc, spec) > PARAMS.tol


def test_active_set_gives_up_when_a_free_block_solve_runs_out(monkeypatch):
    # Pass 1's conjugate gradients run out of their budget: the active set
    # gives up with its start psi as an unconverged Solution of no passes.
    monkeypatch.setattr(operator, "PCG_MAX_ITER", 1)
    spec = bump_instance(64, 0.5)
    with pytest.raises(IterationLimitError,
                       match=rf"^active set pass 1: {PCG_FAIL} \(violation ") as exc:
        solve_active_set(spec, PARAMS)
    best = exc.value.best
    assert isinstance(best, Solution) and not best.converged
    assert best.solver_id == "active_set" and best.iterations == 0
    assert best.u.tobytes() == spec.psi.tobytes()
    assert_reports_best_violation(exc, spec)


@pytest.mark.parametrize("n", [12, 600])
def test_active_set_final_gate_refuses_a_settled_pass_with_negative_free_residual(
        monkeypatch, n):
    # The classification tests only active nodes for r < 0: the lowered free
    # node passes it with r_i about -1e-9 D, and only the gate catches it.
    iterates = lower_one_free_value(monkeypatch)
    spec = bump_instance(n, 0.5)
    with pytest.raises(IterationLimitError, match="settled at pass .* above its gate") as exc:
        solve_active_set(spec, PARAMS)
    best = exc.value.best
    assert not best.converged and best.solver_id == "active_set"
    assert best.iterations == len(iterates)
    assert best.u.tobytes() == iterates[-1].tobytes()
    assert -best.residual.min() > PARAMS.tol
    assert_reports_best_violation(exc, spec)


def test_active_set_final_gate_is_the_larger_of_tol_and_roundoff():
    spec = bump_instance(512, 0.9)
    sol = solve_active_set(spec, PARAMS)
    part = np.maximum(spec.psi - sol.u, -sol.residual).max()
    roundoff = np.finfo(float).eps * spec.op.diag * max(1.0, np.abs(sol.u).max())
    assert sol.converged and part <= max(PARAMS.tol, solvers._GATE_ROUNDOFF * roundoff)
    # A tol far below roundoff is met by the roundoff term alone.
    assert solve_active_set(spec, SolverParams(tol=1e-300)).u.tobytes() == sol.u.tobytes()


def test_active_set_final_gate_scales_with_the_solution():
    # The plateau at c = 1e100: its dual part is 2.5e86, roundoff of r at
    # 0.87 eps D ||u||_inf, so the gate passes it.  Its complementarity part
    # reads about 1.8e100 and is not gated (its 1 + |r| is not scaled).
    op = make_op(n=100, s=0.5)
    x = op.grid.nodes()
    psi = np.where((x >= 0.3) & (x <= 0.7), 1e100, -1e100)
    spec = ProblemSpec(op, psi, np.zeros(100))
    sol = solve_active_set(spec, PARAMS)
    assert sol.converged and -sol.residual.min() > 1e86
    assert kkt_violation(spec, sol.u, sol.residual)[0] > 1e99


def near_obstacle_instance(n, s, delta, released):
    """A problem whose active set turns on a gap of size delta; returns
    (spec, its solution).

    f = -0.5, A w = f and psi = w - 1, but at node i = n // 2 + 2.  There
    (released=False) psi_i = w_i + delta: pass 1 (all free) must make i
    active, and pass 2 settles.  Or (released=True) psi_j = w_j + 1 at
    j = n // 2, and psi_i lies delta below v_i, v the solution pinned at j
    alone: pass 1 makes i and j active, pass 2 pins i with r_i of about
    -delta D, and pass 3 must release it.
    """
    op = make_op(n=n, s=s)
    f = np.full(n, -0.5)
    w = solve_linear(op, f)
    j, i = n // 2, n // 2 + 2
    psi, free = w - 1.0, np.ones(n, bool)
    if released:
        psi[j] = w[j] + 1.0
        free[j] = False
        psi[i] = solvers._solve_free_block(op, free, psi, f, psi)[i] - delta
    else:
        psi[i] = w[i] + delta
        free[i] = False
    return ProblemSpec(op, psi, f), solvers._solve_free_block(op, free, psi, f, psi)


@pytest.mark.parametrize("released, delta", [(False, 5e-10), (True, 1e-9)])
def test_active_set_classifies_a_node_delta_past_the_obstacle(released, delta):
    # The gap of 5e-10 below psi (pass 1) and the r_i of -1.1e-8 (pass 2)
    # both exceed the classification slop (about 3e-12) and PARAMS.tol, so
    # each must change the active set.  A slop of 1e-9 would accept the
    # gap, a dual test at r < -1e-6 the residual: either settles one pass
    # early, and the final gate raises.
    spec, u_star = near_obstacle_instance(12, 0.5, delta, released)
    sol = solve_active_set(spec, PARAMS)
    assert sol.converged and sol.iterations == (3 if released else 2)
    np.testing.assert_allclose(sol.u, u_star, rtol=0, atol=1e-14)
    assert kkt_violation(spec, sol.u)[0] <= PARAMS.tol


@pytest.mark.parametrize("n", [1, 12, 300])
def test_dense_block_equals_dense_slice(n):
    # dense() gathers its rows from the stencil: row i is column i.
    op = make_op(n=n, s=0.75)
    A = np.array([op.column(i) for i in range(n)])
    dense = op.dense()
    assert dense.flags.c_contiguous and dense.flags.writeable
    assert dense.tobytes() == A.tobytes()


@pytest.mark.parametrize("n", [2, 12, 300, 512])
@pytest.mark.parametrize("s", [0.05, 0.5, 0.95])
def test_free_blocks_are_far_from_singular(n, s):
    # Varah's bound on the strictly diagonally dominant A: every principal
    # block, the active set's free blocks among them, has 1-norm reciprocal
    # condition number at least 1 / (2 (2n-1)^{2s}).
    op = make_op(n=n, s=s)
    A, bound = op.dense(), 1.0 / (2.0 * (2 * n - 1) ** (2.0 * s))
    rng = np.random.default_rng(n)
    masks = [np.ones(n, bool)] + [rng.random(n) < p for p in (0.25, 0.5, 0.9)]
    for free in masks:
        if free.sum() < 2:
            continue
        assert 1.0 / np.linalg.cond(A[np.ix_(free, free)], 1) >= bound


@pytest.mark.parametrize("n", [10, 600])
def test_active_set_cycle_raises_with_best_iterate(monkeypatch, n):
    # Free-block solves stubbed to land below psi send every node into S;
    # A psi - f = -1 then sends every node out again, and the empty S recurs.
    monkeypatch.setattr(solvers, "_solve_free_block",
                        lambda op, free, psi, *rest: np.where(free, -1e3, psi))
    op = make_op(n=n)
    psi = bump_instance(n, 0.5).psi
    spec = ProblemSpec(op, psi, op.apply(psi) + 1.0)
    with pytest.raises(IterationLimitError, match="did not settle in 2 passes") as exc:
        solve_active_set(spec, PARAMS)
    best = exc.value.best
    assert isinstance(best, Solution)
    assert not best.converged and best.solver_id == "active_set" and best.iterations == 2
    np.testing.assert_array_equal(best.u, psi)  # the all-active pass: violation 1
    assert assert_reports_best_violation(exc, spec) == pytest.approx(1.0)


def test_matrix_free_solves_survive_tiny_data():
    # 1e-170 squared underflows: the CG recurrences must run on scaled data
    op = make_op(n=600)
    w = solve_linear(op, np.full(600, 1e-170))
    np.testing.assert_allclose(w, 1e-170 * solve_linear(op, np.ones(600)), rtol=1e-10)
    spec = bump_instance(600, 0.5)
    spec = ProblemSpec(spec.op, spec.psi, np.full(600, 1e-170))
    sol = solve_active_set(spec, PARAMS)
    assert kkt_violation(spec, sol.u)[0] <= PARAMS.tol


@pytest.mark.parametrize("s", [0.25, 0.5, 0.9])
def test_strang_preconditioned_cg_iteration_count(s, monkeypatch):
    op = make_op(n=4096, s=s)
    assert op.strang_symbol.min() > 0.0
    calls = []
    apply = type(op).apply
    monkeypatch.setattr(type(op), "apply", lambda self, v: calls.append(1) or apply(self, v))
    w = solve_linear(op, np.ones(4096))
    # The first solve on an operator builds its inverse generators: one
    # matvec per conjugate-gradient iteration on A x = e_0, 8-11 measured.
    assert len(calls) <= 20
    monkeypatch.undo()
    # relative residual 5e-14 to 8e-11; at s = 0.9 that is the matvec
    # roundoff floor D ||w||_inf eps ~ 1e-10
    assert np.linalg.norm(op.apply(w) - 1.0) <= 1e-9 * np.sqrt(4096)


# --- penalty ---------------------------------------------------------------------

def test_penalty_setup_solved_once_per_problem_and_params(monkeypatch):
    calls = count_active_set_calls(monkeypatch)
    spec = random_instance(31, n=16, s=0.5, nonneg_psi=True, zero_f=True)
    other_psi = ProblemSpec(spec.op, spec.psi + 0.1, spec.f)
    other_params = SolverParams(tol=1e-11)
    results = [solve_penalty(spec, PenaltyParams(epsilon=eps), PARAMS)
               for eps in (1e-1, 1e-2, 1e-3)]
    assert len(calls) == 1
    assert all(r.solution.u.tobytes() == results[0].solution.u.tobytes() for r in results)
    solve_penalty(other_psi, PenaltyParams(epsilon=1e-2), PARAMS)
    assert len(calls) == 2
    np.testing.assert_array_equal(calls[1], other_psi.psi)
    solve_penalty(spec, PenaltyParams(epsilon=1e-2), other_params)
    assert len(calls) == 3
    # A problem on an equal operator assembled again is a new problem: no
    # shared memo.
    fresh = ProblemSpec(make_op(n=16, s=0.5), spec.psi, spec.f)
    result = solve_penalty(fresh, PenaltyParams(epsilon=1e-2), PARAMS)
    assert len(calls) == 4
    assert result.u_eps.tobytes() == results[1].u_eps.tobytes()
    # The memoised and the spec's arrays are read-only, so no caller can
    # alter a later result.
    psi_plus, exact, _ = solvers._penalty_setup(fresh, PARAMS)
    assert len(calls) == 4
    assert not any(a.flags.writeable for a in (psi_plus, exact.u, exact.residual,
                                               exact.active_set, fresh.ls_bound))


def test_problem_compares_and_hashes_by_identity(monkeypatch):
    # Two problems with equal data on one operator are two problems: the
    # penalty route's eps-free solve is memoised on the one it ran for.
    calls = count_active_set_calls(monkeypatch)
    spec = random_instance(33, n=12, s=0.5, nonneg_psi=True, zero_f=True)
    twin = ProblemSpec(spec.op, spec.psi, spec.f)
    assert spec == spec and spec != twin and len({spec, twin, spec}) == 2
    results = [solve_penalty(p, PenaltyParams(epsilon=1e-2), PARAMS) for p in (spec, twin, twin)]
    assert len(calls) == 2
    assert results[0].u_eps.tobytes() == results[1].u_eps.tobytes()


def test_penalty_setup_solves_the_positive_part_of_psi_minus_w(monkeypatch):
    # Where psi lies below w = A^{-1} f, the zero-forcing problem's obstacle
    # is 0, not psi - w.
    calls = count_active_set_calls(monkeypatch)
    spec = random_instance(34, n=12, s=0.5)
    psi_plus, exact, _ = solvers._penalty_setup(spec, PARAMS)
    expected = np.maximum(spec.psi - spec.shift, 0.0)
    assert expected.min() == 0.0 < expected.max()
    for obstacle in (psi_plus, *calls):
        np.testing.assert_array_equal(obstacle, expected)
    assert len(calls) == 1
    zero = ProblemSpec(spec.op, expected, np.zeros(12))
    assert kkt_violation(zero, exact.u)[0] <= PARAMS.tol


def test_penalty_setup_does_not_memoise_iteration_limit(monkeypatch):
    calls = count_active_set_calls(monkeypatch)
    spec = random_instance(32, n=10, s=0.5, nonneg_psi=True, zero_f=True)
    for _ in range(2):
        with pytest.raises(IterationLimitError, match="active set did not settle"):
            solve_penalty(spec, PenaltyParams(epsilon=1e-2), SolverParams(max_iter=1))
    assert len(calls) == 2


def test_penalty_takes_any_forcing(tmp_path):
    # On the README bump (forcing -0.5) the library call answers in the
    # problem's coordinates: the bits of `solve --solver penalty`'s record.
    text = readme_bump_config(512, 0.9)
    cfg_path, out = tmp_path / "bump.cfg", tmp_path / "out.json"
    cfg_path.write_text(text)
    assert main(["solve", "--config", str(cfg_path), "--solver", "penalty", "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    cfg = parse_config_text(text, {"solver.method": "penalty"})
    spec = cfg.build_problem()
    assert np.all(spec.f == -0.5)
    result = solve_penalty(spec, cfg.penalty_params, cfg.solver_params)
    sol = result.solution
    assert (sol.solver_id, sol.converged, sol.iterations) == ("penalty", True, result.outer_iterations)
    assert record["u"] == sol.u.tolist() and record["residual"] == sol.residual.tolist()
    assert record["iterations"] == sol.iterations
    penalty = record["penalty"]
    assert penalty["u_eps"] == result.u_eps.tolist()
    assert (penalty["max_gap"], penalty["damping_used"]) == (result.max_gap, result.damping_used)
    assert np.abs(sol.u - solve_active_set(spec, cfg.solver_params).u).max() <= 1e-13


def test_penalty_nonpositive_obstacle_gives_zero():
    op = make_op(n=10)
    spec = ProblemSpec(op, psi=-np.ones(10), f=np.zeros(10))
    result = solve_penalty(spec, PenaltyParams(epsilon=1e-2), PARAMS)
    np.testing.assert_allclose(result.u_eps, np.zeros(10), atol=1e-12)
    np.testing.assert_array_equal(result.solution.u, np.zeros(10))


def test_penalty_constant_obstacle_sandwich():
    op = make_op(n=10)
    spec = ProblemSpec(op, psi=np.ones(10), f=np.zeros(10))
    for eps in (1e-1, 1e-3):
        result = solve_penalty(spec, PenaltyParams(epsilon=eps), PARAMS)
        assert np.all(result.u_eps >= 1.0 - 1e-9)
        assert np.all(result.u_eps <= 1.0 + eps + 1e-9)


def test_penalty_sandwich_random_nonnegative_obstacles():
    params = SolverParams(tol=1e-8)
    for seed in range(5):
        spec = random_instance(seed + 90, n=10, nonneg_psi=True, zero_f=True)
        result = solve_penalty(spec, PenaltyParams(epsilon=1e-3), params)
        gap = result.u_eps - result.solution.u
        assert gap.max() <= 1e-3 + 10 * params.tol
        assert gap.min() >= -10 * params.tol


def test_penalty_sandwich_violation_raises(monkeypatch):
    # The obstacle solution is patched up past u_eps's lowest gap by 100 tol,
    # between the sandwich's slack of 10 tol and a slack of 1000 tol.
    spec = random_instance(94, n=12, nonneg_psi=True, zero_f=True)
    solvers._penalty_setup.cache_clear()
    result = solve_penalty(spec, PenaltyParams(epsilon=1e-3), PARAMS)
    lift = float((result.u_eps - result.solution.u).min()) + 100 * PARAMS.tol
    real = solvers.solve_active_set
    monkeypatch.setattr(solvers, "solve_active_set", lambda spec, params: make_solution(
        spec, real(spec, params).u + lift, 1, "active_set", True, params))
    solvers._penalty_setup.cache_clear()
    try:
        with pytest.raises(SolverError, match="penalty sandwich violated: min gap -"):
            solve_penalty(spec, PenaltyParams(epsilon=1e-3), PARAMS)
    finally:
        solvers._penalty_setup.cache_clear()


def _readme_bump(n, s):
    """The README bump, forcing -0.5."""
    op = make_op(n=n, s=s)
    x = op.grid.nodes()
    return ProblemSpec(op, 0.5 - 8.0 * (x - 0.5) ** 2, np.full(n, -0.5))


@pytest.mark.parametrize("n, s, eps", [(64, 0.75, 1e-4), (64, 0.9, 1e-4), (64, 0.95, 1e-4),
                                       (128, 0.9, 1e-3)])
def test_penalty_newton_converges_where_picard_stagnated(n, s, eps):
    # Damped Picard gave up on each of these after four halvings of its damping.
    spec = _readme_bump(n, s)
    result = solve_penalty(spec, PenaltyParams(epsilon=eps), PARAMS)
    gap = result.u_eps - result.solution.u
    assert gap.min() >= -10 * PARAMS.tol and gap.max() <= eps + 10 * PARAMS.tol
    assert result.outer_iterations <= 8
    assert 0.0 < result.damping_used <= 1.0


def _active_set_best_of_penalty_give_up(spec, exc):
    """The give-up's best is the active-set solution of (psi^+, 0), unconverged."""
    exact = solve_active_set(ProblemSpec(spec.op, np.maximum(spec.psi, 0.0), spec.f), PARAMS)
    best = exc.value.best
    assert best.solver_id == "penalty" and best.converged is False
    assert best.u.tobytes() == exact.u.tobytes()
    return best


def test_penalty_newton_line_search_stall_gives_up_with_the_active_set_solution(monkeypatch):
    # A stop threshold 1e-30 times the real one lies below the residual's roundoff,
    # so the line search halves the step until the trial point is the iterate.
    spec = random_instance(95, n=10, nonneg_psi=True, zero_f=True)
    real = solvers._penalty_setup

    def below_roundoff(*args):
        psi_plus, exact, ainv_norm = real(*args)
        return psi_plus, exact, 1e30 * ainv_norm

    monkeypatch.setattr(solvers, "_penalty_setup", below_roundoff)
    with pytest.raises(IterationLimitError,
                       match=r"penalty Newton line search stalled at step \d+ "
                             r"\(residual \S+\)$") as exc:
        solve_penalty(spec, PenaltyParams(epsilon=1e-3), PARAMS)
    best = _active_set_best_of_penalty_give_up(spec, exc)
    assert 1 <= best.iterations <= 20
    assert str(exc.value).startswith(f"penalty Newton line search stalled at step "
                                     f"{best.iterations + 1} ")


def test_penalty_newton_gives_up_when_its_jacobian_solve_fails(monkeypatch):
    # The active set's free blocks run the same PCG, so the warm start is
    # memoised first: only the Newton step meets the failing one.
    spec = random_instance(96, n=10, nonneg_psi=True, zero_f=True)
    solve_penalty(spec, PenaltyParams(epsilon=1e-3), PARAMS)

    def failing_pcg(*args):
        raise SolverError("preconditioned conjugate gradients did not converge")

    monkeypatch.setattr(solvers, "_pcg", failing_pcg)
    with pytest.raises(IterationLimitError, match="^penalty Newton step 1: preconditioned "
                       "conjugate gradients did not converge \\(residual ") as exc:
        solve_penalty(spec, PenaltyParams(epsilon=1e-3), PARAMS)
    monkeypatch.undo()
    assert _active_set_best_of_penalty_give_up(spec, exc).iterations == 0


def test_penalty_newton_gives_up_when_its_conjugate_gradients_run_out(monkeypatch):
    # The warm start is memoised with the full budget; a budget of one
    # iteration then leaves the first Jacobian solve short.
    spec = random_instance(96, n=10, nonneg_psi=True, zero_f=True)
    solve_penalty(spec, PenaltyParams(epsilon=1e-3), PARAMS)
    monkeypatch.setattr(operator, "PCG_MAX_ITER", 1)
    with pytest.raises(IterationLimitError,
                       match=rf"^penalty Newton step 1: {PCG_FAIL} \(residual ") as exc:
        solve_penalty(spec, PenaltyParams(epsilon=1e-3), PARAMS)
    monkeypatch.undo()
    assert isinstance(exc.value.best, Solution)
    assert _active_set_best_of_penalty_give_up(spec, exc).iterations == 0


def test_penalty_gap_monotone_in_epsilon():
    spec = random_instance(101, n=9, nonneg_psi=True, zero_f=True)
    params = SolverParams(tol=1e-9)
    gaps = []
    for eps in (1e-1, 1e-2, 1e-3):
        result = solve_penalty(spec, PenaltyParams(epsilon=eps), params)
        gaps.append(float((result.u_eps - result.solution.u).max()))
    assert gaps[1] <= gaps[0] + 1e-9
    assert gaps[2] <= gaps[1] + 1e-9


@pytest.mark.parametrize("s", [0.25, 0.5, 0.9])
def test_penalty_solution_nondecreasing_in_epsilon(s):
    # For eps < eps', theta_eps <= theta_eps' and theta is nonincreasing, so
    # M-matrix comparison gives u_eps <= u_eps' at every node.  The smallest
    # gap between consecutive rows is 3.2e-5 (s = 0.9), so no slack is needed.
    spec = _readme_bump(512, s)
    u_eps = [solve_penalty(spec, PenaltyParams(epsilon=eps), PARAMS).u_eps
             for eps in (0.003, 0.01, 0.03, 0.1)]
    for lower, upper in zip(u_eps, u_eps[1:]):
        assert (upper - lower).min() >= 0.0


# --- oracle ----------------------------------------------------------------------

def test_oracle_trivial_cases():
    op = make_op(n=6)
    zero = np.zeros(6)
    sol = brute_force_oracle(ProblemSpec(op, psi=-np.ones(6), f=zero))
    np.testing.assert_array_equal(sol.u, zero)
    assert sol.active_set.size == 0
    sol = brute_force_oracle(ProblemSpec(op, psi=np.ones(6), f=zero))
    np.testing.assert_array_equal(sol.u, np.ones(6))
    assert set(sol.active_set) == set(range(6))


def test_oracle_pinned_three_node_instance():
    # s = 1/2 on (0,1) with psi = (1, -5, 1), f = 0: the outer nodes are
    # active and the middle solves D u_2 = 2 W_1, so u_2 = 2 W_1 / D = 2/3.
    op = make_op(n=3, s=0.5, a=0.0, b=1.0)
    spec = ProblemSpec(op, psi=np.array([1.0, -5.0, 1.0]), f=np.zeros(3))
    sol = brute_force_oracle(spec)
    np.testing.assert_allclose(sol.u, [1.0, 2.0 / 3.0, 1.0], rtol=1e-12)
    assert 2.0 * op.weights[0] / op.diag == pytest.approx(2.0 / 3.0, rel=1e-14)


def test_oracle_rejects_oversized_problem():
    spec = ProblemSpec(make_op(n=15), psi=-np.ones(15), f=np.zeros(15))
    with pytest.raises(ValueError):
        brute_force_oracle(spec)


def test_oracle_ambiguity_error_when_no_candidate_fits(monkeypatch):
    # a feasibility tolerance of -1, which no candidate meets
    monkeypatch.setattr(solvers, "roundoff_tol", lambda op, u, tol: -1.0)
    spec = random_instance(110, n=6)
    with pytest.raises(OracleAmbiguityError):
        brute_force_oracle(spec)


# --- cross-solver properties ------------------------------------------------------

def test_all_solvers_agree_on_zero_forcing_instances():
    # uniqueness: PSOR, projected gradient, active set, and the penalty route
    # all produce the same vector on nonnegative-obstacle zero-forcing problems
    for seed in range(5):
        spec = random_instance(seed + 120, n=9, nonneg_psi=True, zero_f=True)
        us = [
            solve_psor(spec, PARAMS).u,
            solve_projected_gradient(spec, PARAMS).u,
            solve_active_set(spec, PARAMS).u,
            solve_penalty(spec, PenaltyParams(epsilon=1e-2), PARAMS).solution.u,
        ]
        for u in us[1:]:
            assert np.abs(u - us[0]).max() <= 10 * PARAMS.tol


def test_all_solvers_agree_on_general_instances():
    # the penalty route takes general forcing through its zero-forcing reduction
    for seed in range(5):
        spec = random_instance(seed + 180, n=10)
        us = [
            solve_psor(spec, PARAMS).u,
            solve_projected_gradient(spec, PARAMS).u,
            solve_active_set(spec, PARAMS).u,
            solve_penalty(spec, PenaltyParams(epsilon=1e-2), PARAMS).solution.u,
        ]
        for u in us[1:]:
            assert np.abs(u - us[0]).max() <= 10 * PARAMS.tol


def test_energy_minimality_among_feasible_points():
    rng = np.random.default_rng(14)
    spec = random_instance(130, n=10)
    sol = solve_active_set(spec, PARAMS)
    ju = spec.op.energy(sol.u, spec.f)
    scale = 1.0 + np.abs(spec.psi).max()
    for _ in range(100):
        v = spec.psi + np.abs(rng.normal(size=10)) * scale
        assert ju <= spec.op.energy(v, spec.f) + 1e-10


def test_monotonicity_in_forcing():
    rng = np.random.default_rng(15)
    for seed in range(5):
        spec = random_instance(seed + 140, n=10)
        f2 = spec.f - np.abs(rng.normal(size=10))
        u1 = solve_psor(spec, PARAMS).u
        u2 = solve_psor(ProblemSpec(spec.op, spec.psi, f2), PARAMS).u
        assert np.all(u1 >= u2 - PARAMS.tol)


def test_monotonicity_in_obstacle():
    rng = np.random.default_rng(16)
    for seed in range(5):
        spec = random_instance(seed + 150, n=10)
        psi2 = spec.psi - np.abs(rng.normal(size=10))
        u1 = solve_psor(spec, PARAMS).u
        u2 = solve_psor(ProblemSpec(spec.op, psi2, spec.f), PARAMS).u
        assert np.all(u1 >= u2 - PARAMS.tol)


def test_minty_inequality_for_feasible_points():
    rng = np.random.default_rng(17)
    spec = random_instance(160, n=10)
    sol = solve_active_set(spec, PARAMS)
    h = spec.op.grid.h
    scale = 1.0 + np.abs(spec.psi).max()
    for _ in range(100):
        v = spec.psi + np.abs(rng.normal(size=10)) * scale
        pairing = h * np.dot(spec.op.apply(v) - spec.f, v - sol.u)
        vnorm = np.sqrt(h * v @ v)
        assert pairing >= -PARAMS.tol * (1.0 + vnorm)


def test_complementarity_on_inactive_set():
    for seed in range(5):
        spec, oracle = oracle_instance(seed + 170, n=10)
        sol = solve_psor(spec, PARAMS)
        inactive = sol.u - spec.psi > PARAMS.active_tol
        assert np.all(sol.residual[inactive] <= PARAMS.tol)
