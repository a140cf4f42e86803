"""Stacks of grid vectors, bit for bit.

FracLapOperator.apply, FracLapOperator.strang_solve and solve_linear take a
(k, n) stack and must give every row the bits of its own call.  The three
sampling checkers send their draws through them in chunks, so each must
also give the bits of its per-draw loop, kept here as the oracle.  These
tests run under one and under two BLAS threads.
"""

import numpy as np
import pytest

from fracobstacle import (
    ProblemSpec,
    SolverError,
    check_minty,
    check_smallest_supersolution,
    check_truncation_identities,
    operator,
    solve_active_set,
    solve_linear,
)
from fracobstacle.cli import dumps
from fracobstacle.verify import Report

from conftest import make_op, random_instance


def assert_rows_bitwise(stack, rows):
    assert stack.shape == (len(rows),) + rows[0].shape
    for j, row in enumerate(rows):
        assert stack[j].tobytes() == row.tobytes(), f"row {j} differs"


def pcg_oracle(matvec, precondition, b, tol, max_iter):
    """Conjugate gradients for one right-hand side, written out apart from
    operator._pcg, with 1-D matvec and precondition."""
    if not b.any():
        return np.zeros_like(b)
    scale = float(np.abs(b).max())
    b = b / scale
    x, r = np.zeros_like(b), b.copy()
    stop = tol * np.linalg.norm(b)
    if np.linalg.norm(r) <= stop:
        return x * scale
    z = precondition(r)
    p = z.copy()
    rz = float(np.dot(r, z))
    for _ in range(max_iter):
        q = matvec(p)
        alpha = rz / float(np.dot(p, q))
        x += alpha * p
        r -= alpha * q
        if np.linalg.norm(r) <= stop:
            return x * scale
        z = precondition(r)
        rz, rz_old = float(np.dot(r, z)), rz
        p = z + (rz / rz_old) * p
    raise SolverError("oracle")


def rhs_stack(n, rng):
    """Right-hand sides: random, zero, random at 1e-170 (scaled before any
    product, so nothing underflows), smooth, and oscillating."""
    x = np.arange(n)
    return np.array([rng.normal(size=n), np.zeros(n), rng.normal(size=n) * 1e-170,
                     np.ones(n), np.cos(0.9 * np.pi * x) + 0.1 * rng.normal(size=n)])


# --- apply, strang_solve and solve_linear -------------------------------------------

@pytest.mark.parametrize("n", [1, 12, 255, 256, 300, 768])
def test_apply_stack_matches_rows(n):
    op = make_op(n=n, s=0.7)
    v = np.random.default_rng(n).normal(size=(5, n))
    v[2] = 0.0
    assert_rows_bitwise(op.apply(v), [op.apply(row) for row in v])


def test_apply_rejects_stack_of_wrong_width():
    op = make_op(n=6)
    with pytest.raises(ValueError, match="stack"):
        op.apply(np.zeros((2, 5)))


@pytest.mark.parametrize("n", [300, 768])
def test_strang_solve_stack_matches_rows(n):
    op = make_op(n=n, s=0.4)
    v = np.random.default_rng(n).normal(size=(5, n))
    assert_rows_bitwise(op.strang_solve(v), [op.strang_solve(row) for row in v])


@pytest.mark.parametrize("n", [12, 300, 512, 600, 768])
def test_solve_linear_stack_matches_rows(n):
    op = make_op(n=n, s=0.6)
    f = rhs_stack(n, np.random.default_rng(n))
    assert_rows_bitwise(solve_linear(op, f), [solve_linear(op, row) for row in f])


@pytest.mark.parametrize("max_iter", [2, operator.PCG_MAX_ITER])
def test_pcg_matches_the_one_row_oracle(max_iter, monkeypatch):
    # _pcg gives the oracle's bits for each right-hand side of rhs_stack when
    # it converges, and gives up where the oracle does, with a plain
    # SolverError that carries no iterate.
    monkeypatch.setattr(operator, "PCG_MAX_ITER", max_iter)
    op = make_op(n=600, s=0.6)
    for row in rhs_stack(600, np.random.default_rng(6)):
        try:
            want = pcg_oracle(op.apply, op.strang_solve, row, operator.PCG_TOL, max_iter)
        except SolverError:
            with pytest.raises(SolverError, match=(
                    f"^preconditioned conjugate gradients did not reach relative residual "
                    f"1e-15 within {max_iter} iterations$")) as exc:
                operator._pcg(op.apply, op.strang_solve, row)
            assert type(exc.value) is SolverError and not hasattr(exc.value, "best")
        else:
            got = operator._pcg(op.apply, op.strang_solve, row)
            assert got.tobytes() == want.tobytes()


def test_solve_linear_rejects_stack_of_wrong_width_and_nonfinite_rows():
    op = make_op(n=6)
    with pytest.raises(ValueError, match="stack"):
        solve_linear(op, np.zeros((2, 5)))
    with pytest.raises(ValueError, match="finite"):
        solve_linear(op, np.array([np.zeros(6), [0.0, np.nan, 0, 0, 0, 0]]))


# --- the draws and the pairings the checkers rely on ----------------------------------

@pytest.mark.parametrize("k, n", [(1, 1), (7, 12), (16, 300), (16, 768)])
def test_stacked_normal_draws_are_successive_draws(k, n):
    stacked = np.random.default_rng(k + n).normal(size=(k, n))
    rng = np.random.default_rng(k + n)
    assert_rows_bitwise(stacked, [rng.normal(size=n) for _ in range(k)])


@pytest.mark.parametrize("n", [1, 12, 300, 768])
def test_vecdot_matches_dot_and_norm(n):
    rng = np.random.default_rng(n)
    op = make_op(n=n)
    a = op.apply(rng.normal(size=(16, n)))  # a strided view at n >= 256
    b = rng.normal(size=(16, n))
    dots, norms = np.vecdot(a, b), np.sqrt(np.vecdot(a, a))
    for j in range(16):
        assert dots[j].tobytes() == np.dot(a[j], b[j]).tobytes()
        assert norms[j].tobytes() == np.linalg.norm(a[j]).tobytes()


# --- the chunked checkers against their per-draw loops ---------------------------------

def minty_oracle(spec, u, samples, tol, seed):
    rng = np.random.default_rng(seed)
    scale = 1.0 + float(np.abs(spec.psi).max())
    h = spec.op.grid.h
    worst, worst_k = -np.inf, 0
    for k in range(samples):
        v = spec.psi + np.abs(rng.normal(size=spec.n)) * scale
        pairing = h * np.dot(spec.op.apply(v) - spec.f, v - u)
        vnorm = np.sqrt(h * np.dot(v, v))
        value = -pairing - tol * vnorm
        if value > worst:
            worst, worst_k = value, k
    return Report(check_id="minty", passed=worst <= tol, worst_violation=worst,
                  worst_index_or_sample=worst_k, samples=samples, seed=seed, tol=tol)


def supersolution_oracle(spec, u, samples, seed, tol):
    rng = np.random.default_rng(seed)
    scale = 1.0 + float(np.abs(spec.f).max())
    used = 0
    worst, worst_k = -np.inf, 0
    for k in range(samples):
        q = np.abs(rng.normal(size=spec.n)) * scale
        U = solve_linear(spec.op, spec.f + q)
        if not np.all(U >= spec.psi):
            continue
        used += 1
        value = float((u - U).max())
        if value > worst:
            worst, worst_k = value, k
    if used == 0:
        return Report(check_id="smallest_supersolution", passed=True,
                      worst_violation=0.0, worst_index_or_sample=-1,
                      samples=samples, seed=seed, tol=tol, inconclusive=True,
                      note="no feasible supersolution draws")
    return Report(check_id="smallest_supersolution", passed=worst <= tol,
                  worst_violation=worst, worst_index_or_sample=worst_k,
                  samples=samples, seed=seed, tol=tol,
                  note=f"feasible draws: {used}/{samples}")


def truncation_oracle(op, samples, seed, tol):
    rng = np.random.default_rng(seed)
    n, h = op.grid.n, op.grid.h

    def pair(ax, y):
        return h * float(np.dot(ax, y))

    worst, worst_k = -np.inf, 0
    strict_margin = np.inf
    strict_cases = 0
    for k in range(samples):
        v = rng.normal(size=n)
        vp, vm = np.maximum(v, 0.0), np.maximum(-v, 0.0)
        av, avp = op.apply(v), op.apply(vp)
        t1 = pair(avp, vm)
        t2 = pair(av, vm) + pair(op.apply(vm), vm)
        t3 = -(pair(av, vp) - pair(avp, vp))
        m = float(np.abs(rng.normal())) + 0.1
        vlm = np.minimum(v, m)
        vmm = np.maximum(v - m, 0.0)
        t4 = pair(op.apply(vlm), vlm) - pair(av, v) + pair(op.apply(vmm), vmm)
        value = max(t1, t2, t3, t4)
        if value > worst:
            worst, worst_k = value, k
        if vp.any() and vm.any():
            strict_cases += 1
            strict_margin = min(strict_margin, -t1)
    strict_ok = strict_cases == 0 or strict_margin > 0.0
    note = (f"strict cases: {strict_cases}, min margin: "
            f"{strict_margin if strict_cases else 0.0:.6g}")
    return Report(check_id="truncation_identities",
                  passed=worst <= tol and strict_ok, worst_violation=worst,
                  worst_index_or_sample=worst_k, samples=samples, seed=seed,
                  tol=tol, note=note)


def assert_same_record(report, oracle):
    # dumps writes every float with 17 significant digits and its sign
    assert dumps(report.as_dict()) == dumps(oracle.as_dict())


def solved_instance(n):
    spec = random_instance(n + 50, n=n, s=0.6)
    return spec, solve_active_set(spec).u


SAMPLES = [1, 20, 37]  # none fills a whole chunk of _CHUNK = 16 draws


@pytest.mark.parametrize("n", [12, 300, 600])
@pytest.mark.parametrize("samples", SAMPLES)
def test_chunked_minty_matches_per_draw_loop(n, samples):
    spec, u = solved_instance(n)
    assert_same_record(check_minty(spec, u, samples=samples, tol=1e-8, seed=n),
                       minty_oracle(spec, u, samples, 1e-8, n))


@pytest.mark.parametrize("n", [12, 300, 600])
@pytest.mark.parametrize("samples", SAMPLES)
def test_chunked_supersolution_matches_per_draw_loop(n, samples):
    # The obstacle lies below w = A^{-1} f but at the middle node, where it
    # sits about at the mean of A^{-1} q above w: some draws are feasible
    # supersolutions and some are skipped.
    op = make_op(n=n, s=0.6)
    f = np.random.default_rng(n).normal(size=n)
    w = solve_linear(op, f)
    psi = w - 1.0
    psi[n // 2] = w[n // 2] + np.sqrt(2 / np.pi) * solve_linear(
        op, np.full(n, 1.0 + np.abs(f).max()))[n // 2]
    spec = ProblemSpec(op, psi, f)
    u = solve_active_set(spec).u
    report = check_smallest_supersolution(spec, u, samples=samples, seed=n, tol=1e-8)
    assert_same_record(report, supersolution_oracle(spec, u, samples, n, 1e-8))
    if samples > 1:  # both branches of the feasibility test ran
        used, total = map(int, report.note.rpartition(" ")[2].split("/"))
        assert 0 < used < total


@pytest.mark.parametrize("n", [12, 300, 600])
@pytest.mark.parametrize("samples", SAMPLES)
def test_chunked_truncation_matches_per_draw_loop(n, samples):
    op = make_op(n=n, s=0.6)
    assert_same_record(check_truncation_identities(op, samples=samples, seed=n),
                       truncation_oracle(op, samples, n, 1e-10))
