"""Solvers for the discrete obstacle problem and the obstacle-free equation.

The discrete obstacle problem is the convex minimization

    min { J(v) = (1/2) h v.(A v) - h f.v  :  v >= psi componentwise },

equivalently the linear complementarity problem

    u >= psi,   A u - f >= 0,   (A u - f) . (u - psi) = 0.

Because A is an M-matrix the LCP has a unique solution, and every solver
here computes that same vector: projected SOR sweeps, projected gradient
descent, a primal active-set iteration, a penalty scheme, and a brute-force
enumeration oracle for small n.  Solvers are single-threaded and
deterministic given (spec, params); distinct solves on shared immutable
operators may run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .operator import FracLapOperator, cho_solve, spd_solve

__all__ = [
    "ProblemSpec",
    "SolverParams",
    "PenaltyParams",
    "Solution",
    "PenaltyResult",
    "ZeroForcingReduction",
    "SolverError",
    "IterationLimitError",
    "OracleAmbiguityError",
    "kkt_violation",
    "make_solution",
    "solve_linear",
    "reduce_to_zero_forcing",
    "solve_psor",
    "solve_projected_gradient",
    "solve_active_set",
    "solve_penalty",
    "brute_force_oracle",
    "SOLVERS",
]

# Linear systems up to this size are solved by dense factorization.
DENSE_LIMIT = 512
# Iteration budget of each preconditioned conjugate-gradient solve.
PCG_MAX_ITER = 20_000
# Relative residual of solve_linear's conjugate gradients above DENSE_LIMIT.
_LINEAR_TOL = 1e-12
# Relative residual of the active set's free-block solves above DENSE_LIMIT.
_FREE_BLOCK_TOL = 1e-15
# Roundoff factor c of the active set's final gate: once its classification
# settles, the primal and dual KKT parts, max over all nodes of psi - u and
# -r, must be at most max(tol, c eps D max(1, ||u||_inf)), eps the machine
# epsilon.  Over every active-set solve of the verify-512-768 benchmark
# workload at seeds 3 and 7 (n = 512 and 768; the main solve and the
# comparison checkers' solves) the parts reached 4.74 eps D max(1, ||u||_inf),
# so c = 64 leaves a 13x margin.
_GATE_ROUNDOFF = 64.0
# Slack K of ProblemSpec's data-scale bound: K n max(1, D) M^2 must be finite,
# with M = 1 + ||psi||_inf + ||f||_inf / (2 tail(n)).  Varah's bound
# ||A^{-1}||_inf <= 1 / (2 tail(n)) (row i's margin is tail(i) + tail(n+1-i))
# gives ||A^{-1} f||_inf <= M, so the solution lies in [-M, 2M]: it is at least
# max(psi, A^{-1} f) and at most A^{-1} f + ||(psi - A^{-1} f)^+||_inf.  The 1
# covers the checkers' draws, scaled by 1 + ||psi||_inf or 1 + ||f||_inf.
# ||A v||_inf <= 2D ||v||_inf, an FFT matvec's intermediates stay below
# 2nD ||v||_inf, and ||f||_inf <= 2 tail(1) M = D M.  The largest product is
# check_minty's pairing, a sum over n nodes of (A v - f)_i (v - u)_i: its draws
# v = psi + |g| (1 + ||psi||_inf) have |g| < 8 (P(|g| > 8) = 1.2e-15 per draw),
# so ||v||_inf < 9M and each term is below 19 D M * 11 M = 209 D M^2 <= K D M^2;
# v.v stays below 81 n M^2.
_DATA_SLACK = 256.0
# Brute-force enumeration is restricted to 2^n candidate active sets.
ORACLE_MAX_N = 14
# The oracle keeps candidates with u >= psi and A u - f >= 0 within this.
ORACLE_FEAS_TOL = 1e-10


class SolverError(RuntimeError):
    """A solver could not produce a solution meeting its contract."""


class IterationLimitError(SolverError):
    """Solver hit its iteration budget; best is its best Solution (an array from solve_linear)."""

    def __init__(self, message: str, best):
        super().__init__(message)
        self.best = best


class OracleAmbiguityError(SolverError):
    """Zero or multiple KKT points within tolerance: degenerate instance."""


@dataclass(frozen=True)
class ProblemSpec:
    """Obstacle psi and forcing f sampled on the operator's grid.

    The feasible set K = {v : v >= psi componentwise} is never empty:
    psi^+ is always feasible.  Data whose products would overflow somewhere
    in a solver or a checker is refused with ValueError (see _DATA_SLACK).
    """

    op: FracLapOperator
    psi: np.ndarray
    f: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "psi", self.op.grid.check_vector(self.psi))
        object.__setattr__(self, "f", self.op.grid.check_vector(self.f))
        if not np.isfinite(self.psi).all():
            raise ValueError("obstacle values must be finite")
        if not np.isfinite(self.f).all():
            raise ValueError("forcing values must be finite")
        with np.errstate(all="ignore"):  # an overflow is the verdict, not a warning
            scale = (1.0 + np.abs(self.psi).max()
                     + np.abs(self.f).max() / (2.0 * self.op.tail(self.n)))
            bound = _DATA_SLACK * self.n * max(1.0, self.op.diag) * scale * scale
        if not np.isfinite(bound):
            raise ValueError(
                f"obstacle and forcing too large: {_DATA_SLACK:g} n max(1, D) M^2 overflows, "
                f"M = 1 + ||psi||_inf + ||f||_inf / (2 tail(n)) = {scale:.3e}")

    @property
    def n(self) -> int:
        return self.op.grid.n

    def default_start(self) -> np.ndarray:
        """psi^+, the canonical feasible point."""
        return np.maximum(self.psi, 0.0)


@dataclass(frozen=True)
class SolverParams:
    tol: float = 1e-10
    max_iter: int = 200_000
    relaxation: float = 1.5
    active_tol: float = 1e-8

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if not 0.0 < self.relaxation < 2.0:
            raise ValueError("relaxation must lie in (0, 2)")
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")
        if not self.active_tol > 0:
            raise ValueError("active_tol must be positive")


@dataclass(frozen=True)
class PenaltyParams:
    """Penalty width eps, Picard damping and outer-iteration budget."""

    epsilon: float = 1e-2
    picard_damping: float = 1.0
    max_outer: int = 500_000

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if not 0.0 < self.picard_damping <= 1.0:
            raise ValueError("picard_damping must lie in (0, 1]")
        if self.max_outer < 1:
            raise ValueError("max_outer must be positive")

    def theta(self, t) -> np.ndarray:
        """Cubic smoothstep cutoff theta_eps: 1 for t <= 0, 0 for t >= eps,
        C^1 and nonincreasing between."""
        w = np.clip(np.asarray(t, float) / self.epsilon, 0.0, 1.0)
        return 1.0 - 3.0 * w**2 + 2.0 * w**3

    def lipschitz_bound(self) -> float:
        """|theta'| estimated on a fine sample: just below its max 1.5 / eps."""
        t = np.linspace(0.0, self.epsilon, 4097)
        return float(np.abs(np.diff(self.theta(t))).max() / (t[1] - t[0]))


@dataclass(frozen=True)
class Solution:
    """Computed minimizer with KKT residual and active-set classification.

    Invariants at convergence (tol from the producing solver's params):
    u_i >= psi_i - tol, r_i >= -tol, and r_i (u_i - psi_i) <= tol (1 + |r_i|).
    The active set meets the first two with tol raised to its final gate
    (see _GATE_ROUNDOFF) and does not test the third.
    """

    u: np.ndarray
    residual: np.ndarray
    active_set: np.ndarray
    iterations: int
    solver_id: str
    converged: bool


class PenaltyResult(NamedTuple):
    solution: Solution
    u_eps: np.ndarray
    outer_iterations: int
    epsilon: float
    damping_used: float


class ZeroForcingReduction(NamedTuple):
    psi_reduced: np.ndarray
    shift: np.ndarray


def kkt_violation(spec: ProblemSpec, u: np.ndarray, residual: np.ndarray | None = None):
    """Worst componentwise KKT violation and the node where it occurs.

    The three parts are primal feasibility psi - u, dual feasibility -r,
    and relative complementarity r (u - psi) / (1 + |r|); the returned value
    is their overall max (negative values mean margin).  It is the first
    maximum of the three parts stacked in that order, as verify._worst
    decides: ties go to the first part, then the first node, and a NaN wins.
    """
    if residual is None:
        residual = spec.op.apply(u) - spec.f
    gap = u - spec.psi
    parts = np.empty((3, spec.n))  # filled in place: cheaper than np.stack's copy
    np.negative(gap, out=parts[0])
    np.negative(residual, out=parts[1])
    np.divide(residual * gap, 1.0 + np.abs(residual), out=parts[2])
    k = int(np.argmax(parts))
    return float(parts.flat[k]), k % spec.n


def _kkt_met(spec: ProblemSpec, u: np.ndarray, residual: np.ndarray, tol: float) -> bool:
    """Exactly kkt_violation(spec, u, residual)[0] <= tol, the solvers' stop test.

    One min pass screens first: some r_i < -tol means the dual part alone
    exceeds tol (or a NaN elsewhere makes the violation NaN), so the test
    fails.  Otherwise, a NaN in r included, the full violation decides.
    """
    if residual.min() < -tol:
        return False
    return kkt_violation(spec, u, residual)[0] <= tol


def make_solution(spec: ProblemSpec, u, iterations: int, solver_id: str,
                  converged: bool, params: SolverParams) -> Solution:
    u = spec.op.grid.check_vector(u).copy()
    residual = spec.op.apply(u) - spec.f
    active = np.flatnonzero(u - spec.psi <= params.active_tol)
    return Solution(u=u, residual=residual, active_set=active,
                    iterations=iterations, solver_id=solver_id, converged=converged)


def _iteration_limit(spec: ProblemSpec, message: str, u, iterations: int,
                     solver_id: str, params: SolverParams) -> IterationLimitError:
    """The give-up error of PSOR, projected gradient and the active set: u
    as the best Solution, its KKT violation appended to the message."""
    best = make_solution(spec, u, iterations, solver_id, False, params)
    viol, _ = kkt_violation(spec, best.u, best.residual)
    return IterationLimitError(f"{message} (violation {viol:.3e})", best)


def _pcg(matvec, precondition, b: np.ndarray, x0: np.ndarray | None,
         tol: float, max_iter: int) -> np.ndarray:
    """Preconditioned conjugate gradients for SPD systems M x = b.

    b is one right-hand side or a (k, m) stack of them, and the result has
    its shape; matvec and precondition map (k, m) stacks row by row.  Each
    row stops once its recursively updated residual satisfies
    ||b - M x||_2 <= tol ||b||_2, and is frozen from then on.  It starts
    from its row of x0 when that beats x = 0 (||b - M x0|| < ||b||), else
    from 0, and iterates on its system scaled by max|b|, so that tiny or
    huge data neither underflow nor overflow.  Every row has its own scale,
    start, step lengths and budget of max_iter iterations, and so gets the
    bits of its own call.
    """
    shape, rows = b.shape, np.atleast_2d(b)
    out = np.zeros_like(rows)
    live = np.flatnonzero(rows.any(axis=1))  # the rows not yet converged
    scale = np.abs(rows[live]).max(axis=1, keepdims=True)
    b = rows[live] / scale
    x, r = np.zeros_like(b), b.copy()
    if x0 is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            y = np.atleast_2d(x0)[live] / scale
            ry = b - matvec(y)
            warm = np.sqrt(np.vecdot(ry, ry)) < np.sqrt(np.vecdot(b, b))
        x[warm], r[warm] = y[warm], ry[warm]
    stop = tol * np.sqrt(np.vecdot(b, b))
    for it in range(max_iter + 1):
        done = np.sqrt(np.vecdot(r, r)) <= stop
        if done.any():
            out[live[done]] = x[done] * scale[done]
            keep = ~done
            live, scale, stop, x, r = live[keep], scale[keep], stop[keep], x[keep], r[keep]
            if it:
                p, rz = p[keep], rz[keep]
        if not live.size or it == max_iter:
            break
        z = precondition(r)
        if it:
            rz, rz_old = np.vecdot(r, z), rz
            p = z + (rz / rz_old)[:, None] * p
        else:
            p, rz = z, np.vecdot(r, z)
        q = matvec(p)
        alpha = (rz / np.vecdot(p, q))[:, None]
        x += alpha * p
        r -= alpha * q
    if live.size:
        out[live] = x * scale
        raise IterationLimitError(
            f"preconditioned conjugate gradients did not reach relative residual "
            f"{tol:g} within {max_iter} iterations", best=out.reshape(shape))
    return out.reshape(shape)


def solve_linear(op: FracLapOperator, f) -> np.ndarray:
    """Solve A w = f (the obstacle-free problem), or A w_j = f_j for each
    row of a (k, n) stack.

    For n <= DENSE_LIMIT this is cho_solve with the operator's cached
    Cholesky factor, one LAPACK dpotrs for a whole stack.  Above, conjugate
    gradients preconditioned by the Strang circulant (op.strang_solve) run
    on FFT matvecs to relative residual _LINEAR_TOL, each row of a stack on
    its own (see _pcg).  Each row of a stack gets the bits of its own call.
    Since A^{-1} is entrywise positive, f >= 0 implies w >= 0 (discrete
    weak maximum principle).
    """
    f = op.grid.check_vectors(f)
    if not np.isfinite(f).all():
        raise ValueError("right-hand side must be finite")
    if op.grid.n <= DENSE_LIMIT:
        return cho_solve(op.cholesky, f.T).T  # columns are right-hand sides
    return _pcg(op.apply, op.strang_solve, f, None, _LINEAR_TOL, PCG_MAX_ITER)


def reduce_to_zero_forcing(spec: ProblemSpec) -> ZeroForcingReduction:
    """Split off the obstacle-free part: u solves (psi, f) iff u - w solves
    (psi - w, 0), where A w = f.  Returns (psi - w, w)."""
    shift = solve_linear(spec.op, spec.f)
    return ZeroForcingReduction(psi_reduced=spec.psi - shift, shift=shift)


def solve_psor(spec: ProblemSpec, params: SolverParams | None = None) -> Solution:
    """Projected SOR sweeps.

    Componentwise update with relaxation omega, projected onto {v >= psi}:

        u_i <- max(psi_i, (1 - omega) u_i + (omega / D)(f_i + sum_{j != i} W_|i-j| u_j)).

    The off-diagonal sum is carried via z = A u, updated one column per
    changed component and refreshed at each sweep; this is algebraically the
    displayed formula.  Deterministic given the start (default psi^+).
    """
    params = params or SolverParams()
    op = spec.op
    n, D, omega = spec.n, op.diag, params.relaxation
    # The node loop runs on Python floats (the same IEEE doubles, without
    # numpy's per-scalar overhead); z stays an array for the column updates.
    psi, f = spec.psi.tolist(), spec.f.tolist()
    columns = [op.column(i) for i in range(n)]
    u = spec.default_start()
    z = op.apply(u)
    for sweep in range(1, params.max_iter + 1):
        u = u.tolist()
        for i in range(n):
            target = u[i] + omega * (f[i] - z.item(i)) / D
            new = psi[i] if target < psi[i] else target
            delta = new - u[i]
            if delta != 0.0:
                u[i] = new
                z += delta * columns[i]
        u = np.array(u)
        z = op.apply(u)  # also the next sweep's A u
        if _kkt_met(spec, u, z - spec.f, params.tol):
            return make_solution(spec, u, sweep, "psor", True, params)
    raise _iteration_limit(
        spec, f"PSOR did not reach tol {params.tol:g} in {params.max_iter} sweeps",
        u, params.max_iter, "psor", params)


def solve_projected_gradient(spec: ProblemSpec, params: SolverParams | None = None) -> Solution:
    """Projected gradient descent with the certified step 1 / (2D).

    u <- max(psi, u - eta (A u - f)) with eta = 1/lambda_max_bound, which
    guarantees monotone energy descent J(u_{k+1}) <= J(u_k).  Stopping rule
    as for PSOR.
    """
    params = params or SolverParams()
    op, psi, f = spec.op, spec.psi, spec.f
    eta = 1.0 / op.lambda_max_bound()
    u = spec.default_start()
    for it in range(params.max_iter + 1):
        r = op.apply(u)
        r -= f
        if _kkt_met(spec, u, r, params.tol):
            return make_solution(spec, u, it, "projected_gradient", True, params)
        if it == params.max_iter:  # no step past the last iterate checked
            break
        # u <- max(psi, u - eta r) in place, the same operations in order
        r *= eta
        u -= r
        np.maximum(psi, u, out=u)
    raise _iteration_limit(
        spec, f"projected gradient did not reach tol {params.tol:g} in "
        f"{params.max_iter} iterations", u, params.max_iter, "projected_gradient", params)


def _solve_free_block(op: FracLapOperator, free: np.ndarray, psi: np.ndarray,
                      f: np.ndarray, start: np.ndarray) -> np.ndarray:
    """The active-set pass iterate: u = psi off F, A_FF u_F = f_F - A_FS psi_S on F.

    Up to DENSE_LIMIT, op.block gathers both blocks for spd_solve.  Above,
    Strang-preconditioned CG on zero-extended FFT matvecs runs to
    _FREE_BLOCK_TOL, warm-started at start_F.
    """
    u = psi.copy()
    if not free.any():
        return u
    if op.grid.n <= DENSE_LIMIT:
        rhs = f[free] - op.block(free, ~free) @ psi[~free]
        u[free] = spd_solve(op.block(free, free), rhs)
        return u

    def extend(x):  # a (k, |F|) stack to (k, n)
        y = np.zeros((len(x), op.grid.n))
        y[:, free] = x
        return y

    rhs = (f - op.apply(np.where(free, 0.0, psi)))[free]
    u[free] = _pcg(lambda x: op.apply(extend(x))[:, free],
                   lambda r: op.strang_solve(extend(r))[:, free],
                   rhs, start[free], _FREE_BLOCK_TOL, PCG_MAX_ITER)
    return u


def solve_active_set(spec: ProblemSpec, params: SolverParams | None = None) -> Solution:
    """Primal active-set iteration with exact complementarity at the end.

    Guess the active set S, pin u = psi on S, solve the free block, then
    move primal-infeasible free nodes into S and dual-infeasible active
    nodes out.  _solve_free_block solves each pass's free block, given the
    previous pass as its start.  For M-matrices this terminates in
    finitely many passes (Hintermueller, Ito & Kunisch, 2002).
    The classification tests only free nodes for u < psi and active nodes
    for r < 0, so a settled pass returns only if its primal and dual KKT
    parts pass the final gate (see _GATE_ROUNDOFF).
    Running out of passes (params.max_iter), a cycle, a failed free-block
    solve or a settled pass above the gate raises IterationLimitError with
    the iterate of least KKT violation.
    """
    params = params or SolverParams()
    op, psi, f = spec.op, spec.psi, spec.f
    active = np.zeros(spec.n, dtype=bool)
    seen = set()
    u = psi.copy()
    best, best_viol = u, np.inf
    # Classification slop at machine scale of the block solves.
    eps = 1e-12 * (1.0 + float(np.abs(psi).max()) + float(np.abs(f).max()))
    for it in range(1, params.max_iter + 1):
        key = active.tobytes()
        if key in seen:  # a cycle: no later pass can settle
            break
        seen.add(key)
        free = ~active
        try:
            u = _solve_free_block(op, free, psi, f, u)
        except IterationLimitError as exc:
            raise _iteration_limit(spec, f"active set pass {it}: {exc}", best,
                                   it - 1, "active_set", params) from None
        r = op.apply(u) - f
        primal_bad = free & (u < psi - eps)
        dual_bad = active & (r < -eps)
        settled = not primal_bad.any() and not dual_bad.any()
        if settled:
            gate = max(params.tol, _GATE_ROUNDOFF * np.finfo(float).eps * op.diag
                       * max(1.0, float(np.abs(u).max())))
            if np.maximum(psi - u, -r).max() <= gate:
                return make_solution(spec, u, it, "active_set", True, params)
        viol, _ = kkt_violation(spec, u, residual=r)
        if viol < best_viol:
            best, best_viol = u, viol
        if settled:  # the next pass would repeat this one
            raise _iteration_limit(
                spec, f"active set settled at pass {it} with a primal or dual KKT "
                f"part above its gate {gate:.3e}", best, it, "active_set", params)
        active = (active | primal_bad) & ~dual_bad
    passes = len(seen)  # params.max_iter unless an active set came back
    raise _iteration_limit(spec, f"active set did not settle in {passes} passes",
                           best, passes, "active_set", params)


# Obstacle solvers by method name, in the order the CLI reports them.  The
# entries call the module functions by name at call time, so a wrapper
# installed on this module (a profiler, a test double) sees every call.
SOLVERS = {
    "psor": lambda spec, params: solve_psor(spec, params),
    "pg": lambda spec, params: solve_projected_gradient(spec, params),
    "activeset": lambda spec, params: solve_active_set(spec, params),
}


def _spectral_radius_estimate(op: FracLapOperator, scale: np.ndarray) -> float:
    """Power iteration, 60 steps, on v -> A^{-1}(scale * v); scale >= 0."""
    if scale.max() <= 0.0:
        return 0.0
    n = op.grid.n
    v = np.ones(n) / np.sqrt(n)
    rho = 0.0
    for _ in range(60):
        w = solve_linear(op, scale * v)
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            return 0.0
        rho, v = norm, w / norm
    return rho


@lru_cache(maxsize=1)
def _penalty_setup(op: FracLapOperator, psi_plus: bytes, params: SolverParams):
    """The part of solve_penalty that does not depend on eps.

    Returns the PSOR solution of the obstacle problem (psi^+, 0), q = (A psi^+)^+,
    ||A^{-1}||_inf and the spectral radius of A^{-1} diag(q), read-only.  The
    last call is memoised on (operator identity, bits of psi^+, params), so
    an eps sweep on one operator and obstacle solves once; an
    IterationLimitError is raised again by every call.
    """
    n = op.grid.n
    psi_plus = np.frombuffer(psi_plus)
    exact = solve_psor(ProblemSpec(op=op, psi=psi_plus, f=np.zeros(n)), params)
    q = np.maximum(op.apply(psi_plus), 0.0)
    ainv_norm = float(solve_linear(op, np.ones(n)).max())  # ||A^{-1}||_inf, A^{-1} > 0
    rho = _spectral_radius_estimate(op, q)
    for array in (exact.u, exact.residual, exact.active_set, q):
        array.flags.writeable = False
    return exact, q, ainv_norm, rho


def _check_penalty_size(n: int):
    """The penalty route's size cap, kept by solve_penalty and by the CLI before it solves."""
    if n > DENSE_LIMIT:
        raise ValueError(f"penalty solver requires n <= {DENSE_LIMIT}, got {n}")


def solve_penalty(spec: ProblemSpec, penalty_params: PenaltyParams | None = None,
                  params: SolverParams | None = None) -> PenaltyResult:
    """Penalty approximation of the obstacle problem (zero forcing only).

    Replaces the constraint by the semilinear equation

        A u_eps = theta_eps(u_eps - psi^+) * (A psi^+)^+,

    solved by damped Picard iteration

        u^{k+1} = (1 - d) u^k + d * A^{-1}[theta_eps(u^k - psi^+) (A psi^+)^+],

    warm-started at the PSOR solution u of the obstacle problem.  The exact
    penalty solution brackets u from above: u <= u_eps <= u + eps, and that
    sandwich is asserted (with slack 10*tol) before returning.

    Requires f = 0; reduce general forcing with reduce_to_zero_forcing first.
    The initial damping is capped at 1.8 / (1 + rho*L), the local-contraction
    threshold (rho = spectral radius of A^{-1} diag((A psi^+)^+), L = Lipschitz
    bound of theta); stagnation halves it, up to four times.  The PSOR solve,
    rho and ||A^{-1}||_inf do not depend on eps; see _penalty_setup for how
    successive calls share them.
    """
    penalty_params = penalty_params or PenaltyParams()
    params = params or SolverParams()
    op = spec.op
    n = spec.n
    if np.any(spec.f != 0.0):
        raise ValueError("solve_penalty requires zero forcing; "
                         "apply reduce_to_zero_forcing first")
    _check_penalty_size(n)

    psi_plus = np.maximum(spec.psi, 0.0)
    exact, q, ainv_norm, rho = _penalty_setup(op, psi_plus.tobytes(), params)
    theta = penalty_params.theta
    eps = penalty_params.epsilon
    lip = penalty_params.lipschitz_bound()
    d = min(penalty_params.picard_damping, 1.8 / (1.0 + rho * lip))

    # ||u - u*||_inf <= ||A^{-1}||_inf ||F(u)||_inf: the residual equals
    # (A + Xi) e with Xi >= 0 diagonal, and M-matrix comparison applies.
    stop = params.tol / max(ainv_norm, 1e-300)

    u_eps = exact.u.copy()
    halvings = 0
    best_res = np.inf
    best_iterate = u_eps.copy()
    stall = 0
    stall_window = 2000
    it = 0
    while True:
        rhs = theta(u_eps - psi_plus) * q
        resid = op.apply(u_eps)
        resid -= rhs
        res = float(np.abs(resid, out=resid).max())
        if res <= stop:
            break
        if res < best_res * (1.0 - 1e-6):
            best_res, best_iterate, stall = res, u_eps.copy(), 0
        else:
            stall += 1
            if stall > stall_window and halvings < 4:
                halvings += 1
                d *= 0.5
                u_eps = best_iterate.copy()
                stall = 0
                continue
        if stall > stall_window or it >= penalty_params.max_outer:
            message = (f"penalty Picard stagnated at residual {best_res:.3e} "
                       f"after {halvings} dampings" if stall > stall_window else
                       f"penalty Picard exceeded max_outer={penalty_params.max_outer} "
                       f"(residual {res:.3e})")
            raise IterationLimitError(
                message, make_solution(spec, exact.u, it, "penalty", False, params))
        # u_eps <- (1 - d) u_eps + d A^{-1} rhs in place, the same operations
        w = solve_linear(op, rhs)
        w *= d
        u_eps *= 1.0 - d
        u_eps += w
        it += 1

    slack = 10.0 * params.tol
    gap = u_eps - exact.u
    if gap.min() < -slack or gap.max() > eps + slack:
        raise SolverError(
            "penalty sandwich violated: "
            f"min gap {gap.min():.3e}, max gap {gap.max():.3e}, eps {eps:g}")
    return PenaltyResult(solution=exact, u_eps=u_eps, outer_iterations=it,
                         epsilon=eps, damping_used=d)


def brute_force_oracle(spec: ProblemSpec, params: SolverParams | None = None) -> Solution:
    """Ground truth by enumeration of all 2^n candidate active sets.

    For each subset S solve the constrained linear system (u = psi on S,
    A u = f off S) and keep the candidates satisfying u >= psi and
    A u - f >= 0 within ORACLE_FEAS_TOL.  All surviving candidates must
    agree on u (subsets differing only in degenerate biactive nodes produce
    the same vector); zero survivors or several distinct ones raise
    OracleAmbiguityError so callers can regenerate the instance.
    """
    params = params or SolverParams()
    n = spec.n
    if n > ORACLE_MAX_N:
        raise ValueError(f"oracle enumeration requires n <= {ORACLE_MAX_N}, got {n}")
    A = spec.op.dense()
    psi, f = spec.psi, spec.f
    candidates = []
    for mask in range(1 << n):
        active = np.array([(mask >> i) & 1 for i in range(n)], dtype=bool)
        u = psi.copy()
        free = ~active
        if free.any():
            rhs = f[free] - A[np.ix_(free, active)] @ psi[active]
            try:
                u[free] = np.linalg.solve(A[np.ix_(free, free)], rhs)
            except np.linalg.LinAlgError:
                continue
        r = A @ u - f
        if np.all(u >= psi - ORACLE_FEAS_TOL) and np.all(r >= -ORACLE_FEAS_TOL):
            candidates.append(u)
    if not candidates:
        raise OracleAmbiguityError("no candidate active set satisfies the KKT system")
    distinct = [candidates[0]]
    for u in candidates[1:]:
        if all(np.abs(u - v).max() > 1e-8 for v in distinct):
            distinct.append(u)
    if len(distinct) > 1:
        raise OracleAmbiguityError(
            f"{len(distinct)} distinct KKT points within tolerance "
            "(degenerate instance)")
    return make_solution(spec, distinct[0], 1 << n, "oracle", True, params)
