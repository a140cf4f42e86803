"""Solvers for the discrete obstacle problem and the obstacle-free equation.

The discrete obstacle problem is the convex minimization

    min { J(v) = (1/2) h v.(A v) - h f.v  :  v >= psi componentwise },

equivalently the linear complementarity problem

    u >= psi,   A u - f >= 0,   (A u - f) . (u - psi) = 0.

Because A is an M-matrix the LCP has a unique solution, and every solver
here computes that same vector: projected SOR sweeps, accelerated projected
gradient, a primal active-set iteration, a penalty scheme, and a brute-force
enumeration oracle for small n.  Solvers are single-threaded and
deterministic given (spec, params); distinct solves on shared immutable
operators may run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .operator import (PCG_MAX_ITER, PCG_TOL, FracLapOperator, IterationLimitError,
                       SolverError, _pcg)

__all__ = [
    "ProblemSpec",
    "SolverParams",
    "PenaltyParams",
    "Solution",
    "PenaltyResult",
    "SolverError",
    "IterationLimitError",
    "OracleAmbiguityError",
    "kkt_violation",
    "roundoff_tol",
    "make_solution",
    "solve_linear",
    "solve_psor",
    "solve_projected_gradient",
    "solve_active_set",
    "solve_penalty",
    "brute_force_oracle",
    "SOLVERS",
]

# Roundoff factor c of roundoff_tol, max(tol, c eps D max(1, ||u||_inf)) with
# eps the machine epsilon: the active set's final gate, the KKT and
# Lewy-Stampacchia checkers and the oracle's feasibility filter never hold a
# residual to less.  Over every active-set solve of the verify-512-768
# benchmark workload at seeds 3 and 7 (n = 512 and 768; the main solve and the
# comparison checkers' solves) the primal and dual KKT parts reached
# 4.74 eps D max(1, ||u||_inf), so c = 64 leaves a 13x margin.
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
# The oracle keeps candidates with u >= psi and A u - f >= 0 within
# roundoff_tol(op, u, ORACLE_FEAS_TOL).
ORACLE_FEAS_TOL = 1e-10


class OracleAmbiguityError(SolverError):
    """Zero or multiple KKT points within tolerance: degenerate instance."""


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """Obstacle psi and forcing f sampled on the operator's grid.

    The feasible set K = {v : v >= psi componentwise} is never empty:
    psi^+ is always feasible.  Data whose products would overflow somewhere
    in a solver or a checker is refused with ValueError (see _DATA_SLACK).
    psi and f are kept as read-only copies of the caller's arrays, so the
    data derived from them that a solver or a checker needs, shift and
    ls_bound, is computed on first use and kept, read-only.  A problem
    compares and hashes by identity, as its operator does, so what is
    memoised on it (see _penalty_setup) is not shared with an equal copy.
    """

    op: FracLapOperator
    psi: np.ndarray
    f: np.ndarray

    def __post_init__(self):
        for name in ("psi", "f"):  # read-only copies: shift and ls_bound cannot go stale
            v = self.op.grid.check_vector(getattr(self, name)).copy()
            v.flags.writeable = False
            object.__setattr__(self, name, v)
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

    @cached_property
    def shift(self) -> np.ndarray:
        """w = A^{-1} f, the obstacle-free solution: u solves (psi, f) iff
        u - w solves the zero-forcing problem (psi - w, 0)."""
        w = solve_linear(self.op, self.f)
        w.flags.writeable = False
        return w

    @cached_property
    def ls_bound(self) -> np.ndarray:
        """(A (psi - w)^+)^+, the Lewy-Stampacchia bound on A u - f.

        It equals (A (psi v w) - f)^+, the classical bound with the obstacle
        lifted to psi v w, which leaves the solution unchanged; it is also
        the penalty forcing q of the zero-forcing problem."""
        bound = np.maximum(self.op.apply(np.maximum(self.psi - self.shift, 0.0)), 0.0)
        bound.flags.writeable = False
        return bound

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
    """Penalty width eps and the budget of Newton steps."""

    epsilon: float = 1e-2
    max_outer: int = 500_000

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if self.max_outer < 1:
            raise ValueError("max_outer must be positive")

    def theta(self, t) -> np.ndarray:
        """Cubic smoothstep cutoff theta_eps: 1 for t <= 0, 0 for t >= eps,
        C^1 and nonincreasing between."""
        w = np.clip(np.asarray(t, float) / self.epsilon, 0.0, 1.0)
        return 1.0 - 3.0 * w**2 + 2.0 * w**3

    def slope(self, t) -> np.ndarray:
        """-theta_eps'(t) = 6 w (1 - w) / eps >= 0, w = clip(t / eps, 0, 1)."""
        w = np.clip(np.asarray(t, float) / self.epsilon, 0.0, 1.0)
        return 6.0 * w * (1.0 - w) / self.epsilon


@dataclass(frozen=True)
class Solution:
    """Computed minimizer with KKT residual and active-set classification.

    Invariants at convergence (tol from the producing solver's params):
    u_i >= psi_i - tol, r_i >= -tol, and r_i (u_i - psi_i) <= tol (1 + |r_i|).
    The active set meets the first two with tol raised to its final gate,
    roundoff_tol(op, u, tol), and does not test the third.
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
    max_gap: float


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


def roundoff_tol(op: FracLapOperator, u: np.ndarray, tol: float) -> float:
    """max(tol, c eps D max(1, ||u||_inf)), c = _GATE_ROUNDOFF: tol, raised to
    the roundoff of the matvec A u where that is larger."""
    return max(tol, float(_GATE_ROUNDOFF * np.finfo(float).eps * op.diag
                          * max(1.0, float(np.abs(u).max()))))


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


def solve_linear(op: FracLapOperator, f) -> np.ndarray:
    """Solve A w = f (the obstacle-free problem), or A w_j = f_j for each
    row of a (k, n) stack.

    w = (L(x) L(x)^T f - L(y) L(y)^T f) / x_0 with the Gohberg-Semencul
    generators x and y = ZJx of op.inverse_generators.  Each product with a
    triangular Toeplitz factor is one length-2n FFT pair along the last
    axis, so each row of a stack gets the bits of its own call.  The first
    call on an operator computes its generators, and raises
    IterationLimitError if their conjugate gradients give up.  Since A^{-1}
    is entrywise positive, f >= 0 implies w >= 0 (discrete weak maximum
    principle).
    """
    f = op.grid.check_vectors(f)
    if not np.isfinite(f).all():
        raise ValueError("right-hand side must be finite")
    n = op.grid.n
    x0, gx, gy = op.inverse_generators
    fhat = np.fft.rfft(f, 2 * n)
    # L(v)^T f is the correlation of v with f: conj(rfft(v)) rfft(f).
    tx = np.fft.rfft(np.fft.irfft(gx.conj() * fhat, 2 * n)[..., :n], 2 * n)
    ty = np.fft.rfft(np.fft.irfft(gy.conj() * fhat, 2 * n)[..., :n], 2 * n)
    return np.fft.irfft(gx * tx - gy * ty, 2 * n)[..., :n] / x0


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
    """Monotone accelerated projected gradient (MFISTA) with gradient restart.

    Each step projects a gradient step from the extrapolated point y,

        z = max(psi, y - eta (A y - f)),   eta = 1 / lambda_max_bound,

    and takes z as the next iterate x only if it raises the energy
    J(v) = (1/2) v.(A v) - f.v by no more than the roundoff of J,
    eps (|(1/2) z.(A z)| + |f.z|); otherwise x stays (Beck & Teboulle 2009).
    y then moves on by the t_k recursion, or restarts at x with t = 1 when
    (y - z).(z - x) > 0, the step against the progress (O'Donoghue & Candes
    2015).  A y is the same combination of the products A x and A z as y is
    of x and z, so a step costs one matvec.  Only an accepted z is judged,
    by PSOR's stop test on its fresh A z, and the give-up record is the last
    accepted iterate.  Deterministic given the start psi^+.
    """
    params = params or SolverParams()
    op, psi, f = spec.op, spec.psi, spec.f
    eta, eps = 1.0 / op.lambda_max_bound(), np.finfo(float).eps
    x = spec.default_start()
    ax = op.apply(x)
    if _kkt_met(spec, x, ax - f, params.tol):
        return make_solution(spec, x, 0, "projected_gradient", True, params)
    jx = 0.5 * np.dot(x, ax) - np.dot(f, x)
    y, ay, t = x, ax, 1.0
    for it in range(1, params.max_iter + 1):
        z = np.maximum(psi, y - eta * (ay - f))
        az = op.apply(z)
        quad, lin = 0.5 * np.dot(z, az), np.dot(f, z)
        restart = np.dot(y - z, z - x) > 0.0
        x_old, ax_old = x, ax
        if quad - lin <= jx + eps * (abs(quad) + abs(lin)):
            x, ax, jx = z, az, quad - lin
            if _kkt_met(spec, x, ax - f, params.tol):
                return make_solution(spec, x, it, "projected_gradient", True, params)
        if restart:
            y, ay, t = x, ax, 1.0
            continue
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        a, b = t / t_next, (t - 1.0) / t_next
        y = x + a * (z - x) + b * (x - x_old)
        ay = ax + a * (az - ax) + b * (ax - ax_old)
        t = t_next
    raise _iteration_limit(
        spec, f"projected gradient did not reach tol {params.tol:g} in "
        f"{params.max_iter} iterations", x, params.max_iter, "projected_gradient", params)


def _solve_free_block(op: FracLapOperator, free: np.ndarray, psi: np.ndarray,
                      f: np.ndarray, start: np.ndarray) -> np.ndarray:
    """The active-set pass iterate: u = psi off F, A_FF u_F = f_F - A_FS psi_S on F.

    Conjugate gradients preconditioned by the restricted Strang circulant,
    on zero-extended FFT matvecs, run to PCG_TOL, warm-started at start_F.
    """
    u = psi.copy()
    if not free.any():
        return u

    def extend(x):  # a vector on F to the grid, zero off F
        y = np.zeros(op.grid.n)
        y[free] = x
        return y

    rhs = (f - op.apply(np.where(free, 0.0, psi)))[free]
    u[free] = _pcg(lambda x: op.apply(extend(x))[free],
                   lambda r: op.strang_solve(extend(r))[free],
                   rhs, start[free], PCG_TOL, PCG_MAX_ITER)
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
    parts pass the final gate, roundoff_tol(op, u, params.tol).
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
            gate = roundoff_tol(op, u, params.tol)
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


@lru_cache(maxsize=1)
def _penalty_setup(spec: ProblemSpec, params: SolverParams):
    """The part of solve_penalty that does not depend on eps: psi^+ =
    (psi - w)^+ with w = spec.shift, the active-set solution of the
    zero-forcing problem (psi^+, 0), whose ProblemSpec checks psi^+, and
    ||A^{-1}||_inf, the arrays read-only.  The last call is memoised on
    (spec, params), the spec by identity, so an eps sweep on one problem
    solves once; an IterationLimitError is raised again by every call.
    """
    zero = ProblemSpec(spec.op, np.maximum(spec.psi - spec.shift, 0.0), np.zeros(spec.n))
    exact = solve_active_set(zero, params)
    ainv_norm = float(solve_linear(spec.op, np.ones(spec.n)).max())  # ||A^{-1}||_inf, A^{-1} > 0
    for array in (exact.u, exact.residual, exact.active_set):
        array.flags.writeable = False
    return zero.psi, exact, ainv_norm


def solve_penalty(spec: ProblemSpec, penalty_params: PenaltyParams | None = None,
                  params: SolverParams | None = None) -> PenaltyResult:
    """Penalty approximation of the obstacle problem, for any forcing.

    Solves on the zero-forcing problem (psi - w, 0), w = spec.shift = A^{-1} f.
    With psi^+ = (psi - w)^+ the constraint becomes the semilinear equation

        F(v) = A v - theta_eps(v - psi^+) q = 0,   q = (A psi^+)^+ = spec.ls_bound,

    solved by Newton's method from the active-set solution u of the
    zero-forcing obstacle problem.  The Jacobian A + diag(g),
    g = slope(v - psi^+) q >= 0, is an SPD M-matrix; each step solves it by
    conjugate gradients preconditioned by the Strang circulant, to PCG_TOL.
    The step length t starts at 1 and halves until ||F||_2^2 falls to
    (1 - 1e-4 t) times its value (Armijo); damping_used is the smallest t
    taken.  The exact penalty solution brackets u from above:
    u <= u_eps <= u + eps, and that sandwich is asserted (with slack 10*tol)
    before returning; max_gap is max(u_eps - u).

    Every vector comes back in the coordinates of spec, w added: the
    solution (a "penalty" Solution counting Newton steps), u_eps, and the
    best iterate of a give-up.  Running out of steps (max_outer), a line
    search whose trial point is the iterate itself, or a failed Jacobian
    solve raises IterationLimitError with u as its best.  A failed
    active-set solve raises its own, its best re-made as an unconverged
    "penalty" Solution.  That solve and ||A^{-1}||_inf do not depend on
    eps; calls on one spec with the same params share them (_penalty_setup).
    spec's data check covers psi - w: ||w||_inf <= ||f||_inf / (2 tail(n)).
    """
    penalty_params = penalty_params or PenaltyParams()
    params = params or SolverParams()
    op, shift = spec.op, spec.shift

    def in_spec(u, iterations, converged):  # a zero-forcing u's Solution, shifted to spec
        return make_solution(spec, u + shift, iterations, "penalty", converged, params)

    try:
        psi_plus, exact, ainv_norm = _penalty_setup(spec, params)
    except IterationLimitError as exc:  # its best is an active-set Solution of (psi^+, 0)
        exc.best = in_spec(exc.best.u, exc.best.iterations, False)
        raise
    q, eps = spec.ls_bound, penalty_params.epsilon
    theta, slope = penalty_params.theta, penalty_params.slope

    def residual(v):
        return op.apply(v) - theta(v - psi_plus) * q

    # ||u - u*||_inf <= ||A^{-1}||_inf ||F(u)||_inf: the residual equals
    # (A + Xi) e with Xi >= 0 diagonal, and M-matrix comparison applies.
    stop = params.tol / max(ainv_norm, 1e-300)

    def give_up(message):  # after it steps, at the residual res
        return IterationLimitError(f"{message} (residual {np.abs(res).max():.3e})",
                                   in_spec(exact.u, it, False))

    u_eps = exact.u.copy()
    res = residual(u_eps)
    d = 1.0
    it = 0
    while np.abs(res).max() > stop:
        if it >= penalty_params.max_outer:
            raise give_up(f"penalty Newton exceeded max_outer={penalty_params.max_outer}")
        g = slope(u_eps - psi_plus) * q
        try:
            step = _pcg(lambda x: op.apply(x) + g * x, op.strang_solve, res, None,
                        PCG_TOL, PCG_MAX_ITER)
        except IterationLimitError as exc:
            raise give_up(f"penalty Newton step {it + 1}: {exc}") from None
        norm2, t = np.dot(res, res), 1.0
        while True:
            trial = u_eps - t * step
            if np.array_equal(trial, u_eps):
                raise give_up(f"penalty Newton line search stalled at step {it + 1}")
            trial_res = residual(trial)
            if np.dot(trial_res, trial_res) <= (1.0 - 1e-4 * t) * norm2:
                break
            t *= 0.5
        u_eps, res, d = trial, trial_res, min(d, t)
        it += 1

    slack = 10.0 * params.tol
    gap = u_eps - exact.u
    if gap.min() < -slack or gap.max() > eps + slack:
        raise SolverError(
            "penalty sandwich violated: "
            f"min gap {gap.min():.3e}, max gap {gap.max():.3e}, eps {eps:g}")
    return PenaltyResult(solution=in_spec(exact.u, it, True), u_eps=u_eps + shift,
                         outer_iterations=it, epsilon=eps, damping_used=d,
                         max_gap=float(gap.max()))


def brute_force_oracle(spec: ProblemSpec, params: SolverParams | None = None) -> Solution:
    """Ground truth by enumeration of all 2^n candidate active sets.

    For each subset S solve the constrained linear system (u = psi on S,
    A u = f off S) and keep the candidates satisfying u >= psi and
    A u - f >= 0 within roundoff_tol(op, u, ORACLE_FEAS_TOL).  All surviving
    candidates must agree on u (subsets differing only in degenerate biactive
    nodes produce the same vector); zero survivors or several distinct ones raise
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
        if np.maximum(psi - u, -r).max() <= roundoff_tol(spec.op, u, ORACLE_FEAS_TOL):
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
