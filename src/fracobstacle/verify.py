"""Executable checkers for the structural theorems of the discrete problem.

Each checker turns one theorem about the obstacle problem into a pass/fail
Report over computed solutions: KKT conditions, the two-sided
Lewy-Stampacchia residual bound, the Minty variational characterization,
the smallest-supersolution property, comparison principles in the forcing
and in the obstacle, sup-norm continuous dependence, the sup-norm bounds
on the solution, and the truncation inequalities of the underlying
bilinear form.
These are exact discrete theorems for the M-matrix discretization, so the
checkers assert them at tight tolerances; failures indicate solver or
assembly bugs, not discretization error.

Checkers are pure given (inputs, seed): identical inputs give bit-identical
worst violations.  Draws are taken in sequence; products are chunked: the
sampling checkers send _CHUNK draws at a time through one matvec or linear
solve of a stack, whose rows get the bits of single calls, so the results
do not depend on the chunk size.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .operator import FracLapOperator
from .solvers import (
    ProblemSpec,
    SolverParams,
    kkt_violation,
    roundoff_tol,
    solve_active_set,
    solve_linear,
)

__all__ = [
    "Report",
    "ConvergenceReport",
    "check_kkt",
    "check_lewy_stampacchia",
    "check_minty",
    "check_smallest_supersolution",
    "check_comparison_in_f",
    "check_linfty_dependence",
    "check_bounds_cinfty",
    "check_truncation_identities",
    "run_obstacle_convergence",
]

# Draws per stacked matvec or linear solve in the sampling checkers.
_CHUNK = 16


@dataclass(frozen=True)
class Report:
    """Outcome of one checker: passed iff worst_violation <= tol.

    worst_violation is signed; negative values measure the margin by which
    the inequality held.  inconclusive flags checks whose sampling produced
    no usable draws (flagged, not failed).
    """

    check_id: str
    passed: bool
    worst_violation: float
    worst_index_or_sample: int
    samples: int
    seed: int
    tol: float
    inconclusive: bool = False
    note: str = ""

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ConvergenceReport:
    """Errors of solutions under a shrinking obstacle perturbation."""

    deltas: tuple
    sup_errors: tuple
    energy_errors: tuple
    sup_bounds: tuple
    monotone_flag: bool
    sup_bounds_ok: bool
    energy_threshold: float
    passed: bool

    def __post_init__(self):
        k = len(self.deltas)
        if k < 3 or any(len(seq) != k for seq in
                        (self.sup_errors, self.energy_errors, self.sup_bounds)):
            raise ValueError("convergence report needs >= 3 equal-length sequences")


def _chunks(samples: int) -> list[tuple[slice, int]]:
    """Slice and size of each chunk of `samples` draws.  A checker fills one
    array of per-draw values through the slices: small arrays kept per chunk
    fragment the heap, and raised the peak RSS of a verify at n=512 by 2 MB."""
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    return [(slice(start, start + _CHUNK), min(_CHUNK, samples - start))
            for start in range(0, samples, _CHUNK)]


def _worst(check_id: str, viol, tol: float, seed: int = 0, note: str = "",
           holds: bool = True) -> Report:
    """The Report of a check whose entries violate it by viol (signed).

    The worst entry is the first maximum; a NaN counts as the maximum and
    fails the check.  holds carries any further condition of the check.
    """
    index = int(np.argmax(viol))
    worst = float(viol[index])
    return Report(check_id=check_id, passed=worst <= tol and holds,
                  worst_violation=worst, worst_index_or_sample=index,
                  samples=len(viol), seed=seed, tol=tol, note=note)


def check_kkt(spec: ProblemSpec, u, tol: float = 1e-8) -> Report:
    """Feasibility, dual feasibility, and complementarity of an iterate,
    decided against roundoff_tol(op, u, tol), which the Report records."""
    u = spec.op.grid.check_vector(u)
    tol = roundoff_tol(spec.op, u, tol)
    worst, idx = kkt_violation(spec, u)
    return Report(check_id="kkt", passed=worst <= tol, worst_violation=worst,
                  worst_index_or_sample=idx, samples=spec.n, seed=0, tol=tol)


def check_lewy_stampacchia(spec: ProblemSpec, u, tol: float = 1e-8) -> Report:
    """Two-sided residual bound 0 <= A u - f <= spec.ls_bound.

    The bound is (A (psi - w)^+)^+ with w = A^{-1} f, which equals
    (A (psi v w) - f)^+.  Decided, like check_kkt, against
    roundoff_tol(op, u, tol).
    """
    u = spec.op.grid.check_vector(u)
    r = spec.op.apply(u) - spec.f
    return _worst("lewy_stampacchia", np.maximum(-r, r - spec.ls_bound),
                  roundoff_tol(spec.op, u, tol))


def check_minty(spec: ProblemSpec, u, samples: int = 200, tol: float = 1e-8,
                seed: int = 0) -> Report:
    """<A v - f, v - u> >= -tol (1 + ||v||) over random feasible v.

    Feasible points are psi + |gaussian| * scale with scale = 1 + ||psi||_inf,
    which lie in K by construction.  Norms are h-weighted.
    """
    u = spec.op.grid.check_vector(u)
    rng = np.random.default_rng(seed)
    scale = 1.0 + float(np.abs(spec.psi).max())
    h = spec.op.grid.h
    values = np.empty(samples)
    for chunk, size in _chunks(samples):
        # rng.normal(size=(k, n)) draws what k calls with size=n draw
        v = spec.psi + np.abs(rng.normal(size=(size, spec.n))) * scale
        pairing = h * np.vecdot(spec.op.apply(v) - spec.f, v - u)
        values[chunk] = -pairing - tol * np.sqrt(h * np.vecdot(v, v))
    return _worst("minty", values, tol, seed)


def check_smallest_supersolution(spec: ProblemSpec, u, samples: int = 200,
                                 seed: int = 0, tol: float = 1e-8) -> Report:
    """Every feasible supersolution dominates the solution.

    Supersolutions are built as U = A^{-1}(f + q) with random q >= 0; draws
    with U >= psi are required to satisfy U >= u - tol, the rest are skipped.
    If no draw is feasible the report is inconclusive, not failed.
    """
    u = spec.op.grid.check_vector(u)
    rng = np.random.default_rng(seed)
    scale = 1.0 + float(np.abs(spec.f).max())
    values, used = np.empty(samples), 0
    for chunk, size in _chunks(samples):
        q = np.abs(rng.normal(size=(size, spec.n))) * scale
        U = solve_linear(spec.op, spec.f + q)
        usable = np.all(U >= spec.psi, axis=1)
        used += int(usable.sum())
        values[chunk] = np.where(usable, (u - U).max(axis=1), -np.inf)
    if used == 0:
        return Report(check_id="smallest_supersolution", passed=True,
                      worst_violation=0.0, worst_index_or_sample=-1,
                      samples=samples, seed=seed, tol=tol, inconclusive=True,
                      note="no feasible supersolution draws")
    return _worst("smallest_supersolution", values, tol, seed,
                  f"feasible draws: {used}/{samples}")


def check_comparison_in_f(spec: ProblemSpec, u, f2, tol: float = 1e-8,
                          params: SolverParams | None = None) -> Report:
    """f >= f2 implies u >= u2 componentwise, u2 solving (psi, f2)."""
    u = spec.op.grid.check_vector(u)
    f2 = spec.op.grid.check_vector(f2)
    if np.any(spec.f < f2):
        raise ValueError("comparison check requires f >= f2 componentwise")
    u2 = solve_active_set(ProblemSpec(spec.op, spec.psi, f2), params).u
    return _worst("comparison_in_f", u2 - u, tol)


def check_linfty_dependence(spec: ProblemSpec, u, psi2, tol: float = 1e-8,
                            params: SolverParams | None = None) -> Report:
    """||(u - u2)^+||_inf <= ||(psi - psi2)^+||_inf, and mirrored for the
    negative parts, u2 solving (psi2, f)."""
    u = spec.op.grid.check_vector(u)
    psi2 = spec.op.grid.check_vector(psi2)
    u2 = solve_active_set(ProblemSpec(spec.op, psi2, spec.f), params).u
    du, dpsi = u - u2, spec.psi - psi2
    plus = float(np.maximum(du, 0.0).max() - np.maximum(dpsi, 0.0).max())
    minus = float(np.maximum(-du, 0.0).max() - np.maximum(-dpsi, 0.0).max())
    worst = max(plus, minus)
    return Report(check_id="linfty_dependence", passed=worst <= tol,
                  worst_violation=worst,
                  worst_index_or_sample=int(np.argmax(np.abs(du))),
                  samples=spec.n, seed=0, tol=tol)


def check_bounds_cinfty(spec: ProblemSpec, u, tol: float = 1e-8) -> Report:
    """Sup-norm bounds psi v w <= u <= V, w = A^{-1} f, V = max psi^+ + A^{-1} f^+.

    u >= psi in K, and u >= w since A (u - w) = A u - f >= 0 and
    A^{-1} >= 0.  V >= psi, and A V - f = (max psi^+) A 1 + f^+ - f >= 0
    since A 1 > 0, so V is a supersolution in K and u, the smallest one,
    lies below it: the L-inf estimate
    ||u||_inf <= ||psi^+||_inf + ||A^{-1}||_inf ||f^+||_inf with an explicit
    constant.  For f = 0 the bounds read psi^+ <= u <= max psi^+.
    """
    u = spec.op.grid.check_vector(u)
    upper = (np.maximum(spec.psi, 0.0).max()
             + solve_linear(spec.op, np.maximum(spec.f, 0.0)))
    return _worst("bounds_cinfty",
                  np.maximum(np.maximum(spec.psi, spec.shift) - u, u - upper), tol)


def check_truncation_identities(op: FracLapOperator, samples: int = 500,
                                seed: int = 0, tol: float = 1e-10) -> Report:
    """Sign and level truncation inequalities of the bilinear form.

    For random v (and v^- = (-v)^+, so v = v^+ - v^-):
        <A v^+, v^->                  <= 0, strict when both parts are nonzero,
        <A v, v^-> + <A v^-, v^->     <= 0,
        <A v, v^+> - <A v^+, v^+>     >= 0,
    and for random m > 0 the level truncation v ^ m = v - (v - m)^+ loses
    energy: <A(v^m), v^m> <= <A v, v> - <A(v-m)^+, (v-m)^+>.

    The strictness margin (smallest observed -<A v^+, v^-> over sign-changing
    draws) is reported in the note and must be positive.
    """
    rng = np.random.default_rng(seed)
    n, h = op.grid.n, op.grid.h

    def pair(ax, y):  # <A x_j, y_j> for each row j, from the products ax = A x
        return h * np.vecdot(ax, y)

    values, t1s, strict = np.empty(samples), np.empty(samples), np.empty(samples, bool)
    for chunk, size in _chunks(samples):
        # row j holds v_j, then its level m_j, as drawn one call at a time
        draws = rng.normal(size=(size, n + 1))
        v, m = draws[:, :n], np.abs(draws[:, n:]) + 0.1
        vp, vm = np.maximum(v, 0.0), np.maximum(-v, 0.0)
        vlm = np.minimum(v, m)
        vmm = np.maximum(v - m, 0.0)
        av, avp, avm, avlm, avmm = np.split(
            op.apply(np.concatenate((v, vp, vm, vlm, vmm))), 5)
        t1 = pair(avp, vm)
        t2 = pair(av, vm) + pair(avm, vm)
        t3 = -(pair(av, vp) - pair(avp, vp))
        t4 = pair(avlm, vlm) - pair(av, v) + pair(avmm, vmm)
        terms = np.stack((t1, t2, t3, t4), axis=1)
        # each draw's first largest term, as max() of the four would pick it
        values[chunk] = terms[np.arange(size), np.argmax(terms, axis=1)]
        t1s[chunk], strict[chunk] = t1, vp.any(axis=1) & vm.any(axis=1)
    margins = -t1s[strict]
    margin = float(margins.min()) if margins.size else 0.0
    note = f"strict cases: {margins.size}, min margin: {margin:.6g}"
    return _worst("truncation_identities", values, tol, seed,
                  note, holds=margins.size == 0 or margin > 0.0)


def run_obstacle_convergence(op: FracLapOperator, f, psi,
                             deltas: Sequence[float], perturbation,
                             tol: float = 1e-8,
                             energy_threshold: float = 1e-6,
                             params: SolverParams | None = None) -> ConvergenceReport:
    """Solve the problems with obstacles psi + delta_k * perturbation.

    Records sup-norm errors against the unperturbed solution (each must obey
    the continuous-dependence bound delta_k * ||perturbation||_inf + tol) and
    h-weighted energy-norm errors, which must be nonincreasing and end below
    energy_threshold.
    """
    deltas = [float(d) for d in deltas]
    if len(deltas) < 3:
        raise ValueError("perturbation schedule needs at least 3 entries")
    if any(d2 >= d1 for d1, d2 in zip(deltas, deltas[1:])) or deltas[-1] <= 0:
        raise ValueError("perturbation schedule must be strictly decreasing and positive")
    f = op.grid.check_vector(f)
    psi = op.grid.check_vector(psi)
    pert = op.grid.check_vector(perturbation)
    pert_inf = float(np.abs(pert).max())
    base = solve_active_set(ProblemSpec(op, psi, f), params).u
    sup_errors, energy_errors, sup_bounds = [], [], []
    for d in deltas:
        uk = solve_active_set(ProblemSpec(op, psi + d * pert, f), params).u
        e = uk - base
        sup_errors.append(float(np.abs(e).max()))
        energy_errors.append(op.energy_norm(e))
        sup_bounds.append(d * pert_inf + tol)
    sup_ok = all(e <= b for e, b in zip(sup_errors, sup_bounds))
    monotone = all(e2 <= e1 + tol for e1, e2 in zip(energy_errors, energy_errors[1:]))
    passed = sup_ok and monotone and energy_errors[-1] < energy_threshold
    return ConvergenceReport(deltas=tuple(deltas), sup_errors=tuple(sup_errors),
                             energy_errors=tuple(energy_errors),
                             sup_bounds=tuple(sup_bounds),
                             monotone_flag=monotone, sup_bounds_ok=sup_ok,
                             energy_threshold=energy_threshold, passed=passed)
