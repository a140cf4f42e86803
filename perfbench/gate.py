"""Correctness gate for the outputs of timed CLI invocations.

Every invocation the benchmark times is judged here. It fails if

- its exit code is nonzero;
- a verify run does not end in "all checks passed";
- the KKT violation recomputed from the written u is above solver.tol;
- u differs by more than REF_TOL from a reference made by a solver other
  than the timed one (n <= REF_MAX_N only; above that the KKT certificate
  stands alone);
- a sweep row is not ok, did not converge, or its max_penalty_gap lies
  outside [0, epsilon].

The reference solver is a primal-dual active-set (semismooth Newton)
iteration on the dense matrix, written here, so it shares no solver code
with the package under test.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np
from fracobstacle import Grid, assemble_operator

REF_TOL = 1e-7
REF_MAX_N = 512


def kkt_violation(op, psi, f, u) -> float:
    """Worst of primal infeasibility, dual infeasibility and relative
    complementarity, the quantity the solvers stop on."""
    r = op.apply(u) - f
    gap = u - psi
    return float(max((-gap).max(), (-r).max(), (r * gap / (1.0 + np.abs(r))).max()))


def reference_solution(op, psi, f, max_steps: int = 200) -> np.ndarray:
    """Primal-dual active set on the dense matrix: pin u = psi where
    lambda + (psi - u) > 0, solve A u = f on the rest, repeat until the
    active set is stable."""
    A = op.dense()
    active = np.linalg.solve(A, f) < psi
    for _ in range(max_steps):
        u = psi.copy()
        free = ~active
        if free.any():
            rhs = f[free] - A[np.ix_(free, active)] @ psi[active]
            u[free] = np.linalg.solve(A[np.ix_(free, free)], rhs)
        lam = A @ u - f
        lam[free] = 0.0
        nxt = lam + (psi - u) > 0.0
        if np.array_equal(nxt, active):
            return u
        active = nxt
    raise RuntimeError("reference active-set iteration did not settle")


def _operator(record):
    grid = record["grid"]
    return assemble_operator(Grid(grid["a"], grid["b"], grid["n"]), record["s"])


def check_result(record: dict, ref_u: np.ndarray | None) -> list[str]:
    """Problems with a solve or verify JSON record (empty list: correct)."""
    problems = []
    op = _operator(record)
    u = np.asarray(record["u"], dtype=float)
    psi = np.asarray(record["psi"], dtype=float)
    f = np.asarray(record["f"], dtype=float)
    tol = float(record["config"]["solver.tol"])
    viol = kkt_violation(op, psi, f, u)
    if not viol <= tol:
        problems.append(f"kkt_violation {viol:.3e} above solver.tol {tol:g}")
    if ref_u is not None:
        dev = float(np.abs(u - ref_u).max())
        if not dev <= REF_TOL:
            problems.append(f"u deviates from the reference by {dev:.3e}")
    if record["command"] == "verify":
        bad = [r["check_id"] for r in record["reports"] if not r["passed"]]
        if bad:
            problems.append(f"failed checks: {', '.join(bad)}")
    return problems


def check_invocation(command: str, exit_code: int, stdout: str, out_path: str,
                     ref: dict) -> list[str]:
    """Problems with one CLI invocation; ref holds the reference for its config.

    ref keys: "u" (reference solution or None), and for sweeps "energy",
    "epsilons" and "tol".
    """
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    if command == "verify":
        lines = stdout.strip().splitlines()
        if not lines or lines[-1] != "all checks passed":
            return ["verify did not end in 'all checks passed'"]
    try:
        with open(out_path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        return [f"cannot read output: {exc}"]
    try:
        return check_output(command, text, ref)
    except (ValueError, KeyError, IndexError) as exc:
        return [f"malformed output: {exc!r}"]


def check_output(command: str, text: str, ref: dict) -> list[str]:
    """Problems with the JSON or CSV text an invocation wrote."""
    if command == "sweep":
        return check_sweep(text, ref)
    return check_result(json.loads(text), ref["u"])


def corrupt(command: str, text: str) -> str:
    """Negative control: the output with one defect the gate must catch.

    A solve or verify record gets one u entry pushed below psi; a sweep gets
    its first max_penalty_gap pushed above epsilon.
    """
    if command == "sweep":
        rows = list(csv.DictReader(io.StringIO(text)))
        rows[0]["max_penalty_gap"] = repr(2.0 * float(rows[0]["value"]))
        out = io.StringIO()
        writer = csv.DictWriter(out, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        return out.getvalue()
    record = json.loads(text)
    i = len(record["u"]) // 2
    record["u"][i] = record["psi"][i] - 1e-3
    return json.dumps(record)


def check_sweep(text: str, ref: dict) -> list[str]:
    """Problems with an epsilon-axis sweep CSV."""
    rows = list(csv.DictReader(io.StringIO(text)))
    epsilons = ref["epsilons"]
    if [float(r["value"]) for r in rows] != list(epsilons):
        return [f"sweep rows {[r['value'] for r in rows]} do not match {epsilons}"]
    problems = []
    for row, eps in zip(rows, epsilons):
        where = f"epsilon={eps:g}"
        if row["status"] != "ok" or row["converged"] != "1":
            problems.append(f"{where}: status {row['status']!r}, converged {row['converged']!r}")
            continue
        gap = float(row["max_penalty_gap"])
        if not 0.0 <= gap <= eps:
            problems.append(f"{where}: max_penalty_gap {gap:.3e} outside [0, {eps:g}]")
        viol = float(row["kkt_violation"])
        if not viol <= ref["tol"]:
            problems.append(f"{where}: kkt_violation {viol:.3e} above {ref['tol']:g}")
        dev = abs(float(row["energy"]) - ref["energy"])
        if not dev <= REF_TOL * (1.0 + abs(ref["energy"])):
            problems.append(f"{where}: energy deviates from the reference by {dev:.3e}")
    return problems
