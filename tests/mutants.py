"""Mutation gate: each mutant of the package must fail one of its named tests.

    python tests/mutants.py

A mutant is one textual edit of one file of the package: its `old` string
must occur in that file exactly once.  The runner copies src/ into a
temporary directory, checks that the named tests of the mutants it runs
pass on the unmutated copy, then applies each mutant to a fresh copy and
runs its named tests there.  A mutant whose tests fail is killed; a
survivor fails the gate.  A mutant the table lists as equivalent, with the
reason no result can change, is documentation and is not run.  Exits 0 when
every mutant that runs is killed.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fracobstacle"


class Mutant(NamedTuple):
    name: str
    file: str            # relative to src/fracobstacle
    old: str             # occurs in the file exactly once
    new: str
    tests: tuple         # pytest node ids, relative to the repository root
    equivalent: str = ""  # why no test can kill it; empty for a mutant that must die


MUTANTS = (
    Mutant("bounds_cinfty without its upper half", "verify.py",
           "np.maximum(np.maximum(spec.psi, spec.shift) - u, u - upper)",
           "np.maximum(spec.psi, spec.shift) - u",
           ("tests/test_verify.py::test_bounds_upper_fails_above_max_psi_plus_under_negative_forcing",
            "tests/test_verify.py::test_bounds_upper_on_the_manufactured_instance",
            "tests/test_verify.py::test_bounds_lower_dominates_omega_for_nonnegative_forcing")),
    Mutant("shift returning zeros", "solvers.py",
           "w = solve_linear(self.op, self.f)", "w = np.zeros(self.n)",
           ("tests/test_solvers.py::test_reduction_self_consistency",
            "tests/test_solvers.py::test_penalty_takes_any_forcing")),
    Mutant("ls_bound without its outer positive part", "solvers.py",
           "bound = np.maximum(self.op.apply(np.maximum(self.psi - self.shift, 0.0)), 0.0)",
           "bound = self.op.apply(np.maximum(self.psi - self.shift, 0.0))",
           ("tests/test_solvers.py::test_shift_and_ls_bound_are_read_only_and_computed_once",
            "tests/test_verify.py::test_lewy_stampacchia_random_sweep")),
    Mutant("check_lewy_stampacchia without its upper bound", "verify.py",
           "np.maximum(-r, r - spec.ls_bound)", "-r",
           ("tests/test_verify.py::test_lewy_stampacchia_detects_violations",
            "tests/test_verify.py::test_lewy_stampacchia_equality_for_constant_obstacle")),
    Mutant("penalty setup's psi^+ without its positive part", "solvers.py",
           "np.maximum(spec.psi - spec.shift, 0.0)", "spec.psi - spec.shift",
           ("tests/test_solvers.py::test_penalty_setup_solves_the_positive_part_of_psi_minus_w",)),
    Mutant("list parser refusing only an all-empty list", "config.py",
           "if not all(items):", "if not any(items):",
           ("tests/test_cli.py::test_config_errors_exit_2",)),
    Mutant("negative seed accepted", "config.py",
           'if values["seed"] < 0:', "if False:",
           ("tests/test_cli.py::test_negative_seed_flag_exits_2_before_any_solve",
            "tests/test_cli.py::test_config_errors_exit_2")),
    Mutant("active set dual test at r < -1e-6", "solvers.py",
           "dual_bad = active & (r < -eps)", "dual_bad = active & (r < -1e-6)",
           ("tests/test_solvers.py::test_active_set_classifies_a_node_delta_past_the_obstacle"
            "[True-1e-09]",)),
    Mutant("active set classification slop 1e-9", "solvers.py",
           "eps = 1e-12 * (", "eps = 1e-9 * (",
           ("tests/test_solvers.py::test_active_set_classifies_a_node_delta_past_the_obstacle"
            "[False-5e-10]",)),
    Mutant("penalty sandwich slack 1000 tol", "solvers.py",
           "slack = 10.0 * params.tol", "slack = 1000.0 * params.tol",
           ("tests/test_solvers.py::test_penalty_sandwich_violation_raises",)),
    Mutant("active set catching only IterationLimitError from its free block", "solvers.py",
           "except SolverError as exc:\n"
           "            raise _iteration_limit(spec, f\"active set pass",
           "except IterationLimitError as exc:\n"
           "            raise _iteration_limit(spec, f\"active set pass",
           ("tests/test_solvers.py::test_active_set_gives_up_when_a_free_block_solve_runs_out",
            "tests/test_cli.py::test_exit_3_when_an_active_set_free_block_solve_fails")),
    Mutant("KKT complementarity part halved", "solvers.py",
           "np.divide(residual * gap,", "np.divide(0.5 * residual * gap,",
           ("tests/test_solvers.py::test_kkt_violation_matches_looped_reference",)),
    Mutant("truncation_identities without its strictness condition", "verify.py",
           "holds=margins.size == 0 or margin > 0.0", "holds=True",
           ("tests/test_verify.py::test_truncation_identities_fail_without_strictness",)),
    Mutant("linfty_dependence without its minus side", "verify.py",
           "worst = max(plus, minus)", "worst = plus",
           ("tests/test_verify.py::test_linfty_dependence_fails_on_a_u_below_the_solution",)),
    Mutant("Minty slack times 1e11", "verify.py",
           "values[chunk] = -pairing - tol * np.sqrt",
           "values[chunk] = -pairing - 1e11 * tol * np.sqrt",
           ("tests/test_stacks.py::test_chunked_minty_matches_per_draw_loop",
            "tests/test_cli.py::test_golden_record[verify]")),
    Mutant("smallest_supersolution taking min over nodes", "verify.py",
           "(u - U).max(axis=1)", "(u - U).min(axis=1)",
           ("tests/test_verify.py::"
            "test_supersolution_fails_a_u_raised_above_the_solution_at_one_node",
            "tests/test_stacks.py::test_chunked_supersolution_matches_per_draw_loop",
            "tests/test_cli.py::test_golden_record[verify]")),
    Mutant("Gohberg-Semencul difference turned into a sum", "operator.py",
           "gx * tx - gy * ty", "gx * tx + gy * ty",
           ("tests/test_solvers.py::test_solve_linear_matches_dense_solve[0.5-100]",)),
    Mutant("second inverse generator without the reversal J", "operator.py",
           "zy = np.concatenate([[0.0], x[:0:-1]])", "zy = np.concatenate([[0.0], x[1:]])",
           ("tests/test_solvers.py::test_solve_linear_matches_dense_solve[0.5-100]",)),
    Mutant("Strang symbol times 1.5", "operator.py",
           "symbol = np.fft.rfft(c).real", "symbol = 1.5 * np.fft.rfft(c).real",
           ("tests/test_solvers.py::test_strang_preconditioned_cg_iteration_count",
            "tests/test_solvers.py::test_penalty_newton_converges_where_picard_stagnated"),
           equivalent="preconditioned conjugate gradients take the same iterates, up to "
                      "rounding, when the preconditioner is scaled by a constant"),
)


def mutated(mutant: Mutant) -> str:
    """The text of the mutant's file, edited; fail unless `old` occurs once."""
    text = (PACKAGE / mutant.file).read_text()
    count = text.count(mutant.old)
    if count != 1:
        raise SystemExit(f"mutant {mutant.name!r}: {mutant.old!r} occurs {count} times "
                         f"in {mutant.file}, not once")
    return text.replace(mutant.old, mutant.new)


def tests_pass(src: Path, tests) -> bool:
    """Run the tests against the package under src; True when all pass."""
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
               "-o", f"pythonpath={src}", *tests]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    if done.returncode not in (0, 1):  # 1 is a failing test; anything else an error
        raise SystemExit(f"pytest exited {done.returncode}:\n{done.stdout}{done.stderr}")
    return done.returncode == 0


def copy_source(into: Path) -> Path:
    src = into / "src"
    shutil.copytree(PACKAGE, src / PACKAGE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return src


def main() -> int:
    mutants = [m for m in MUTANTS if not m.equivalent]
    edits = [mutated(m) for m in mutants]  # every `old` is checked before anything runs
    with tempfile.TemporaryDirectory() as tmp:
        src = copy_source(Path(tmp) / "unmutated")
        if not tests_pass(src, sorted({t for m in mutants for t in m.tests})):
            print("the named tests fail on the unmutated package", file=sys.stderr)
            return 1
        failures = 0
        for i, (m, text) in enumerate(zip(mutants, edits)):
            src = copy_source(Path(tmp) / f"mutant{i}")
            (src / PACKAGE.name / m.file).write_text(text)
            killed = not tests_pass(src, m.tests)
            print(f"{'ok  killed  ' if killed else 'BAD survived'} {m.name}")
            failures += not killed
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
