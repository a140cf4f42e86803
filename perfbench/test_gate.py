"""Negative controls for the benchmark's correctness gate.

The gate must count a corrupted run as failed, so that `failed_ops` = 0
means something. Run from the root of the checkout:

    python3 -m pytest perfbench/test_gate.py
"""

import os
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import gate  # noqa: E402
from workloads import config_text, obstacle, references, Invocation  # noqa: E402

N, S, SEED = 64, 0.5, 3


def cli(tmp_path, command, *extra, sweep=False):
    """Run one small CLI invocation as the benchmark does; return what the
    gate sees: (command, exit code, stdout, output path, reference)."""
    cfg = tmp_path / "in.cfg"
    cfg.write_text(config_text(N, S, obstacle(N, np.random.default_rng(SEED)), SEED, sweep))
    out = tmp_path / ("out.csv" if sweep else "out.json")
    args = [command, "--config", str(cfg), "--seed", str(SEED),
            "--csv" if sweep else "--out", str(out), *extra]
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-m", "fracobstacle.cli", *args], env=env,
                          capture_output=True, text=True, timeout=120, check=False)
    ref = references([Invocation(command, tuple(args), str(cfg), str(out), S)])[0]
    return command, proc.returncode, proc.stdout, str(out), ref


def test_clean_runs_pass(tmp_path):
    for run in (cli(tmp_path, "verify", "--solver", "activeset"),
                cli(tmp_path, "solve", "--solver", "pg"),
                cli(tmp_path, "sweep", sweep=True)):
        assert gate.check_invocation(*run) == [], run[0]


def test_verify_inject_corruption_fails(tmp_path):
    problems = gate.check_invocation(*cli(tmp_path, "verify", "--inject-corruption"))
    assert problems


@pytest.mark.parametrize("solver", ["pg", "psor", "activeset"])
def test_solve_with_u_below_psi_fails(tmp_path, solver):
    command, code, stdout, out, ref = cli(tmp_path, "solve", "--solver", solver)
    with open(out, encoding="utf-8") as fh:
        bad = gate.corrupt(command, fh.read())
    problems = gate.check_output(command, bad, ref)
    assert any("kkt_violation" in p for p in problems)
    assert any("reference" in p for p in problems)


def test_sweep_gap_outside_epsilon_fails(tmp_path):
    command, code, stdout, out, ref = cli(tmp_path, "sweep", sweep=True)
    with open(out, encoding="utf-8") as fh:
        bad = gate.corrupt(command, fh.read())
    assert any("max_penalty_gap" in p for p in gate.check_output(command, bad, ref))


def test_reference_matches_package_active_set():
    from fracobstacle import Grid, ProblemSpec, assemble_operator, solve_active_set

    for s in (0.25, 0.5, 0.9):
        op = assemble_operator(Grid(0.0, 1.0, N), s)
        psi = obstacle(N, np.random.default_rng(SEED))
        f = np.full(N, -0.5)
        u = gate.reference_solution(op, psi, f)
        assert np.abs(u - solve_active_set(ProblemSpec(op, psi, f)).u).max() < 1e-10
