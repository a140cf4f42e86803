"""Workload definitions and seeded instance generation.

Every instance is the README bump obstacle psi(x) = 0.5 - 8 (x - 0.5)^2
with constant forcing -0.5, plus a seeded, smooth perturbation of the
obstacle of amplitude about 0.005 (four sine modes that vanish at the ends
of the interval). The program sees only the generated configs, written with
`obstacle.preset = custom`; the same seed goes to the CLI as `--seed`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
from fracobstacle.config import parse_config

from gate import REF_MAX_N, reference_solution

FORCING = -0.5
PERTURBATION = 0.005
EPSILONS = (0.1, 0.03, 0.01, 0.003)


@dataclass(frozen=True)
class Group:
    """Invocations of one CLI subcommand at one n, one per value of s."""

    command: str            # CLI subcommand
    solver: str | None      # --solver override, None for the sweep
    n: int
    s_values: tuple


# The rationale for each workload is its "why" in BENCHMARK.json. Each
# holds two groups so that a run lasts long enough to average out the
# minute-scale swings in the speed of a shared machine.
WORKLOADS = {
    "verify-512-768": (
        Group("verify", "activeset", 512, (0.25, 0.5, 0.9)),
        Group("verify", "psor", 768, (0.25, 0.5)),
    ),
    "pg-4096-penalty-512": (
        Group("solve", "pg", 4096, (0.25, 0.5)),
        Group("sweep", None, 512, (0.5,)),
    ),
}

# Cases left out of the timed passes, with the cost that keeps them out
# (measured on a 2-core x86-64 box, numpy 2.4.6, scipy 1.17.1).
SKIPPED = (
    {"case": "verify --solver psor, n=768, s=0.9",
     "reason": "each PSOR solve takes 15410 sweeps (48.6 s); verify runs 5 of them",
     "cost_s": 243.0},
    {"case": "verify --solver psor, n=1024, s=0.9",
     "reason": "each PSOR solve takes 25534 sweeps (175 s); verify runs 5 of them",
     "cost_s": 875.0},
    {"case": "solve --solver pg, n=768, s=0.9",
     "reason": "184199 projected-gradient steps, just under max_iter = 200000",
     "cost_s": 13.0},
    {"case": "solve --solver pg, n=1024, s=0.9",
     "reason": "stops at max_iter = 200000 with KKT violation 3.8e-7 and exits 3",
     "cost_s": 15.0},
)


@dataclass(frozen=True)
class Invocation:
    command: str
    args: tuple             # CLI arguments after the program name
    config: str             # config file path
    out: str                # JSON or CSV the invocation writes
    s: float


def obstacle(n: int, rng: np.random.Generator) -> np.ndarray:
    x = np.arange(1, n + 1) / (n + 1)
    psi = 0.5 - 8.0 * (x - 0.5) ** 2
    for k, c in enumerate(rng.standard_normal(4), start=1):
        psi += PERTURBATION * c / k * np.sin(k * np.pi * x)
    return psi


def config_text(n: int, s: float, psi: np.ndarray, seed: int, sweep: bool) -> str:
    lines = [
        f"grid.n = {n}",
        f"operator.s = {s!r}",
        "obstacle.preset = custom",
        "obstacle.values = " + ", ".join(repr(float(v)) for v in psi),
        "forcing.preset = constant",
        f"forcing.c = {FORCING!r}",
        f"seed = {seed}",
    ]
    if sweep:
        lines += ["sweep.axis = epsilon",
                  "sweep.values = " + ", ".join(repr(e) for e in EPSILONS)]
    return "\n".join(lines) + "\n"


def write_invocations(name: str, seed: int, workdir: str) -> list[Invocation]:
    """Write the workload's configs for this seed; return its invocations."""
    rng = np.random.default_rng(seed)
    invocations = []
    for group in WORKLOADS[name]:
        psi = obstacle(group.n, rng)
        for s in group.s_values:
            i = len(invocations)
            cfg = os.path.join(workdir, f"in{i}.cfg")
            with open(cfg, "w", encoding="utf-8") as fh:
                fh.write(config_text(group.n, s, psi, seed, group.command == "sweep"))
            args = [group.command, "--config", cfg, "--seed", str(seed)]
            if group.solver is not None:
                args += ["--solver", group.solver]
            if group.command == "sweep":
                out = os.path.join(workdir, f"out{i}.csv")
                args += ["--csv", out]
            else:
                out = os.path.join(workdir, f"out{i}.json")
                args += ["--out", out]
            invocations.append(Invocation(group.command, tuple(args), cfg, out, s))
    return invocations


def references(invocations: list[Invocation]) -> list[dict]:
    """What the gate compares each invocation's output with."""
    refs = []
    for inv in invocations:
        cfg = parse_config(inv.config)
        spec = cfg.build_problem()
        ref = {"u": None, "tol": cfg.solver_params.tol, "epsilons": EPSILONS}
        if spec.n <= REF_MAX_N:
            ref["u"] = reference_solution(spec.op, spec.psi, spec.f)
            ref["energy"] = spec.op.energy(ref["u"], spec.f)
        refs.append(ref)
    return refs
