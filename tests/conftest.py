import numpy as np
import pytest

from fracobstacle import (
    Grid,
    OracleAmbiguityError,
    ProblemSpec,
    assemble_operator,
    brute_force_oracle,
    cli,
    solvers,
    verify,
)


def make_op(n=10, s=0.5, a=0.0, b=1.0):
    return assemble_operator(Grid(a, b, n), s)


def random_instance(seed, n=None, s=None, a=0.0, b=1.0, psi_scale=1.0,
                    f_scale=1.0, nonneg_psi=False, zero_f=False):
    """Seeded random problem; n and s are drawn when not pinned."""
    rng = np.random.default_rng(seed)
    if n is None:
        n = int(rng.integers(6, 13))
    if s is None:
        s = float(rng.choice([0.25, 0.5, 0.75]))
    op = make_op(n=n, s=s, a=a, b=b)
    psi = rng.normal(size=n) * psi_scale
    if nonneg_psi:
        psi = np.abs(psi)
    f = np.zeros(n) if zero_f else rng.normal(size=n) * f_scale
    return ProblemSpec(op=op, psi=psi, f=f)


def manufactured_instance(n, s):
    """An obstacle problem built from its solution: returns (spec, u*, S).

    u* is smooth and vanishes at both ends, the contact set S is three runs
    of nodes, and the multiplier lam > 0 lives on S.  With psi = u* on S,
    psi < u* off S and f = A u* - lam, u* meets the KKT system exactly,
    with strict complementarity, up to the rounding of f.
    """
    op = make_op(n=n, s=s)
    x = op.grid.nodes()
    u = 0.5 - 2.0 * (x - 0.5) ** 2 + 0.05 * np.sin(3.0 * np.pi * x)
    contact = (np.cos(7.0 * np.pi * (x - 0.5)) > 0.2) & (np.abs(x - 0.5) < 0.4)
    lam = np.where(contact, 1.0 + 0.5 * np.sin(11.0 * x), 0.0)
    psi = np.where(contact, u, u - 0.01 * (1.0 + x))
    return ProblemSpec(op=op, psi=psi, f=op.apply(u) - lam), u, contact


def oracle_instance(seed, **kwargs):
    """Random instance plus its enumeration-oracle solution.

    Degenerate draws (oracle ambiguity) are regenerated with a shifted seed;
    with continuous random data this never triggers in practice.
    """
    for attempt in range(10):
        spec = random_instance(seed + 100_000 * attempt, **kwargs)
        try:
            return spec, brute_force_oracle(spec)
        except OracleAmbiguityError:
            continue
    pytest.fail(f"could not generate a nondegenerate instance from seed {seed}")


def count_psor_calls(monkeypatch):
    """Wrap solvers.solve_psor; returns the list of obstacles it is called on."""
    calls = []
    real = solvers.solve_psor

    def counting_psor(spec, params=None):
        calls.append(spec.psi.copy())
        return real(spec, params)

    monkeypatch.setattr(solvers, "solve_psor", counting_psor)
    return calls


def count_active_set_calls(monkeypatch):
    """Wrap solve_active_set in every module that calls it by name; returns
    the list of obstacles it is called on."""
    calls = []
    real = solvers.solve_active_set

    def counting_active_set(spec, params=None):
        calls.append(spec.psi.copy())
        return real(spec, params)

    for module in (solvers, verify, cli):
        monkeypatch.setattr(module, "solve_active_set", counting_active_set)
    return calls


def lower_one_free_value(monkeypatch):
    """Stub the free-block solve to lower its largest free gap u - psi by
    1e-9, keeping u >= psi; returns the list of what each pass returns."""
    iterates = []
    real = solvers._solve_free_block

    def lowered(op, free, psi, f, start):
        u = real(op, free, psi, f, start)
        gap = np.where(free, u - psi, -np.inf)
        i = int(np.argmax(gap))
        if gap[i] >= 1e-9:
            u[i] -= 1e-9
        iterates.append(u)
        return u

    monkeypatch.setattr(solvers, "_solve_free_block", lowered)
    return iterates
