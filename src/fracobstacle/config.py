"""Strict flat key-value run configuration.

Config files are plain text, one `key = value` per line, `#` comments and
blank lines allowed.  Keys are dotted section paths (domain.a, solver.tol).
Parsing is strict: unknown keys, missing required keys, type errors, and
preset parameters that do not belong to the chosen preset are all errors,
so misconfiguration never passes silently.  The parser checks only what the
text says; building a problem checks its data (ProblemSpec) and its operator.

Obstacle presets (evaluated at the interior nodes):
    bump      psi(x) = c - d (x - m)^2          keys: obstacle.c, .d, .m
    plateau   psi(x) = c on [l, r], else -c     keys: obstacle.c, .l, .r
    negative  psi(x) = -c                       keys: obstacle.c
    custom    explicit values                   keys: obstacle.values (n floats)

Forcing presets:
    zero      f = 0
    constant  f(x) = c                          keys: forcing.c
    sine      f(x) = amplitude * sin(pi * frequency * (x - a)/(b - a))
                                                keys: forcing.amplitude, .frequency
    custom    explicit values                   keys: forcing.values (n floats)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .operator import Grid, assemble_operator
from .solvers import SOLVERS, PenaltyParams, ProblemSpec, SolverParams

__all__ = ["ConfigError", "RunConfig", "parse_config", "parse_config_text"]


class ConfigError(Exception):
    """Malformed, incomplete, or contradictory run configuration."""


def _parse_int(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"expected an integer, got {raw!r}") from None


def _parse_float(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"expected a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {raw!r}")
    return value


def _parse_float_list(raw: str) -> tuple:
    items = [p.strip() for p in raw.split(",") if p.strip()]
    if not items:
        raise ConfigError("expected a comma-separated list of numbers")
    return tuple(_parse_float(p) for p in items)


# key -> (parser, default); _REQUIRED means the key must be present
# (possibly only when its preset or solver selects it).  The solver.* and
# penalty.* defaults are those of SolverParams and PenaltyParams.
_REQUIRED = object()

_BASE_SCHEMA = {
    "domain.a": (_parse_float, 0.0),
    "domain.b": (_parse_float, 1.0),
    "grid.n": (_parse_int, _REQUIRED),
    "operator.s": (_parse_float, _REQUIRED),
    "obstacle.preset": (str, _REQUIRED),
    "forcing.preset": (str, "zero"),
    "solver.method": (str, "psor"),
    "solver.tol": (_parse_float, SolverParams.tol),
    "solver.max_iter": (_parse_int, SolverParams.max_iter),
    "solver.relaxation": (_parse_float, SolverParams.relaxation),
    "solver.active_tol": (_parse_float, SolverParams.active_tol),
    "sweep.axis": (str, None),
    "sweep.values": (_parse_float_list, None),
    "verify.samples": (_parse_int, 200),
    "verify.tol": (_parse_float, 1e-8),
    "output.json": (str, None),
    "output.csv": (str, None),
    "seed": (_parse_int, 0),
}

# preset -> (its required parameters, its values at the nodes x of grid g
# from the parameters p).
_OBSTACLES = {
    "bump": (("c", "d", "m"), lambda x, g, p: p["c"] - p["d"] * (x - p["m"]) ** 2),
    "plateau": (("c", "l", "r"),
                lambda x, g, p: np.where((x >= p["l"]) & (x <= p["r"]), p["c"], -p["c"])),
    "negative": (("c",), lambda x, g, p: np.full(g.n, -p["c"])),
    "custom": (("values",), lambda x, g, p: np.asarray(p["values"], dtype=float)),
}

_FORCINGS = {
    "zero": ((), lambda x, g, p: np.zeros(g.n)),
    "constant": (("c",), lambda x, g, p: np.full(g.n, p["c"])),
    "sine": (("amplitude", "frequency"), lambda x, g, p: p["amplitude"] * np.sin(
        np.pi * p["frequency"] * (x - g.a) / (g.b - g.a))),
    "custom": (("values",), lambda x, g, p: np.asarray(p["values"], dtype=float)),
}

_PENALTY_SCHEMA = {
    "penalty.epsilon": (_parse_float, PenaltyParams.epsilon),
    "penalty.damping": (_parse_float, PenaltyParams.picard_damping),
    "penalty.max_outer": (_parse_int, PenaltyParams.max_outer),
}

_SOLVER_METHODS = (*SOLVERS, "penalty")
_SWEEP_AXES = ("s", "n", "epsilon")


@dataclass
class RunConfig:
    """Typed view of a parsed configuration plus the raw echo."""

    a: float
    b: float
    n: int
    s: float
    obstacle_preset: str
    obstacle_params: dict
    forcing_preset: str
    forcing_params: dict
    solver_method: str
    solver_params: SolverParams
    penalty_params: PenaltyParams | None
    sweep_axis: str | None
    sweep_values: tuple | None
    verify_samples: int
    verify_tol: float
    output_json: str | None
    output_csv: str | None
    seed: int
    echo: dict = field(repr=False)

    def build_problem(self, n: int | None = None, s: float | None = None) -> ProblemSpec:
        """Assemble the ProblemSpec, optionally overriding n or s (sweeps).

        A preset that overflows gives a non-finite value without a numpy
        warning, and ProblemSpec rejects it with ValueError."""
        grid = Grid(a=self.a, b=self.b, n=self.n if n is None else n)
        op = assemble_operator(grid, self.s if s is None else s)
        x = grid.nodes()
        with np.errstate(all="ignore"):
            psi = _OBSTACLES[self.obstacle_preset][1](x, grid, self.obstacle_params)
            f = _FORCINGS[self.forcing_preset][1](x, grid, self.forcing_params)
        return ProblemSpec(op=op, psi=psi, f=f)


def _read_pairs(text: str) -> dict:
    pairs = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        if not key or not raw:
            raise ConfigError(f"line {lineno}: empty key or value")
        if key in pairs:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        pairs[key] = raw
    return pairs


def parse_config_text(text: str) -> RunConfig:
    pairs = _read_pairs(text)

    # The schema is assembled in two passes: preset and solver choices
    # determine which conditional keys are legal.
    obstacle_preset = pairs.get("obstacle.preset")
    if obstacle_preset is None:
        raise ConfigError("missing required key 'obstacle.preset'")
    forcing_preset = pairs.get("forcing.preset", _BASE_SCHEMA["forcing.preset"][1])
    schema = dict(_BASE_SCHEMA)
    for family, table, preset in (("obstacle", _OBSTACLES, obstacle_preset),
                                  ("forcing", _FORCINGS, forcing_preset)):
        if preset not in table:
            raise ConfigError(f"{family}.preset must be one of {sorted(table)}, got {preset!r}")
        for name in table[preset][0]:
            parser = _parse_float_list if name == "values" else _parse_float
            schema[f"{family}.{name}"] = (parser, _REQUIRED)
    solver_method = pairs.get("solver.method", _BASE_SCHEMA["solver.method"][1])
    if solver_method not in _SOLVER_METHODS:
        raise ConfigError(
            f"solver.method must be one of {list(_SOLVER_METHODS)}, got {solver_method!r}")
    sweep_axis = pairs.get("sweep.axis")
    if sweep_axis is not None and sweep_axis not in _SWEEP_AXES:
        raise ConfigError(f"sweep.axis must be one of {list(_SWEEP_AXES)}, got {sweep_axis!r}")

    penalty_enabled = solver_method == "penalty" or sweep_axis == "epsilon"
    if penalty_enabled:
        schema.update(_PENALTY_SCHEMA)

    unknown = sorted(set(pairs) - set(schema))
    if unknown:
        raise ConfigError(f"unknown key(s): {', '.join(unknown)}")

    values = {}
    for key, (parser, default) in schema.items():
        if key in pairs:
            try:
                values[key] = parser(pairs[key])
            except ConfigError as exc:
                raise ConfigError(f"key {key!r}: {exc}") from None
        elif default is _REQUIRED:
            raise ConfigError(f"missing required key {key!r}")
        else:
            values[key] = default

    a, b, n, s = values["domain.a"], values["domain.b"], values["grid.n"], values["operator.s"]
    if not b > a:
        raise ConfigError(f"domain.b must exceed domain.a, got [{a}, {b}]")
    if n < 1:
        raise ConfigError(f"grid.n must be positive, got {n}")
    if not 0.0 < s < 1.0:
        raise ConfigError(f"operator.s must lie in (0, 1), got {s}")
    for key in ("obstacle.values", "forcing.values"):
        if key in values and len(values[key]) != n:
            raise ConfigError(f"{key} has {len(values[key])} entries, grid has {n} nodes")
    samples, verify_tol = values["verify.samples"], values["verify.tol"]
    if samples < 1:
        raise ConfigError(f"verify.samples must be at least 1, got {samples}")
    if not verify_tol > 0:
        raise ConfigError(f"verify.tol must be positive, got {verify_tol}")

    try:
        solver_params = SolverParams(
            tol=values["solver.tol"], max_iter=values["solver.max_iter"],
            relaxation=values["solver.relaxation"],
            active_tol=values["solver.active_tol"])
        penalty_params = None
        if penalty_enabled:
            penalty_params = PenaltyParams(
                epsilon=values["penalty.epsilon"],
                picard_damping=values["penalty.damping"],
                max_outer=values["penalty.max_outer"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    if sweep_axis is not None:
        sv = values["sweep.values"]
        if sv is None:
            raise ConfigError("sweep.axis requires sweep.values")
        diffs = np.diff(sv)
        if len(sv) > 1 and not (np.all(diffs > 0) or np.all(diffs < 0)):
            raise ConfigError("sweep.values must be strictly monotone")
        if sweep_axis == "n":
            if any(v != int(v) or v < 1 for v in sv):
                raise ConfigError("n-axis sweep.values must be positive integers")
            if obstacle_preset == "custom" or forcing_preset == "custom":
                raise ConfigError("n-axis sweeps cannot use 'custom' presets")
        elif sweep_axis == "s" and not all(0.0 < v < 1.0 for v in sv):
            raise ConfigError("s-axis sweep.values must lie in (0, 1)")
        elif sweep_axis == "epsilon" and not all(v > 0 for v in sv):
            raise ConfigError("epsilon-axis sweep.values must be positive")
    elif values["sweep.values"] is not None:
        raise ConfigError("sweep.values given without sweep.axis")

    prefix_params = lambda prefix: {
        key.split(".", 1)[1]: values[key]
        for key in schema if key.startswith(prefix) and not key.endswith("preset")}

    return RunConfig(
        a=a, b=b, n=n, s=s,
        obstacle_preset=obstacle_preset,
        obstacle_params=prefix_params("obstacle."),
        forcing_preset=forcing_preset,
        forcing_params=prefix_params("forcing."),
        solver_method=solver_method,
        solver_params=solver_params,
        penalty_params=penalty_params,
        sweep_axis=sweep_axis,
        sweep_values=values["sweep.values"],
        verify_samples=samples,
        verify_tol=verify_tol,
        output_json=values["output.json"],
        output_csv=values["output.csv"],
        seed=values["seed"],
        echo={k: values[k] for k in sorted(values) if values[k] is not None},
    )


def parse_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from None
    return parse_config_text(text)
