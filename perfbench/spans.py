"""In-process spans around the public functions of each fracobstacle module.

The tracer replaces module attributes with wrappers for the duration of a
`with tracer.installed():` block, so the spans come from the benchmark and
the package itself is left untouched. A span is [name, start, end, parent
index, count]; count is the iteration count a solver returned, if any.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time

from fracobstacle import cli, config, operator, solvers, verify

CHECKS = ("kkt", "lewy_stampacchia", "minty", "smallest_supersolution",
          "bounds_cinfty", "truncation_identities", "comparison_in_f",
          "linfty_dependence")


def _iterations(result):
    return result.iterations


def _outer_iterations(result):
    return result.outer_iterations


# (owner, attribute, span name, counter). A function is wrapped in every
# namespace it is called through, so nested calls are seen too.
_SOLVER_SPANS = (
    ("solve_psor", "solvers.psor", _iterations),
    ("solve_projected_gradient", "solvers.pg", _iterations),
    ("solve_active_set", "solvers.activeset", _iterations),
    ("solve_penalty", "solvers.penalty", _outer_iterations),
    ("reduce_to_zero_forcing", "solvers.reduce_to_zero_forcing", None),
    ("solve_linear", "solvers.solve_linear", None),
)
TARGETS = (
    (cli, "parse_config", "config.parse_config", None),
    (config.RunConfig, "build_problem", "config.build_problem", None),
    (config, "assemble_operator", "operator.assemble", None),
    (operator.FracLapOperator, "apply", "operator.apply", None),
    (cli, "dumps", "cli.dumps", None),
    *((cli, f"check_{c}", f"verify.{c}", None) for c in CHECKS),
    *((mod, attr, name, count)
      for mod in (cli, solvers, verify)
      for attr, name, count in _SOLVER_SPANS if hasattr(mod, attr)),
)


class Tracer:
    """Spans of one traced pass, kept in memory until the pass ends."""

    def __init__(self):
        self.spans: list[list] = []
        self.iteration_limit_errors = 0
        self._stack: list[int] = []

    def span(self, name, fn, count=None):
        """Return fn wrapped so that each call records a span."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0,
                          stack[-1] if stack else -1, None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except solvers.IterationLimitError:
                self.iteration_limit_errors += 1
                raise
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            if count is not None:
                spans[idx][4] = count(result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in TARGETS]
        try:
            for owner, attr, name, count in TARGETS:
                setattr(owner, attr, self.span(name, getattr(owner, attr), count))
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        """Duration of each span minus the time its child spans cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def layer_metrics(self) -> dict:
        """Per-layer metrics of one traced pass: self time per layer, median
        inclusive time per call for the matvec and the linear solve, and the
        iteration counts the solvers returned."""
        own = self.self_times()
        total, count, calls = {}, {}, {}
        for (name, start, end, _, n), t in zip(self.spans, own):
            total[name] = total.get(name, 0.0) + t
            calls.setdefault(name, []).append(end - start)
            if n is not None:
                count[name] = count.get(name, 0) + n

        def median_call(name, scale):
            return statistics.median(calls[name]) * scale if name in calls else 0.0

        m = {
            "config.parse_config_s": (total.get("config.parse_config", 0.0), "s"),
            "config.build_problem_s": (total.get("config.build_problem", 0.0), "s"),
            "operator.assemble_s": (total.get("operator.assemble", 0.0), "s"),
            "operator.apply_us": (median_call("operator.apply", 1e6), "us"),
            "solvers.solve_linear_ms": (median_call("solvers.solve_linear", 1e3), "ms"),
            "solvers.reduce_to_zero_forcing_s":
                (total.get("solvers.reduce_to_zero_forcing", 0.0), "s"),
        }
        for solver, unit in (("activeset", "iters"), ("psor", "sweeps"),
                             ("pg", "iters"), ("penalty", "outer_iters")):
            name = f"solvers.{solver}"
            m[f"{name}_s"] = (total.get(name, 0.0), "s")
            m[f"{name}_{unit}"] = (count.get(name, 0), "count")
        m["solvers.iteration_limit_errors"] = (self.iteration_limit_errors, "count")
        for c in CHECKS:
            m[f"verify.{c}_s"] = (total.get(f"verify.{c}", 0.0), "s")
        m["cli.dumps_s"] = (total.get("cli.dumps", 0.0), "s")
        return m

    def top_level_seconds(self) -> float:
        return sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)
