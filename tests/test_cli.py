import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import fracobstacle
from fracobstacle import (
    IterationLimitError,
    PenaltyParams,
    ProblemSpec,
    SolverError,
    SolverParams,
    check_kkt,
    cli,
    solvers,
    verify,
)
from fracobstacle.cli import _fmt_float, _write_json, dumps, main
from fracobstacle.config import ConfigError, RunConfig, parse_config_text

from conftest import (count_active_set_calls, count_psor_calls, lower_one_free_value,
                      readme_bump_config)

DATA_DIR = Path(__file__).parent / "data"

BASE_CONFIG = """
# bump obstacle on (0, 1)
domain.a = 0.0
domain.b = 1.0
grid.n = 8
operator.s = 0.5
obstacle.preset = bump
obstacle.c = 0.5
obstacle.d = 4.0
obstacle.m = 0.5
forcing.preset = zero
solver.method = activeset
seed = 42
"""


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def load_record(path):
    with open(path) as fh:
        return json.load(fh)


def strip_timing(record):
    record = dict(record)
    record.pop("timing_seconds", None)
    return record


def run_python(code, *args, **env):
    env = dict(os.environ, PYTHONPATH=str(Path(fracobstacle.__file__).parents[1]), **env)
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, check=True).stdout


def test_cli_import_leaves_out_scipy_special():
    # Importing the CLI loads no scipy module: math.gamma serves the kernel
    # constant, and every linear solve is numpy FFTs.
    code = ("import sys, fracobstacle.cli; "
            "print([m for m in sys.modules if m.partition('.')[0] == 'scipy'])")
    assert run_python(code).strip() == "[]"


# --- config parsing ----------------------------------------------------------------

def test_parse_minimal_config():
    cfg = parse_config_text(BASE_CONFIG)
    assert cfg.n == 8 and cfg.s == 0.5
    assert cfg.obstacle_preset == "bump"
    spec = cfg.build_problem()
    x = spec.op.grid.nodes()
    np.testing.assert_allclose(spec.psi, 0.5 - 4.0 * (x - 0.5) ** 2)


def test_parse_defaults_are_the_parameter_classes():
    assert parse_config_text(BASE_CONFIG).solver_params == SolverParams()
    text = BASE_CONFIG.replace("method = activeset", "method = penalty")
    assert parse_config_text(text).penalty_params == PenaltyParams()


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text(BASE_CONFIG + "\nsolver.omega = 1.3\n")


def test_parse_rejects_stray_preset_parameter():
    text = BASE_CONFIG.replace("obstacle.preset = bump", "obstacle.preset = negative")
    # bump parameters d and m no longer belong to the schema
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text(text)


def test_parse_rejects_penalty_keys_without_penalty_route():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text(BASE_CONFIG + "\npenalty.epsilon = 0.1\n")


def test_parse_missing_required_key():
    text = "\n".join(line for line in BASE_CONFIG.splitlines()
                     if not line.startswith("operator.s"))
    with pytest.raises(ConfigError, match="operator.s"):
        parse_config_text(text)


def test_parse_rejects_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text(BASE_CONFIG + "\ngrid.n = 9\n")


def test_parse_rejects_bad_types_and_ranges():
    with pytest.raises(ConfigError):
        parse_config_text(BASE_CONFIG.replace("grid.n = 8", "grid.n = eight"))
    with pytest.raises(ConfigError):
        parse_config_text(BASE_CONFIG.replace("operator.s = 0.5", "operator.s = 1.5"))
    with pytest.raises(ConfigError):
        parse_config_text(BASE_CONFIG.replace("domain.b = 1.0", "domain.b = -1.0"))
    with pytest.raises(ConfigError):
        parse_config_text(BASE_CONFIG.replace("solver.method = activeset",
                                              "solver.method = newton"))


def test_parse_custom_obstacle_length_checked():
    text = BASE_CONFIG.replace("obstacle.preset = bump", "obstacle.preset = custom")
    text = "\n".join(line for line in text.splitlines()
                     if not line.startswith(("obstacle.c", "obstacle.d", "obstacle.m")))
    with pytest.raises(ConfigError, match="entries"):
        parse_config_text(text + "\nobstacle.values = 1, 2, 3\n")


def test_parse_sweep_validation():
    with pytest.raises(ConfigError, match="monotone"):
        parse_config_text(BASE_CONFIG + "\nsweep.axis = s\nsweep.values = 0.3, 0.6, 0.5\n")
    with pytest.raises(ConfigError, match="sweep.values"):
        parse_config_text(BASE_CONFIG + "\nsweep.axis = s\n")
    with pytest.raises(ConfigError, match="sweep.axis"):
        parse_config_text(BASE_CONFIG + "\nsweep.values = 0.3, 0.5\n")


def test_parse_applies_overrides_after_the_text_decides():
    # A flag replaces a key's value once the text has decided which keys are
    # legal and built the solver parameters: --solver penalty on an active-set
    # config brings no PenaltyParams and no penalty.* key.
    cfg = parse_config_text(BASE_CONFIG, {"seed": 7, "solver.method": "penalty",
                                          "output.json": "b.json", "output.csv": "b.csv"})
    assert (cfg.seed, cfg.solver_method) == (7, "penalty")
    assert (cfg.output_json, cfg.output_csv) == ("b.json", "b.csv")
    assert cfg.penalty_params is None
    assert (cfg.echo["seed"], cfg.echo["solver.method"]) == (7, "penalty")
    assert not any(key.startswith(("penalty.", "output.")) for key in cfg.echo)
    # a flag left unset (None) keeps the text's value
    assert parse_config_text(BASE_CONFIG, {"seed": None}).seed == parse_config_text(
        BASE_CONFIG).seed


def test_run_config_is_frozen():
    cfg = parse_config_text(BASE_CONFIG)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.seed = 1


def _drop(text, prefix):
    return "\n".join(line for line in text.splitlines() if not line.startswith(prefix))


_SWEEP = "\nsweep.axis = {}\nsweep.values = {}\n"
CONFIG_ERRORS = {
    "bad number": (BASE_CONFIG.replace("operator.s = 0.5", "operator.s = half"),
                   "key 'operator.s': expected a number"),
    "empty list": (BASE_CONFIG + _SWEEP.format("s", ","),
                   "key 'sweep.values': expected a comma-separated list"),
    "no equals sign": (BASE_CONFIG + "\ngrid.n 9\n", "expected 'key = value'"),
    "empty value": (BASE_CONFIG.replace("grid.n = 8", "grid.n ="), "empty key or value"),
    "no preset": (_drop(BASE_CONFIG, "obstacle.preset"),
                  "missing required key 'obstacle.preset'"),
    "unknown preset": (BASE_CONFIG.replace("preset = bump", "preset = cone"),
                       "obstacle.preset must be one of"),
    "bad sweep axis": (BASE_CONFIG + _SWEEP.format("h", "1, 2"), "sweep.axis must be one of"),
    "no nodes": (BASE_CONFIG.replace("grid.n = 8", "grid.n = 0"), "grid.n must be positive"),
    "bad penalty": (BASE_CONFIG.replace("method = activeset", "method = penalty")
                    + "\npenalty.epsilon = -1\n", "epsilon must be positive"),
    # Newton takes no damping: the key left with Picard's damping loop.
    "penalty damping key": (BASE_CONFIG.replace("method = activeset", "method = penalty")
                            + "\npenalty.damping = 0.5\n", "unknown key(s): penalty.damping"),
    "fractional n": (BASE_CONFIG + _SWEEP.format("n", "8, 9.5"),
                     "n-axis sweep.values must be positive integers"),
    "short custom list": (_drop(BASE_CONFIG, ("obstacle.", "grid.n")) + "\ngrid.n = 4\n"
                          "obstacle.preset = custom\nobstacle.values = 1, 2, 3\n",
                          "obstacle.values has 3 entries, grid has 4 nodes"),
    # An empty entry is an error, not a shorter list.
    **{case: (_drop(BASE_CONFIG, ("obstacle.", "grid.n")) + "\ngrid.n = 2\n"
              f"obstacle.preset = custom\nobstacle.values = {values}\n",
              "key 'obstacle.values': expected a comma-separated list of numbers")
       for case, values in (("gap in a list", "0.1, , 0.2"), ("trailing comma", "0.1, 0.2,"))},
    "negative seed": (BASE_CONFIG.replace("seed = 42", "seed = -1"),
                      "seed must be a non-negative integer, got -1"),
    "s value above 1": (BASE_CONFIG + _SWEEP.format("s", "0.5, 1.5"),
                        "s-axis sweep.values must lie in (0, 1)"),
    "negative epsilon": (BASE_CONFIG + _SWEEP.format("epsilon", "0.1, -0.1"),
                         "epsilon-axis sweep.values must be positive"),
    "custom n sweep": (BASE_CONFIG.replace("forcing.preset = zero",
                                           "forcing.preset = custom\nforcing.values = "
                                           + ", ".join(["1"] * 8))
                       + _SWEEP.format("n", "8, 16"), "cannot use 'custom' presets"),
    "infinite verify tol": (BASE_CONFIG + "\nverify.tol = inf\n",
                            "key 'verify.tol': expected a finite number, got 'inf'"),
    "nan verify tol": (BASE_CONFIG + "\nverify.tol = nan\n",
                       "key 'verify.tol': expected a finite number, got 'nan'"),
    "negative verify tol": (BASE_CONFIG + "\nverify.tol = -1\n",
                            "verify.tol must be positive, got -1.0"),
    "infinite solver tol": (BASE_CONFIG + "\nsolver.tol = inf\n",
                            "key 'solver.tol': expected a finite number"),
    "infinite active tol": (BASE_CONFIG + "\nsolver.active_tol = inf\n",
                            "key 'solver.active_tol': expected a finite number"),
    "infinite n value": (BASE_CONFIG + _SWEEP.format("n", "8, inf"),
                         "key 'sweep.values': expected a finite number, got 'inf'"),
    "overflowing preset": (BASE_CONFIG.replace("obstacle.d = 4.0", "obstacle.d = 1e308")
                           .replace("obstacle.m = 0.5", "obstacle.m = 1e10"),
                           "obstacle values must be finite"),
    "overflowing operator": (BASE_CONFIG.replace("domain.b = 1.0", "domain.b = 1e-300")
                             .replace("operator.s = 0.5", "operator.s = 0.9"),
                             "operator diagonal D = inf is not a positive finite number"),
    "underflowing operator": (BASE_CONFIG.replace("domain.b = 1.0", "domain.b = 1e300")
                              .replace("operator.s = 0.5", "operator.s = 0.9")
                              .replace("obstacle.preset = bump", "obstacle.preset = negative")
                              .replace("obstacle.d = 4.0\nobstacle.m = 0.5\n", ""),
                              "operator diagonal D = 0.0 is not a positive finite number"),
}


@pytest.mark.parametrize("case", CONFIG_ERRORS)
def test_config_errors_exit_2(tmp_path, capsys, case):
    text, message = CONFIG_ERRORS[case]
    assert main(["solve", "--config", write_config(tmp_path, text)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err


# These operators over- or underflow only at the config's own s, which a sweep
# over the s values below never builds.
_BUILD_ERRORS = ("overflowing operator", "underflowing operator")


@pytest.mark.parametrize("case", [c for c in CONFIG_ERRORS if c not in _BUILD_ERRORS])
def test_config_errors_exit_2_under_sweep(tmp_path, capsys, case):
    # A sweep builds and checks every row's problem before it solves any, so
    # an input error exits 2 with no row written, as solve does.
    text, message = CONFIG_ERRORS[case]
    if "sweep.axis" not in text:
        text += _SWEEP.format("s", "0.25, 0.5")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", write_config(tmp_path, text), "--csv", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert not out.exists()


@pytest.mark.parametrize("axis, values", [("epsilon", "1e-1, 1e-2"), ("n", "8, 16")])
def test_overflowing_preset_under_sweep_prints_no_warning(tmp_path, capsys, axis, values):
    # The s axis is a CONFIG_ERRORS case; on the n axis each row's grid
    # evaluates the presets, and every row is built before any is solved.
    text = CONFIG_ERRORS["overflowing preset"][0] + _SWEEP.format(axis, values)
    out = tmp_path / "sweep.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = main(["sweep", "--config", write_config(tmp_path, text), "--csv", str(out)])
    assert got == 2 and caught == []
    assert "config error: obstacle values must be finite" in capsys.readouterr().err
    assert not out.exists()


_PLATEAU = """
grid.n = {n}
operator.s = 0.5
obstacle.preset = plateau
obstacle.c = {c}
obstacle.l = 0.3
obstacle.r = 0.7
"""


@pytest.mark.parametrize("c, n, method, code", [
    *((c, n, method, 2) for c, n in ((1e300, 100), (1e306, 600))
      for method in ("psor", "pg", "activeset", "penalty")),
    (1e100, 100, "activeset", 0)])
def test_data_whose_products_overflow_exits_2_without_warning(tmp_path, capsys,
                                                              c, n, method, code):
    # At c = 1e300 the energy and r (u - psi) overflow, and each solver would
    # fail its own way, some after 200000 sweeps; ProblemSpec refuses such data
    # before any solve.  c = 1e100 stays well inside its bound.
    cfg = write_config(tmp_path, _PLATEAU.format(n=n, c=c))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["solve", "--config", cfg, "--solver", method]) == code
    assert caught == []
    if code == 2:
        assert "config error: obstacle and forcing too large" in capsys.readouterr().err


def _no_solve(*args, **kwargs):
    pytest.fail("a row was solved before every row's problem was checked")


@pytest.mark.parametrize("text, message", [
    # One problem for every epsilon, and it fails the data-scale bound.
    (_PLATEAU.format(n=100, c=1e300) + _SWEEP.format("epsilon", "1e-1, 1e-2"),
     "obstacle and forcing too large"),
], ids=["epsilon axis data too large"])
def test_sweep_input_error_exits_2_before_any_solve(tmp_path, capsys, monkeypatch,
                                                    text, message):
    monkeypatch.setattr(fracobstacle.cli, "run_single", _no_solve)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", write_config(tmp_path, text), "--csv", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert not out.exists()


def _no_build(self, **_):
    pytest.fail("a problem was built before the output path was checked")


@pytest.mark.parametrize("command, flag", [("solve", "--out"), ("solve", "--csv"),
                                           ("sweep", "--csv"), ("verify", "--out"),
                                           ("oracle-check", "--out")])
def test_unwritable_output_path_exits_2(tmp_path, capsys, monkeypatch, command, flag):
    monkeypatch.setattr(RunConfig, "build_problem", _no_build)
    text = BASE_CONFIG + (_SWEEP.format("s", "0.3, 0.5") if command == "sweep" else "")
    path = str(tmp_path / "missing" / "out")
    assert main([command, "--config", write_config(tmp_path, text), flag, path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and repr(path) in err


def test_output_path_that_is_a_directory_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(RunConfig, "build_problem", _no_build)
    path = str(tmp_path)
    assert main(["solve", "--config", write_config(tmp_path, BASE_CONFIG), "--out", path]) == 2
    assert f"output path {path!r} is a directory" in capsys.readouterr().err


def test_sweep_whose_row_operator_overflows_exits_2(tmp_path, capsys, monkeypatch):
    # The s = 0.5 row is valid; the s = 0.9 row's operator overflows, and no
    # row is solved.
    text = BASE_CONFIG.replace("domain.b = 1.0", "domain.b = 1e-300")
    text += _SWEEP.format("s", "0.5, 0.9")
    monkeypatch.setattr(fracobstacle.cli, "run_single", _no_solve)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", write_config(tmp_path, text), "--csv", str(out)]) == 2
    assert "config error: operator diagonal D = inf" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("samples", [0, -3])
def test_verify_rejects_nonpositive_samples_and_writes_nothing(tmp_path, capsys, samples):
    text = (DATA_DIR / "golden_verify.cfg").read_text()
    text = text.replace("verify.samples = 20", f"verify.samples = {samples}")
    out = tmp_path / "out.json"
    assert main(["verify", "--config", write_config(tmp_path, text), "--out", str(out)]) == 2
    assert f"verify.samples must be at least 1, got {samples}" in capsys.readouterr().err
    assert not out.exists()


def test_negative_seed_flag_exits_2_before_any_solve(tmp_path, capsys, monkeypatch):
    # --seed replaces the key after the text is parsed, and is checked there
    # too, before anything is built or solved.
    solves = []
    monkeypatch.setattr(fracobstacle.cli, "run_single", lambda *args: solves.append(args))
    text = (DATA_DIR / "golden_verify.cfg").read_text()
    out = tmp_path / "out.json"
    argv = ["verify", "--config", write_config(tmp_path, text), "--out", str(out)]
    assert main([*argv, "--seed", "-3"]) == 2
    assert "config error: seed must be a non-negative integer, got -3" in capsys.readouterr().err
    assert solves == [] and not out.exists()


# --- JSON emitter ------------------------------------------------------------------

def test_float_format_round_trips():
    rng = np.random.default_rng(0)
    for x in list(rng.normal(size=50)) + [0.1, 1e-300, 2.0**-52, math.pi]:
        assert float(_fmt_float(float(x))) == float(x)


def test_float_format_keeps_float_typing():
    assert _fmt_float(2.0) == "2.0"
    assert json.loads(dumps({"v": 2.0}))["v"] == 2.0


def test_dumps_writes_non_finite_as_null():
    assert dumps({"v": math.nan, "w": -math.inf, "x": np.float64(math.inf)}) == (
        '{"v": null, "w": null, "x": null}')
    assert json.loads(dumps([1.5, math.nan])) == [1.5, None]
    with pytest.raises(ValueError, match="non-finite"):  # the CSV writers refuse it
        _fmt_float(math.nan)


def test_write_json_leaves_no_file_for_a_record_it_cannot_serialize(tmp_path):
    out = tmp_path / "out.json"
    with pytest.raises(TypeError, match="cannot serialize"):
        _write_json({"worst": {1.0}}, str(out), 0.0)
    assert not out.exists()


def test_dumps_matches_json_semantics():
    obj = {"a": [1, 2.5, None, True, "x"], "b": {"c": -0.125}}
    assert json.loads(dumps(obj)) == obj


def test_dumps_float_array_as_its_list():
    a = np.array([0.1, -0.0, 1e-300, 2.0, math.pi, -3.5e20])
    assert dumps({"a": a}) == dumps({"a": [float(x) for x in a]})
    assert dumps(np.zeros(0)) == "[]"
    a = np.array([1.0, np.inf, np.nan, -np.inf])
    assert dumps(a) == dumps([float(x) for x in a]) == "[1.0, null, null, null]"


# --- solve -------------------------------------------------------------------------

def test_solve_writes_record_and_csv(tmp_path):
    cfg = write_config(tmp_path, BASE_CONFIG)
    out = str(tmp_path / "out.json")
    csv = str(tmp_path / "out.csv")
    assert main(["solve", "--config", cfg, "--out", out, "--csv", csv]) == 0
    record = load_record(out)
    assert record["schema_version"] == 1
    for key in ("config", "grid", "s", "solver_id", "converged", "iterations",
                "x", "psi", "f", "u", "residual", "active_set", "energy",
                "reports", "timing_seconds"):
        assert key in record
    assert record["converged"] is True
    lines = Path(csv).read_text().strip().splitlines()
    assert lines[0] == "x,psi,f,u,r,active"
    assert len(lines) == 1 + record["grid"]["n"]
    active_column = [int(line.split(",")[5]) for line in lines[1:]]
    assert set(active_column) <= {0, 1}


def test_solve_record_passes_kkt_on_reload(tmp_path):
    cfg_path = write_config(tmp_path, BASE_CONFIG.replace("grid.n = 8", "grid.n = 64"))
    out = str(tmp_path / "out.json")
    assert main(["solve", "--config", cfg_path, "--out", out]) == 0
    record = load_record(out)
    cfg = parse_config_text(Path(cfg_path).read_text())
    spec = cfg.build_problem()
    assert check_kkt(spec, np.array(record["u"]), tol=1e-8).passed


def test_solve_negative_obstacle_gives_zero_solution(tmp_path):
    text = BASE_CONFIG.replace("obstacle.preset = bump", "obstacle.preset = negative")
    text = "\n".join(line for line in text.splitlines()
                     if not line.startswith(("obstacle.d", "obstacle.m")))
    cfg = write_config(tmp_path, text)
    out = str(tmp_path / "out.json")
    assert main(["solve", "--config", cfg, "--out", out]) == 0
    record = load_record(out)
    assert max(abs(v) for v in record["u"]) == 0.0
    assert record["active_set"] == []


def test_solve_plateau_covering_domain_fully_active(tmp_path):
    text = BASE_CONFIG.replace("obstacle.preset = bump", "obstacle.preset = plateau")
    text = "\n".join(line for line in text.splitlines()
                     if not line.startswith(("obstacle.d", "obstacle.m")))
    text += "\nobstacle.l = -1.0\nobstacle.r = 2.0\n"
    cfg = write_config(tmp_path, text)
    out = str(tmp_path / "out.json")
    assert main(["solve", "--config", cfg, "--out", out]) == 0
    record = load_record(out)
    assert record["active_set"] == list(range(8))


def test_solve_byte_identical_reruns(tmp_path):
    cfg = write_config(tmp_path, BASE_CONFIG)
    out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert main(["solve", "--config", cfg, "--out", out1]) == 0
    assert main(["solve", "--config", cfg, "--out", out2]) == 0
    r1 = strip_timing(load_record(out1))
    r2 = strip_timing(load_record(out2))
    assert dumps(r1) == dumps(r2)


def test_solve_penalty_route(tmp_path):
    text = BASE_CONFIG.replace("solver.method = activeset", "solver.method = penalty")
    text += "\npenalty.epsilon = 1e-2\n"
    cfg = write_config(tmp_path, text)
    out = str(tmp_path / "out.json")
    assert main(["solve", "--config", cfg, "--out", out]) == 0
    record = load_record(out)
    assert record["penalty"] is not None
    assert record["penalty"]["epsilon"] == 1e-2
    assert 0.0 <= record["penalty"]["max_gap"] <= 1e-2 + 1e-7


def test_penalty_u_eps_is_written_in_the_coordinates_of_u(tmp_path):
    # u <= u_eps <= u + eps holds for the record's u and u_eps, both in the
    # coordinates of the problem the config states (forcing -0.5 here).
    args = golden_args(tmp_path, "penalty")
    assert main(args) == 0
    record = load_record(args[-1])
    eps, tol = record["penalty"]["epsilon"], record["config"]["solver.tol"]
    gap = np.subtract(record["penalty"]["u_eps"], record["u"])
    assert gap.min() >= -10 * tol and gap.max() <= eps + 10 * tol
    assert abs(gap.max() - record["penalty"]["max_gap"]) <= 1e-12


def test_penalty_route_runs_above_the_old_size_cap(tmp_path):
    # The route once refused n > 512; at n = 600 solve and an epsilon sweep
    # exit 0, and the solve agrees with the active set to roundoff (PSOR's
    # warm start left 9.1e-12 between them).
    text = (BASE_CONFIG.replace("grid.n = 8", "grid.n = 600")
            .replace("forcing.preset = zero", "forcing.preset = constant\nforcing.c = -0.5"))
    cfg = write_config(tmp_path, text)
    records = {}
    for method in ("penalty", "activeset"):
        out = tmp_path / f"{method}.json"
        assert main(["solve", "--config", cfg, "--solver", method, "--out", str(out)]) == 0
        records[method] = load_record(out)
    assert np.abs(np.subtract(records["penalty"]["u"], records["activeset"]["u"])).max() <= 1e-13
    sweep = write_config(tmp_path, text + _SWEEP.format("epsilon", "1e-1, 1e-3"), "sweep.cfg")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", sweep, "--csv", str(out)]) == 0
    rows = sweep_rows(out)
    assert [r["status"] for r in rows] == ["ok", "ok"]
    assert all(0.0 <= float(r["max_penalty_gap"]) <= float(r["value"]) for r in rows)


def test_penalty_route_meets_solver_tol_on_the_readme_bump_at_n512(tmp_path, capsys):
    # s = 0.9, D = 4.8e4: a warm start that meets solver.tol only on the
    # reduced problem can miss it once the shift A^{-1} f is added back, as
    # PSOR's did (1.021e-10).
    text = (BASE_CONFIG.replace("grid.n = 8", "grid.n = 512")
            .replace("operator.s = 0.5", "operator.s = 0.9")
            .replace("obstacle.d = 4.0", "obstacle.d = 8.0")
            .replace("forcing.preset = zero", "forcing.preset = constant\nforcing.c = -0.5")
            .replace("solver.method = activeset", "solver.method = penalty"))
    cfg = write_config(tmp_path, text + "penalty.epsilon = 1e-3\n")
    assert main(["solve", "--config", cfg]) == 0
    summary = capsys.readouterr().out
    assert "solver=penalty" in summary
    assert float(summary.split("kkt_violation=")[1]) <= SolverParams().tol


@pytest.mark.xfail(strict=True, reason="penalty Newton stops at ||F||_inf <= tol / ||A^{-1}||_inf, "
                   "below the roundoff eps D of F at n=4096, s=0.9 (ROADMAP item 20)")
def test_penalty_route_solves_the_readme_bump_at_n4096(tmp_path):
    # The line search stalls at step 17 with ||F||_inf = 7.019e-10, at one
    # and at two BLAS threads.
    text = readme_bump_config(4096, 0.9)
    assert main(["solve", "--config", write_config(tmp_path, text), "--solver", "penalty"]) == 0


def test_penalty_route_runs_no_psor_solve(tmp_path, monkeypatch):
    psor_calls = count_psor_calls(monkeypatch)
    active_set_calls = count_active_set_calls(monkeypatch)
    text = (DATA_DIR / "golden_sweep.cfg").read_text()
    cfg = write_config(tmp_path, text)
    assert main(["solve", "--config", cfg, "--solver", "penalty"]) == 0
    assert main(["sweep", "--config", cfg, "--csv", str(tmp_path / "out.csv")]) == 0
    assert psor_calls == []
    assert len(active_set_calls) == 2  # the solve's, then the sweep's: a new operator


def test_solver_override_flag(tmp_path):
    cfg = write_config(tmp_path, BASE_CONFIG)
    out = str(tmp_path / "out.json")
    assert main(["solve", "--config", cfg, "--out", out, "--solver", "psor"]) == 0
    record = load_record(out)
    assert record["solver_id"] == "psor"
    assert record["config"]["solver.method"] == "psor"


@pytest.mark.parametrize("command", ["solve", "verify", "oracle-check"])
def test_record_does_not_depend_on_output_paths(tmp_path, command):
    # Where a record is written is not what it records: a config that names
    # its outputs, run with --out elsewhere, writes the record of one that
    # names none.
    named = (BASE_CONFIG + f"\noutput.json = {tmp_path / 'a.json'}"
             f"\noutput.csv = {tmp_path / 'a.csv'}\n")
    out_named, out_plain = tmp_path / "named.json", tmp_path / "plain.json"
    assert main([command, "--config", write_config(tmp_path, named, "named.cfg"),
                 "--out", str(out_named), "--seed", "7"]) == 0
    assert main([command, "--config", write_config(tmp_path, BASE_CONFIG, "plain.cfg"),
                 "--out", str(out_plain), "--seed", "7"]) == 0
    assert not (tmp_path / "a.json").exists()
    record = strip_timing(load_record(out_named))
    assert dumps(record) == dumps(strip_timing(load_record(out_plain)))
    assert record["config"]["seed"] == 7


# --- exit codes ----------------------------------------------------------------------

def test_exit_2_on_missing_config(tmp_path):
    assert main(["solve", "--config", str(tmp_path / "absent.cfg")]) == 2


def test_exit_2_on_unknown_key(tmp_path):
    cfg = write_config(tmp_path, BASE_CONFIG + "\nbogus.key = 1\n")
    assert main(["solve", "--config", cfg]) == 2


def test_exit_3_on_iteration_limit(tmp_path):
    text = BASE_CONFIG.replace("solver.method = activeset", "solver.method = pg")
    text += "\nsolver.max_iter = 2\nsolver.tol = 1e-14\n"
    cfg = write_config(tmp_path, text)
    out = str(tmp_path / "out.json")
    assert main(["solve", "--config", cfg, "--out", out]) == 3
    record = load_record(out)
    assert record["converged"] is False
    assert "error" in record


def test_exit_3_when_a_checker_solve_hits_iteration_limit(tmp_path, capsys):
    # The main PSOR solve converges in one sweep (u = 0); the active-set
    # solves inside the comparison checker need five passes.
    text = BASE_CONFIG.replace("grid.n = 8", "grid.n = 520")
    text = text.replace("obstacle.preset = bump\nobstacle.c = 0.5\nobstacle.d = 4.0\n"
                        "obstacle.m = 0.5\n", "obstacle.preset = negative\nobstacle.c = 0.01\n")
    text = text.replace("solver.method = activeset", "solver.method = psor")
    text += "\nsolver.max_iter = 2\nverify.samples = 2\n"
    cfg = write_config(tmp_path, text)
    out = str(tmp_path / "out.json")
    assert main(["verify", "--config", cfg, "--out", out]) == 3
    assert "solver failure:" in capsys.readouterr().err
    record = load_record(out)
    assert record["converged"] is True
    assert record["reports"] == []
    assert "active set" in record["error"]


def test_exit_3_when_active_set_runs_out_of_passes(tmp_path, capsys):
    # The bump needs a second pass: the all-free first pass undershoots psi.
    cfg = write_config(tmp_path, BASE_CONFIG + "\nsolver.max_iter = 1\n")
    out = str(tmp_path / "out.json")
    assert main(["solve", "--config", cfg, "--out", out]) == 3
    assert "solver failure:" in capsys.readouterr().err
    record = load_record(out)
    assert record["converged"] is False
    assert "active set did not settle in 1 passes" in record["error"]


def test_exit_3_when_active_set_revisits_an_active_set(tmp_path, capsys, monkeypatch):
    # Free-block solves stubbed to land below psi make every node active;
    # the constant forcing then makes every node leave, so S cycles.
    monkeypatch.setattr(solvers, "_solve_free_block",
                        lambda op, free, psi, *rest: np.where(free, -1e3, psi))
    text = BASE_CONFIG.replace("grid.n = 8", "grid.n = 520")
    text = text.replace("forcing.preset = zero", "forcing.preset = constant\nforcing.c = 1e4")
    cfg = write_config(tmp_path, text)
    out = str(tmp_path / "out.json")
    assert main(["verify", "--config", cfg, "--out", out]) == 3
    assert "solver failure: active set did not settle in 2 passes" in capsys.readouterr().err
    record = load_record(out)
    assert record["reports"] == []
    assert record["error"].startswith("active set did not settle in 2 passes")


def test_exit_3_verify_keeps_the_failed_main_solve(tmp_path, capsys):
    text = BASE_CONFIG.replace("solver.method = activeset", "solver.method = psor")
    cfg = write_config(tmp_path, text + "\nsolver.max_iter = 1\n")
    out = str(tmp_path / "out.json")
    assert main(["verify", "--config", cfg, "--out", out]) == 3
    assert "solver failure: PSOR did not reach" in capsys.readouterr().err
    record = load_record(out)
    assert record["solver_id"] == "psor"
    assert record["converged"] is False
    assert record["iterations"] == 1 and len(record["u"]) == 8
    assert record["reports"] == []
    assert record["error"].startswith("PSOR did not reach")


def test_exit_3_penalty_route_records_its_iterate_on_the_real_problem(tmp_path, capsys):
    # The penalty route's active-set warm start fails on the reduced problem
    # (psi - w, 0); the record holds its best iterate plus the shift w.
    text = BASE_CONFIG.replace("solver.method = activeset", "solver.method = penalty")
    text = text.replace("forcing.preset = zero", "forcing.preset = constant\nforcing.c = -0.5")
    text += "\nsolver.max_iter = 1\n"
    cfg = write_config(tmp_path, text)
    out = str(tmp_path / "out.json")
    assert main(["solve", "--config", cfg, "--out", out]) == 3
    assert "solver failure: active set did not settle in 1 passes" in capsys.readouterr().err
    record = load_record(out)
    run = parse_config_text(text)
    spec = run.build_problem()
    rspec = ProblemSpec(spec.op, np.maximum(spec.psi - spec.shift, 0.0), np.zeros(8))
    with pytest.raises(IterationLimitError) as exc:
        solvers.solve_active_set(rspec, run.solver_params)
    u = exc.value.best.u + spec.shift
    assert record["solver_id"] == "penalty"
    assert record["converged"] is False and record["iterations"] == 1
    assert record["u"] == u.tolist()
    assert record["residual"] == (spec.op.apply(u) - spec.f).tolist()
    assert record["energy"] == spec.op.energy(u, spec.f)


def test_exit_3_penalty_newton_records_its_warm_start_on_the_real_problem(tmp_path, capsys):
    # The active-set warm start converges; one Newton step cannot reach the
    # stop test.  The record holds the active-set solution of the reduced
    # problem plus the shift w, with the Newton step count.
    text = BASE_CONFIG.replace("solver.method = activeset", "solver.method = penalty")
    text = text.replace("obstacle.d = 4.0", "obstacle.d = 8.0")
    text = text.replace("forcing.preset = zero", "forcing.preset = constant\nforcing.c = -0.5")
    text += "\npenalty.max_outer = 1\n"
    cfg = write_config(tmp_path, text)
    out = str(tmp_path / "out.json")
    assert main(["solve", "--config", cfg, "--out", out]) == 3
    assert "solver failure: penalty Newton exceeded max_outer=1" in capsys.readouterr().err
    record = load_record(out)
    run = parse_config_text(text)
    spec = run.build_problem()
    rspec = ProblemSpec(spec.op, np.maximum(spec.psi - spec.shift, 0.0), np.zeros(8))
    u = solvers.solve_active_set(rspec, run.solver_params).u + spec.shift
    assert record["solver_id"] == "penalty"
    assert record["converged"] is False and record["iterations"] == 1
    assert record["u"] == u.tolist()
    assert record["residual"] == (spec.op.apply(u) - spec.f).tolist()
    assert record["energy"] == spec.op.energy(u, spec.f)


def test_exit_3_when_an_active_set_free_block_solve_fails(tmp_path, capsys, monkeypatch):
    # The second pass's free-block solve runs out of its budget; the record
    # holds pass 1's iterate as an unconverged active set.
    text = BASE_CONFIG.replace("grid.n = 8", "grid.n = 600").replace(
        "forcing.preset = zero", "forcing.preset = constant\nforcing.c = -0.5")
    run = parse_config_text(text)
    spec = run.build_problem()
    with pytest.raises(IterationLimitError, match="did not settle in 1 passes") as first:
        solvers.solve_active_set(spec, dataclasses.replace(run.solver_params, max_iter=1))
    real, calls = solvers._solve_free_block, []

    def second_call_fails(op, free, *rest):
        calls.append(free)
        if len(calls) == 2:
            raise SolverError("inner solve gave up")
        return real(op, free, *rest)

    monkeypatch.setattr(solvers, "_solve_free_block", second_call_fails)
    out = str(tmp_path / "out.json")
    cfg = write_config(tmp_path, text)
    assert main(["solve", "--config", cfg, "--out", out, "--solver", "activeset"]) == 3
    assert "solver failure: active set pass 2: inner solve gave up" in capsys.readouterr().err
    record = load_record(out)
    u = first.value.best.u
    assert record["solver_id"] == "active_set"
    assert record["converged"] is False and record["iterations"] == 1
    assert record["u"] == u.tolist()
    assert record["residual"] == (spec.op.apply(u) - spec.f).tolist()
    assert record["reports"] == []
    assert record["error"].startswith("active set pass 2: inner solve gave up (violation ")


def test_exit_3_when_the_active_set_settles_above_its_gate(tmp_path, capsys, monkeypatch):
    # A free value lowered by 1e-9 keeps u >= psi, so the classification
    # settles, but the final gate sees its residual of about -1e-9 D.
    iterates = lower_one_free_value(monkeypatch)
    out = str(tmp_path / "out.json")
    cfg = write_config(tmp_path, BASE_CONFIG)
    assert main(["solve", "--config", cfg, "--out", out, "--solver", "activeset"]) == 3
    assert "solver failure: active set settled at pass" in capsys.readouterr().err
    record = load_record(out)
    assert record["solver_id"] == "active_set"
    assert record["converged"] is False and record["iterations"] == len(iterates)
    assert record["u"] == iterates[-1].tolist()
    assert record["reports"] == []
    assert record["error"].startswith("active set settled at pass")


def test_solve_active_set_at_n600_meets_kkt_on_reload(tmp_path):
    text = BASE_CONFIG.replace("grid.n = 8", "grid.n = 600")
    cfg = write_config(tmp_path, text)
    out = str(tmp_path / "out.json")
    assert main(["solve", "--config", cfg, "--out", out, "--solver", "activeset"]) == 0
    record = load_record(out)
    assert record["solver_id"] == "active_set"
    spec = parse_config_text(text).build_problem()
    assert check_kkt(spec, np.asarray(record["u"]), tol=1e-10).passed


def test_exit_3_when_oracle_check_solver_hits_iteration_limit(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_CONFIG + "\nsolver.max_iter = 1\n")
    out = str(tmp_path / "out.json")
    assert main(["oracle-check", "--config", cfg, "--out", out]) == 3
    assert "solver failure:" in capsys.readouterr().err
    record = load_record(out)
    assert record["solver_id"] == "oracle"
    assert "oracle_deviations" not in record
    assert "error" in record


def oracle_without_candidates(monkeypatch):
    """Make the CLI's enumeration oracle hold its candidates to a feasibility
    tolerance of -1, which none meets; every other solve keeps its own."""
    def oracle(spec, params):
        with monkeypatch.context() as patched:
            patched.setattr(solvers, "roundoff_tol", lambda op, u, tol: -1.0)
            return solvers.brute_force_oracle(spec, params)
    monkeypatch.setattr(cli, "brute_force_oracle", oracle)


@pytest.mark.parametrize("command", [["oracle-check"], ["verify", "--solver", "activeset"]])
def test_exit_3_when_the_oracle_finds_no_kkt_point(tmp_path, capsys, monkeypatch, command):
    oracle_without_candidates(monkeypatch)
    cfg = write_config(tmp_path, BASE_CONFIG)
    out = str(tmp_path / "out.json")
    assert main([*command, "--config", cfg, "--out", out]) == 3
    assert "solver failure: no candidate active set" in capsys.readouterr().err
    record = load_record(out)
    assert record["reports"] == []
    assert record["error"] == "no candidate active set satisfies the KKT system"


def test_exit_3_oracle_failure_records_psi_plus_as_the_oracle(tmp_path, monkeypatch):
    # The oracle has no iterate to keep, so the record holds psi^+ as an
    # unconverged oracle solution, as a failed main solve without one does.
    oracle_without_candidates(monkeypatch)
    out = str(tmp_path / "out.json")
    assert main(["oracle-check", "--config", write_config(tmp_path, BASE_CONFIG),
                 "--out", out]) == 3
    record = load_record(out)
    spec = parse_config_text(BASE_CONFIG).build_problem()
    u = spec.default_start()
    assert record["solver_id"] == "oracle"
    assert record["converged"] is False and record["iterations"] == 0
    assert record["u"] == u.tolist()
    assert record["residual"] == (spec.op.apply(u) - spec.f).tolist()
    assert record["energy"] == spec.op.energy(u, spec.f)
    assert list(record)[-3:] == ["reports", "error", "timing_seconds"]
    assert "oracle_deviations" not in record


def test_exit_4_on_injected_corruption(tmp_path):
    cfg = write_config(tmp_path, BASE_CONFIG)
    assert main(["verify", "--config", cfg, "--inject-corruption"]) == 4


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["solve"])  # missing --config
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", ["sweep --out {}", "oracle-check --solver pg"])
def test_flag_a_command_does_not_read_is_a_usage_error(tmp_path, capsys, argv):
    # sweep writes only its CSV; oracle-check runs every solver.
    command, *rest = argv.format(tmp_path / "out.json").split()
    text = BASE_CONFIG + _SWEEP.format("s", "0.3, 0.5")
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", write_config(tmp_path, text), *rest])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(rest)}" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


# The flag sets perfbench/workloads.py and perfbench/test_gate.py pass, after
# --config and --seed, which every command takes.
@pytest.mark.parametrize("argv, code", [
    ("verify --out {} --solver activeset", 0),
    ("verify --out {} --solver psor", 0),
    ("verify --out {} --inject-corruption", 4),
    ("solve --out {} --solver pg", 0),
    ("solve --out {} --solver psor", 0),
    ("solve --out {} --solver activeset", 0),
    ("sweep --csv {}", 0),
    ("oracle-check --out {}", 0),
])
def test_benchmark_flag_sets_run(tmp_path, argv, code):
    out = tmp_path / "out"
    command, *rest = argv.format(out).split()
    text = BASE_CONFIG + (_SWEEP.format("epsilon", "0.1, 0.03") if command == "sweep" else "")
    assert main([command, "--config", write_config(tmp_path, text), "--seed", "3", *rest]) == code
    assert out.exists()


# --- verify ----------------------------------------------------------------------------

def test_verify_passes_and_includes_oracle_agreement(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_CONFIG)
    out = str(tmp_path / "verify.json")
    assert main(["verify", "--config", cfg, "--out", out]) == 0
    record = load_record(out)
    ids = [r["check_id"] for r in record["reports"]]
    assert ids == ["kkt", "lewy_stampacchia", "minty", "smallest_supersolution",
                   "bounds_cinfty", "truncation_identities", "comparison_in_f",
                   "linfty_dependence", "oracle_agreement"]
    assert all(r["passed"] and not r["inconclusive"] for r in record["reports"])
    out = capsys.readouterr().out
    assert "inconclusive" not in out and out.splitlines()[-1] == "all checks passed"


def test_verify_large_instance_skips_oracle(tmp_path):
    cfg = write_config(tmp_path, BASE_CONFIG.replace("grid.n = 8", "grid.n = 24"))
    out = str(tmp_path / "verify.json")
    assert main(["verify", "--config", cfg, "--out", out]) == 0
    ids = [r["check_id"] for r in load_record(out)["reports"]]
    assert "oracle_agreement" not in ids


@pytest.mark.parametrize("solver", ["activeset", "psor"])
def test_verify_makes_three_active_set_solves(tmp_path, monkeypatch, solver):
    # (psi, f) once, by the main solve or for the comparison checkers, and
    # one second problem per comparison checker; n = 24 runs no oracle.
    calls = count_active_set_calls(monkeypatch)
    text = BASE_CONFIG.replace("grid.n = 8", "grid.n = 24")
    assert main(["verify", "--config", write_config(tmp_path, text), "--solver", solver]) == 0
    assert len(calls) == 3
    assert np.array_equal(calls[0], parse_config_text(text).build_problem().psi)


def test_verify_counts_inconclusive_checks(tmp_path, capsys):
    # No supersolution draw clears the tall bump, so that check reads N/A.
    text = BASE_CONFIG.replace("grid.n = 8", "grid.n = 24")
    text = text.replace("obstacle.c = 0.5", "obstacle.c = 2.0") + "verify.samples = 20\n"
    cfg = write_config(tmp_path, text)
    out = str(tmp_path / "verify.json")
    assert main(["verify", "--config", cfg, "--out", out]) == 0
    lines = capsys.readouterr().out.splitlines()
    inconclusive = [r["check_id"] for r in load_record(out)["reports"] if r["inconclusive"]]
    assert inconclusive == ["smallest_supersolution"]
    assert lines[-2:] == ["1 check(s) inconclusive", "all checks passed"]


def test_verify_deterministic_given_seed(tmp_path):
    cfg = write_config(tmp_path, BASE_CONFIG)
    out1, out2 = str(tmp_path / "v1.json"), str(tmp_path / "v2.json")
    assert main(["verify", "--config", cfg, "--out", out1, "--seed", "7"]) == 0
    assert main(["verify", "--config", cfg, "--out", out2, "--seed", "7"]) == 0
    assert dumps(strip_timing(load_record(out1))) == dumps(strip_timing(load_record(out2)))


def _count_shift_solves(monkeypatch, f):
    """Wrap solve_linear where the package calls it; returns the list of
    calls whose right-hand side is the forcing f."""
    calls = []
    for module in (solvers, verify):
        real = module.solve_linear
        monkeypatch.setattr(module, "solve_linear", lambda op, rhs, real=real: (
            calls.append(1) if np.array_equal(rhs, f) else None) or real(op, rhs))
    return calls


@pytest.mark.parametrize("command, method, extra", [
    ("verify", "pg", ""),
    ("verify", "penalty", ""),
    ("sweep", "pg", "sweep.axis = epsilon\nsweep.values = 0.1, 0.03, 0.01, 0.003\n"),
], ids=["verify", "verify-penalty", "epsilon-sweep"])
def test_shift_solved_once_per_problem(tmp_path, monkeypatch, command, method, extra):
    # A^{-1} f is the spec's: the Lewy-Stampacchia and sup-norm checkers and
    # the penalty route of every sweep row read the one solve.
    text = readme_bump_config(64, 0.5).replace("solver.method = pg", f"solver.method = {method}")
    text += extra
    f = parse_config_text(text).build_problem().f
    calls = _count_shift_solves(monkeypatch, f)
    cfg = write_config(tmp_path, text)
    out = {"verify": "--out", "sweep": "--csv"}[command]
    assert main([command, "--config", cfg, out, str(tmp_path / "out")]) == 0
    assert len(calls) == 1


def test_epsilon_sweep_builds_two_problems_and_one_active_set_solve(tmp_path, monkeypatch):
    # The sweep's problem and the zero-forcing problem (psi^+, 0) of the
    # penalty route's eps-free setup, which every row shares.
    built = []
    post_init = ProblemSpec.__post_init__
    monkeypatch.setattr(ProblemSpec, "__post_init__",
                        lambda self: built.append(1) or post_init(self))
    calls = count_active_set_calls(monkeypatch)
    text = readme_bump_config(512, 0.5).replace("solver.method = pg", "solver.method = penalty")
    text += "sweep.axis = epsilon\nsweep.values = 0.1, 0.03, 0.01, 0.003\n"
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", write_config(tmp_path, text), "--csv", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 5
    assert (len(built), len(calls)) == (2, 1)


# --- sweep -----------------------------------------------------------------------------

def test_sweep_epsilon_gap_column(tmp_path):
    text = BASE_CONFIG + "\nsweep.axis = epsilon\nsweep.values = 1e-1, 1e-2, 1e-3\n"
    text += "penalty.epsilon = 1e-1\n"
    cfg = write_config(tmp_path, text)
    csv = str(tmp_path / "sweep.csv")
    assert main(["sweep", "--config", cfg, "--csv", csv]) == 0
    lines = Path(csv).read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header == ["axis", "value", "solver", "converged", "iterations",
                      "energy", "kkt_violation", "max_penalty_gap", "status"]
    gap_idx = header.index("max_penalty_gap")
    for line, eps in zip(lines[1:], (1e-1, 1e-2, 1e-3)):
        cells = line.split(",")
        assert cells[-1] == "ok"
        assert float(cells[gap_idx]) <= eps + 1e-7


def test_sweep_s_axis_all_rows_pass_kkt(tmp_path):
    text = BASE_CONFIG + "\nsweep.axis = s\nsweep.values = 0.25, 0.5, 0.75\n"
    cfg = write_config(tmp_path, text)
    csv = str(tmp_path / "sweep.csv")
    assert main(["sweep", "--config", cfg, "--csv", csv]) == 0
    lines = Path(csv).read_text().strip().splitlines()
    kkt_idx = lines[0].split(",").index("kkt_violation")
    assert len(lines) == 4
    for line in lines[1:]:
        assert float(line.split(",")[kkt_idx]) <= 1e-8


def test_sweep_n_axis(tmp_path):
    text = BASE_CONFIG + "\nsweep.axis = n\nsweep.values = 8, 16, 24\n"
    cfg = write_config(tmp_path, text)
    csv = str(tmp_path / "sweep.csv")
    assert main(["sweep", "--config", cfg, "--csv", csv]) == 0
    lines = Path(csv).read_text().strip().splitlines()
    assert len(lines) == 4
    header = lines[0].split(",")
    gap_idx = header.index("max_penalty_gap")
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[-1] == "ok"
        assert cells[gap_idx] == ""  # not applicable off the epsilon axis


def test_sweep_error_row_with_comma_round_trips(tmp_path, monkeypatch):
    # The s = 0.9 row's solve fails with a message that holds commas.
    solve = solvers.SOLVERS["activeset"]

    def failing(spec, params):
        if spec.op.s == 0.9:
            raise solvers.SolverError("active set failed at s = 0.9, n = 8, twice")
        return solve(spec, params)

    monkeypatch.setitem(solvers.SOLVERS, "activeset", failing)
    text = BASE_CONFIG + _SWEEP.format("s", "0.5, 0.9")
    cfg = write_config(tmp_path, text)
    path = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--csv", str(path)]) == 3
    with open(path, newline="", encoding="utf-8") as fh:
        header, ok, bad = csv.reader(fh)
    assert len(header) == len(ok) == len(bad) == 9
    status = header.index("status")
    assert ok[status] == "ok"
    assert bad[status] == "error: active set failed at s = 0.9, n = 8, twice"
    assert path.read_text().count("\n") == 3


def test_sweep_solver_flag_sets_s_rows_but_not_the_epsilon_axis(tmp_path):
    # --solver overrides solver.method on every s-axis row; the epsilon
    # axis always runs the penalty route.
    text = BASE_CONFIG.replace("solver.method = activeset", "solver.method = psor")
    for axis, values, solver_id in (("s", "0.25, 0.5, 0.75", "projected_gradient"),
                                    ("epsilon", "1e-1, 1e-2", "penalty")):
        cfg = write_config(tmp_path, text + _SWEEP.format(axis, values), f"{axis}.cfg")
        out = tmp_path / f"{axis}.csv"
        assert main(["sweep", "--config", cfg, "--csv", str(out), "--solver", "pg"]) == 0
        rows = sweep_rows(out)
        assert len(rows) == len(values.split(","))
        assert all(r["solver"] == solver_id and r["status"] == "ok" for r in rows)


def test_sweep_without_axis_is_config_error(tmp_path):
    cfg = write_config(tmp_path, BASE_CONFIG)
    assert main(["sweep", "--config", cfg, "--csv", str(tmp_path / "s.csv")]) == 2


def test_sweep_requires_csv_path(tmp_path):
    text = BASE_CONFIG + "\nsweep.axis = s\nsweep.values = 0.3, 0.5\n"
    cfg = write_config(tmp_path, text)
    assert main(["sweep", "--config", cfg]) == 2


# --- oracle-check ------------------------------------------------------------------------

FORCING_1E7 = BASE_CONFIG.replace(
    "obstacle.c = 0.5\nobstacle.d = 4.0", "obstacle.c = 0.4\nobstacle.d = 3.0").replace(
    "forcing.preset = zero", "forcing.preset = constant\nforcing.c = 1e7")


def test_oracle_keeps_a_candidate_within_its_roundoff():
    # With f = 1e7 the solution is all free, ||u||_inf is 4.7e6 and its
    # residual's roundoff -7.5e-9: above the oracle's 1e-10, below its floor
    # 64 eps D ||u||_inf = 7.65e-7.  The oracle finds the active set's solution.
    spec = parse_config_text(FORCING_1E7).build_problem()
    exact = solvers.solve_active_set(spec)
    oracle = solvers.brute_force_oracle(spec)
    assert np.abs(oracle.u - exact.u).max() <= solvers.roundoff_tol(spec.op, exact.u, 0.0)


@pytest.mark.xfail(strict=True, reason="PSOR and projected gradient stop on an absolute "
                   "KKT tol whose complementarity part is unscaled (ROADMAP item 1)")
def test_oracle_check_solves_forcing_1e7(tmp_path):
    assert main(["oracle-check", "--config", write_config(tmp_path, FORCING_1E7)]) == 0


def test_oracle_check_agreement(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_CONFIG)
    assert main(["oracle-check", "--config", cfg]) == 0
    assert "agree" in capsys.readouterr().out


def test_oracle_check_rejects_large_n(tmp_path):
    cfg = write_config(tmp_path, BASE_CONFIG.replace("grid.n = 8", "grid.n = 20"))
    assert main(["oracle-check", "--config", cfg]) == 2


def nan_psor(monkeypatch):
    """Make solvers.solve_psor return its solution with u all NaN."""
    real = solvers.solve_psor
    monkeypatch.setattr(solvers, "solve_psor", lambda spec, params=None: dataclasses.replace(
        real(spec, params), u=np.full(spec.n, math.nan)))


def test_oracle_check_fails_a_nan_deviation(tmp_path, monkeypatch, capsys):
    # as verify's oracle_agreement does: a NaN counts as the worst deviation
    nan_psor(monkeypatch)
    assert main(["oracle-check", "--config", write_config(tmp_path, BASE_CONFIG)]) == 4
    captured = capsys.readouterr()
    assert "psor         max deviation from oracle: nan" in captured.out
    assert "disagreement beyond 1e-07" in captured.err


@pytest.mark.parametrize("command", [["oracle-check"], ["verify", "--solver", "psor"]])
def test_nan_verdict_keeps_exit_4_and_writes_its_record(tmp_path, monkeypatch, capsys, command):
    # A NaN is written as null, so --out does not turn exit 4 into exit 2.
    nan_psor(monkeypatch)
    out = tmp_path / "out.json"
    assert main([*command, "--config", write_config(tmp_path, BASE_CONFIG),
                 "--out", str(out)]) == 4
    assert "config error" not in capsys.readouterr().err
    record = load_record(out)
    if command[0] == "oracle-check":
        assert record["oracle_deviations"]["psor"] is None
        assert record["oracle_deviations"]["activeset"] <= record["oracle_agree_tol"]
    else:
        assert record["u"] == [None] * 8 and record["energy"] is None
        kkt, oracle = record["reports"][0], record["reports"][-1]
        assert kkt["check_id"] == "kkt" and oracle["check_id"] == "oracle_agreement"
        assert kkt["worst_violation"] is None and not kkt["passed"]
        assert oracle["worst_violation"] is None and not oracle["passed"]


@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_non_finite_csv_value_writes_no_csv(tmp_path, monkeypatch, command):
    # The JSON record writes a NaN as null; the CSV writers refuse it before
    # they open their file.  The exit code (2, a config error) is left
    # unpinned: the fault is in the solve, not the config (CHANGES.md FOUND).
    nan_psor(monkeypatch)
    text = (BASE_CONFIG.replace("method = activeset", "method = psor")
            + _SWEEP.format("s", "0.3, 0.6"))
    csv_path, out = tmp_path / "out.csv", tmp_path / "out.json"
    extra = ["--out", str(out)] if command == "solve" else []
    assert main([command, "--config", write_config(tmp_path, text),
                 "--csv", str(csv_path), *extra]) != 0
    assert not csv_path.exists()
    if command == "solve":
        assert load_record(out)["u"] == [None] * 8


def test_exit_3_record_of_a_nan_best_iterate_is_written(tmp_path, monkeypatch, capsys):
    def nan_give_up(spec, params=None):
        best = solvers.make_solution(spec, np.full(spec.n, math.nan), 1, "psor", False,
                                     params)
        raise IterationLimitError("PSOR gave up", best)

    monkeypatch.setattr(solvers, "solve_psor", nan_give_up)
    out = tmp_path / "out.json"
    assert main(["solve", "--config", write_config(tmp_path, BASE_CONFIG), "--solver", "psor",
                 "--out", str(out)]) == 3
    assert "solver failure: PSOR gave up" in capsys.readouterr().err
    record = load_record(out)
    assert record["u"] == record["residual"] == [None] * 8
    assert record["energy"] is None and record["converged"] is False
    assert record["error"] == "PSOR gave up"


def test_oracle_check_record_carries_deviations(tmp_path):
    cfg = write_config(tmp_path, BASE_CONFIG)
    out = str(tmp_path / "oc.json")
    assert main(["oracle-check", "--config", cfg, "--out", out]) == 0
    record = load_record(out)
    assert set(record["oracle_deviations"]) == {"psor", "pg", "activeset"}
    assert all(v <= record["oracle_agree_tol"]
               for v in record["oracle_deviations"].values())


def test_solve_with_sine_forcing(tmp_path):
    text = BASE_CONFIG.replace("forcing.preset = zero", "forcing.preset = sine")
    text += "\nforcing.amplitude = 0.8\nforcing.frequency = 2\n"
    cfg = write_config(tmp_path, text)
    out = str(tmp_path / "out.json")
    assert main(["solve", "--config", cfg, "--out", out]) == 0
    record = load_record(out)
    x = np.array(record["x"])
    np.testing.assert_allclose(record["f"], 0.8 * np.sin(np.pi * 2 * x), atol=1e-15)


# --- golden file ---------------------------------------------------------------------------

def sweep_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_epsilon_sweep_runs_one_active_set_solve(tmp_path, monkeypatch):
    calls = count_active_set_calls(monkeypatch)
    text = (DATA_DIR / "golden_sweep.cfg").read_text().replace(
        "sweep.values = 1e-1, 1e-2, 1e-3", "sweep.values = 1e-1, 3e-2, 1e-2, 3e-3")
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out.csv"
    assert main(["sweep", "--config", cfg, "--csv", str(out)]) == 0
    assert len(calls) == 1
    rows = sweep_rows(out)
    assert [r["status"] for r in rows] == ["ok"] * 4
    assert len({r["energy"] for r in rows}) == 1


def test_epsilon_sweep_active_set_failure_gives_every_row_its_error(tmp_path, monkeypatch):
    calls = count_active_set_calls(monkeypatch)
    text = (DATA_DIR / "golden_sweep.cfg").read_text() + "solver.max_iter = 1\n"
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out.csv"
    assert main(["sweep", "--config", cfg, "--csv", str(out)]) == 3
    assert len(calls) == 3  # a failed solve is not memoised
    expected = "error: active set did not settle in 1 passes (violation 6.316e-01)"
    assert [r["status"] for r in sweep_rows(out)] == [expected] * 3


# Each golden output was written by the CLI from its config in tests/data;
# any change to a number, a key or the key order shows up here.
GOLDEN_CASES = {
    "solve": ("solve", "golden_solve.cfg", (), "golden_solve.json"),
    "solve-csv": ("solve", "golden_solve.cfg", (), "golden_solve.csv"),
    "verify": ("verify", "golden_verify.cfg", (), "golden_verify.json"),
    "penalty": ("solve", "golden_penalty.cfg", ("--solver", "penalty"),
                "golden_penalty.json"),
    "oracle-check": ("oracle-check", "golden_oracle.cfg", (), "golden_oracle.json"),
    "sweep": ("sweep", "golden_sweep.cfg", (), "golden_sweep.csv"),
    # The golden_solve.cfg problem on the s and n axes, each row built apart.
    "sweep-s": ("sweep", "golden_sweep_s.cfg", (), "golden_sweep_s.csv"),
    "sweep-n": ("sweep", "golden_sweep_n.cfg", (), "golden_sweep_n.csv"),
    # n=300: the FFT matvec and the penalty route's active-set warm start
    # and Newton steps at sizes the n <= 12 goldens above never reach.
    "pg": ("solve", "golden_pg.cfg", ("--solver", "pg"), "golden_pg.json"),
    "sweep-fft": ("sweep", "golden_sweep_fft.cfg", (), "golden_sweep_fft.csv"),
    # n=600: projected gradient on a second FFT length; n=300: the active
    # set in the main solve and in every checker.
    "pg-600": ("solve", "golden_pg_600.cfg", ("--solver", "pg"), "golden_pg_600.json"),
    "verify-activeset-300": ("verify", "golden_pg.cfg", ("--solver", "activeset"),
                             "golden_verify_activeset.json"),
    # n=600: the active set's matrix-free free blocks, warm-started over 9 passes.
    "activeset-600": ("solve", "golden_pg_600.cfg", ("--solver", "activeset"),
                      "golden_activeset_600.json"),
    # n=300: PSOR's column updates over 127 sweeps, where the n <= 12
    # goldens above run a few.
    "psor-300": ("solve", "golden_pg.cfg", ("--solver", "psor"), "golden_psor_300.json"),
}


def golden_args(tmp_path, case):
    """The command line of a golden case, writing into tmp_path."""
    command, cfg_name, extra, golden_name = GOLDEN_CASES[case]
    out_flag = "--csv" if golden_name.endswith(".csv") else "--out"
    return [command, "--config", str(DATA_DIR / cfg_name), *extra,
            out_flag, str(tmp_path / golden_name)]


@pytest.mark.parametrize("case", ["pg-600", "verify-activeset-300", "sweep-fft",
                                  "verify", "penalty", "oracle-check"])
def test_cli_run_leaves_out_scipy_linalg(tmp_path, case):
    # The package needs numpy alone: no run imports a scipy module, and
    # math.gamma serves the kernel constant.
    code = ("import sys; from fracobstacle.cli import main; code = main(sys.argv[1:]); "
            "print(code, [m for m in sys.modules if m.partition('.')[0] == 'scipy'])")
    assert run_python(code, *golden_args(tmp_path, case)).splitlines()[-1] == "0 []"


@pytest.mark.parametrize("case", ["sweep-fft", "verify-activeset-300", "psor-300"])
def test_golden_record_at_one_blas_thread(tmp_path, case):
    # The n=300 goldens in a fresh process started with one BLAS thread:
    # no result may depend on the thread count.
    code = "import sys; from fracobstacle.cli import main; print(main(sys.argv[1:]))"
    args = golden_args(tmp_path, case)
    env = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    assert run_python(code, *args, **env).splitlines()[-1] == "0"
    out, golden = Path(args[-1]).read_text(), (DATA_DIR / GOLDEN_CASES[case][3]).read_text()
    if args[-2] == "--out":
        out, golden = (dumps(strip_timing(json.loads(text))) for text in (out, golden))
    assert out == golden


@pytest.mark.parametrize("case", list(GOLDEN_CASES))
def test_golden_record(tmp_path, case):
    command, cfg_name, extra, golden_name = GOLDEN_CASES[case]
    golden_path = DATA_DIR / golden_name
    cfg = write_config(tmp_path, (DATA_DIR / cfg_name).read_text())
    if golden_path.suffix == ".csv":
        out = tmp_path / "out.csv"
        assert main([command, "--config", cfg, "--csv", str(out), *extra]) == 0
        assert out.read_text() == golden_path.read_text()
        return
    out = str(tmp_path / "out.json")
    assert main([command, "--config", cfg, "--out", out, *extra]) == 0
    produced = strip_timing(load_record(out))
    golden = strip_timing(json.loads(golden_path.read_text()))
    assert dumps(produced) == dumps(golden)


@pytest.mark.parametrize("bump", [
    {},  # tests/data's bump, c = 0.4, d = 3
    {"obstacle.c = 0.4": "obstacle.c = 0.5", "obstacle.d = 3.0": "obstacle.d = 8.0"},  # README's
])
def test_projected_gradient_converges_at_s09_n1024(tmp_path, bump):
    # s = 0.9 at n = 1024: a condition number of about 5e4, where an
    # unaccelerated projected gradient needs 181602 steps on the first bump
    # and gives up at max_iter = 200000 on the second
    text = (DATA_DIR / "golden_pg.cfg").read_text()
    for old, new in {"grid.n = 300": "grid.n = 1024", "operator.s = 0.5": "operator.s = 0.9",
                     **bump}.items():
        text = text.replace(old, new)
    cfg = write_config(tmp_path, text)
    records = {}
    for method in ("pg", "activeset"):
        out = tmp_path / f"{method}.json"
        assert main(["solve", "--config", cfg, "--solver", method, "--out", str(out)]) == 0
        records[method] = load_record(out)
    pg, exact = records["pg"], records["activeset"]
    assert pg["converged"] and pg["iterations"] <= 5000
    assert np.abs(np.subtract(pg["u"], exact["u"])).max() <= 1e-9
    assert pg["active_set"] == exact["active_set"]


def test_solve_summary_line(tmp_path, capsys):
    # The summary reads the energy and the KKT violation of the solve the
    # record holds; its digits are pinned like the record's.
    cfg = write_config(tmp_path, (DATA_DIR / "golden_solve.cfg").read_text())
    assert main(["solve", "--config", cfg]) == 0
    assert capsys.readouterr().out == (
        "solved: n=6 s=0.5 solver=active_set iterations=3 energy=0.193650223 "
        "kkt_violation=1.110e-16\n")
