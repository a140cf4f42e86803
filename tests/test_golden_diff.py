import copy
import json
import math
from pathlib import Path

import pytest

from golden_diff import compare, load, main

DATA_DIR = Path(__file__).parent / "data"
GOLDENS = sorted(p.name for p in DATA_DIR.iterdir() if p.suffix in (".json", ".csv"))


def accepted(old, new, tolerances=None, integers=()):
    fields, problems = compare(old, new, tolerances, integers)
    return not problems and all(f.ok for f in fields)


def one_ulp_up(record):
    if isinstance(record, dict):
        return {key: one_ulp_up(value) for key, value in record.items()}
    if isinstance(record, list):
        return [one_ulp_up(value) for value in record]
    return math.nextafter(record, math.inf) if type(record) is float else record


def float_fields(record):
    fields, _ = compare(record, record)
    return [f.name for f in fields if "float" in f.kinds]


@pytest.mark.parametrize("name", GOLDENS)
def test_golden_matches_itself_and_a_one_ulp_copy(name):
    golden = load(DATA_DIR / name)
    assert accepted(golden, copy.deepcopy(golden))
    nudged = one_ulp_up(golden)
    # every golden value is below 4096 in magnitude, where one ulp is < 1e-12
    assert accepted(golden, nudged, {field: 1e-12 for field in float_fields(golden)})
    assert not accepted(golden, nudged)  # unnamed floats must keep their bits


def pg_golden():
    return load(DATA_DIR / "golden_pg.json")


def test_flipped_active_node_is_rejected_even_when_named():
    old, new = pg_golden(), pg_golden()
    free = next(i for i in range(old["grid"]["n"]) if i not in old["active_set"])
    new["active_set"][-1] = free
    assert not accepted(old, new, integers={"active_set"})
    new["active_set"].append(free)
    _, problems = compare(old, new)
    size = len(old["active_set"])
    assert problems == [f"active_set: length {size} -> {size + 1}"]


def test_changed_converged_flag_is_rejected():
    old, new = pg_golden(), pg_golden()
    new["converged"] = False
    assert not accepted(old, new, integers={"converged"})
    rows = load(DATA_DIR / "golden_sweep.csv")
    flipped = copy.deepcopy(rows)
    flipped[0]["converged"] = 0
    assert not accepted(rows, flipped, integers={"converged"})


def test_integer_change_needs_its_field_named():
    old, new = pg_golden(), pg_golden()
    new["iterations"] += 1
    assert not accepted(old, new)
    assert not accepted(old, new, integers={"grid.n"})
    assert accepted(old, new, integers={"iterations"})


def test_float_tolerance_is_per_field():
    old, new = pg_golden(), pg_golden()
    new["u"][5] += 1e-11
    assert not accepted(old, new)
    assert not accepted(old, new, {"residual": 1e-10})
    assert accepted(old, new, {"u": 1e-10})
    assert not accepted(old, new, {"u": 1e-12})


def test_structure_must_match():
    old = pg_golden()
    for change in (lambda r: r.pop("energy"),
                   lambda r: r.update(iterations=float(r["iterations"])),
                   lambda r: r.update(solver_id="pg"),
                   lambda r: r["u"].pop()):
        new = pg_golden()
        change(new)
        assert not accepted(old, new)
    reordered = {key: old[key] for key in reversed(list(old))}
    assert not accepted(old, reordered)


def test_cli_prints_the_table_and_exits_on_the_verdict(tmp_path, capsys):
    old, new = pg_golden(), pg_golden()
    steps = old["iterations"]
    new["iterations"] = steps + 1
    new["u"][0] += 2e-11
    path = tmp_path / "new.json"
    path.write_text(json.dumps(new))
    args = [str(DATA_DIR / "golden_pg.json"), str(path), "--int", "iterations"]
    assert main(args + ["--tol", "u=1e-10"]) == 0
    out = capsys.readouterr().out
    assert f"| `iterations` | int | 1 | 1 | {steps} -> {steps + 1} | any int | yes |" in out
    assert "| `u` | float | 300 | 1 |" in out
    assert f"| `active_set` | int | {len(old['active_set'])} | 0 |  | exact | yes |" in out
    assert main(args) == 1
    assert "| NO |" in capsys.readouterr().out
