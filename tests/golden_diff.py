"""Compare an old and a new result record (a CLI JSON document or CSV table).

A golden rewrite is reviewable when every changed value is shown to move by
no more than the solver's tolerance.  This script checks that, field by field:

- both records have the same keys in the same order, the same types, and the
  same array lengths;
- strings, bools, nulls, active sets and `converged` flags are equal;
- integers are equal, except in fields named with --int;
- each float differs by at most the absolute tolerance named for its field
  with --tol (0 when unnamed: the bits must match; NaN matches only NaN).

A field is a dotted key path; the elements of a list share the list's path,
so `u` covers all of u and `reports.value` every report's value.  A CSV row
is a record keyed by the header, so a field there is a column.  Cells that
parse as integers are integers, other numbers floats, the rest strings.

    python tests/golden_diff.py OLD NEW --int iterations --tol u=1e-10 \\
        --tol timing_seconds=inf

prints a Markdown table of the changed fields, the named ones and the
protected ones, then every structural difference, and exits 1 if anything
fails.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path
from typing import NamedTuple

# Fields whose values no tolerance and no --int may exempt.
PROTECTED = ("active_set", "converged")


class Field(NamedTuple):
    name: str
    kinds: str        # the value types seen, e.g. "float" or "int"
    count: int        # values compared
    changed: int      # values that differ at all
    change: str       # "1561 -> 181", "max diff 1.9e-11", or ""
    bound: str        # the allowance: "exact", "any int" or the tolerance
    ok: bool


def _cell(text: str):
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    return text


def load(path) -> dict | list:
    """A JSON document as parsed, or a CSV table as a list of row dicts."""
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".csv":
        header, *rows = csv.reader(text.splitlines())
        return [dict(zip(header, map(_cell, row), strict=True)) for row in rows]
    return json.loads(text)


def _walk(old, new, path: str, leaves: dict, problems: list):
    where = path or "<record>"
    if type(old) is not type(new):
        problems.append(f"{where}: type {type(old).__name__} -> {type(new).__name__}")
    elif isinstance(old, dict):
        if list(old) != list(new):
            problems.append(f"{where}: keys {list(old)} -> {list(new)}")
            return
        for key in old:
            _walk(old[key], new[key], f"{path}.{key}" if path else key, leaves, problems)
    elif isinstance(old, list):
        if len(old) != len(new):
            problems.append(f"{where}: length {len(old)} -> {len(new)}")
            return
        for a, b in zip(old, new):
            _walk(a, b, path, leaves, problems)
    else:
        leaves.setdefault(path, []).append((old, new))


def _protected(name: str) -> bool:
    return name.rsplit(".", 1)[-1] in PROTECTED


def _differ(a, b) -> bool:
    return a != b and not (a != a and b != b)  # NaN matches NaN


def _show(value) -> str:
    return f"{value:.6g}" if type(value) is float else repr(value)


def _field(name: str, pairs: list, tol: float | None, int_free: bool) -> Field:
    tol = 0.0 if tol is None or _protected(name) else tol
    int_free = int_free and not _protected(name)
    moved = [(a, b) for a, b in pairs if _differ(a, b)]
    gaps = [abs(a - b) if a == a and b == b else math.inf
            for a, b in moved if type(a) is float]
    worst = max(gaps, default=0.0)
    ok = worst <= tol and all(type(a) is float or (int_free and type(a) is int)
                              for a, _ in moved)
    if len(moved) == 1:
        change = f"{_show(moved[0][0])} -> {_show(moved[0][1])}"
    elif gaps:
        change = f"max diff {worst:.3g}"
    else:
        change = f"{len(moved)} values" if moved else ""
    kinds = {type(a).__name__ for a, _ in pairs}
    bound = ([("exact" if tol == 0.0 else f"{tol:g}")] if "float" in kinds else []) + (
        [("any int" if int_free else "exact")] if kinds - {"float"} else [])
    return Field(name, "/".join(sorted(kinds)), len(pairs), len(moved), change,
                 ", ".join(bound), ok)


def compare(old, new, tolerances: dict | None = None,
            integers=()) -> tuple[list[Field], list[str]]:
    """Every leaf field of the two records, and the structural differences.

    The records match when the second list is empty and every Field is ok.
    """
    tolerances = tolerances or {}
    leaves, problems = {}, []
    _walk(old, new, "", leaves, problems)
    fields = [_field(name, pairs, tolerances.get(name), name in integers)
              for name, pairs in leaves.items()]
    return fields, problems


def table(fields: list[Field], problems: list[str], shown=()) -> str:
    """Markdown rows for the changed and failing fields, the named ones in
    `shown` and the protected ones, then a count of the rest and the
    structural differences."""
    head = ["| field | type | values | changed | change | allowed | ok |",
            "|---|---|---|---|---|---|---|"]
    rows, quiet = [], 0
    for f in fields:
        if f.changed or not f.ok or f.name in shown or _protected(f.name):
            rows.append(f"| `{f.name}` | {f.kinds} | {f.count} | {f.changed} | "
                        f"{f.change} | {f.bound} | {'yes' if f.ok else 'NO'} |")
        else:
            quiet += 1
    lines = head + rows + [f"{quiet} other fields identical."]
    lines += [f"structure: {p}" for p in problems]
    return "\n".join(lines)


def _tolerance(text: str) -> tuple[str, float]:
    name, sep, value = text.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected FIELD=TOL, got {text!r}")
    return name, float(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--tol", type=_tolerance, action="append", default=[],
                        metavar="FIELD=TOL", help="absolute tolerance of a float field")
    parser.add_argument("--int", action="append", default=[], metavar="FIELD",
                        help="an integer field allowed to change")
    args = parser.parse_args(argv)
    tolerances = dict(args.tol)
    fields, problems = compare(load(args.old), load(args.new), tolerances, set(args.int))
    print(table(fields, problems, shown={*tolerances, *args.int}))
    return 0 if not problems and all(f.ok for f in fields) else 1


if __name__ == "__main__":
    sys.exit(main())
