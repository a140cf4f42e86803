from pathlib import Path

from mutants import MUTANTS, ROOT, mutated


def test_mutant_table_matches_the_source_and_the_tests():
    # The mutation gate runs apart from tier-1; a refactor that moves a
    # mutant's `old` string or renames one of its tests fails here first.
    for m in MUTANTS:
        assert mutated(m) != (ROOT / "src" / "fracobstacle" / m.file).read_text(), m.name
        for test in m.tests:
            path, name = test.split("::")
            assert f"\ndef {name}(" in Path(ROOT / path).read_text(), test
