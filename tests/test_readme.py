"""The README's examples run as written."""

import re
from pathlib import Path

from fracobstacle.config import parse_config_text

README = (Path(__file__).parents[1] / "README.md").read_text()


def _block_after(heading, fence):
    """The first code block opened by `fence` after `heading`."""
    tail = README[README.index(heading):]
    return re.search(re.escape(fence) + r"\n(.*?)```", tail, re.S).group(1)


def test_readme_config_parses_and_library_snippet_runs(capsys):
    cfg = parse_config_text(_block_after("### Config format", "```"))
    assert (cfg.n, cfg.s, cfg.obstacle_preset, cfg.forcing_preset) == (64, 0.5, "bump", "constant")
    assert (cfg.sweep_axis, cfg.sweep_values) == ("s", (0.25, 0.5, 0.75))
    assert cfg.penalty_params is None
    exec(_block_after("## Library use", "```python"), {})
    assert capsys.readouterr().out.startswith("Report(check_id='lewy_stampacchia', passed=True")
