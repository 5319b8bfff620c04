import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def _section_code(title: str) -> str:
    """The first ```python block after the ``## title`` heading."""
    text = README.read_text()
    section = text[text.index(f"## {title}\n"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_sketch_runs(capsys):
    # the documented API, field names included, must match the code
    exec(compile(_section_code("Library sketch"), str(README), "exec"), {})
    steps, dt, split_error = capsys.readouterr().out.splitlines()[0].split()
    assert int(steps) == 239
    assert float(dt) == pytest.approx(14.0 / 239)
    assert 0.0 < float(split_error) <= 1e-4
