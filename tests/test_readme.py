"""README's library tour runs as written against the package in ``src``."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _tour() -> str:
    """The python block of the "Library tour" section."""
    section = README.read_text(encoding="utf-8").split("\n## Library tour\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    assert len(blocks) == 1, "the library tour holds one python block"
    return blocks[0]


def test_library_tour_runs(capsys):
    exec(compile(_tour(), str(README), "exec"), {"__name__": "readme_tour"})
    assert capsys.readouterr().out.splitlines()[-1] == "True"
