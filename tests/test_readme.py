"""The README's code runs as written.

A reader copies the library quickstart; a public name it imports that
has gone, or a return it reads that has changed, fails here first.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quickstart() -> str:
    """The Python block under the README's "Library quickstart" heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quickstart", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL)[1]


def test_library_quickstart_runs(tmp_path, monkeypatch, capsys):
    # The quickstart writes its dataset to a relative "data" directory.
    monkeypatch.chdir(tmp_path)
    exec(compile(quickstart(), str(README), "exec"), {"__name__": "quickstart"})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert (tmp_path / "data" / "manifest.csv").is_file()
    assert 0.0 <= float(lines[1]) <= 1.0
