"""The README's code examples run as written."""

import os

from synth import browsing_rows, write_events_csv

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def python_block(heading):
    """The first ```python block after a README heading."""
    with open(README, encoding="utf-8") as handle:
        text = handle.read()
    section = text.split(f"## {heading}\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_use_example_runs(tmp_path, monkeypatch, capsys):
    write_events_csv(tmp_path / "events.csv", browsing_rows())
    monkeypatch.chdir(tmp_path)
    exec(compile(python_block("Library use"), README, "exec"), {})
    recall, mrr = capsys.readouterr().out.splitlines()[0].split()
    assert 0.0 <= float(mrr) <= float(recall) <= 1.0
