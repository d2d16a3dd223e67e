"""The README's code examples run as written."""

import contextlib
import io
import json
import os
import shlex

from recaudit.cli import main
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


def quick_start_commands():
    """The recaudit commands of the README's quick start, continuation lines joined."""
    with open(README, encoding="utf-8") as handle:
        text = handle.read()
    block = text.split("## Quick start\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        if line.startswith("recaudit "):
            commands.append(shlex.split(line)[1:])
    return commands


def test_quick_start_commands_exit_as_documented(tmp_path, monkeypatch):
    write_events_csv(tmp_path / "events.csv", browsing_rows())
    monkeypatch.chdir(tmp_path)
    commands = quick_start_commands()
    assert [argv[0] for argv in commands] == ["run", "diagnose", "prob", "prob"]
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code == 0, (argv, err.getvalue())
        json.loads(out.getvalue())
    assert (tmp_path / "out" / "manifest.json").exists()
    assert (tmp_path / "audit" / "manifest.json").exists()
