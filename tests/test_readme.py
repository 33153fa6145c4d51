"""Golden test of the README CLI block.

Every ``boxweights`` command of the fenced block under "## CLI" in README.md
runs in a fresh directory, in the order the README gives, with the same
relative paths.  The files the block writes and the stdout of the commands
named in STDOUT must equal, byte for byte, the copies under
tests/fixtures/readme/.  To regenerate them, run the block in that directory
and redirect the stdout of each command in STDOUT to ``<command>.stdout``.
"""

import shlex

from boxweights.cli import main

from conftest import FIXTURE_DIR, REPO_ROOT

GOLDEN = FIXTURE_DIR / "readme"
FILES = ("w.txt", "cells.csv", "sharpness.csv", "trace.csv", "trend.csv")
STDOUT = ("exponents", "characteristic", "split", "bellman-verify", "conclusion-check")


def readme_commands():
    """argv lists of the README CLI block, backslash continuations joined."""
    text = (REPO_ROOT / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```", 2)[1]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        if line.startswith("boxweights "):
            commands.append(shlex.split(line)[1:])
    return commands


def test_readme_block_is_the_recorded_one():
    names = [argv[0] for argv in readme_commands()]
    assert names == [
        "exponents", "make-grid", "characteristic", "export-csv",
        "sharpness", "split", "bellman-verify", "conclusion-check",
    ]


def test_readme_outputs_are_byte_identical(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for argv in readme_commands():
        assert main(argv) == 0, argv
        out = capsys.readouterr().out
        if argv[0] in STDOUT:
            assert out == (GOLDEN / f"{argv[0]}.stdout").read_text(), argv[0]
    for name in FILES:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name
