"""The README's CLI and library examples run as written.

Each `fsrkit ...` line of a sh block in README.md runs through `cli.main`
from the repository root. The `# ` lines under it, up to a `# ...` line,
are the start of its stdout. Each python block runs as a script, and its
closing `# ` lines are its whole stdout.
"""

import re
import shlex
from pathlib import Path

import pytest

from fsrkit.cli import main

ROOT = Path(__file__).resolve().parent.parent


def examples() -> list[tuple[str, list[str]]]:
    """(command line, the output lines shown under it) of each example."""
    found = []
    for block in re.findall(r"```sh\n(.*?)```", (ROOT / "README.md").read_text(), re.S):
        shown = False  # whether the lines under the last command are its output
        for line in block.splitlines():
            if line.startswith("fsrkit "):
                found.append((line, []))
                shown = True
            elif shown and line.startswith("# ") and line != "# ...":
                found[-1][1].append(line[2:])
            else:
                shown = False
    return found


def test_examples_are_found():
    lines = [line for line, _ in examples()]
    assert len(lines) == 6
    assert all(line.split()[1] in ("to-matrix", "gal2fib", "fib2gal", "verify", "simulate")
               for line in lines)


@pytest.mark.parametrize("line, shown", examples(), ids=[line for line, _ in examples()])
def test_example_runs_as_written(line, shown, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    code = main(shlex.split(line, comments=True)[1:])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert out.startswith("".join(f"{text}\n" for text in shown))


def python_examples() -> list[str]:
    return re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)


def test_python_examples_are_found():
    assert len(python_examples()) == 1


@pytest.mark.parametrize("block", python_examples())
def test_python_example_runs_as_written(block, capsys):
    lines = block.splitlines()
    code = [line for line in lines if not line.startswith("# ")]
    shown = [line[2:] for line in lines if line.startswith("# ")]
    exec("\n".join(code), {})
    assert capsys.readouterr() == ("".join(f"{text}\n" for text in shown), "")
