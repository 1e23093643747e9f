"""Every module parses under the oldest Python that pyproject.toml declares.

The suite usually runs on a newer interpreter, which would take syntax the
floor does not have (`except*`, for one, is 3.11). `ast.parse` with
`feature_version` refuses such syntax without that interpreter.
"""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted(
    p for folder in ("src/fsrkit", "tests", "demos") for p in (ROOT / folder).glob("*.py"))


def floor() -> tuple[int, int]:
    """(major, minor) of `requires-python = ">=X.Y"` in pyproject.toml."""
    m = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"',
                  (ROOT / "pyproject.toml").read_text(), re.M)
    assert m is not None, "pyproject.toml declares no requires-python floor"
    return int(m[1]), int(m[2])


def test_floor_is_read():
    assert floor() >= (3, 10)


def test_newer_syntax_is_refused():
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(source, feature_version=(3, 11))
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=(3, 10))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_module_parses_at_the_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=floor())
