"""The lint paths keep ruff's line length, checked without ruff.

CI lints ``src``, ``tests`` and ``benchmarks`` with ``ruff check``
(pycodestyle's E501 at the ``line-length`` of ``[tool.ruff]`` in
``pyproject.toml``); this test applies the same limit wherever the suite
runs, with or without ruff installed.  The limit is read with a regex:
``tomllib`` needs Python 3.11, and CI also runs 3.10.
"""

from __future__ import annotations

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
LINT_PATHS = ("src", "tests", "benchmarks")


def ruff_line_length() -> int:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    section = re.search(r"^\[tool\.ruff\]$(.*?)(?=^\[|\Z)", text,
                        re.MULTILINE | re.DOTALL)
    assert section, "pyproject.toml has no [tool.ruff] table"
    limit = re.search(r"^line-length\s*=\s*(\d+)", section.group(1),
                      re.MULTILINE)
    assert limit, "[tool.ruff] sets no line-length"
    return int(limit.group(1))


def test_limit_is_read():
    assert ruff_line_length() == 79


def test_no_line_is_longer_than_the_limit():
    limit = ruff_line_length()
    long_lines = [
        f"{path.relative_to(ROOT)}:{number}: {len(line)} characters"
        for root in LINT_PATHS
        for path in sorted((ROOT / root).rglob("*.py"))
        for number, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), 1
        )
        if len(line) > limit
    ]
    assert not long_lines, "\n".join(long_lines)
