"""The README's bounds table names module constants and their values; each
must exist in the package with that value."""

import importlib
import math
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _bounds_table() -> list[tuple[str, str]]:
    """(name, value) for each row of the README table headed bound | value."""
    lines = README.read_text().splitlines()
    header = re.compile(r"\|\s*bound\s*\|\s*value\s*\|")
    start = next(i for i, line in enumerate(lines) if header.match(line))
    rows = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        name, value = (cell.strip() for cell in line.strip("|").split("|")[:2])
        rows.append((name.strip("`"), value))
    return rows


def _number(value: str) -> int:
    """The leading number of a table value: 20000, 10^8 or 5·10^6."""
    expr = re.match(r"[\d^·]+", value).group()
    powers = (re.fullmatch(r"(\d+)(?:\^(\d+))?", factor).groups() for factor in expr.split("·"))
    return math.prod(int(base) ** int(exp or 1) for base, exp in powers)


def test_number_parsing():
    assert _number("20000") == 20000
    assert _number("10^5 units") == 10 ** 5
    assert _number("5·10^6") == 5 * 10 ** 6


def test_readme_bounds_match_the_code():
    rows = _bounds_table()
    assert len(rows) >= 5
    for name, value in rows:
        module, attr = name.rsplit(".", 1)
        mod = importlib.import_module(f"coversieve.{module}")
        assert hasattr(mod, attr), f"README names {name}, which the package lacks"
        assert getattr(mod, attr) == _number(value), f"README gives {name} as {value}"
