"""The README's bounds table names module constants and their values; each
must exist in the package with that value, and every module-level *_CAP or
*_BITS constant of the package must have a row.  Every command of the
README's CLI block must parse."""

import ast
import importlib
import math
import re
import shlex
from pathlib import Path

import pytest

from coversieve import cli

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


def _module_bounds() -> set[str]:
    """module.NAME for each module-level assignment to a *_CAP or *_BITS name."""
    names = set()
    for path in Path(cli.__file__).parent.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            for target in getattr(node, "targets", [getattr(node, "target", None)]):
                name = getattr(target, "id", "")
                if re.fullmatch(r"[A-Z]\w*_(CAP|BITS)", name):
                    names.add(f"{path.stem}.{name}")
    return names


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
    missing = _module_bounds() - {name for name, _ in rows}
    assert not missing, f"the README bounds table lacks {sorted(missing)}"
    for name, value in rows:
        module, attr = name.rsplit(".", 1)
        mod = importlib.import_module(f"coversieve.{module}")
        assert hasattr(mod, attr), f"README names {name}, which the package lacks"
        assert getattr(mod, attr) == _number(value), f"README gives {name} as {value}"


def _readme_commands() -> list[str]:
    """Each coversieve command of the README's CLI block, continuation lines
    joined."""
    block = README.read_text().split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [line for line in lines if line.startswith("coversieve ")]


def test_readme_commands_parse():
    commands = _readme_commands()
    assert len(commands) >= 10
    parser = cli.build_parser()
    for command in commands:
        try:
            parser.parse_args(shlex.split(command)[1:])
        except SystemExit:
            pytest.fail(f"README advertises a command the parser rejects: {command}")
