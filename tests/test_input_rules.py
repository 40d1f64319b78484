"""The rules shared by every input reader live in ``oss_health.inputs`` only.

No other module in ``src/oss_health`` reads CSV rows, splits text into
lines or strips ``#`` comments itself; each goes through ``inputs``, so a
rule such as "a key given twice names both lines" has one owner.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "oss_health"
CSV_READERS = {"reader", "DictReader"}
SPLITS = {"split", "rsplit", "partition", "rpartition"}


def _own_reading(tree):
    """(line, what) for each place ``tree`` reads input text by itself."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "csv"
            and node.attr in CSV_READERS
        ):
            yield node.lineno, f"csv.{node.attr}"
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr == "splitlines":
                yield node.lineno, ".splitlines()"
            elif node.func.attr in SPLITS and any(
                isinstance(arg, ast.Constant) and arg.value == "#" for arg in node.args
            ):
                yield node.lineno, f".{node.func.attr}('#')"


def test_input_rules_have_one_owner():
    found = [
        f"{path.name}:{line}: {what}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "inputs.py"
        for line, what in _own_reading(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []
