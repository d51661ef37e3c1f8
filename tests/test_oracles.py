"""The test oracles must not lean on the code they check."""

import ast
from pathlib import Path

ORACLES = Path(__file__).resolve().parent / "oracles.py"


def test_oracles_import_nothing_from_teamcomp():
    imported = []
    for node in ast.walk(ast.parse(ORACLES.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert imported  # the walk saw the module's own imports
    assert [name for name in imported if name.split(".")[0] in ("teamcomp", "")] == []
