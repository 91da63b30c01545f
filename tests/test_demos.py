"""The demos import only names that the package still provides.

Running the six demos takes tens of seconds, so this guard parses them
instead and checks each ``from alpha_lab... import`` name.
"""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_exist(path):
    imported = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "alpha_lab":
            module = importlib.import_module(node.module)
            imported += [(node.module, alias.name) for alias in node.names]
            missing = [alias.name for alias in node.names if not hasattr(module, alias.name)]
            assert not missing, f"{path.name} imports {missing} from {node.module}"
    assert imported, f"{path.name} imports nothing from alpha_lab"
