"""Every name a gaugeset module or test file imports is used in that file.

Deletions tend to leave imports behind; this stdlib-only check catches
them.  ``__init__.py`` re-exports names on purpose and is skipped.
"""

import ast
from pathlib import Path

import pytest

import gaugeset

MODULES = sorted(p for p in Path(gaugeset.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")
TESTS = sorted(Path(__file__).parent.glob("*.py"))


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_checker_flags_an_unused_import():
    src = "import os\nfrom math import pi, tau\nprint(os.sep, tau)\n"
    assert unused_imports(src) == [(2, "pi")]


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
