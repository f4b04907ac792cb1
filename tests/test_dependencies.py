"""numpy stays the package's only runtime dependency."""

import ast
import sys
from pathlib import Path

import emitterclf

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "emitterclf"}


def test_package_imports_only_the_stdlib_and_numpy():
    """Every import in every module under src/emitterclf names a stdlib
    module, numpy or emitterclf itself (relative imports included)."""
    root = Path(emitterclf.__file__).parent
    modules = sorted(root.rglob("*.py"))
    assert len(modules) > 10
    outside = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            rel = path.relative_to(root)
            outside += [f"{rel}: {n}" for n in names if n.split(".")[0] not in ALLOWED]
    assert not outside, outside
