"""Every module-level name of the package is read by the package or the
benchmark: a name that only tests read is a test helper."""
import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "schsym"
SOURCES = [p for d in ("src", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]


def _module_names(path: pathlib.Path) -> list[str]:
    """Names bound by the module's top-level def, class and assignment statements."""
    names = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_names_are_used(module):
    text = "\n".join(p.read_text() for p in SOURCES)
    unused = [name for name in _module_names(PACKAGE / module)
              if len(re.findall(rf"\b{re.escape(name)}\b", text)) < 2]
    assert unused == [], f"defined in {module} but never read: {unused}"
