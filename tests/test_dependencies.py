import ast
import sys
from pathlib import Path

import protoaudio

ALLOWED = {"numpy", "protoaudio"}


def test_numpy_is_the_only_runtime_dependency():
    """Every absolute import in the package names the standard library,
    numpy or protoaudio itself."""
    root = Path(protoaudio.__file__).parent
    modules = sorted(root.rglob("*.py"))
    assert len(modules) > 10
    outside = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top not in sys.stdlib_module_names and top not in ALLOWED:
                    outside.append(f"{path.relative_to(root)}:{node.lineno} {name}")
    assert outside == []
