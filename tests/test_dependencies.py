"""numpy is the package's only runtime dependency.

sympy and scipy may produce committed test data, but src/ imports nothing
outside the standard library except numpy.
"""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "spinqpt"


def absolute_imports(path):
    """The top-level name of every absolute import in a source file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module.partition(".")[0]


def test_src_imports_only_numpy_and_the_standard_library():
    sources = sorted(SRC.glob("*.py"))
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    outside = [(path.name, name) for path in sources for name in absolute_imports(path) if name not in allowed]
    assert sources and outside == []
