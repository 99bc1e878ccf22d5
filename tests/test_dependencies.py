"""numpy is the package's only runtime dependency, its eigensolvers run at four pinned sites, and
the design's inverse and the assembly of chi run only where a design's maps are built.

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


def eigensolver_sites(path):
    """module.function for every numpy.linalg.eig* reference in a source file, and for every
    import from numpy.linalg, which could hide one."""
    sites = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Attribute) and child.attr.startswith("eig")
                    and isinstance(child.value, ast.Attribute) and child.value.attr == "linalg"):
                sites.append(f"{path.stem}.{function}")
            elif isinstance(child, ast.ImportFrom) and child.module == "numpy.linalg":
                sites.append(f"{path.stem}.{function}")
            visit(child, function)

    visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return sites


def test_eigensolvers_run_only_where_no_closed_form_exists():
    # No route computes an eigenbasis of exchange: its projectors give every pulse in closed
    # form.  Eigenproblems remain for a generic Hermitian generator (the evolve_unitary and
    # gaussian_averaged_channel references), an arbitrary input density matrix, a Choi matrix
    # and a partial transpose.
    sites = sorted(site for path in SRC.glob("*.py") for site in eigensolver_sites(path))
    assert sites == ["blockade.sample_initial_states", "dynamics._hermitian_eigh", "qcore.is_cptp",
                     "qcore.transpose_negativity"]


#: The design's inverse, the assembly of chi from the 16 QPT outputs, and the one tail through both.
_TAIL_NAMES = ("inv", "assemble_channel_action", "_chi_map")


def tail_sites(path):
    """(module.[Class.]function, name) for every call of a _TAIL_NAMES function in a source file."""
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in _TAIL_NAMES:
                    sites.append((scope, name))
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return sites


def test_chi_is_assembled_only_where_a_design_map_is_built():
    # The design build inverts the design matrix and builds chi0 and the pipeline map through the one
    # tail; the Monte Carlo map's first build runs it too.  No QPT run, threshold or CLI path does.
    sites = sorted(site for path in SRC.glob("*.py") for site in tail_sites(path))
    assert sites == [("tomography.TomographyDesign.monte_carlo_map", "_chi_map"),
                     ("tomography._chi_map", "assemble_channel_action"),
                     ("tomography.design_from_sequences", "_chi_map"),
                     ("tomography.design_from_sequences", "_chi_map"),
                     ("tomography.design_from_sequences", "inv")]
