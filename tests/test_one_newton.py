"""One Newton solver in the package: ``orbits.find_closed_orbit``, on the
orbit space and on plain return maps.  These AST checks keep a second Newton
path from coming back beside it: no variational tangents, no section
coordinates, and no linear solve of a Newton step anywhere else.  Orbits are
told apart on the orbit space too: no loop-distance code comes back beside
``orbits.deduplicate``."""

import ast
from pathlib import Path

PACKAGE_DIR = Path(__file__).resolve().parent.parent / "src" / "magsys_lab"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
LINEAR_SOLVES = {"solve", "lstsq", "inv", "pinv"}


def package_trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"), str(path))
            for path in sorted(PACKAGE_DIR.glob("*.py"))}


def walk_with_functions(tree):
    """(node, names of the functions around it, outermost first)."""
    stack = [(tree, ())]
    while stack:
        node, outer = stack.pop()
        yield node, outer
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            outer = outer + (node.name,)
        stack.extend((child, outer) for child in ast.iter_child_nodes(node))


def test_no_function_takes_tangents():
    found = []
    for name, tree in package_trees().items():
        for node in ast.walk(tree):
            if isinstance(node, FUNCTIONS):
                args = node.args
                params = args.posonlyargs + args.args + args.kwonlyargs
                found += [(name, getattr(node, "name", "lambda")) for a in params
                          if a.arg == "tangents"]
    assert found == []


def defined_names(gone):
    """(module, name) of every function or class in the package named in gone."""
    return [(name, node.name) for name, tree in package_trees().items()
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name in gone]


def test_no_section_coordinates():
    assert defined_names({"section_state", "section_coords", "_reduced_map"}) == []


def test_no_loop_distances():
    # deduplicate compares orbit-space centres, not position loops
    assert defined_names({"_poly_hausdorff", "_segment_distances", "_support_gap",
                          "_matched_bound", "_same_loop", "align_loops"}) == []


def test_every_linear_solve_is_in_find_closed_orbit():
    # a Newton step solves a linear system: numpy.linalg's solve, lstsq, inv
    # or pinv; the only such call sits in the one Newton loop
    calls = []
    for name, tree in package_trees().items():
        for node, outer in walk_with_functions(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in LINEAR_SOLVES
                    and isinstance(node.func.value, ast.Attribute)
                    and node.func.value.attr == "linalg"):
                calls.append((name, outer))
    assert calls == [("orbits.py", ("find_closed_orbit",))]
