"""The core library imports nothing outside the Python standard library."""

from __future__ import annotations

import ast
import importlib
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "homprod").glob("*.py"))


def _absolute_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_core_imports_only_stdlib():
    assert any(p.name == "gf2.py" for p in SOURCES)
    outside = [f"{path.name}:{line}: {name}"
               for path in SOURCES
               for line, name in _absolute_imports(path)
               if name.partition(".")[0] not in sys.stdlib_module_names]
    assert not outside, outside


def _module_imports(tree: ast.Module):
    """(line, bound name) for each name a top-level import statement binds."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def test_module_imports_are_used():
    unused = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line}: {name}"
                   for line, name in _module_imports(tree) if name not in used]
    assert not unused, unused


# Public names deleted from the library; each must stay gone.
REMOVED_NAMES = ("one_complex_product", "ProductLayout", "product_layout", "validate",
                 "classical_distance", "KernelTooLarge", "puncture", "shorten_parity",
                 "IndexOutOfRange", "kron", "hstack", "vstack", "column_space_basis",
                 "EnsembleSpec", "generate_matrix", "repetition_parity", "min_or_infinity")
# Public class attributes deleted from the library; each must stay gone.
REMOVED_ATTRIBUTES = {"BinMatrix": ("from_rows", "from_string")}


def test_public_names_resolve_once_and_removed_ones_stay_gone():
    import homprod

    assert [n for n in homprod.__all__ if not hasattr(homprod, n)] == []
    assert len(set(homprod.__all__)) == len(homprod.__all__)
    modules = [homprod] + [importlib.import_module(f"homprod.{p.stem}")
                           for p in SOURCES if p.stem not in ("__init__", "__main__")]
    assert [f"{m.__name__}.{n}" for m in modules for n in REMOVED_NAMES if hasattr(m, n)] == []
    assert [n for n in REMOVED_NAMES if n in homprod.__all__] == []
    assert [f"{cls}.{n}" for cls, names in REMOVED_ATTRIBUTES.items()
            for n in names if hasattr(getattr(homprod, cls), n)] == []
