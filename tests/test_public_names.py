"""Every public name of the package is mentioned somewhere in it besides its definition.

A cheap lint against dead helpers: it counts word mentions across
``src/tricavity`` (leaving out ``__init__.py``, whose imports and ``__all__``
would count every export), not calls.
"""

import ast
import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tricavity"

# Public names the package does not mention itself, each kept for a reason.
ALLOWED = {
    "fock.annihilation": "perfbench/tracing.py wraps it by name; tests use it as the field operator",
    "sacs.MMoments.q_mandel": "acceptance criterion 7 reads it",
}


def _public_definitions(tree: ast.Module):
    """(qualified name, bare name) of public top-level functions, classes and methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item.name


def test_every_public_name_is_mentioned_besides_its_definition():
    sources = {
        path.stem: path.read_text()
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    assert "fock" in sources
    unmentioned = []
    for module, text in sources.items():
        for qualname, name in _public_definitions(ast.parse(text)):
            word = re.compile(rf"\b{re.escape(name)}\b")
            mentions = sum(len(word.findall(other)) for other in sources.values())
            if mentions < 2 and f"{module}.{qualname}" not in ALLOWED:
                unmentioned.append(f"{module}.{qualname}")
    assert unmentioned == []
