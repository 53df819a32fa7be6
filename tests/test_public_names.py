"""Every name the package defines is mentioned somewhere in it besides its definition.

A cheap lint against dead helpers: it counts word mentions across
``src/tricavity`` (leaving out ``__init__.py``, whose imports and ``__all__``
would count every export), not calls. A third lint keeps each module's
private names its own, and a fourth flags module-level imports that the
importing module never names again.
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


def _sources() -> dict[str, str]:
    sources = {
        path.stem: path.read_text()
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    assert "fock" in sources
    return sources


def _unmentioned(sources: dict[str, str], definitions) -> list[str]:
    """Qualified names among ``definitions(module tree)`` mentioned only once."""
    unmentioned = []
    for module, text in sources.items():
        for qualname, name in definitions(ast.parse(text)):
            word = re.compile(rf"\b{re.escape(name)}\b")
            mentions = sum(len(word.findall(other)) for other in sources.values())
            if mentions < 2 and f"{module}.{qualname}" not in ALLOWED:
                unmentioned.append(f"{module}.{qualname}")
    return unmentioned


def _public_definitions(tree: ast.Module):
    """(qualified name, bare name) of public top-level functions, classes and methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item.name


def _private_definitions(tree: ast.Module):
    """(name, name) of private top-level functions, classes and constants, dunders excluded."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [target.id for target in targets if isinstance(target, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, name


def test_every_public_name_is_mentioned_besides_its_definition():
    assert _unmentioned(_sources(), _public_definitions) == []


def test_every_private_name_is_mentioned_besides_its_definition():
    sources = _sources()
    assert "_csr" in {name for name, _ in _private_definitions(ast.parse(sources["fock"]))}
    assert _unmentioned(sources, _private_definitions) == []


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _cross_module_private_uses(module: str, tree: ast.Module) -> list[str]:
    """``module -> other._name`` for each private name of a sibling module it names.

    Siblings are the modules imported relatively; a private name is named as
    ``other._name`` (through any alias) or by ``from .other import _name``.
    """
    siblings, uses = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                if node.module is None:
                    siblings[alias.asname or alias.name] = alias.name
                elif _private(alias.name):
                    uses.append(f"{module} -> {node.module}.{alias.name}")
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in siblings
            and _private(node.attr)
        ):
            uses.append(f"{module} -> {siblings[node.value.id]}.{node.attr}")
    return uses


def test_no_module_names_another_modules_private_names():
    uses = []
    for path in sorted(PACKAGE.glob("*.py")):
        uses += _cross_module_private_uses(path.stem, ast.parse(path.read_text()))
    assert uses == []


def _unused_imports(module: str, tree: ast.Module) -> list[str]:
    """``module.name`` for each module-level import the module never names again.

    A plain ``import a.b`` binds ``a`` but counts only where ``a.b`` is named.
    """
    named = {
        ast.unparse(node) for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))
    }
    unused = []
    for node in tree.body:
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                name = alias.asname or alias.name
                if name not in named:
                    unused.append(f"{module}.{name}")
    return unused


def test_every_module_level_import_is_named_again():
    unused = []
    for module, text in _sources().items():
        unused += _unused_imports(module, ast.parse(text))
    assert unused == []
