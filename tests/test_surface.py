"""The package carries only what its commands or its documented library use.

Every public function, class, method and property of ``src/agrivolt`` is
either referenced somewhere in the package outside its own definition, or
named in README.md. A member that only the tests call belongs in the tests
(``tests/oracles.py``), not in the package. Every private module-level
function, class and constant is referenced in the package outside its own
definition, so that no helper outlives its last caller.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

import agrivolt

PACKAGE = Path(agrivolt.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"


def public_definitions(tree: ast.Module):
    """(qualified name, name, is a member, node) of each public module-level
    function and class, and of each public method and property of a class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name, False, node
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                        yield f"{node.name}.{member.name}", member.name, True, member


def private_definitions(tree: ast.Module):
    """(name, node) of each private module-level function, class and
    assigned name, dunder names left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                yield name, node


def references(tree: ast.AST) -> Counter:
    """How often each (name, as an attribute) is named, as attribute, name or
    import, in ``tree``."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            found[node.attr, True] += 1
        elif isinstance(node, ast.Name):
            found[node.id, False] += 1
        elif isinstance(node, ast.alias):
            found[node.name, False] += 1
    return found


def package_trees() -> tuple[dict[str, ast.Module], Counter]:
    """Each module's syntax tree by name, and the references of all of them."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    return trees, sum((references(tree) for tree in trees.values()), Counter())


def test_every_public_member_is_used_or_documented():
    trees, package = package_trees()
    readme = README.read_text(encoding="utf-8")
    unused = []
    for module, tree in trees.items():
        for qualified, name, member, node in public_definitions(tree):
            outside = package - references(node)  # a member counts only as ``.name``
            used = outside[name, True] > 0 or (not member and outside[name, False] > 0)
            if not used and not re.search(rf"(?<!\w){name}(?!\w)", readme):
                unused.append(f"{module}.{qualified}")
    assert unused == []


def test_every_private_name_is_used():
    trees, package = package_trees()
    orphaned = []
    for module, tree in trees.items():
        for name, node in private_definitions(tree):
            outside = package - references(node)
            if not (outside[name, False] or outside[name, True]):
                orphaned.append(f"{module}.{name}")
    assert orphaned == []
