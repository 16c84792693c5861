"""Every public function, class and method of the package is used by the
package itself or by the benchmark; code that only the tests call belongs in
tests/.

A name counts as used when some Name or Attribute node anywhere in
src/skipgru/*.py or perfbench/*.py carries it, outside its own definition.
Matching is by bare name, so a method shares its uses with every attribute of
the same name.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "skipgru"
USERS = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _references(tree: ast.AST) -> Counter:
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)))


def _public_defs(body, prefix: str):
    """(qualified name, node) of the public functions and classes in `body`,
    and of the public methods of those classes."""
    for node in body:
        if isinstance(node, DEFS) and not node.name.startswith("_"):
            yield f"{prefix}.{node.name}", node
            if isinstance(node, ast.ClassDef):
                yield from _public_defs(node.body, f"{prefix}.{node.name}")


def unused_public_names() -> list[str]:
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in USERS}
    uses = sum((_references(tree) for tree in trees.values()), Counter())
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for qualname, node in _public_defs(trees[path].body, path.stem):
            if uses[node.name] == _references(node)[node.name]:
                unused.append(qualname)
    return unused


def test_every_public_name_is_used_outside_the_tests():
    assert unused_public_names() == []
