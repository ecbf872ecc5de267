"""No public function of the package goes unused.

A public function or method (no leading underscore) must either be
referenced somewhere in ``src/torusq`` outside its own definition or be
exported in the package's ``__all__``.  Code that only the tests call
belongs in ``tests/oracles.py`` or nowhere.  References are identifiers
(names, attributes, imports), so a word in a comment or docstring does
not count.
"""

import ast
from collections import Counter
from pathlib import Path

import torusq

SRC = Path(torusq.__file__).parent


def unused_public_functions():
    trees = {
        path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))
    }
    references = Counter()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                references[node.id] += 1
            elif isinstance(node, ast.Attribute):
                references[node.attr] += 1
            elif isinstance(node, ast.alias):
                references[node.name] += 1
    definitions = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                definitions.append((module, node.name))
            elif isinstance(node, ast.ClassDef):
                definitions += [
                    (f"{module}.{node.name}", item.name)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                ]
    return [
        f"{owner}.{name}"
        for owner, name in definitions
        if not name.startswith("_")
        and name not in torusq.__all__
        and not references[name]
    ]


def test_every_public_function_is_used_or_exported():
    assert unused_public_functions() == []
