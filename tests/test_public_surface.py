"""No public function of the package goes unused.

A public function or method (no leading underscore) must either be
referenced somewhere in ``src/torusq`` outside its own definition or be
exported in the package's ``__all__``.  Code that only the tests call
belongs in ``tests/oracles.py`` or nowhere.  References are identifiers
(names, attributes, imports), so a word in a comment or docstring does
not count.  A method is only ever read as an attribute, so for methods
only attribute reads count: a local variable that shares a method's name
does not make the method used.
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
    references, attributes = Counter(), Counter()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                references[node.id] += 1
            elif isinstance(node, ast.Attribute):
                references[node.attr] += 1
                attributes[node.attr] += 1
            elif isinstance(node, ast.alias):
                references[node.name] += 1
    definitions = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                definitions.append((module, node.name, references))
            elif isinstance(node, ast.ClassDef):
                definitions += [
                    (f"{module}.{node.name}", item.name, attributes)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                ]
    return [
        f"{owner}.{name}"
        for owner, name, counted in definitions
        if not name.startswith("_")
        and name not in torusq.__all__
        and not counted[name]
    ]


def test_every_public_function_is_used_or_exported():
    assert unused_public_functions() == []
