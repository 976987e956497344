"""Every function, class and method defined in the package has a caller there.

The scan is by name over the package's syntax trees: a definition counts as
called when its name is read, as a name or an attribute, or imported
somewhere in the package outside its own body.
"""

import ast
from collections import Counter
from pathlib import Path

import hermquat

# cmd_* functions are dispatched by name; these members are read only by
# the benchmark in perfbench/
ALLOWED = {("qfield", "QuadField", "rational"), ("quaternion", "QuatAlgebra", "norm_gram")}


def _names(node):
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name


def test_every_definition_has_a_caller_in_the_package():
    trees = {p.stem: ast.parse(p.read_text()) for p in Path(hermquat.__file__).parent.glob("*.py")}
    assert {"cli", "hermitian", "quaternion", "verify"} <= trees.keys()
    reads = Counter(name for tree in trees.values() for name in _names(tree))
    uncalled = []
    for module, tree in trees.items():
        for node in tree.body:
            members = [(None, node)]
            if isinstance(node, ast.ClassDef):
                members += [(node.name, m) for m in node.body if isinstance(m, ast.FunctionDef)]
            for cls, defn in members:
                if not isinstance(defn, (ast.FunctionDef, ast.ClassDef)):
                    continue
                name = defn.name
                if name.startswith("cmd_") or (name.startswith("__") and name.endswith("__")):
                    continue
                own = sum(n == name for n in _names(defn))
                if reads[name] == own and (module, cls, name) not in ALLOWED:
                    uncalled.append(f"{module}.{cls + '.' if cls else ''}{name}")
    assert uncalled == []
