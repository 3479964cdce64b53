"""Every function, method and class in src/qfodc has a caller in src/qfodc.

A name counts as called when it is read somewhere in the package outside its
own definition, as a bare name or as an attribute.  Exempt are dunders (the
interpreter calls them), the names of qfodc.__all__ (the public API) and the
names the benchmark's tracer wraps (it fails on a name that is gone).
Helpers that only the tests call belong in tests/oracles.py.
"""

import ast
from collections import Counter
from pathlib import Path

import qfodc
from test_traced_names import _traced_names

SRC = Path(__file__).resolve().parents[1] / "src" / "qfodc"


def _reads(node):
    """Counters of the bare names and of the attribute names read inside
    node."""
    names, attrs = Counter(), Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            attrs[sub.attr] += 1
    return names, attrs


def _definitions(tree, prefix, in_class=False):
    """(qualified name, node, is a method) of every function, method and
    class."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qual = f"{prefix}.{node.name}"
            yield qual, node, in_class
            yield from _definitions(node, qual, isinstance(node, ast.ClassDef))
        else:
            yield from _definitions(node, prefix, in_class)


def uncalled(sources):
    """Qualified names in {module: source} that nothing outside their own
    definition reads, dunders and the exempt names aside."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    names, attrs = Counter(), Counter()
    for tree in trees.values():
        n, a = _reads(tree)
        names.update(n)
        attrs.update(a)
    traced = set(_traced_names())
    out = []
    for mod, tree in trees.items():
        for qual, node, method in _definitions(tree, mod):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if qual in traced or (qual == f"{mod}.{name}" and name in qfodc.__all__):
                continue
            own_names, own_attrs = _reads(node)
            # a method is read as an attribute; anything else by name too
            count = attrs[name] - own_attrs[name]
            if not method:
                count += names[name] - own_names[name]
            if count == 0:
                out.append(qual)
    return out


def _sources():
    return {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}


def test_every_helper_has_a_caller_in_src():
    assert uncalled(_sources()) == []


def test_an_uncalled_helper_is_found():
    # a recursive call is inside its own definition, and a method is not
    # called by a bare name that happens to equal its own
    sources = _sources()
    sources["linalg"] += (
        "\n\ndef _orphan(x):\n    orphan_rows = x\n    return _orphan(orphan_rows)\n"
        "\n\nclass _Holder:\n    def orphan_rows(self):\n        return 0\n"
    )
    found = set(uncalled(sources)) - set(uncalled(_sources()))
    assert found == {"linalg._orphan", "linalg._Holder", "linalg._Holder.orphan_rows"}
