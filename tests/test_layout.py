"""Tooling guard: every function, class and method that `src/geoformal`
defines is named somewhere else in `src/geoformal`, so code that only tests
call does not live in the package."""

import ast
import os

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "src", "geoformal")

# name -> why it stays without a caller in the package
_ALLOWED = {
    "is_pd_algebra": "ring; ROADMAP item 1 makes the verifier its caller",
    "residual_exact": "realize; ROADMAP item 3 replays the totaro witness with it",
    "residual": "realize; the public float objective of the search",
}


def _definitions_and_references():
    """Where each name is defined, and the names referenced: a method only
    counts as referenced through an attribute, since a bare name of the
    same spelling is some other variable."""
    defined, names, attributes = {}, set(), set()
    for module in sorted(os.listdir(_SRC)):
        if not module.endswith(".py"):
            continue
        with open(os.path.join(_SRC, module)) as f:
            tree = ast.parse(f.read(), module)
        methods = {id(item) for node in ast.walk(tree)
                   if isinstance(node, ast.ClassDef) for item in node.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defined.setdefault(node.name, (f"{module}:{node.lineno}",
                                               id(node) in methods))
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    return defined, names, attributes


def test_every_definition_has_a_caller_in_src():
    defined, names, attributes = _definitions_and_references()
    referenced = {name for name, (_, method) in defined.items()
                  if name in attributes or (not method and name in names)}
    unused = {name: where for name, (where, _) in defined.items()
              if name not in referenced and name not in _ALLOWED
              and not (name.startswith("__") and name.endswith("__"))}
    assert not unused, f"defined in src but named nowhere else there: {unused}"
    stale = {name for name in _ALLOWED
             if name not in defined or name in referenced}
    assert not stale, f"allowlisted but defined nowhere or named in src: {stale}"
