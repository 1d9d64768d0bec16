"""Tooling guards: every function, class and method that `src/geoformal`
defines is named somewhere else in `src/geoformal`, so code that only tests
call does not live in the package; only `exterior` computes a blade sign;
only `linalg._reduced_blocks` reads the integer elimination;
in `certify` only `certify_totaro` builds a built-in ring; only `ring` and
`certify` read polynomial text; no code outside `GradedPoly`
writes a polynomial's terms; neither `invariant` nor `certify` names
`Multivector`; numpy, which only the float search needs, is not imported by
the CLI or the exact commands; no module imports `dataclasses`, so neither
it nor the `inspect` it loads is on the path of the CLI or the exact
commands; only `cli.build_parser` imports argparse, so neither it nor
`locale` loads for a well-formed command line; and `cli.run_suite` names no
engine entry point, so each suite row runs as its command and no second
path beside the commands comes back."""

import ast
import functools
import json
import os
import subprocess
import sys

import pytest

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "src", "geoformal")

# name -> why it stays without a caller in the package
_ALLOWED = {
    "is_pd_algebra": "ring; ROADMAP item 1 makes the verifier its caller",
    "residual_exact": "realize; ROADMAP item 3 replays the totaro witness with it",
    "residual": "realize; the public float objective of the search",
    "hodge_star": "exterior; acceptance criterion 1 tests the star's laws, and "
                  "ROADMAP item 2 replays harmonic forms with it",
    "certify_totaro": "certify; the entry point for a built-in totaro(a, b), "
                      "which the benchmark's tracer times by name",
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


def _blade_sign_rules(source):
    """The lines of `source` that use `_odd_above` or take the parity of a
    `bit_count()`, the two forms a blade sign rule takes."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        named = (getattr(node, "id", None), getattr(node, "attr", None),
                 getattr(node, "name", None))
        parity = (isinstance(node, ast.BinOp)
                  and isinstance(node.op, (ast.BitAnd, ast.Mod))
                  and any(isinstance(side, ast.Call)
                          and getattr(side.func, "attr", None) == "bit_count"
                          for side in (node.left, node.right)))
        if "_odd_above" in named or parity:
            lines.append(node.lineno)
    return sorted(lines)


def test_only_exterior_computes_a_blade_sign():
    """Every blade sign comes from `exterior._odd_above`, so a faster kernel
    elsewhere cannot fork the sign rule."""
    assert _blade_sign_rules("from .exterior import _odd_above\n"
                             "s = -1 if (m & o).bit_count() & 1 else 1\n"
                             "t = m.bit_count() % 2\n") == [1, 2, 3]
    found = {}
    for module in sorted(os.listdir(_SRC)):
        if module.endswith(".py") and module != "exterior.py":
            with open(os.path.join(_SRC, module)) as f:
                lines = _blade_sign_rules(f.read())
            if lines:
                found[module] = lines
    assert not found, f"blade sign rules outside exterior.py: {found}"


def _readers_of(name, source, module):
    """The functions of `source` whose body names `name`, as module:function
    (a nested function counts for the functions around it as well), and
    module:<module> for a use outside any function."""
    tree = ast.parse(source)
    inside, readers = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for sub in ast.walk(node):
                if name in (getattr(sub, "id", None), getattr(sub, "attr", None)):
                    readers.add(f"{module}:{node.name}")
                    inside.add(id(sub))
    for node in ast.walk(tree):
        if name in (getattr(node, "id", None), getattr(node, "attr", None)) \
                and id(node) not in inside:
            readers.add(f"{module}:<module>")
    return readers


def test_one_reader_of_the_integer_elimination():
    """`_int_rref` is called only by `linalg._reduced_blocks`, which
    `rank`, `kernel` and `span_basis` read, so ranks, solves, inverses and
    ring normal forms cannot grow a second path."""
    assert _readers_of("f", "def g():\n    def h():\n        f()\nf\n", "m") == \
        {"m:g", "m:h", "m:<module>"}
    readers = set()
    for module in sorted(os.listdir(_SRC)):
        if module.endswith(".py"):
            with open(os.path.join(_SRC, module)) as f:
                readers |= _readers_of("_int_rref", f.read(), module)
    assert readers == {"linalg.py:_reduced_blocks"}


def test_only_certify_totaro_builds_a_builtin_ring_in_certify():
    """`builtin_presentation` is named in `certify.py` only by
    `certify_totaro`, so no emitter or verifier builds a ring other than the
    one it was given."""
    with open(os.path.join(_SRC, "certify.py")) as f:
        source = f.read()
    assert _readers_of("builtin_presentation", source, "certify.py") == \
        {"certify.py:certify_totaro"}


def test_only_ring_and_certify_read_polynomial_text():
    """`ring.parse_poly` is named only in `ring.py` and in `certify.py`,
    which replays the polynomial texts of certificate payloads, so no other
    module grows its own reading of relations: a realization problem reads
    its text through `RingPresentation`."""
    modules = set()
    for module in sorted(os.listdir(_SRC)):
        if module.endswith(".py"):
            with open(os.path.join(_SRC, module)) as f:
                if _readers_of("parse_poly", f.read(), module):
                    modules.add(module)
    assert modules == {"ring.py", "certify.py"}


_DICT_WRITES = {"update", "pop", "clear", "setdefault", "popitem"}


def _terms_writes(source):
    """The lines of `source` outside `class GradedPoly` that write to a
    `.terms` attribute: rebind or delete it, store or delete one of its
    items, or call a dict method on it that changes it.  A write through
    another name bound to the dict is not seen."""
    tree = ast.parse(source)
    inside = {id(sub) for node in ast.walk(tree)
              if isinstance(node, ast.ClassDef) and node.name == "GradedPoly"
              for sub in ast.walk(node)}

    def terms(node):
        return isinstance(node, ast.Attribute) and node.attr == "terms"

    lines = []
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        stored = isinstance(getattr(node, "ctx", None), (ast.Store, ast.Del))
        if (stored and (terms(node) or (isinstance(node, ast.Subscript)
                                        and terms(node.value)))) \
                or (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _DICT_WRITES and terms(node.func.value)):
            lines.append(node.lineno)
    return sorted(lines)


def test_no_code_outside_graded_poly_writes_its_terms():
    """`parse_poly` hands every caller of a text the same GradedPoly, so a
    polynomial is immutable: only its own class sets `terms`."""
    assert _terms_writes("class GradedPoly:\n"
                         "    def f(self):\n"
                         "        self.terms = {}\n"
                         "        self.terms[(1,)] = 2\n"
                         "p.terms[(1,)] = 3\n"
                         "del p.terms[(1,)]\n"
                         "p.terms.update({})\n"
                         "p.terms = {}\n"
                         "p.terms[(0,)] += 1\n"
                         "q = p.terms[(1,)] + p.terms.get((0,), 0)\n"
                         "r = dict(p.terms)\n"
                         "r.pop((1,))\n") == [5, 6, 7, 8, 9]
    found = {}
    for module in sorted(os.listdir(_SRC)):
        if module.endswith(".py"):
            with open(os.path.join(_SRC, module)) as f:
                lines = _terms_writes(f.read())
            if lines:
                found[module] = lines
    assert not found, f"writes to a GradedPoly's terms outside its class: {found}"


_IMPORT_PROBE = """
import contextlib, io, json, sys
import geoformal.cli
seen = {"import": [None, list(sys.modules)]}
for name, argv in (("homog", ["homog", "aw", "1", "1"]),
                   ("certify", ["certify", "totaro", "--a", "1", "--b", "1"]),
                   ("realize", ["realize", "sphere-bundle", "--c", "0",
                                "--restarts", "1"])):
    with contextlib.redirect_stdout(io.StringIO()):
        code = geoformal.cli.main(argv)
    seen[name] = [code, list(sys.modules)]
print(json.dumps(seen))
"""


@functools.cache
def _cli_modules():
    """{step: [exit code, modules loaded after it]} for importing the CLI
    and then running three commands, in a fresh interpreter, so no other
    test has loaded a module."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.dirname(_SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def _loaded(module):
    return {step: [code, module in modules]
            for step, (code, modules) in _cli_modules().items()}


def test_numpy_loads_only_with_a_search():
    """The exact commands never import numpy; a search does."""
    assert _loaded("numpy") == {"import": [None, False], "homog": [0, False],
                                "certify": [0, False], "realize": [0, True]}


@pytest.mark.parametrize("module", ["dataclasses", "inspect", "argparse", "locale"])
def test_exact_commands_do_not_load(module):
    """Importing the CLI and running the exact commands loads none of these:
    a well-formed command line is read without argparse, and so without the
    `locale` its messages load through gettext.  A search does not count,
    since numpy imports `inspect` itself."""
    loaded = _loaded(module)
    del loaded["realize"]
    assert loaded == {"import": [None, False], "homog": [0, False],
                      "certify": [0, False]}


def _import_sites(name):
    """Where src/geoformal imports `name` or a submodule of it: module:function
    for the innermost function around the import, module:<module> outside
    any function."""
    sites = set()
    for module in sorted(os.listdir(_SRC)):
        if not module.endswith(".py"):
            continue
        with open(os.path.join(_SRC, module)) as f:
            tree = ast.parse(f.read(), module)
        owner = {}
        for node in ast.walk(tree):  # outer functions first, so inner ones win
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((id(sub), node.name) for sub in ast.walk(node))
        for node in ast.walk(tree):
            names = ([alias.name for alias in node.names]
                     if isinstance(node, ast.Import) else
                     [node.module or ""] if isinstance(node, ast.ImportFrom)
                     else [])
            if any(n.split(".")[0] == name for n in names):
                sites.add(f"{module}:{owner.get(id(node), '<module>')}")
    return sites


def test_no_module_imports_dataclasses():
    """Records are plain classes with an explicit `__init__`: importing
    `dataclasses` also loads `inspect`, `dis`, `ast` and `tokenize`, and each
    decorator compiles its methods when the module is imported."""
    assert _import_sites("dataclasses") == set()


def test_only_build_parser_imports_argparse():
    """`cli.build_parser` is the one import of argparse: `main` reads a
    well-formed command line from the option table and builds the parser
    only for help and usage errors."""
    assert _import_sites("argparse") == {"cli.py:build_parser"}


def _multivector_use(module):
    """Whether `module` imports `Multivector`, and its readers of the name."""
    with open(os.path.join(_SRC, module)) as f:
        source = f.read()
    imported = {alias.name for node in ast.walk(ast.parse(source))
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    return "Multivector" in imported, _readers_of("Multivector", source, module)


def test_invariant_complex_names_no_multivector():
    """`invariant.py` neither imports nor names `Multivector`: its forms are
    term dicts {mask: x} and its matrices sparse rows, so no stage from the
    bases to the formality probe converts a form back and forth."""
    assert _multivector_use("invariant.py") == (False, set())


def test_certify_names_no_multivector():
    """`certify.py` neither imports nor names `Multivector`: the exterior
    lemmas of a certificate (normal forms, contraction identities, volume
    contraction, Lefschetz) are proved on term dicts {mask: x}."""
    assert _multivector_use("certify.py") == (False, set())


@pytest.mark.parametrize("name", [
    "certify_table", "certify_totaro", "verify_certificate", "pattern_match",
    "build_table", "builtin_presentation", "builtin_problem", "search",
    "formality_probe", "betti", "_builtin_space"])
def test_the_suite_runs_rows_only_through_their_commands(name):
    """`cli.run_suite` names no engine entry point: each row runs as its
    command, so the suite cannot grow a second path beside the commands."""
    with open(os.path.join(_SRC, "cli.py")) as f:
        source = f.read()
    assert "cli.py:run_suite" in _readers_of("_expected_rows", source, "cli.py")
    assert "cli.py:run_suite" not in _readers_of(name, source, "cli.py")
