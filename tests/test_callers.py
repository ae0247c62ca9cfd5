"""Every top-level function and class of the package, and every method
and property of its classes, has a caller.

A name counts as used when another module of the package, the rest of its
own module, or the acceptance battery (tests/test_acceptance.py) refers to
it. Unit tests alone do not keep a helper alive: a helper that only its
test calls is dead code with a test attached. Click commands, which the
command line reaches, are exempt.
"""

import ast
from pathlib import Path

import csslab

SRC = Path(csslab.__file__).parent
ACCEPTANCE = Path(__file__).with_name("test_acceptance.py")

# reference implementations that only tests compare against, by design
ALLOWED = {
    "lambda_psi": "the direct side of the identity test_quadform_identity "
                  "checks morawetz_quadform against",
    "pseudoconformal": "the construction of S that "
                       "test_pseudoconformal_reproduces_blowup checks "
                       "blowup_s against",
}


def _names(nodes) -> set:
    """Every identifier the nodes refer to: bare names, attributes and
    imported names."""
    out = set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.alias):
                out.add(node.name)
    return out


def _is_click_command(node) -> bool:
    return any(isinstance(dec, ast.Call) and isinstance(dec.func, ast.Attribute)
               and dec.func.attr == "command" for dec in node.decorator_list)


def _definitions(tree, methods: bool):
    """(node, rest of the module) for each top-level function and class,
    or, with methods, for each method of a top-level class that is not a
    dunder."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        rest = [n for n in tree.body if n is not node]
        if not methods:
            yield node, rest
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("__")):
                    yield item, rest + [n for n in node.body if n is not item]


def _orphans(methods: bool):
    """The package's top-level names (or methods) with no caller, and every
    name defined at that level."""
    modules = {p.stem: ast.parse(p.read_text()) for p in SRC.glob("*.py")}
    used_in = {name: _names(tree.body) for name, tree in modules.items()}
    acceptance = _names(ast.parse(ACCEPTANCE.read_text()).body)
    orphans, defined = [], set()
    for name, tree in modules.items():
        elsewhere = acceptance.union(
            *(used for other, used in used_in.items() if other != name))
        for node, rest in _definitions(tree, methods):
            defined.add(node.name)
            if _is_click_command(node) or node.name in ALLOWED:
                continue
            if node.name not in elsewhere | _names(rest):
                orphans.append(f"{name}.{node.name}")
    return orphans, defined


def test_every_top_level_name_has_a_caller():
    orphans, defined = _orphans(methods=False)
    assert orphans == []
    assert set(ALLOWED) <= defined  # a stale allowlist entry is an error too


def test_every_method_has_a_caller():
    """Methods and properties count by their attribute name: a property read
    only by its own unit test is as dead as an uncalled function."""
    assert _orphans(methods=True)[0] == []
