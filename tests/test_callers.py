"""Every top-level function and class of the package has a caller.

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


def test_every_top_level_name_has_a_caller():
    modules = {p.stem: ast.parse(p.read_text()) for p in SRC.glob("*.py")}
    used_in = {name: _names(tree.body) for name, tree in modules.items()}
    acceptance = _names(ast.parse(ACCEPTANCE.read_text()).body)
    orphans, defined = [], set()
    for name, tree in modules.items():
        elsewhere = acceptance.union(
            *(used for other, used in used_in.items() if other != name))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            defined.add(node.name)
            if _is_click_command(node) or node.name in ALLOWED:
                continue
            own = _names(n for n in tree.body if n is not node)
            if node.name not in elsewhere | own:
                orphans.append(f"{name}.{node.name}")
    assert orphans == []
    assert set(ALLOWED) <= defined  # a stale allowlist entry is an error too
