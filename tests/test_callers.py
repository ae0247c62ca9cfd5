"""Every top-level function and class of the package, and every method
and property of its classes, has a caller.

A name counts as used when another module of the package, the rest of its
own module, or the acceptance battery (tests/test_acceptance.py) refers to
it. Unit tests alone do not keep a helper alive: a helper that only its
test calls is dead code with a test attached. Click commands, which the
command line reaches, are exempt.

In the same way, every parameter with a default is passed by some call
in the package or the acceptance battery: one that nothing passes only
ever takes its default. A call that passes the default's own literal
does not count.
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


# parameters with a default that no call in the package or the acceptance
# battery passes, by design
UNPASSED = {
    "profiles.build_t4.s_values": "the s-ladder that only the unit test "
                                  "reaching FitIllConditioned replaces",
    "profiles.quartic_coefficient.t4_dir": "the re-extraction check that "
                                           "only its unit test runs",
}


def _calls(trees) -> dict:
    """Callee name -> [(positional arguments, {keyword name: argument})] of
    every call in the trees. Positional arguments from a *-splat on are not
    counted, and a **-splat passes no name."""
    out = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.id if isinstance(func, ast.Name) else
                    func.attr if isinstance(func, ast.Attribute) else None)
            npos = next((i for i, a in enumerate(node.args)
                         if isinstance(a, ast.Starred)), len(node.args))
            kws = {k.arg: k.value for k in node.keywords if k.arg}
            out.setdefault(name, []).append((node.args[:npos], kws))
    return out


def _same_literal(arg, default) -> bool:
    """Whether the argument and the default are literals of equal value and
    type: passing None for None, or 5 for 5, is taking the default."""
    try:
        a, d = ast.literal_eval(arg), ast.literal_eval(default)
    except ValueError:
        return False
    return type(a) is type(d) and a == d


def _defaulted(tree):
    """(callee name, qualified name, parameter, position, default node) for
    each parameter with a default of the module's functions, methods and
    dataclasses. The position counts the arguments of a call: a method's
    self is not passed and a class is called for its __init__ or its
    dataclass fields."""
    def params(fn, owner, skip):
        a = fn.args
        pos = a.posonlyargs + a.args
        first = len(pos) - len(a.defaults)
        name = owner.name if fn.name == "__init__" else fn.name
        qual = f"{owner.name}.{fn.name}" if owner else fn.name
        for i, (arg, default) in enumerate(zip(pos[first:], a.defaults), first):
            yield name, qual, arg.arg, i - skip, default
        for arg, default in zip(a.kwonlyargs, a.kw_defaults):
            if default is not None:
                yield name, qual, arg.arg, None, default

    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            for inner in ast.walk(node):
                if isinstance(inner, ast.FunctionDef):
                    yield from params(inner, None, 0)
        elif isinstance(node, ast.ClassDef):
            if any("dataclass" in ast.unparse(d) for d in node.decorator_list):
                fields = [item for item in node.body
                          if isinstance(item, ast.AnnAssign)]
                for i, item in enumerate(fields):
                    if item.value is not None:
                        yield node.name, node.name, item.target.id, i, item.value
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    static = any(ast.unparse(d) == "staticmethod"
                                 for d in item.decorator_list)
                    yield from params(item, node, 0 if static else 1)


def test_every_defaulted_parameter_is_passed():
    """A parameter with a default that no caller passes is an option
    nothing uses: the default is the only value it takes."""
    modules = {p.stem: ast.parse(p.read_text()) for p in SRC.glob("*.py")}
    calls = _calls([*modules.values(), ast.parse(ACCEPTANCE.read_text())])
    unpassed = []
    for mod, tree in modules.items():
        for name, qual, param, pos, default in _defaulted(tree):
            def passes(args, kws):
                arg = kws.get(param)
                if arg is None and pos is not None and len(args) > pos:
                    arg = args[pos]
                return arg is not None and not _same_literal(arg, default)

            if not any(passes(*call) for call in calls.get(name, [])):
                unpassed.append(f"{mod}.{qual}.{param}")
    assert sorted(set(unpassed) - set(UNPASSED)) == []
    assert set(UNPASSED) <= set(unpassed)  # a stale entry is an error too
