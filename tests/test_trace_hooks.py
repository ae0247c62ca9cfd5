"""The benchmark's trace hooks name functions that exist.

perfbench/spans.py lists, in SPANS, each csslab function the traced
benchmark wraps, by the module and attribute its callers look it up at
(cli imports run and validate_exact by name, so their hooks sit on cli).
Tracer.install finds each one in that owner's vars(); a refactor that
moves or renames one would break the traced run, which tier-1 does not
execute. SPANS is read from the source with ast, so nothing under
perfbench/ is imported or written.
"""

import ast
import importlib
from pathlib import Path

SPANS_PY = Path(__file__).parents[1] / "perfbench" / "spans.py"


def _spans() -> tuple:
    for node in ast.parse(SPANS_PY.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "SPANS"
                for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no SPANS assignment in {SPANS_PY}")


def test_every_trace_hook_is_where_the_tracer_looks():
    spans = _spans()
    assert spans
    missing = []
    for name, _, module, attr, _ in spans:
        owner = importlib.import_module(module)
        if "." in attr:
            cls, attr = attr.split(".")
            owner = getattr(owner, cls, None)
        if owner is None or attr not in vars(owner):
            missing.append(f"{name}: {module}.{attr}")
    assert missing == []
