"""R009: service-layer matcher runs must carry a budget or deadline.

The service admits queries under a per-query budget and degrades
gracefully by returning deadline-tagged partial results; that contract
only holds if every path from the service into the engine forwards the
budget.  A ``matcher.run(...)``, ``run_matcher(...)``,
``run_prepared(...)`` (the engine's run step) or ``find_matches(...)``
call inside :mod:`repro.service` that omits both
``deadline`` and ``time_budget`` starts an uninterruptible search — one
pathological query then wedges a pool worker for good, defeating
admission control.  Passing an explicit ``deadline=None`` (an unbounded
run chosen on purpose) is allowed; *forgetting* the keyword is not.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from ..context import FileContext
from ..findings import Finding
from ..registry import Rule, register_rule

__all__ = ["ServiceBudgetRule"]

#: Call names that start a matcher search when reached from the service.
_RUN_CALLS = {"run", "run_matcher", "run_prepared", "find_matches"}
#: Keywords that thread the budget protocol into the search.
_BUDGET_KEYWORDS = {"deadline", "time_budget"}


def _call_name(node: ast.Call) -> str | None:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


@register_rule
class ServiceBudgetRule(Rule):
    id = "R009"
    name = "service-unbudgeted-run"
    description = (
        "Matcher runs inside repro.service must pass deadline= or "
        "time_budget= so admission control can bound every query."
    )

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        if not (
            ctx.module == "repro.service"
            or ctx.module.startswith("repro.service.")
        ):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node)
            if name not in _RUN_CALLS:
                continue
            keywords = {kw.arg for kw in node.keywords}
            if keywords & _BUDGET_KEYWORDS:
                continue
            if None in keywords:  # a **kwargs splat may forward the budget
                continue
            if ctx.pragmas.is_disabled(self.id, node.lineno):
                continue
            yield self.finding(
                ctx,
                node.lineno,
                node.col_offset,
                f"service call {name}() passes neither deadline= nor "
                "time_budget=; every query the service starts must be "
                "boundable",
            )
