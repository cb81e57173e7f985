"""CFG rules: cluster configuration stays backward-compatible.

Every feature added since PR 1 ships behind a ``ClusterConfig`` flag
that defaults to *off*, so the pinned goldens — and any user
constructing ``ClusterConfig()`` bare — see identical behaviour across
PRs.  CFG401 mechanically enforces that convention for new fields.
"""

from __future__ import annotations

import ast

from repro.lint.registry import Rule, register_rule

__all__ = ["ConfigDefaultRule"]


@register_rule
class ConfigDefaultRule(Rule):
    """CFG401: ``ClusterConfig`` fields declare feature-off defaults.

    Two violations: a field with *no* default (breaks every existing
    ``ClusterConfig(...)`` call site), and a boolean field defaulting
    to ``True`` (turns a feature on under every pinned golden).
    Pre-existing ``True`` defaults are grandfathered via the baseline.
    """

    code = "CFG401"
    name = "config-defaults-off"
    message = "ClusterConfig field must default to feature-off"
    scope = ("src/repro/cluster/config.py",)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if node.name != "ClusterConfig":
            self.generic_visit(node)
            return
        for stmt in node.body:
            if not isinstance(stmt, ast.AnnAssign):
                continue
            if not isinstance(stmt.target, ast.Name):
                continue
            field_name = stmt.target.id
            if stmt.value is None:
                self.report(
                    stmt,
                    f"ClusterConfig.{field_name} has no default "
                    "(every existing construction site would break)",
                )
            elif (
                isinstance(stmt.value, ast.Constant)
                and stmt.value.value is True
            ):
                self.report(
                    stmt,
                    f"ClusterConfig.{field_name} defaults a feature on "
                    "(goldens pin the feature-off behaviour; default to "
                    "False and opt in per run)",
                )
        self.generic_visit(node)
