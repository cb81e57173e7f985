"""Dataflow rules: config-flag reachability and RNG provenance.

CFG402 closes the loop CFG401 opened.  CFG401 checks that every
feature flag *defaults* off; CFG402 checks that the flag actually
*gates* its feature: every construction of striping / resilience /
storage / SLO machinery in the cluster builder must sit on a path
guarded by the matching ``ClusterConfig`` flag — directly
(``if self.config.striping:``), through a tainted local
(``res = ... if self.config.resilience else None`` ... ``if res is not
None:``), or interprocedurally (an unguarded helper whose every call
site is guarded).  Otherwise a feature-off run silently pays for (and
perturbs goldens with) a feature the config says is disabled.

FLOW601 extends SIM107 from "no unseeded ``random.Random()``" to
provenance: a *literal* seed is just as untraceable as no seed —
every RNG in sim-reachable code must be forked off a parent
:class:`~repro.sim.random.RandomSource` stream (``rng.fork("name")``)
so the whole simulation derives from the single configured root seed.
"""

from __future__ import annotations

import ast

from repro.lint.context import FileContext, dotted_name
from repro.lint.registry import ProjectRule, Rule, register_rule
from repro.lint.rules.sim_determinism import SIM_SCOPE

__all__ = ["RngProvenanceRule", "UnguardedFeatureRule"]

#: feature key -> ClusterConfig attribute names that gate it.  A guard
#: mentioning *any* of the listed flags satisfies the feature (windowed
#: time-series serve the SLO plane).
_FEATURE_FLAGS = {
    "striping": ("striping",),
    "resilience": ("resilience",),
    "storage": ("storage",),
    "slo": ("slo",),
    "windowed": ("slo",),
}

#: feature key -> source path prefixes of the modules implementing it;
#: their top-level classes/functions become gated symbols.
_FEATURE_PATHS = {
    "striping": ("src/repro/vstore/striping",),
    "resilience": ("src/repro/resilience",),
    "storage": ("src/repro/storage",),
    "slo": (
        "src/repro/telemetry/slo",
        "src/repro/telemetry/health",
        "src/repro/telemetry/recorder",
    ),
    "windowed": ("src/repro/telemetry/timeseries",),
}

#: Symbols the builder imports today, so single-file projects (rule
#: fixtures) classify them without the feature modules in the index.
_FEATURE_SYMBOL_SEED = {
    "StripeCodec": "striping",
    "StripingPolicy": "striping",
    "plan_chunk_placement": "striping",
    "BreakerRegistry": "resilience",
    "CircuitBreaker": "resilience",
    "Repairer": "resilience",
    "ResilientCaller": "resilience",
    "RetryPolicy": "resilience",
    "SimDiskStore": "storage",
    "StorageFlusher": "storage",
    "make_store": "storage",
    "HealthBoard": "slo",
    "RecorderHub": "slo",
    "SloEngine": "slo",
    "SloEvaluator": "slo",
    "default_slo_specs": "slo",
    "WindowPolicy": "windowed",
}


@register_rule
class UnguardedFeatureRule(ProjectRule):
    code = "CFG402"
    name = "unguarded-feature"
    message = (
        "feature construction in the builder must be guarded by its "
        "ClusterConfig flag"
    )
    #: The one place features are wired into a cluster.
    target_path = "src/repro/cluster/builder.py"

    def run_project(self, index):
        self.findings = []
        ctx = index.contexts.get(self.target_path)
        if ctx is None:
            return self.findings
        symbols = self._feature_symbols(index)
        funcs: dict = {}
        call_sites: dict = {}
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                funcs.setdefault(node.name, node)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                name = self._local_callee(node)
                if name in funcs:
                    call_sites.setdefault(name, []).append(node)
        for node in ast.walk(ctx.tree):
            if not (
                isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            ):
                continue
            feature = symbols.get(node.func.id)
            if feature is None:
                continue
            if not self._reachable_guarded(
                ctx, node, feature, funcs, call_sites, set()
            ):
                flags = " or ".join(
                    f"config.{f}" for f in _FEATURE_FLAGS[feature]
                )
                self.report_in(
                    ctx,
                    node,
                    f"{node.func.id} ({feature} feature) is reachable "
                    f"without a {flags} guard",
                    feature=feature,
                )
        return self.findings

    @staticmethod
    def _feature_symbols(index) -> dict:
        symbols = dict(_FEATURE_SYMBOL_SEED)
        for path, ctx in index.contexts.items():
            for feature, prefixes in _FEATURE_PATHS.items():
                if not path.startswith(prefixes):
                    continue
                for stmt in ctx.tree.body:
                    if isinstance(
                        stmt,
                        (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
                    ) and not stmt.name.startswith("_"):
                        symbols.setdefault(stmt.name, feature)
        return symbols

    @staticmethod
    def _local_callee(call: ast.Call):
        """``self.f(...)`` / ``f(...)`` -> ``f`` (same-file callees)."""
        func = call.func
        if isinstance(func, ast.Name):
            return func.id
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "self"
        ):
            return func.attr
        return None

    def _reachable_guarded(
        self, ctx, node, feature, funcs, call_sites, visited
    ) -> bool:
        """True when every path reaching ``node`` passes a flag guard."""
        func = ctx.enclosing_function(node)
        tainted = self._tainted(ctx, func, feature) if func else set()
        if self._guarded(ctx, node, func, feature, tainted):
            return True
        if func is None or func.name in visited:
            return False  # module level, or a cycle with no guard on it
        sites = call_sites.get(func.name)
        if not sites:
            return False  # nothing provably gates entry to this code
        return all(
            self._reachable_guarded(
                ctx, site, feature, funcs, call_sites, visited | {func.name}
            )
            for site in sites
        )

    def _guarded(self, ctx, node, func, feature, tainted) -> bool:
        """Any enclosing if/ternary (within ``func``) tests the flag?"""
        child = node
        for anc in ctx.ancestors(node):
            if anc is func:
                return False
            if isinstance(anc, ast.If) and self._in_block(child, anc.body):
                if self._mentions_flag(anc.test, feature, tainted):
                    return True
            elif isinstance(anc, ast.IfExp) and child is anc.body:
                if self._mentions_flag(anc.test, feature, tainted):
                    return True
            child = anc
        return False

    @staticmethod
    def _in_block(child, block) -> bool:
        return any(child is stmt for stmt in block)

    @staticmethod
    def _mentions_flag(expr, feature, tainted) -> bool:
        flags = _FEATURE_FLAGS[feature]
        for node in ast.walk(expr):
            if isinstance(node, ast.Attribute) and node.attr in flags:
                base = dotted_name(node.value)
                if base and "config" in base.split("."):
                    return True
            elif isinstance(node, ast.Name) and node.id in tainted:
                return True
        return False

    def _tainted(self, ctx, func, feature) -> set:
        """Locals carrying the flag's truth: assigned from an expression
        mentioning the flag, from another tainted name, or under a
        flag guard.  Fixpoint (tainted only grows)."""
        tainted: set = set()
        changed = True
        while changed:
            changed = False
            for node in ast.walk(func):
                if not isinstance(node, ast.Assign):
                    continue
                names = {
                    t.id for t in node.targets if isinstance(t, ast.Name)
                }
                if not names or names <= tainted:
                    continue
                if self._mentions_flag(
                    node.value, feature, tainted
                ) or self._guarded(ctx, node, func, feature, tainted):
                    tainted |= names
                    changed = True
        return tainted


@register_rule
class RngProvenanceRule(Rule):
    code = "FLOW601"
    name = "rng-provenance"
    message = (
        "sim RNGs must be forked from a parent RandomSource stream, not "
        "seeded with a literal"
    )
    scope = SIM_SCOPE
    #: The RandomSource implementation itself wraps random.Random.
    exclude = ("src/repro/sim/random.py",)

    def run(self, ctx: FileContext):
        self._random_aliases = {
            alias.asname or alias.name
            for node in ast.walk(ctx.tree)
            if isinstance(node, ast.ImportFrom) and node.module == "random"
            for alias in node.names
            if alias.name == "Random"
        }
        return super().run(ctx)

    @staticmethod
    def _seed_arg(node: ast.Call):
        """The seed expression: first positional, or ``seed=`` keyword."""
        if node.args:
            return node.args[0]
        for kw in node.keywords:
            if kw.arg == "seed":
                return kw.value
        return None

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        is_random = dotted_name(func) == "random.Random" or (
            isinstance(func, ast.Name) and func.id in self._random_aliases
        )
        seed = self._seed_arg(node)
        if is_random and isinstance(seed, ast.Constant):
            # (the *unseeded* form is SIM107's finding, not ours)
            self.report(
                node,
                "random.Random with a literal seed does not trace to the "
                "configured root seed; fork a RandomSource stream instead",
            )
        elif (
            isinstance(func, ast.Name)
            and func.id == "RandomSource"
            and (seed is None or isinstance(seed, ast.Constant))
        ):
            self.report(
                node,
                "RandomSource with a literal/default seed starts a stream "
                "outside the configured seed tree; use parent.fork(name)",
            )
        self.generic_visit(node)
