"""RPC rules: handler exceptions stay inside the repro error hierarchy.

Exceptions raised by a registered RPC handler travel the wire as a
:class:`repro.net.RemoteError` detail string and are re-raised at the
caller, where retry/breaker policy dispatches on type (``RemoteError``
is never retried; ``RpcTimeoutError``/``HostDownError`` are).  A bare
builtin (``ValueError``, ``RuntimeError``) raised in a handler loses
that classification — PR 4's ``DeadlineExceededError ⊂ RpcTimeoutError``
discipline is the model: subclass the family you mean.
"""

from __future__ import annotations

import ast

from repro.lint.index import handler_table
from repro.lint.registry import Rule, register_rule

__all__ = ["HandlerExceptionRule"]

#: Builtins that must not escape a handler un-wrapped.
BUILTIN_EXCEPTIONS = {
    "Exception",
    "BaseException",
    "RuntimeError",
    "ValueError",
    "TypeError",
    "KeyError",
    "IndexError",
    "AttributeError",
    "LookupError",
    "OSError",
    "IOError",
    "ArithmeticError",
    "ZeroDivisionError",
    "StopIteration",
    "NotImplementedError",
    "AssertionError",
}


@register_rule
class HandlerExceptionRule(Rule):
    """RPC301: registered handlers raise repro-hierarchy errors only.

    A method counts as a handler when the class registers it via
    ``endpoint.register(MSG_X, self._handle_y)`` or names it in a
    class-body ``RPC_HANDLERS = {MSG_X: "_handle_y"}`` table, or when
    it follows the ``_handle_*`` naming convention used across the
    stack.
    """

    code = "RPC301"
    name = "handler-error-hierarchy"
    message = (
        "RPC handler raises a builtin exception (subclass the repro "
        "error hierarchy — RemoteError / RpcTimeoutError family — so "
        "retry and breaker policy can classify it)"
    )
    scope = ("src/repro",)
    exclude = ("src/repro/lint",)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        registered = self._registered_handlers(node)
        for stmt in node.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if stmt.name in registered or stmt.name.startswith("_handle_"):
                self._check_handler(stmt)
        self.generic_visit(node)

    def _registered_handlers(self, cls: ast.ClassDef) -> set[str]:
        """Method names passed as ``self.<m>`` to a ``.register()`` call
        or named in the class's ``RPC_HANDLERS`` table."""
        names: set[str] = {
            method.value
            for _msg, method in handler_table(cls)
            if isinstance(method, ast.Constant) and isinstance(method.value, str)
        }
        for node in ast.walk(cls):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "register"
                and len(node.args) == 2
            ):
                continue
            handler = node.args[1]
            if (
                isinstance(handler, ast.Attribute)
                and isinstance(handler.value, ast.Name)
                and handler.value.id == "self"
            ):
                names.add(handler.attr)
        return names

    def _check_handler(self, func) -> None:
        for node in ast.walk(func):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            name = None
            if isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name):
                name = exc.func.id
            elif isinstance(exc, ast.Name):
                name = exc.id
            if name in BUILTIN_EXCEPTIONS:
                self.report(node, f"{self.message}: raise {name}")
