"""Phase one of the whole-program analysis: the :class:`ProjectIndex`.

simlint's per-file rules see one AST at a time; the wire-contract rules
(``WIRE5xx``, ``CFG402``) need the *protocol* — who sends which message
with which body fields, and who handles it.  The index recovers that
protocol from the already-parsed :class:`~repro.lint.context.FileContext`
cache (no file is re-read or re-parsed) in four extractions:

- **RPC call sites** — ``endpoint.call(dst, "msg", {...})`` /
  ``.notify(...)`` plus every *forwarder*: a function with a
  ``msg_type`` parameter that passes it into another send (``_call``,
  ``_safe_notify``, ``ResilientCaller.call``, ...).  Call sites of a
  forwarder count as sends of the message they pass in.
- **Body schemas** — dict-literal keys, local dict variables widened by
  later ``body["k"] = ...`` assignments, and ``{**body, ...}`` spreads.
  A spread of an unknown value makes the schema *open*: the sender may
  ship fields the index cannot name, so absence is never provable.
- **Handler registrations** — ``register(MSG_X, self._handle_x)``
  (also lambdas and local functions) and each entry of a class-body
  ``RPC_HANDLERS = {MSG_X: "_handle_x"}`` table, attributed to the
  enclosing class so per-device-class divergence is visible.
- **Handler field reads** — ``request.body["f"]`` (required) vs
  ``request.body.get("f")`` (optional), followed transitively through
  helpers: ``self._helper(body, span)`` merges the helper's reads, and
  the higher-order ``self._handled(name, request, self._put_local)``
  pattern merges both callees.  Passing the body anywhere opaque
  (``dict(request.body)``, a non-method callee) marks the handler as
  reading *everything*, which disables dead-field claims for it.

Message-type names resolve through module-level ``MSG_* = "..."``
constants, including cross-module ``from repro.x import MSG_Y`` imports.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.lint.context import FileContext

__all__ = [
    "BodySchema",
    "CallSite",
    "HandlerSummary",
    "ProjectIndex",
    "Registration",
    "handler_table",
]

@dataclass(frozen=True)
class BodySchema:
    """What a call site puts on the wire."""

    fields: frozenset
    #: True when the body spreads an unknown value (``{**body, ...}``,
    #: a forwarded parameter, a computed dict): the sender may ship
    #: fields beyond :attr:`fields`.
    is_open: bool


@dataclass
class CallSite:
    """One resolved RPC send."""

    path: str
    line: int
    col: int
    msg_type: str
    schema: BodySchema
    #: ``Class.method`` (or bare function name / ``<module>``).
    sender: str
    node: ast.AST = field(repr=False, compare=False, default=None)


@dataclass
class Registration:
    """One ``register(msg_type, handler)`` site."""

    path: str
    line: int
    col: int
    msg_type: str
    class_name: str
    handler_name: str
    node: ast.AST = field(repr=False, compare=False, default=None)


@dataclass
class HandlerSummary:
    """Transitive body-field reads of one registered handler."""

    path: str
    class_name: str
    handler_name: str
    #: field -> first AST node reading it (the finding anchor).
    required: dict = field(default_factory=dict)
    optional: dict = field(default_factory=dict)
    #: Body consumed opaquely somewhere — every field may be read.
    reads_all: bool = False
    #: The handler's ``def`` (or the registration, as a fallback).
    def_node: ast.AST = field(repr=False, compare=False, default=None)

    def merge(self, other: "HandlerSummary") -> None:
        for key, node in other.required.items():
            self.required.setdefault(key, node)
        for key, node in other.optional.items():
            self.optional.setdefault(key, node)
        self.reads_all = self.reads_all or other.reads_all

    @property
    def read_fields(self) -> set:
        return set(self.required) | set(self.optional)


def _module_to_path(module: str) -> str:
    """``repro.vstore.node`` -> ``src/repro/vstore/node.py``."""
    return "src/" + module.replace(".", "/") + ".py"


def handler_table(cls: ast.ClassDef) -> list:
    """``(msg expr, method expr)`` per entry of ``cls``'s class-body
    ``RPC_HANDLERS = {...}`` dict literal (empty without one)."""
    for stmt in cls.body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target, value = stmt.targets[0], stmt.value
        elif isinstance(stmt, ast.AnnAssign):
            target, value = stmt.target, stmt.value
        else:
            continue
        if (
            isinstance(target, ast.Name)
            and target.id == "RPC_HANDLERS"
            and isinstance(value, ast.Dict)
        ):
            return [(k, v) for k, v in zip(value.keys, value.values) if k is not None]
    return []


def _func_params(node) -> list:
    """Positional parameter names, ``self``/``cls`` stripped."""
    names = [a.arg for a in node.args.posonlyargs + node.args.args]
    if names and names[0] in ("self", "cls"):
        names = names[1:]
    return names


class ProjectIndex:
    """The recovered RPC protocol for one set of parsed files."""

    #: Receiver methods that are always sends: ``X.call(dst, msg, body)``.
    _BASE_SENDS = {"call": [(1, 2)], "notify": [(1, 2)]}

    def __init__(self, contexts: dict) -> None:
        #: path -> FileContext (shared with the per-file rules).
        self.contexts = contexts
        #: (path, local name) -> message-type string.
        self.constants: dict = {}
        self.calls: list[CallSite] = []
        #: Sends whose message type could not be resolved to a string.
        self.dynamic_calls: list = []
        #: list of (Registration, HandlerSummary), registration order.
        self.handlers: list = []
        #: (path, class or None, name) -> function node.
        self._funcs: dict = {}
        #: forwarder name -> [(msg arg index, body arg index or None)].
        self._forwarders: dict = {k: list(v) for k, v in self._BASE_SENDS.items()}
        self._summaries: dict = {}
        self._in_progress: set = set()
        self._build()

    # -- construction -----------------------------------------------------

    def _build(self) -> None:
        ordered = sorted(self.contexts)
        for path in ordered:
            self._collect_constants(self.contexts[path])
        self._resolve_imports(ordered)
        for path in ordered:
            self._collect_functions(self.contexts[path])
        for path in ordered:
            self._collect_forwarders(self.contexts[path])
        for path in ordered:
            self._collect_sites(self.contexts[path])
        self.calls.sort(key=lambda c: (c.path, c.line, c.col))
        self.handlers.sort(key=lambda h: (h[0].path, h[0].line, h[0].col))

    def _collect_constants(self, ctx: FileContext) -> None:
        for stmt in ctx.tree.body:
            target = None
            value = None
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target, value = stmt.targets[0], stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                target, value = stmt.target, stmt.value
            if (
                isinstance(target, ast.Name)
                and isinstance(value, ast.Constant)
                and isinstance(value.value, str)
            ):
                self.constants[(ctx.path, target.id)] = value.value

    def _resolve_imports(self, ordered) -> None:
        """Chase ``from repro.x import MSG_Y`` across indexed modules."""
        pending = []
        for path in ordered:
            for node in ast.walk(self.contexts[path].tree):
                if isinstance(node, ast.ImportFrom) and node.module:
                    src = _module_to_path(node.module)
                    for alias in node.names:
                        pending.append(
                            (path, alias.asname or alias.name, src, alias.name)
                        )
        for _ in range(2):  # two passes cover import-of-import chains
            for path, local, src, orig in pending:
                if (src, orig) in self.constants:
                    self.constants[(path, local)] = self.constants[(src, orig)]

    def _collect_functions(self, ctx: FileContext) -> None:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                cls = self._enclosing_class(ctx, node)
                self._funcs[(ctx.path, cls, node.name)] = node

    def _collect_forwarders(self, ctx: FileContext) -> None:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            params = _func_params(node)
            if "msg_type" not in params:
                continue
            if not self._forwards_msg_type(node):
                continue
            sig = (
                params.index("msg_type"),
                params.index("body") if "body" in params else None,
            )
            sigs = self._forwarders.setdefault(node.name, [])
            if sig not in sigs:
                sigs.append(sig)

    @staticmethod
    def _forwards_msg_type(func) -> bool:
        """True when the ``msg_type`` parameter feeds another call."""
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            args = list(node.args) + [kw.value for kw in node.keywords]
            for arg in args:
                if isinstance(arg, ast.Name) and arg.id == "msg_type":
                    return True
        return False

    # -- call-site / registration extraction ------------------------------

    def _collect_sites(self, ctx: FileContext) -> None:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                self._extract_table(ctx, node)
                continue
            if not isinstance(node, ast.Call) or not isinstance(
                node.func, ast.Attribute
            ):
                continue
            if node.func.attr == "register":
                self._extract_registration(ctx, node)
            elif node.func.attr in self._forwarders:
                self._extract_call(ctx, node)

    def _arg(self, call: ast.Call, index, keyword):
        if index is not None and len(call.args) > index:
            return call.args[index]
        for kw in call.keywords:
            if kw.arg == keyword:
                return kw.value
        return None

    def _extract_call(self, ctx: FileContext, node: ast.Call) -> None:
        enclosing = ctx.enclosing_function(node)
        own_params = _func_params(enclosing) if enclosing is not None else []
        for msg_idx, body_idx in self._forwarders[node.func.attr]:
            msg_expr = self._arg(node, msg_idx, "msg_type")
            if msg_expr is None:
                continue
            # The forwarding edge itself (``self.endpoint.call(dst,
            # msg_type, body)`` inside ``_call``) is internal plumbing,
            # not a send: the forwarder's own callers are the senders.
            if (
                isinstance(msg_expr, ast.Name)
                and msg_expr.id == "msg_type"
                and "msg_type" in own_params
            ):
                return
            msg = self._resolve_str(ctx, msg_expr)
            if msg is None:
                continue
            schema = self._body_schema(
                ctx, self._arg(node, body_idx, "body"), enclosing
            )
            self.calls.append(
                CallSite(
                    path=ctx.path,
                    line=node.lineno,
                    col=node.col_offset + 1,
                    msg_type=msg,
                    schema=schema,
                    sender=self._qualname(ctx, node),
                    node=node,
                )
            )
            return
        self.dynamic_calls.append((ctx.path, node.lineno))

    def _extract_table(self, ctx: FileContext, cls: ast.ClassDef) -> None:
        """Each ``MSG_X: "_handle_x"`` entry of a class-body
        ``RPC_HANDLERS`` dict registers that method of the class."""
        for msg_expr, method in handler_table(cls):
            msg = self._resolve_str(ctx, msg_expr)
            if msg is None:
                continue
            summary = None
            if isinstance(method, ast.Constant) and isinstance(method.value, str):
                name = method.value
                summary = self._method_summary(ctx.path, cls.name, name)
            else:
                name = "<dynamic>"
            self._record_registration(ctx, msg_expr, msg, cls.name, name, summary)

    def _extract_registration(self, ctx: FileContext, node: ast.Call) -> None:
        if len(node.args) != 2:
            return
        msg = self._resolve_str(ctx, node.args[0])
        if msg is None:
            return
        cls = self._enclosing_class(ctx, node)
        handler = node.args[1]
        summary = None
        name = "<dynamic>"
        if (
            isinstance(handler, ast.Attribute)
            and isinstance(handler.value, ast.Name)
            and handler.value.id == "self"
        ):
            name = handler.attr
            summary = self._method_summary(ctx.path, cls, name)
        elif isinstance(handler, ast.Name):
            name = handler.id
            func = self._funcs.get((ctx.path, cls, name)) or self._funcs.get(
                (ctx.path, None, name)
            )
            if func is not None:
                summary = self._summarize(ctx.path, cls, func, is_handler=True)
        elif isinstance(handler, ast.Lambda):
            name = "<lambda>"
            summary = self._summarize(ctx.path, cls, handler, is_handler=True)
        self._record_registration(ctx, node, msg, cls, name, summary)

    def _record_registration(self, ctx, node, msg, cls, name, summary) -> None:
        if summary is None:
            # Unresolvable handler: assume it may read anything.
            summary = HandlerSummary(
                ctx.path, cls, name, reads_all=True, def_node=node
            )
        registration = Registration(
            path=ctx.path,
            line=node.lineno,
            col=node.col_offset + 1,
            msg_type=msg,
            class_name=cls,
            handler_name=name,
            node=node,
        )
        self.handlers.append((registration, summary))

    def _resolve_str(self, ctx: FileContext, expr):
        if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
            return expr.value
        if isinstance(expr, ast.Name):
            return self.constants.get((ctx.path, expr.id))
        return None

    def _enclosing_class(self, ctx: FileContext, node):
        for anc in ctx.ancestors(node):
            if isinstance(anc, ast.ClassDef):
                return anc.name
        return None

    def _qualname(self, ctx: FileContext, node) -> str:
        func = ctx.enclosing_function(node)
        cls = self._enclosing_class(ctx, node)
        if func is None:
            return "<module>"
        return f"{cls}.{func.name}" if cls else func.name

    # -- body schema resolution -------------------------------------------

    def _body_schema(self, ctx, expr, enclosing) -> BodySchema:
        if expr is None or (
            isinstance(expr, ast.Constant) and expr.value is None
        ):
            return BodySchema(frozenset(), is_open=False)
        if isinstance(expr, ast.Dict):
            return self._dict_schema(ctx, expr, enclosing)
        if isinstance(expr, ast.Name) and enclosing is not None:
            if expr.id in _func_params(enclosing):
                # A forwarded parameter: contents unknown here.
                return BodySchema(frozenset(), is_open=True)
            return self._local_var_schema(ctx, expr.id, enclosing)
        return BodySchema(frozenset(), is_open=True)

    def _dict_schema(self, ctx, node: ast.Dict, enclosing) -> BodySchema:
        fields: set = set()
        is_open = False
        for key, value in zip(node.keys, node.values):
            if key is None:  # {**spread, ...}
                inner = self._body_schema(ctx, value, enclosing)
                fields |= inner.fields
                is_open = is_open or inner.is_open
            elif isinstance(key, ast.Constant) and isinstance(key.value, str):
                fields.add(key.value)
            else:
                is_open = True
        return BodySchema(frozenset(fields), is_open)

    def _local_var_schema(self, ctx, name: str, enclosing) -> BodySchema:
        """Union every ``name = {...}`` assignment plus later
        ``name["k"] = ...`` widenings inside the enclosing function."""
        fields: set = set()
        is_open = False
        assigned = False
        for node in ast.walk(enclosing):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id == name:
                        assigned = True
                        if isinstance(node.value, ast.Dict):
                            inner = self._dict_schema(ctx, node.value, enclosing)
                            fields |= inner.fields
                            is_open = is_open or inner.is_open
                        else:
                            is_open = True
                    elif (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == name
                    ):
                        key = target.slice
                        if isinstance(key, ast.Constant) and isinstance(
                            key.value, str
                        ):
                            fields.add(key.value)
                        else:
                            is_open = True
        if not assigned:
            return BodySchema(frozenset(), is_open=True)
        return BodySchema(frozenset(fields), is_open)

    # -- handler field-read summaries -------------------------------------

    def _method_summary(self, path, cls, name):
        func = self._funcs.get((path, cls, name))
        if func is None:
            return None
        return self._summarize(path, cls, func, is_handler=True)

    def _summarize(self, path, cls, func, is_handler) -> HandlerSummary:
        key = id(func)
        if key in self._summaries:
            return self._summaries[key]
        if key in self._in_progress:  # recursion (mutual helpers)
            return HandlerSummary(path, cls, getattr(func, "name", "<lambda>"))
        self._in_progress.add(key)
        summary = self._summarize_uncached(path, cls, func, is_handler)
        self._in_progress.discard(key)
        self._summaries[key] = summary
        return summary

    def _summarize_uncached(self, path, cls, func, is_handler):
        name = getattr(func, "name", "<lambda>")
        summary = HandlerSummary(path, cls, name, def_node=func)
        ctx = self.contexts[path]
        params = _func_params(func)
        # Roots: expressions that denote the wire body.  A registered
        # handler's first parameter is the Request; helpers reached by
        # body-flow read via parameters literally named request/body.
        request_roots = set()
        body_roots = set()
        if is_handler and params:
            request_roots.add(params[0])
        request_roots.update(p for p in params if p == "request")
        body_roots.update(p for p in params if p == "body")
        # Alias pass: ``body = request.body`` / ``b = body``.
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
            ):
                value = node.value
                if self._is_body_expr(value, request_roots, body_roots):
                    body_roots.add(node.targets[0].id)
        for node in ast.walk(func):
            if self._is_body_expr(node, request_roots, body_roots):
                self._classify_read(
                    ctx, node, func, params, request_roots, body_roots, summary
                )
            elif (
                isinstance(node, ast.Name)
                and node.id in request_roots
                and isinstance(node.ctx, ast.Load)
            ):
                self._classify_request_use(ctx, node, summary)
        return summary

    @staticmethod
    def _is_body_expr(node, request_roots, body_roots) -> bool:
        if isinstance(node, ast.Name):
            return node.id in body_roots and isinstance(node.ctx, ast.Load)
        return (
            isinstance(node, ast.Attribute)
            and node.attr == "body"
            and isinstance(node.value, ast.Name)
            and node.value.id in request_roots
        )

    def _classify_read(
        self, ctx, node, func, params, request_roots, body_roots, summary
    ) -> None:
        parent = ctx.parent(node)
        if isinstance(parent, ast.Subscript) and parent.value is node:
            if isinstance(parent.ctx, (ast.Store, ast.Del)):
                return  # a write never *reads* a wire field
            key = parent.slice
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                summary.required.setdefault(key.value, parent)
            else:
                summary.reads_all = True
            return
        if isinstance(parent, ast.Attribute) and parent.attr == "get":
            call = ctx.parent(parent)
            if (
                isinstance(call, ast.Call)
                and call.func is parent
                and call.args
                and isinstance(call.args[0], ast.Constant)
                and isinstance(call.args[0].value, str)
            ):
                summary.optional.setdefault(call.args[0].value, call)
            else:
                summary.reads_all = True
            return
        if isinstance(parent, ast.Attribute):
            return  # e.g. ``request.src`` — not a body read
        if isinstance(parent, ast.Assign) and parent.value is node:
            if len(parent.targets) == 1 and isinstance(
                parent.targets[0], ast.Name
            ):
                return  # alias, handled in the alias pass
            summary.reads_all = True
            return
        if isinstance(parent, ast.Call) and node in parent.args:
            if self._merge_call(ctx, parent, summary):
                return
            # Higher-order flow: passing the body to one of our own
            # parameters (``inner(request.body, span)``) is accounted
            # for at the *caller*, which passed the real callee in.
            if (
                isinstance(parent.func, ast.Name)
                and parent.func.id in params
            ):
                return
            summary.reads_all = True
            return
        summary.reads_all = True

    def _classify_request_use(self, ctx, node, summary) -> None:
        parent = ctx.parent(node)
        if isinstance(parent, ast.Attribute):
            return  # .body handled elsewhere; .src etc. irrelevant
        if isinstance(parent, ast.Call) and node in parent.args:
            self._merge_call(ctx, parent, summary)

    def _merge_call(self, ctx, call: ast.Call, summary) -> bool:
        """Merge summaries of ``self.<m>`` callees (and any ``self.<m>``
        references passed along as arguments).  Returns True when the
        callee was a resolvable method of the same class."""
        func = call.func
        if not (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "self"
        ):
            return False
        merged = False
        targets = [func.attr]
        for arg in list(call.args) + [kw.value for kw in call.keywords]:
            if (
                isinstance(arg, ast.Attribute)
                and isinstance(arg.value, ast.Name)
                and arg.value.id == "self"
            ):
                targets.append(arg.attr)
        for target in targets:
            callee = self._funcs.get((summary.path, summary.class_name, target))
            if callee is not None:
                sub = self._summarize(
                    summary.path, summary.class_name, callee, is_handler=False
                )
                summary.merge(sub)
                merged = True
        return merged

    # -- queries ----------------------------------------------------------

    def message_types(self):
        types = {c.msg_type for c in self.calls}
        types.update(reg.msg_type for reg, _ in self.handlers)
        return sorted(types)

    def calls_for(self, msg_type: str):
        return [c for c in self.calls if c.msg_type == msg_type]

    def handlers_for(self, msg_type: str):
        return [(r, s) for r, s in self.handlers if r.msg_type == msg_type]

    def wire_report(self) -> dict:
        """The recovered protocol: msg_type -> senders/handlers/schema.

        Line-number free (identifiers are ``path::Class.method``) so the
        golden pinned in the test suite survives unrelated line drift.
        """
        report: dict = {}
        for msg in self.message_types():
            calls = self.calls_for(msg)
            handlers = self.handlers_for(msg)
            required: set = set()
            optional: set = set()
            for _, summary in handlers:
                required |= set(summary.required)
                optional |= set(summary.optional)
            sent: set = set()
            for call in calls:
                sent |= call.schema.fields
            report[msg] = {
                "senders": sorted({f"{c.path}::{c.sender}" for c in calls}),
                "handlers": sorted(
                    {
                        f"{r.path}::{r.class_name or '<module>'}"
                        f".{r.handler_name}"
                        for r, _ in handlers
                    }
                ),
                "sent": sorted(sent),
                "open": any(c.schema.is_open for c in calls),
                "required": sorted(required),
                "optional": sorted(optional - required),
                "reads_all": any(s.reads_all for _, s in handlers),
            }
        return report
