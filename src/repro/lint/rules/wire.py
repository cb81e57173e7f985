"""Wire-contract rules (``WIRE5xx``): cross-file RPC protocol drift.

Every layer of the system talks over string-typed messages with untyped
dict bodies; nothing but convention keeps a caller's body keys aligned
with the fields its ``_handle_*`` counterpart reads.  These rules run
over the :class:`~repro.lint.index.ProjectIndex` and flag the four
drift classes that convention cannot catch:

- WIRE501 — a message type sent with no registered handler, or
  registered with no sender (dead endpoint).
- WIRE502 — a handler requires a field (``body["f"]``) that some
  caller with a fully-known body provably never sends.
- WIRE503 — a dead wire field: shipped by every caller, read by no
  handler.
- WIRE504 — the same message type handled by different device classes
  with incompatible required-field sets.

Cross-file findings anchor at the *handler* site (the contract's
owner), so suppressions and baseline keys live next to the code that
must change.  Open body schemas (``{**body, ...}`` of unknown dicts)
disable absence proofs: WIRE502 never fires against them.
"""

from __future__ import annotations

from repro.lint.index import ProjectIndex
from repro.lint.registry import ProjectRule, register_rule

__all__ = [
    "DeadWireFieldRule",
    "DivergentHandlersRule",
    "MissingRequiredFieldRule",
    "UnpairedMessageRule",
]


@register_rule
class UnpairedMessageRule(ProjectRule):
    code = "WIRE501"
    name = "unpaired-message"
    message = (
        "every RPC message type must have both a sender and a registered "
        "handler"
    )

    def run_project(self, index: ProjectIndex):
        self.findings = []
        for msg in index.message_types():
            calls = index.calls_for(msg)
            handlers = index.handlers_for(msg)
            if calls and not handlers:
                for call in calls:
                    self.report_in(
                        index.contexts[call.path],
                        call.node,
                        f"message {msg!r} is sent here but no handler "
                        f"registers it",
                        msg_type=msg,
                    )
            elif handlers and not calls and not index.dynamic_calls:
                # Only provable when every send in the tree resolved;
                # a single dynamic msg_type could be this message.
                for reg, _ in handlers:
                    self.report_in(
                        index.contexts[reg.path],
                        reg.node,
                        f"message {msg!r} is registered here but never "
                        f"sent",
                        msg_type=msg,
                    )
        return self.findings


@register_rule
class MissingRequiredFieldRule(ProjectRule):
    code = "WIRE502"
    name = "missing-required-field"
    message = (
        "a handler must not require a body field some caller never sends"
    )

    def run_project(self, index: ProjectIndex):
        self.findings = []
        for msg in index.message_types():
            handlers = index.handlers_for(msg)
            closed_calls = [
                c for c in index.calls_for(msg) if not c.schema.is_open
            ]
            for _, summary in handlers:
                for field_name, node in sorted(summary.required.items()):
                    missing = [
                        c
                        for c in closed_calls
                        if field_name not in c.schema.fields
                    ]
                    if not missing:
                        continue
                    where = ", ".join(
                        f"{c.path}:{c.line}" for c in missing[:3]
                    )
                    self.report_in(
                        index.contexts[summary.path],
                        node,
                        f"handler requires body field {field_name!r} of "
                        f"{msg!r} but the caller at {where} never sends "
                        f"it",
                        msg_type=msg,
                        field=field_name,
                    )
        return self.findings


@register_rule
class DeadWireFieldRule(ProjectRule):
    code = "WIRE503"
    name = "dead-wire-field"
    message = "every field shipped on the wire must be read by some handler"

    def run_project(self, index: ProjectIndex):
        self.findings = []
        for msg in index.message_types():
            calls = index.calls_for(msg)
            handlers = index.handlers_for(msg)
            if not calls or not handlers:
                continue  # WIRE501's department
            if any(s.reads_all for _, s in handlers):
                continue  # opaque consumption: nothing is provably dead
            read = set()
            for _, summary in handlers:
                read |= summary.read_fields
            # A field is dead only if *every* caller ships it; a field
            # sent by just some callers may be a legitimate optional.
            shipped = set(calls[0].schema.fields)
            for call in calls[1:]:
                shipped &= call.schema.fields
            first_reg, first_summary = handlers[0]
            anchor = first_summary.def_node or first_reg.node
            for field_name in sorted(shipped - read):
                self.report_in(
                    index.contexts[first_summary.path],
                    anchor,
                    f"field {field_name!r} of {msg!r} is sent by every "
                    f"caller but no handler reads it",
                    msg_type=msg,
                    field=field_name,
                )
        return self.findings


@register_rule
class DivergentHandlersRule(ProjectRule):
    code = "WIRE504"
    name = "divergent-handlers"
    message = (
        "handlers of one message type must agree on required body fields"
    )

    def run_project(self, index: ProjectIndex):
        self.findings = []
        for msg in index.message_types():
            seen: dict = {}  # class name -> (required set, summary)
            for reg, summary in index.handlers_for(msg):
                if summary.reads_all:
                    continue  # requirements unknowable
                cls = reg.class_name or "<module>"
                if cls in seen:
                    continue
                required = frozenset(summary.required)
                for other_cls, (other_required, _) in seen.items():
                    if other_required != required:
                        self.report_in(
                            index.contexts[summary.path],
                            summary.def_node or reg.node,
                            f"handler {cls}.{reg.handler_name} of {msg!r} "
                            f"requires {sorted(required)} but "
                            f"{other_cls} requires "
                            f"{sorted(other_required)}",
                            msg_type=msg,
                        )
                        break
                seen[cls] = (required, summary)
        return self.findings
