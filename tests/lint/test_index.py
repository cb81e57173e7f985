"""Unit tests for the ProjectIndex extraction layer (phase one)."""

from repro.lint.context import FileContext
from repro.lint.index import ProjectIndex


def build(files: dict) -> ProjectIndex:
    return ProjectIndex(
        {path: FileContext(source, path) for path, source in files.items()}
    )


class TestMessageResolution:
    def test_string_literal_and_module_constant(self):
        index = build(
            {
                "src/repro/kvstore/a.py": (
                    "MSG_PUT = 'kv.put'\n"
                    "class A:\n"
                    "    def go(self, endpoint, dst):\n"
                    "        endpoint.call(dst, MSG_PUT, {'key': 1})\n"
                    "        endpoint.notify(dst, 'kv.poke', {'n': 2})\n"
                )
            }
        )
        assert [c.msg_type for c in index.calls] == ["kv.put", "kv.poke"]
        assert index.dynamic_calls == []

    def test_cross_module_constant_import(self):
        index = build(
            {
                "src/repro/kvstore/proto.py": "MSG_GET = 'kv.get'\n",
                "src/repro/kvstore/client.py": (
                    "from repro.kvstore.proto import MSG_GET\n"
                    "class C:\n"
                    "    def go(self, endpoint, dst):\n"
                    "        endpoint.call(dst, MSG_GET, {'key': 1})\n"
                ),
            }
        )
        assert [c.msg_type for c in index.calls] == ["kv.get"]

    def test_unresolvable_msg_recorded_as_dynamic(self):
        index = build(
            {
                "src/repro/kvstore/a.py": (
                    "class A:\n"
                    "    def go(self, endpoint, dst, which):\n"
                    "        endpoint.call(dst, which, {})\n"
                )
            }
        )
        assert index.calls == []
        assert index.dynamic_calls == [("src/repro/kvstore/a.py", 3)]


class TestForwarders:
    SOURCE = (
        "class Store:\n"
        "    def _safe_notify(self, dst, msg_type, body, size=64):\n"
        "        self.endpoint.notify(dst, msg_type, body, size=size)\n"
        "    def push(self, dst):\n"
        "        self._safe_notify(dst, 'kv.push', {'record': 1})\n"
    )

    def test_forwarder_callers_become_senders(self):
        index = build({"src/repro/kvstore/a.py": self.SOURCE})
        assert [(c.msg_type, c.sender) for c in index.calls] == [
            ("kv.push", "Store.push")
        ]

    def test_internal_forwarding_edge_is_not_a_send(self):
        # The endpoint.notify(dst, msg_type, ...) *inside* the
        # forwarder must not count as a (dynamic) send.
        index = build({"src/repro/kvstore/a.py": self.SOURCE})
        assert index.dynamic_calls == []


class TestBodySchemas:
    def schema_of(self, body_src, prelude=""):
        index = build(
            {
                "src/repro/kvstore/a.py": (
                    "class A:\n"
                    "    def go(self, endpoint, dst, extra):\n"
                    + prelude
                    + f"        endpoint.call(dst, 'kv.x', {body_src})\n"
                )
            }
        )
        (call,) = index.calls
        return call.schema

    def test_literal_dict_is_closed(self):
        schema = self.schema_of("{'key': 1, 'name': 2}")
        assert sorted(schema.fields) == ["key", "name"]
        assert not schema.is_open

    def test_missing_body_is_closed_empty(self):
        index = build(
            {
                "src/repro/kvstore/a.py": (
                    "class A:\n"
                    "    def go(self, endpoint, dst):\n"
                    "        endpoint.call(dst, 'kv.x', None, timeout=1)\n"
                )
            }
        )
        (call,) = index.calls
        assert call.schema.fields == frozenset()
        assert not call.schema.is_open

    def test_spread_of_parameter_is_open(self):
        schema = self.schema_of("{**extra, 'hop': 1}")
        assert schema.is_open
        assert "hop" in schema.fields

    def test_spread_of_local_literal_merges_closed(self):
        schema = self.schema_of(
            "{**base, 'hop': 1}", prelude="        base = {'key': 1}\n"
        )
        assert sorted(schema.fields) == ["hop", "key"]
        assert not schema.is_open

    def test_local_var_with_conditional_subscript_widening(self):
        schema = self.schema_of(
            "body",
            prelude=(
                "        body = {'key': 1}\n"
                "        if extra:\n"
                "            body['limit'] = extra\n"
            ),
        )
        assert sorted(schema.fields) == ["key", "limit"]
        assert not schema.is_open

    def test_computed_body_is_open(self):
        schema = self.schema_of("dict(extra)")
        assert schema.is_open


class TestHandlerSummaries:
    def summary_of(self, handler_src):
        index = build(
            {
                "src/repro/kvstore/a.py": (
                    "class Store:\n"
                    "    def __init__(self, endpoint):\n"
                    "        endpoint.register('kv.x', self._handle_x)\n"
                    + handler_src
                )
            }
        )
        ((_, summary),) = index.handlers
        return summary

    def test_required_vs_optional_reads(self):
        summary = self.summary_of(
            "    def _handle_x(self, request):\n"
            "        k = request.body['key']\n"
            "        h = request.body.get('hint')\n"
            "        return k, h\n"
        )
        assert sorted(summary.required) == ["key"]
        assert sorted(summary.optional) == ["hint"]
        assert not summary.reads_all

    def test_body_alias_is_followed(self):
        summary = self.summary_of(
            "    def _handle_x(self, request):\n"
            "        body = request.body\n"
            "        return body['key']\n"
        )
        assert sorted(summary.required) == ["key"]
        assert not summary.reads_all

    def test_dict_copy_reads_everything(self):
        summary = self.summary_of(
            "    def _handle_x(self, request):\n"
            "        return dict(request.body)\n"
        )
        assert summary.reads_all

    def test_helper_method_reads_are_merged(self):
        summary = self.summary_of(
            "    def _handle_x(self, request):\n"
            "        return self._inner(request.body)\n"
            "    def _inner(self, body):\n"
            "        return body['key']\n"
        )
        assert sorted(summary.required) == ["key"]
        assert not summary.reads_all

    def test_higher_order_co_passed_method_is_merged(self):
        # The kvstore _handled('op', request, self._op_local) pattern:
        # the real reader is passed alongside the request.
        summary = self.summary_of(
            "    def _handle_x(self, request):\n"
            "        return self._handled('x', request, self._x_local)\n"
            "    def _handled(self, name, request, inner):\n"
            "        limit = request.body.get('limit')\n"
            "        return inner(request.body, limit)\n"
            "    def _x_local(self, body, limit):\n"
            "        return body['key']\n"
        )
        assert sorted(summary.required) == ["key"]
        assert sorted(summary.optional) == ["limit"]
        assert not summary.reads_all

    def test_body_passed_to_unknown_callee_reads_everything(self):
        summary = self.summary_of(
            "    def _handle_x(self, request):\n"
            "        return self.sink.drain(request.body)\n"
        )
        assert summary.reads_all

    def test_lambda_handler_is_summarized(self):
        index = build(
            {
                "src/repro/kvstore/a.py": (
                    "class Store:\n"
                    "    def __init__(self, endpoint):\n"
                    "        endpoint.register(\n"
                    "            'kv.x', lambda req: req.body['key'])\n"
                )
            }
        )
        ((reg, summary),) = index.handlers
        assert reg.handler_name == "<lambda>"
        assert sorted(summary.required) == ["key"]

    def test_unresolvable_handler_assumed_to_read_all(self):
        index = build(
            {
                "src/repro/kvstore/a.py": (
                    "class Store:\n"
                    "    def __init__(self, endpoint):\n"
                    "        endpoint.register('kv.x', self._inherited)\n"
                )
            }
        )
        ((_, summary),) = index.handlers
        assert summary.reads_all


class TestWireReport:
    def test_report_shape_and_line_freedom(self):
        index = build(
            {
                "src/repro/kvstore/a.py": (
                    "class Store:\n"
                    "    def __init__(self, endpoint):\n"
                    "        endpoint.register('kv.x', self._handle_x)\n"
                    "    def _handle_x(self, request):\n"
                    "        return request.body['key'],"
                    " request.body.get('hint')\n"
                    "    def go(self, endpoint, dst):\n"
                    "        endpoint.call(dst, 'kv.x', {'key': 1})\n"
                )
            }
        )
        report = index.wire_report()
        assert report == {
            "kv.x": {
                "senders": ["src/repro/kvstore/a.py::Store.go"],
                "handlers": ["src/repro/kvstore/a.py::Store._handle_x"],
                "sent": ["key"],
                "open": False,
                "required": ["key"],
                "optional": ["hint"],
                "reads_all": False,
            }
        }
