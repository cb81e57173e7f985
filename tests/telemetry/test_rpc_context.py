"""Trace context rides the RPC envelope, never a request body.

A traced store / fetch / process scenario on a home with payload
replicas and (4, 2) striping: every RPC the network carries keeps its
body free of telemetry, the dumped span tree is closed under
``parent_id``, and each handler span on a remote node parents to the
caller's span from ``Request.ctx``.
"""

import pytest

from repro.cluster import Cloud4Home, large_home
from repro.net import Request
from repro.services import FaceDetection
from repro.telemetry import span_dump

#: Spans a node opens for work another node asked it to do.
HANDLER_SPANS = (
    "overlay.hop",
    "kv.handle_put",
    "kv.handle_get",
    "kv.handle_delete",
    "vstore.serve_store",
    "vstore.serve_fetch",
    "vstore.serve_process",
)


@pytest.fixture(scope="module")
def traced_run():
    c4h = Cloud4Home(
        large_home(
            8, seed=41, telemetry=True, resilience=True, data_replicas=2, striping=True
        )
    )
    c4h.start(monitors=False)
    sent: list[Request] = []
    send = c4h.network.send

    def recording_send(src, dst, payload, size=64):
        if type(payload) is Request:
            sent.append(payload)
        send(src, dst, payload, size)

    c4h.network.send = recording_send
    storer, fetcher = c4h.devices[0], c4h.devices[5]
    c4h.deploy_service(lambda: FaceDetection(), nodes=[fetcher.name])
    for name, size_mb in [("copies.jpg", 1.0), ("stripe.avi", 8.0)]:
        c4h.run(storer.client.store_file(name, size_mb))
        c4h.run(fetcher.client.fetch_object(name))
    c4h.run(storer.client.process("copies.jpg", "face-detect#v1"))
    c4h.run(storer.client.delete_object("stripe.avi"))
    return sent, span_dump(c4h.telemetry)


def test_no_request_body_carries_a_span(traced_run):
    sent, _ = traced_run
    requests = [r for r in sent if r.kind == "request"]
    assert requests and any(r.ctx is not None for r in requests)
    for request in sent:
        assert not (isinstance(request.body, dict) and "span" in request.body), (
            request.msg_type
        )


def test_every_parent_resolves_within_the_dump(traced_run):
    _, dump = traced_run
    ids = {span["span_id"] for span in dump}
    assert dump
    for span in dump:
        assert span["parent_id"] is None or span["parent_id"] in ids, span["name"]


def test_remote_handler_spans_parent_to_the_caller(traced_run):
    _, dump = traced_run
    by_id = {span["span_id"]: span for span in dump}
    handled = [span for span in dump if span["name"] in HANDLER_SPANS]
    assert {span["name"] for span in handled} >= {
        "kv.handle_put",
        "kv.handle_get",
        "vstore.serve_store",
        "vstore.serve_fetch",
        "vstore.serve_process",
    }
    for span in handled:
        caller = by_id[span["parent_id"]]
        assert caller["node"] != span["node"], span["name"]
        assert caller["trace_id"] == span["trace_id"]
