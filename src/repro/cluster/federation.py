"""Federation of multiple Cloud4Home infrastructures.

Paper, Section VII: "(v) to evaluate use cases in which multiple
Cloud4Home infrastructures collaborate.  A concrete example ... would
be a 'neighborhood security' system in which multiple Cloud4Home
systems interact to provide effective security services for entire
neighborhoods."

The federation shares one simulated fabric: every home keeps its own
LAN, uplink, overlay, and VStore++ deployment; collaboration flows
through the cloud, exactly as separate households would reach each
other in practice:

* a **directory service** (a cloud-hosted rendezvous point) tracks
  published objects and alert subscriptions;
* homes **publish** ``public``-access objects by uploading them to the
  shared S3 bucket and registering the URL;
* any home can **fetch** a published object over its own downlink;
* a home can **broadcast an alert** (e.g. an intruder detection) that
  the directory relays to every subscribed home's gateway device.

Access control is enforced at the federation boundary: only objects
whose metadata says ``access == "public"`` may be published.
"""

from __future__ import annotations

from typing import Callable

from repro.cluster.builder import Cloud4Home
from repro.cluster.config import ClusterConfig, DeviceConfig, default_devices
from repro.net import Network, Request, RpcEndpoint
from repro.sim import RandomSource, Simulator
from repro.vstore import ObjectNotFoundError, object_key
from repro.vstore.errors import AccessDeniedError
from repro.vstore.objects import ObjectMeta

__all__ = ["FederationDirectory", "Federation"]

MSG_PUBLISH = "fed.publish"
MSG_LOOKUP = "fed.lookup"
MSG_SUBSCRIBE = "fed.subscribe"
MSG_ALERT = "fed.alert"
MSG_ALERT_DELIVER = "fed.alert-deliver"


class FederationDirectory:
    """The cloud-hosted rendezvous service for federated homes."""

    RPC_HANDLERS = {
        MSG_PUBLISH: "_handle_publish",
        MSG_LOOKUP: "_handle_lookup",
        MSG_SUBSCRIBE: "_handle_subscribe",
        MSG_ALERT: "_handle_alert",
    }

    def __init__(self, network: Network, host_name: str = "federation-hub") -> None:
        self.network = network
        host = network.add_host(host_name, group="cloud")
        self.host_name = host_name
        self.endpoint = RpcEndpoint(network, host)
        #: Published objects: name -> {home, url, size_mb, access}.
        self.entries: dict[str, dict] = {}
        #: Gateway device names subscribed to alerts, by home label.
        self.subscribers: dict[str, str] = {}
        self.alerts_relayed = 0
        self.endpoint.serve(self)
        self.endpoint.start()

    def _handle_publish(self, request: Request) -> dict:
        entry = dict(request.body)
        self.entries[entry["name"]] = entry
        return {"published": True}

    def _handle_lookup(self, request: Request) -> dict:
        name = request.body["name"]
        entry = self.entries.get(name)
        if entry is None:
            raise ObjectNotFoundError(name)
        return entry

    def _handle_subscribe(self, request: Request) -> dict:
        self.subscribers[request.body["home"]] = request.body["gateway"]
        return {"subscribed": True}

    def _handle_alert(self, request: Request) -> None:
        """Relay an alert to every subscribed home except the sender."""
        body = request.body
        for home, gateway in self.subscribers.items():
            if home == body.get("from_home"):
                continue
            try:
                self.endpoint.notify(gateway, MSG_ALERT_DELIVER, body)
            except Exception:  # noqa: BLE001 - a down gateway is fine
                continue
        self.alerts_relayed += 1


class Federation:
    """Several Cloud4Home homes collaborating over one shared cloud."""

    def __init__(
        self,
        homes: list[Cloud4Home],
        directory: FederationDirectory,
    ) -> None:
        self.homes = homes
        self.directory = directory
        self.sim = directory.network.sim
        #: Per-home alert callbacks: (home_index, alert_body).
        self.on_alert: list[Callable[[int, dict], None]] = []
        self._gateway_endpoints: list[RpcEndpoint] = []

    # -- construction -----------------------------------------------------

    @classmethod
    def build(
        cls,
        n_homes: int = 2,
        seed: int = 0,
        devices_per_home: int = 3,
        with_ec2: bool = False,
    ) -> "Federation":
        """Assemble ``n_homes`` independent homes on one shared fabric.

        Device names are prefixed per home (``h0-netbook0`` ...), each
        home gets its own LAN and wireless uplink, and all of them share
        the S3 bucket and the federation directory.
        """
        if n_homes < 1:
            raise ValueError("n_homes must be >= 1")
        sim = Simulator()
        network = Network(sim, RandomSource(seed))
        homes: list[Cloud4Home] = []
        shared_s3 = None
        for h in range(n_homes):
            base = default_devices()[:devices_per_home]
            devices = [
                DeviceConfig(
                    **{**dc.__dict__, "name": f"h{h}-{dc.name}"}
                )
                for dc in base
            ]
            config = ClusterConfig(
                devices=devices, seed=seed + h, with_ec2=with_ec2
            )
            home = Cloud4Home(
                config, network=network, s3=shared_s3, home_group=f"home{h}"
            )
            shared_s3 = home.s3
            homes.append(home)
        directory = FederationDirectory(network)
        federation = cls(homes, directory)
        return federation

    def start(self) -> None:
        """Start every home and subscribe their gateways for alerts."""
        for index, home in enumerate(self.homes):
            home.start(monitors=False)
            gateway = self.gateway(index)
            self._wire_gateway(index, gateway)
            self.run(
                self._call(
                    gateway.vstore.endpoint,
                    MSG_SUBSCRIBE,
                    {"home": f"home{index}", "gateway": gateway.name},
                )
            )

    def gateway(self, home_index: int):
        """The device that fronts a home's federation traffic."""
        return self.homes[home_index].devices[0]

    def run(self, generator):
        proc = self.sim.process(generator)
        return self.sim.run(until=proc)

    # -- collaboration operations ---------------------------------------------

    def publish(self, home_index: int, object_name: str):
        """Process: make one home's public object visible to the others.

        The gateway fetches the object's metadata, enforces the
        ``public`` access level, uploads the bytes to the shared S3
        bucket, and registers the entry with the directory.
        """
        gateway = self.gateway(home_index)
        vstore = gateway.vstore
        try:
            value = yield from vstore.kv.get(object_key(object_name))
        except Exception as exc:  # KeyNotFoundError from another home's view
            raise ObjectNotFoundError(object_name) from exc
        meta = ObjectMeta.from_wire(value)
        if meta.access != "public":
            raise AccessDeniedError(object_name, f"home{home_index}-federation")
        # Bring the bytes to the gateway, then push them to the cloud.
        if meta.location != gateway.name and not meta.is_remote:
            yield from vstore._pull_payload(meta, None)
        if not meta.is_remote:
            url = yield from vstore.cloud.store_remote(
                f"fed/{object_name}", meta.size_bytes
            )
        else:
            url = meta.url
        entry = {
            "name": object_name,
            "home": f"home{home_index}",
            "url": url,
            "size_mb": meta.size_mb,
            "access": meta.access,
        }
        yield self._call_event(vstore.endpoint, MSG_PUBLISH, entry)
        return entry

    def fetch_published(self, home_index: int, object_name: str):
        """Process: pull a neighbour's published object into this home.

        Returns the downloaded size in MB.  The object arrives at the
        gateway over the home's own downlink.
        """
        gateway = self.gateway(home_index)
        yield self._call_event(
            gateway.vstore.endpoint, MSG_LOOKUP, {"name": object_name}
        )
        home = self.homes[home_index]
        s3_key = f"fed/{object_name}"
        if not home.s3.contains(s3_key):
            # Published while already cloud-resident: use the raw name.
            s3_key = object_name
        report = yield from home.s3.get_object(gateway.name, s3_key)
        return report.nbytes / (1024 * 1024)

    def broadcast_alert(self, home_index: int, alert: dict):
        """Process: send an alert to every other home's gateway."""
        gateway = self.gateway(home_index)
        body = {**alert, "from_home": f"home{home_index}"}
        yield self._call_event(
            gateway.vstore.endpoint, MSG_ALERT, body
        )
        return body

    # -- plumbing -----------------------------------------------------------------

    def _wire_gateway(self, index: int, gateway) -> None:
        endpoint = gateway.vstore.endpoint

        def deliver(request: Request, index=index) -> None:
            for callback in self.on_alert:
                callback(index, request.body)

        endpoint.register(MSG_ALERT_DELIVER, deliver)
        self._gateway_endpoints.append(endpoint)

    def _call(self, endpoint: RpcEndpoint, msg_type: str, body: dict):
        reply = yield endpoint.call(self.directory.host_name, msg_type, body)
        return reply

    def _call_event(self, endpoint: RpcEndpoint, msg_type: str, body: dict):
        return endpoint.call(self.directory.host_name, msg_type, body)
