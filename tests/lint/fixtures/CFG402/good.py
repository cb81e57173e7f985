# simlint-fixture-path: src/repro/cluster/builder.py
# simlint-fixture-expect:
from repro.resilience import BreakerRegistry, Repairer, ResilientCaller
from repro.storage import make_store


class Builder:
    def build(self, endpoint):
        # Direct guard.
        if self.config.resilience:
            caller = ResilientCaller(endpoint)
        # Tainted-local guard: res carries the flag's truth.
        res = self.config.resilience_tuning if self.config.resilience else None
        if res is not None:
            registry = BreakerRegistry(res)
        # Guard via a different accepted flag spelling on a ternary.
        store = make_store(endpoint) if self.config.storage != "mem" else None
        return caller, registry, store

    def wire_repairs(self, endpoint):
        if self.config.resilience:
            self._start_repairer(endpoint)

    def _start_repairer(self, endpoint):
        # Unguarded here, but every call site is guarded: fine.
        return Repairer(endpoint)
