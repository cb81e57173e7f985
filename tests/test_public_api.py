"""Guards on the public API surface.

Keeps ``__all__`` honest across every subpackage and pins the entry
points that README.md and docs/API.md promise.
"""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.sim",
    "repro.net",
    "repro.virt",
    "repro.overlay",
    "repro.kvstore",
    "repro.monitoring",
    "repro.services",
    "repro.cloud",
    "repro.vstore",
    "repro.cluster",
    "repro.workloads",
    "repro.resilience",
    "repro.lint",
    "repro.telemetry",
    "repro.storage",
    "repro.load",
    "repro.parallel",
]


class TestAllExports:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_names_resolve(self, package):
        module = importlib.import_module(package)
        assert hasattr(module, "__all__"), f"{package} lacks __all__"
        for name in module.__all__:
            assert hasattr(module, name), f"{package}.{name} missing"

    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_has_no_duplicates(self, package):
        module = importlib.import_module(package)
        assert len(module.__all__) == len(set(module.__all__))

    @pytest.mark.parametrize("package", PACKAGES)
    def test_module_docstrings_present(self, package):
        module = importlib.import_module(package)
        assert module.__doc__ and len(module.__doc__.strip()) > 20


class TestDocumentedEntryPoints:
    def test_readme_quickstart_symbols(self):
        from repro import (  # noqa: F401
            Cloud4Home,
            ClusterConfig,
            DecisionPolicy,
            Placement,
            PlacementTarget,
            StorePolicy,
            size_rule,
            tag_rule,
            type_rule,
        )

    def test_api_doc_symbols(self):
        from repro.cluster import (  # noqa: F401
            ChaosSchedule,
            Federation,
            figure7_pair,
            large_home,
            minimal_pair,
            paper_testbed,
        )
        from repro.monitoring import chimera_get_decision  # noqa: F401
        from repro.overlay import (  # noqa: F401
            Stabilizer,
            ownership_map,
            ring_diagram,
            routing_summary,
        )
        from repro.workloads import summarize_accesses  # noqa: F401

    def test_version_is_pep440ish(self):
        import repro

        parts = repro.__version__.split(".")
        assert len(parts) >= 2
        assert all(p.isdigit() for p in parts[:2])

    def test_cli_module_runnable(self):
        import repro.__main__  # noqa: F401
        from repro.cli import COMMANDS, build_parser

        build_parser()
        assert set(COMMANDS) == {
            "demo",
            "topology",
            "trace",
            "surveillance",
            "overlay",
            "sweep",
            "report",
            "chaos",
            "slo",
            "lint",
            "load",
            "bench-help",
        }

    def test_public_docstrings_on_key_classes(self):
        from repro.cluster import Cloud4Home
        from repro.kvstore import DhtKeyValueStore
        from repro.overlay import ChimeraNode
        from repro.vstore import VStoreClient, VStoreNode

        for cls in (Cloud4Home, DhtKeyValueStore, ChimeraNode, VStoreNode, VStoreClient):
            assert cls.__doc__
            for name, member in vars(cls).items():
                if callable(member) and not name.startswith("_"):
                    assert member.__doc__, f"{cls.__name__}.{name} lacks a docstring"
