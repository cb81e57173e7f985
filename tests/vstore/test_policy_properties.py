"""Property-based tests for store policies and placement estimates."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.monitoring import ResourceSnapshot
from repro.services import ComputeModel, Service, ServiceProfile
from repro.vstore import (
    ObjectMeta,
    Placement,
    PlacementTarget,
    StorePolicy,
    estimate_completion,
    size_rule,
    tag_rule,
    type_rule,
)
from repro.vstore.placement import PlacementEstimate, fold_estimates

metas = st.builds(
    ObjectMeta,
    name=st.sampled_from(
        ["a.mp3", "b.avi", "c.jpg", "d.zip", "e.doc", "plain"]
    ),
    size_mb=st.floats(min_value=0.0, max_value=200.0, allow_nan=False),
    tags=st.lists(st.sampled_from(["private", "shared", "media"]), max_size=2),
)

rule_specs = st.lists(
    st.one_of(
        st.tuples(
            st.just("size"),
            st.floats(min_value=0, max_value=100, allow_nan=False),
            st.floats(min_value=100.5, max_value=500, allow_nan=False),
        ),
        st.tuples(
            st.just("type"), st.sampled_from(["mp3", "avi", "jpg"]), st.none()
        ),
        st.tuples(
            st.just("tag"), st.sampled_from(["private", "shared"]), st.none()
        ),
    ),
    max_size=5,
)

TARGET_CYCLE = [
    Placement(PlacementTarget.LOCAL_MANDATORY),
    Placement(PlacementTarget.REMOTE_CLOUD),
    Placement(PlacementTarget.HOME_VOLUNTARY),
]


def build_policy(specs):
    rules = []
    predicates = []
    for i, (kind, a, b) in enumerate(specs):
        placement = TARGET_CYCLE[i % len(TARGET_CYCLE)]
        if kind == "size":
            rules.append(size_rule(placement, min_mb=a, max_mb=b))
            predicates.append(lambda m, a=a, b=b: a <= m.size_mb < b)
        elif kind == "type":
            rules.append(type_rule(placement, [a]))
            predicates.append(lambda m, a=a: m.object_type == a)
        else:
            rules.append(tag_rule(placement, a))
            predicates.append(lambda m, a=a: a in m.tags)
    return StorePolicy(rules), predicates


class TestPolicyProperties:
    @settings(max_examples=80, deadline=None)
    @given(rule_specs, metas)
    def test_first_match_semantics(self, specs, meta):
        policy, predicates = build_policy(specs)
        decision = policy.decide(meta)
        for i, predicate in enumerate(predicates):
            if predicate(meta):
                assert decision == TARGET_CYCLE[i % len(TARGET_CYCLE)]
                return
        assert decision == policy.default

    @settings(max_examples=80, deadline=None)
    @given(rule_specs, metas)
    def test_decide_is_deterministic(self, specs, meta):
        policy, _ = build_policy(specs)
        assert policy.decide(meta) == policy.decide(meta)

    @settings(max_examples=40, deadline=None)
    @given(metas)
    def test_empty_policy_uses_default(self, meta):
        remote = Placement(PlacementTarget.REMOTE_CLOUD)
        assert StorePolicy(default=remote).decide(meta) == remote


snapshots = st.builds(
    ResourceSnapshot,
    node=st.sampled_from(["n1", "n2", "owner"]),
    cpu_cores=st.integers(min_value=1, max_value=8),
    cpu_ghz=st.floats(min_value=0.5, max_value=4.0, allow_nan=False),
    cpu_load=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    mem_free_mb=st.floats(min_value=64.0, max_value=16384.0, allow_nan=False),
    bandwidth_mbps=st.floats(min_value=1.0, max_value=1000.0, allow_nan=False),
)


class TestEstimateProperties:
    def service(self):
        return Service(
            "svc",
            ComputeModel(cycles_per_mb=1e9, working_set_per_mb=50.0),
            profile=ServiceProfile(parallelism=4),
        )

    @settings(max_examples=60, deadline=None)
    @given(snapshots, st.floats(min_value=0.1, max_value=100.0))
    def test_estimates_are_positive_and_finite(self, snapshot, size_mb):
        est = estimate_completion(self.service(), size_mb, snapshot, "owner")
        assert est.total_s > 0
        assert est.total_s < float("inf")

    @settings(max_examples=60, deadline=None)
    @given(snapshots, st.floats(min_value=0.1, max_value=50.0))
    def test_local_execution_skips_movement(self, snapshot, size_mb):
        est = estimate_completion(
            self.service(), size_mb, snapshot, snapshot.node
        )
        assert est.move_s == 0.0
        assert est.locate_s == 0.0

    @settings(max_examples=60, deadline=None)
    @given(snapshots, st.floats(min_value=0.1, max_value=50.0))
    def test_bigger_inputs_never_estimate_faster(self, snapshot, size_mb):
        small = estimate_completion(self.service(), size_mb, snapshot, "owner")
        large = estimate_completion(
            self.service(), size_mb * 2, snapshot, "owner"
        )
        assert large.total_s >= small.total_s

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=0.1, max_value=50.0))
    def test_busier_node_never_estimates_faster(self, size_mb):
        idle = ResourceSnapshot(node="n", cpu_cores=4, cpu_ghz=2.0, cpu_load=0.0)
        busy = ResourceSnapshot(node="n", cpu_cores=4, cpu_ghz=2.0, cpu_load=0.9)
        t_idle = estimate_completion(self.service(), size_mb, idle, "n").total_s
        t_busy = estimate_completion(self.service(), size_mb, busy, "n").total_s
        assert t_busy >= t_idle


def test_fold_estimates_counts_movement_once_and_sums_work():
    detect = [
        PlacementEstimate("a", 0.05, 1.0, 2.0, 0.5),
        PlacementEstimate("b", 0.0, 0.0, 4.0, 0.0),
        PlacementEstimate("only-detect", 0.05, 0.1, 0.1, 0.0),
    ]
    recognize = [
        PlacementEstimate("b", 0.0, 0.0, 6.0, 1.0),
        PlacementEstimate("a", 0.05, 3.0, 1.0, 0.25),
    ]
    folded = fold_estimates([detect, recognize])
    # First-seen order; a node missing from any step does not qualify.
    assert folded == [
        PlacementEstimate("a", 0.05, 3.0, 3.0, 0.75),
        PlacementEstimate("b", 0.0, 0.0, 10.0, 1.0),
    ]
    assert fold_estimates([detect]) == detect
    assert detect[0] == PlacementEstimate("a", 0.05, 1.0, 2.0, 0.5)  # inputs untouched
