"""Unit tests for the cluster scheduler, hosts and the Cluster facade."""

import pytest

from repro.cluster import Cluster, ClusterScheduler, SchedulingPolicy
from repro.cluster.placement import PlacementSpec
from repro.errors import PlacementError
from repro.sim import Simulator
from repro.sim.rng import RandomStreams


HOSTS = [f"h{i:02d}" for i in range(5)]


def test_scheduler_needs_hosts():
    with pytest.raises(PlacementError):
        ClusterScheduler([])


def _table1_assignment(spec):
    """The host-index assignment of a Table I placement, job by job."""
    return [spec.ps_host_of_job(j) for j in range(spec.n_jobs)]


def test_explicit_placement_maps_jobs_to_hosts():
    sched = ClusterScheduler(HOSTS)
    spec = PlacementSpec((2, 3))
    hosts = sched.ps_hosts_for_assignment(_table1_assignment(spec))
    assert hosts == ["h00", "h00", "h01", "h01", "h01"]
    assert sched.colocation_profile() == [2, 3]


def test_explicit_placement_too_many_groups():
    sched = ClusterScheduler(["a", "b"])
    with pytest.raises(PlacementError):
        sched.ps_hosts_for_assignment(
            _table1_assignment(PlacementSpec((1, 1, 1)))
        )


def test_default_policy_is_spread():
    sched = ClusterScheduler(HOSTS)
    assert sched.policy == SchedulingPolicy.SPREAD
    assert [sched.pick_ps_host() for _ in range(5)] == HOSTS


def test_random_policy_requires_rng():
    sched = ClusterScheduler(HOSTS, policy=SchedulingPolicy.RANDOM)
    with pytest.raises(PlacementError):
        sched.pick_ps_host()


def test_random_policy_is_deterministic_per_seed():
    a = ClusterScheduler(HOSTS, policy=SchedulingPolicy.RANDOM, rng=RandomStreams(5))
    b = ClusterScheduler(HOSTS, policy=SchedulingPolicy.RANDOM, rng=RandomStreams(5))
    assert [a.pick_ps_host() for _ in range(10)] == [b.pick_ps_host() for _ in range(10)]


def test_spread_policy_balances_total_load():
    sched = ClusterScheduler(HOSTS, policy=SchedulingPolicy.SPREAD)
    picks = [sched.pick_ps_host() for _ in range(5)]
    assert sorted(picks) == HOSTS  # one per host


def test_ps_aware_policy_minimizes_colocation():
    sched = ClusterScheduler(HOSTS, policy=SchedulingPolicy.PS_AWARE)
    # Workers inflate task_load but not ps_load
    sched.worker_hosts("h00", 4)
    picks = [sched.pick_ps_host() for _ in range(5)]
    assert sorted(picks) == HOSTS
    assert max(sched.ps_load.values()) == 1


def test_worker_hosts_excludes_ps_host():
    sched = ClusterScheduler(HOSTS)
    workers = sched.worker_hosts("h02", 4)
    assert "h02" not in workers
    assert len(workers) == 4


def test_worker_hosts_insufficient():
    sched = ClusterScheduler(["a", "b"])
    with pytest.raises(PlacementError):
        sched.worker_hosts("a", 2)


def test_release_job_restores_load():
    sched = ClusterScheduler(HOSTS, policy=SchedulingPolicy.PS_AWARE)
    ps = sched.pick_ps_host()
    workers = sched.worker_hosts(ps, 4)
    sched.release_job(ps, workers)
    assert all(v == 0 for v in sched.task_load.values())
    assert all(v == 0 for v in sched.ps_load.values())


# ---------------------------------------------------------------- Cluster


def test_cluster_builds_hosts_and_network():
    sim = Simulator()
    cluster = Cluster(sim, n_hosts=3)
    assert cluster.n_hosts == 3
    h = cluster.host("h00")
    assert h.nic is cluster.network.nic("h00")
    assert h.transport is cluster.network.transport("h00")
    assert h.cpu.cores == 12


def test_cluster_min_hosts():
    sim = Simulator()
    with pytest.raises(PlacementError):
        Cluster(sim, n_hosts=1)


def test_cluster_unknown_host():
    sim = Simulator()
    cluster = Cluster(sim, n_hosts=2)
    with pytest.raises(PlacementError):
        cluster.host("h99")


def test_host_port_allocation_unique():
    sim = Simulator()
    cluster = Cluster(sim, n_hosts=2)
    h = cluster.host("h00")
    ports = [h.allocate_port() for _ in range(10)]
    assert len(set(ports)) == 10
    assert min(ports) >= 2222


def test_host_task_registry():
    sim = Simulator()
    cluster = Cluster(sim, n_hosts=2)
    h = cluster.host("h00")
    task = object()
    h.add_task(task)
    assert h.tasks == [task]
    h.remove_task(task)
    assert h.tasks == []
    with pytest.raises(PlacementError):
        h.remove_task(task)


def test_colocation_profile_matches_table1_notation():
    sched = ClusterScheduler(HOSTS)
    sched.ps_hosts_for_assignment(_table1_assignment(PlacementSpec((2, 3))))
    assert sched.colocation_profile() == [2, 3]


def test_spread_policy_accounts_for_worker_load():
    sched = ClusterScheduler(HOSTS, policy=SchedulingPolicy.SPREAD)
    sched.worker_hosts("h04", 4)  # loads h00..h03
    assert sched.pick_ps_host() == "h04"  # the only unloaded host


def test_equal_load_ties_break_in_cluster_order_beyond_99_hosts():
    # "h100" < "h11" lexicographically; the tie-break must follow the
    # cluster's host order, not string sort, at any scale.
    many = [f"h{i}" for i in range(120)]
    sched = ClusterScheduler(many, policy=SchedulingPolicy.SPREAD)
    picks = [sched.pick_ps_host() for _ in range(120)]
    assert picks == many
    ring = ClusterScheduler(many).ring_hosts(115)
    assert ring == many[:115]


def test_ps_aware_ties_break_in_cluster_order():
    # Caller-declared host order is authoritative even when it is not
    # the sorted order.
    sched = ClusterScheduler(["b", "a", "c"], policy=SchedulingPolicy.PS_AWARE)
    assert [sched.pick_ps_host() for _ in range(3)] == ["b", "a", "c"]


def test_ps_hosts_for_assignment_maps_indices_and_accounts_load():
    sched = ClusterScheduler(HOSTS)
    hosts = sched.ps_hosts_for_assignment([0, 0, 3, 1])
    assert hosts == ["h00", "h00", "h03", "h01"]
    assert sched.colocation_profile() == [1, 1, 2]
    assert sched.task_load["h00"] == 2


def test_ps_hosts_for_assignment_rejects_bad_indices():
    sched = ClusterScheduler(HOSTS)
    with pytest.raises(PlacementError):
        sched.ps_hosts_for_assignment([0, 5])
    with pytest.raises(PlacementError):
        sched.ps_hosts_for_assignment([-1])
