"""Ring all-reduce mechanics: traffic volume, barriers, determinism."""

import math

import pytest

from repro.cluster import Cluster
from repro.collectives import AllReduceApplication, RingEndpoint
from repro.dl import JobSpec
from repro.dl.model_zoo import ModelSpec, get_model
from repro.errors import PlacementError, WorkloadError
from repro.net.addressing import FlowKey
from repro.net.link import Link
from repro.sim import Simulator

FAST_MODEL = ModelSpec("tiny", n_params=50_000, per_sample_compute=0.005)


def ring_spec(n_members=4, iterations=3, model=FAST_MODEL, **kw):
    base = dict(
        job_id="ring0",
        model=model,
        n_workers=n_members,
        target_global_steps=iterations * n_members,
        arrival_time=0.0,
        compute_jitter_sigma=0.0,
        architecture="allreduce",
    )
    base.update(kw)
    return JobSpec(**base)


def deploy(spec, n_hosts=None, channels=1, seed=1, link_rate=1.25e9):
    sim = Simulator(seed=seed)
    cluster = Cluster(sim, n_hosts=n_hosts or spec.n_workers,
                      link=Link(rate=link_rate), segment_bytes=64 * 1024)
    app = AllReduceApplication(
        spec, cluster, cluster.host_ids[: spec.n_workers], channels=channels
    )
    return sim, cluster, app


# ---------------------------------------------------------------- spec


def test_spec_validation():
    with pytest.raises(WorkloadError):
        ring_spec(n_members=1)
    with pytest.raises(WorkloadError):
        ring_spec(n_ps=2)
    with pytest.raises(WorkloadError):
        ring_spec(sync=False)
    with pytest.raises(WorkloadError):
        JobSpec("x", FAST_MODEL, architecture="rpc")


def test_ring_chunk_bytes():
    spec = ring_spec(n_members=4, model=get_model("resnet32_cifar10"))
    assert spec.ring_chunk_bytes == math.ceil(spec.model.update_bytes / 4)
    half = ring_spec(n_members=4, model=get_model("resnet32_cifar10"),
                     compression_ratio=0.5)
    assert half.ring_chunk_bytes == math.ceil(spec.model.update_bytes / 8)


# ---------------------------------------------------------------- app wiring


def test_app_validation():
    sim = Simulator(seed=1)
    cluster = Cluster(sim, n_hosts=4)
    hosts = cluster.host_ids
    ps_spec = JobSpec("psjob", FAST_MODEL, n_workers=4,
                      target_global_steps=8)
    with pytest.raises(PlacementError):
        AllReduceApplication(ps_spec, cluster, hosts)  # architecture="ps"
    spec = ring_spec()
    with pytest.raises(PlacementError):
        AllReduceApplication(spec, cluster, hosts[:3])  # wrong ring size
    with pytest.raises(PlacementError):
        AllReduceApplication(spec, cluster, [hosts[0]] * 4)  # repeats
    with pytest.raises(PlacementError):
        AllReduceApplication(spec, cluster, hosts, channels=0)


def test_ring_order_is_placement_order():
    spec = ring_spec()
    sim, cluster, app = deploy(spec)
    assert app.member_hosts == cluster.host_ids[:4]
    for i, member in enumerate(app.members):
        assert member.successor is app.member_endpoints[(i + 1) % 4]
    assert app.ps_host_id == cluster.host_ids[0]  # the ring leader


def test_port_ranges_are_contiguous_and_distinct():
    spec = ring_spec()
    sim, cluster, app = deploy(spec, channels=3)
    for ep in app.member_endpoints:
        assert isinstance(ep, RingEndpoint)
        assert ep.n_channels == 3
        assert ep.ports == list(range(ep.port_lo, ep.port_hi + 1))
    ranges = app.classification_ranges()
    assert set(ranges) == set(app.member_hosts)
    assert all(hi - lo == 2 for [(lo, hi)] in ranges.values())


# ---------------------------------------------------------------- traffic


@pytest.mark.parametrize("n_members", [2, 3, 4, 5])
def test_per_member_traffic_volume(n_members):
    # The acceptance criterion: per iteration, every member's egress link
    # carries exactly 2*(N-1)/N * update_bytes.
    iterations = 3
    spec = ring_spec(n_members=n_members, iterations=iterations)
    sim, cluster, app = deploy(spec)
    app.launch()
    sim.run()
    expected_bytes = (
        iterations * 2 * (n_members - 1) * spec.ring_chunk_bytes
    )
    per_link = 2 * (n_members - 1) / n_members * spec.model.update_bytes
    for member in app.members:
        assert member.chunks_sent == iterations * 2 * (n_members - 1)
        assert member.bytes_sent == expected_bytes
        assert member.bytes_sent == pytest.approx(
            iterations * per_link, rel=1e-6, abs=n_members * iterations
        )


def test_channels_stripe_chunks_over_the_range():
    spec = ring_spec(n_members=3, iterations=2)
    sim, cluster, app = deploy(spec, channels=2)
    member = app.members[0]
    flows = [member._chunk_flow(step) for step in range(4)]
    sports = [f.src_port for f in flows]
    ep = member.endpoint
    assert sports == [ep.ports[0], ep.ports[1], ep.ports[0], ep.ports[1]]
    assert all(ep.port_lo <= p <= ep.port_hi for p in sports)
    app.launch()
    sim.run()
    assert app.metrics.finished


@pytest.mark.parametrize("channels", [1, 2, 3])
@pytest.mark.parametrize("n_members", [2, 3, 5])
def test_chunk_flow_table_matches_per_step_formula(n_members, channels):
    spec = ring_spec(n_members=n_members)
    sim, cluster, app = deploy(spec, channels=channels)
    for member in app.members:
        ep, succ = member.endpoint, member.successor
        for step in range(3 * channels):
            channel = step % ep.n_channels
            expected = FlowKey(
                ep.host_id, ep.ports[channel],
                succ.host_id, succ.ports[channel % succ.n_channels],
            )
            assert member._chunk_flow(step) == expected
            # every step of one channel shares one key object
            assert member._chunk_flow(step) is member._chunk_flow(channel)


def test_running_a_ring_builds_no_flow_keys(record_flow_keys):
    spec = ring_spec(n_members=3, iterations=2)
    sim, cluster, app = deploy(spec, channels=2)
    app.launch()
    built = record_flow_keys()
    sim.run()
    assert app.metrics.finished
    assert sum(m.chunks_sent for m in app.members) == 3 * 2 * 2 * 2
    assert built == []


# ---------------------------------------------------------------- metrics


def test_barrier_accounting_matches_ps_shape():
    iterations = 4
    spec = ring_spec(iterations=iterations)
    sim, cluster, app = deploy(spec)
    app.launch()
    sim.run()
    m = app.metrics
    assert m.finished
    assert m.iterations_done == iterations
    # every member records one wait per iteration -> all barriers complete,
    # exactly the shape the PS architecture's figures aggregate over
    assert m.barriers.complete_barriers() == list(range(iterations))
    assert m.barriers.per_barrier_mean().shape == (iterations,)
    assert (m.barriers.per_barrier_mean() >= 0).all()
    assert m.jct > 0
    assert m.global_steps == spec.target_global_steps


def test_run_is_deterministic():
    def one(seed):
        spec = ring_spec(iterations=3, compute_jitter_sigma=0.05)
        sim, cluster, app = deploy(spec, seed=seed)
        app.launch()
        sim.run()
        return app.metrics.jct

    assert one(7) == one(7)
    assert one(7) != one(8)


def test_ports_released_after_completion():
    spec = ring_spec(iterations=2)
    sim, cluster, app = deploy(spec)
    app.launch()
    sim.run()
    for ep in app.member_endpoints:
        for port in ep.ports:
            assert port not in ep.host.transport._listeners
