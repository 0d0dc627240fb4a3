"""The job lifecycle both architectures share (``repro.dl.Application``).

Every case runs once on a parameter-server job and once on a ring
all-reduce job: launch, arrival delay, failure, and teardown are one
implementation, so they must behave the same on both.
"""

import pytest

from repro.cluster import Cluster
from repro.collectives import AllReduceApplication
from repro.dl import Application, DLApplication, JobSpec
from repro.dl.invariants import check_port_leaks
from repro.dl.model_zoo import ModelSpec
from repro.errors import PlacementError
from repro.net.link import Link
from repro.sim import Simulator

FAST_MODEL = ModelSpec("tiny", n_params=50_000, per_sample_compute=0.005,
                       ps_update_compute=0.0005)


def deploy(architecture, arrival=0.0):
    sim = Simulator(seed=1)
    cluster = Cluster(sim, n_hosts=4, link=Link(rate=1.25e9),
                      segment_bytes=64 * 1024)
    hosts = cluster.host_ids
    if architecture == "ps":
        spec = JobSpec("job", FAST_MODEL, n_workers=3, target_global_steps=9,
                       arrival_time=arrival)
        app = DLApplication(spec, cluster, hosts[0], hosts[1:])
    else:
        spec = JobSpec("job", FAST_MODEL, n_workers=4, target_global_steps=12,
                       arrival_time=arrival, architecture="allreduce")
        app = AllReduceApplication(spec, cluster, hosts, channels=2)
    return sim, cluster, app


ARCHITECTURES = pytest.mark.parametrize("architecture", ["ps", "allreduce"])


@ARCHITECTURES
def test_double_launch_rejected(architecture):
    _, _, app = deploy(architecture)
    assert isinstance(app, Application)
    app.launch()
    with pytest.raises(PlacementError, match="already launched"):
        app.launch()


@ARCHITECTURES
def test_arrival_time_delays_the_first_task_step(architecture):
    sim, cluster, app = deploy(architecture, arrival=5.0)
    app.launch()
    sim.run(until=4.999)
    assert app.metrics.local_steps == {}
    assert all(host.nic.bytes_tx == 0 for host in cluster.hosts.values())
    sim.run()
    assert app.metrics.start_time == 5.0
    assert app.metrics.finished


@ARCHITECTURES
def test_mark_failed_fires_terminal_but_not_done(architecture):
    _, _, app = deploy(architecture)
    app.mark_failed()
    assert app.failed
    assert app.terminal.fired and app.terminal.value is None
    assert not app.done.fired
    app.mark_failed()  # idempotent: terminal fires once


@ARCHITECTURES
def test_done_leaves_no_listener_task_or_process(architecture):
    sim, cluster, app = deploy(architecture)
    assert len(app.procs) == 0  # no process before launch
    app.launch()
    assert len(app.procs) == len(app.tasks)
    sim.run()
    assert app.done.fired and app.terminal.fired
    assert app.terminal.value is app.metrics
    assert not app.failed
    for host in cluster.hosts.values():
        assert host.transport._listeners == {}
        assert host.tasks == []
    assert not any(proc.alive for proc in app.procs)
    assert check_port_leaks(cluster, [app]) == []


@ARCHITECTURES
def test_port_leak_check_names_a_surviving_listener(architecture):
    sim, cluster, app = deploy(architecture)
    app.launch()
    sim.run()
    ep = app.tasks[-1].endpoint
    ep.host.transport.listen(ep.ports[-1], lambda msg: None)
    [(message, data)] = check_port_leaks(cluster, [app])
    assert data == {"job": "job", "host": ep.host_id, "ports": [ep.ports[-1]]}
    assert "teardown leaked" in message
