"""Unit tests for random streams."""

from repro.sim.rng import RandomStreams


def test_streams_are_deterministic_by_seed_and_name():
    a = RandomStreams(1).stream("x").random(5)
    b = RandomStreams(1).stream("x").random(5)
    assert (a == b).all()


def test_different_names_give_different_streams():
    rs = RandomStreams(1)
    a = rs.stream("x").random(5)
    b = rs.stream("y").random(5)
    assert not (a == b).all()


def test_different_seeds_give_different_streams():
    a = RandomStreams(1).stream("x").random(5)
    b = RandomStreams(2).stream("x").random(5)
    assert not (a == b).all()


def test_stream_is_cached():
    rs = RandomStreams(0)
    assert rs.stream("s") is rs.stream("s")


def test_adding_a_consumer_does_not_perturb_others():
    rs1 = RandomStreams(3)
    only = rs1.stream("main").random(4)

    rs2 = RandomStreams(3)
    rs2.stream("other").random(100)  # new consumer first
    with_other = rs2.stream("main").random(4)
    assert (only == with_other).all()


def test_lognormal_factor_sigma_zero_is_one():
    rs = RandomStreams(0)
    assert rs.lognormal_factor("j", 0.0) == 1.0


def test_lognormal_factor_positive():
    rs = RandomStreams(0)
    vals = [rs.lognormal_factor("j", 0.5) for _ in range(100)]
    assert all(v > 0 for v in vals)


def test_shuffle_returns_copy():
    rs = RandomStreams(0)
    items = [1, 2, 3, 4, 5]
    out = rs.shuffle("s", items)
    assert sorted(out) == items
    assert items == [1, 2, 3, 4, 5]


def test_uniform_bounds():
    rs = RandomStreams(0)
    for _ in range(50):
        v = rs.uniform("u", 2.0, 3.0)
        assert 2.0 <= v < 3.0
