"""Unit tests for Table I placement specs."""

import pytest
from hypothesis import given, strategies as st

from repro.cluster.placement import (
    TABLE1_PLACEMENTS,
    PlacementSpec,
    placement_by_index,
)
from repro.errors import PlacementError


def test_table1_has_eight_placements_summing_to_21():
    assert sorted(TABLE1_PLACEMENTS) == list(range(1, 9))
    for groups in TABLE1_PLACEMENTS.values():
        assert sum(groups) == 21


def test_table1_exact_groups():
    assert TABLE1_PLACEMENTS[1] == (21,)
    assert TABLE1_PLACEMENTS[2] == (5, 16)
    assert TABLE1_PLACEMENTS[3] == (10, 11)
    assert TABLE1_PLACEMENTS[4] == (7, 7, 7)
    assert TABLE1_PLACEMENTS[5] == (5, 5, 5, 6)
    assert TABLE1_PLACEMENTS[6] == (4, 4, 4, 4, 5)
    assert TABLE1_PLACEMENTS[7] == (3,) * 7
    assert TABLE1_PLACEMENTS[8] == (1,) * 21


def test_placement_validation():
    with pytest.raises(PlacementError):
        PlacementSpec(())
    with pytest.raises(PlacementError):
        PlacementSpec((3, 0))


def test_placement_properties():
    spec = PlacementSpec((5, 16))
    assert spec.n_jobs == 21
    assert spec.n_ps_hosts == 2
    assert spec.max_colocation == 16


def test_ps_host_of_job():
    spec = PlacementSpec((2, 3))
    assert [spec.ps_host_of_job(j) for j in range(5)] == [0, 0, 1, 1, 1]
    with pytest.raises(PlacementError):
        spec.ps_host_of_job(5)
    with pytest.raises(PlacementError):
        spec.ps_host_of_job(-1)


def test_describe():
    assert PlacementSpec((5, 16)).describe() == "5, 16"
    assert "1, ..., 1" in PlacementSpec((1,) * 21).describe()


def test_placement_by_index_default_scale():
    for idx in range(1, 9):
        spec = placement_by_index(idx)
        assert spec.groups == TABLE1_PLACEMENTS[idx]


def test_placement_by_index_unknown():
    with pytest.raises(PlacementError):
        placement_by_index(9)


def test_placement_by_index_rescaled():
    spec = placement_by_index(1, n_jobs=6)
    assert spec.groups == (6,)
    spec = placement_by_index(8, n_jobs=6)
    assert spec.groups == (1,) * 6
    spec = placement_by_index(4, n_jobs=7)  # 3 groups
    assert sum(spec.groups) == 7
    assert len(spec.groups) == 3


def test_placement_rescale_too_small():
    with pytest.raises(PlacementError):
        placement_by_index(7, n_jobs=3)  # 7 groups cannot hold 3 jobs


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=7, max_value=40))
def test_property_rescaled_placement_is_consistent(index, n_jobs):
    spec = placement_by_index(index, n_jobs=n_jobs)
    assert spec.n_jobs == n_jobs
    # every job maps to the host whose group holds its index
    for j in range(n_jobs):
        h = spec.ps_host_of_job(j)
        start = sum(spec.groups[:h])
        assert start <= j < start + spec.groups[h]
    # shape preserved: same group count as Table I (for scalable indexes)
    if index not in (1, 8):
        assert len(spec.groups) == len(TABLE1_PLACEMENTS[index])
