import itertools

import numpy as np
import pytest

from hseom import (ABSENT, ResourceLimitError, awf_count, build_space,
                   hierarchy)


@pytest.mark.parametrize("K,n_max,expected", [
    (80, 3, 91881),
    (20, 3, 1771),
    (5, 3, 56),
    (5, 5, 252),
    (12, 5, 6188),
])
def test_published_counts(K, n_max, expected):
    assert awf_count(K, n_max) == expected


def test_count_matches_enumeration():
    for K, n_max in itertools.product(range(1, 13), range(0, 7)):
        assert build_space(K, n_max).num_indices == awf_count(K, n_max)


def test_order_is_graded():
    space = build_space(4, 3)
    assert np.all(np.diff(space.levels) >= 0)
    assert np.array_equal(space.indices[0], np.zeros(4, dtype=np.int16))
    assert np.array_equal(space.levels, space.indices.sum(axis=1))


def _positions(space):
    """Row of each index vector, built from the enumeration itself."""
    return {tuple(row.tolist()): m
            for m, row in enumerate(space.indices)}


def test_position_round_trip():
    space = build_space(5, 4)
    position = _positions(space)
    # every row is a distinct index vector
    assert len(position) == space.num_indices
    for m in range(space.num_indices):
        assert position[tuple(space.indices[m].tolist())] == m


def test_position_of_absent_vector():
    space = build_space(3, 2)
    assert (2, 1, 0) not in _positions(space)  # level 3 > N_max


def test_raise_lower_are_mutually_inverse():
    space = build_space(4, 3)
    for k in range(4):
        for m in range(space.num_indices):
            up = space.raise_table[k, m]
            if up != ABSENT:
                assert space.lower_table[k, up] == m
            down = space.lower_table[k, m]
            if down != ABSENT:
                assert space.raise_table[k, down] == m


def test_tables_agree_with_direct_arithmetic():
    space = build_space(5, 3)
    position = _positions(space)
    rng = np.random.default_rng(3)
    for m in rng.integers(0, space.num_indices, size=40):
        n = space.indices[m].copy()
        for k in range(5):
            up = n.copy()
            up[k] += 1
            expect = position[tuple(up.tolist())] if up.sum() <= 3 \
                else ABSENT
            assert space.raise_table[k, m] == expect
            if n[k] > 0:
                down = n.copy()
                down[k] -= 1
                assert space.lower_table[k, m] == position[
                    tuple(down.tolist())]
            else:
                assert space.lower_table[k, m] == ABSENT


def test_level_slice_partitions_everything():
    space = build_space(6, 4)
    seen = 0
    for level in range(5):
        block = space.level_slice(level)
        ns = space.indices[block]
        assert np.all(ns.sum(axis=1) == level)
        seen += ns.shape[0]
    assert seen == space.num_indices


def test_refuses_oversized_spaces(monkeypatch):
    monkeypatch.setattr(hierarchy, "MAX_INDICES", 100_000)
    with pytest.raises(ResourceLimitError) as err:
        build_space(80, 4)
    assert "1929501" in str(err.value)


def test_count_validates_arguments():
    with pytest.raises(ValueError):
        awf_count(0, 3)
    with pytest.raises(ValueError):
        awf_count(5, -1)
