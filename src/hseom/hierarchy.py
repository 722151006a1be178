"""Enumeration of the truncated hierarchy index space.

The hierarchy couples wave functions labeled by multi-indices
n = (n_0, ..., n_{K-1}) with n_k >= 0 and sum n_k <= N_max.  The right-hand
side needs three index moves: raise by e_k, lower by e_k, and the exchange
n - e_k + e_k'.  All of them are precomputed here as flat integer arrays so
the hot loop never touches a hash table; ABSENT (-1) marks moves that leave
the truncated space or hit n_k = 0.

Internally an index is handled as the sorted tuple of its nonzero labels
(each label k repeated n_k times), which keeps the position map small even
at K = 80: the tuples have at most N_max entries.
"""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np

from .errors import ResourceLimitError

__all__ = ["ABSENT", "MAX_INDICES", "HierarchySpace", "awf_count",
           "build_space", "capped_count"]

ABSENT = -1

# Refusal threshold for build_space, in number of stored indices.  The
# largest shipped preset needs 91881; this leaves ample headroom while
# refusing obviously runaway requests before allocation.
MAX_INDICES = 2_000_000


def awf_count(K: int, N_max: int) -> int:
    """binomial(K + N_max, N_max): the number of indices, without building them."""
    if K < 1:
        raise ValueError("K must be >= 1")
    if N_max < 0:
        raise ValueError("N_max must be >= 0")
    return math.comb(K + N_max, N_max)


def capped_count(K: int, N_max: int) -> int:
    """awf_count(K, N_max); raises ResourceLimitError above MAX_INDICES."""
    count = awf_count(K, N_max)
    if count > MAX_INDICES:
        raise ResourceLimitError(
            f"hierarchy would hold {count} indices, above the budget of "
            f"{MAX_INDICES}; lower K or N_max")
    return count


@dataclasses.dataclass(eq=False)
class HierarchySpace:
    """All valid multi-indices in graded lexicographic order plus move tables.

    Attributes
    ----------
    indices : int16 array [num_indices, K]
        Row i is the i-th index vector; row 0 is the zero vector.
    levels : int16 array [num_indices]
        sum_k n_k per row, non-decreasing.
    raise_table, lower_table : int32 arrays [K, num_indices]
        raise_table[k, i] is the position of indices[i] + e_k, or ABSENT if
        that would exceed N_max; lower_table[k, i] likewise for - e_k, ABSENT
        iff n_k = 0.
    """

    K: int
    N_max: int
    indices: np.ndarray
    levels: np.ndarray
    raise_table: np.ndarray
    lower_table: np.ndarray

    @property
    def num_indices(self) -> int:
        return self.indices.shape[0]

    def level_slice(self, level: int) -> slice:
        """Contiguous row range holding all indices of the given level."""
        lo = int(np.searchsorted(self.levels, level, side="left"))
        hi = int(np.searchsorted(self.levels, level, side="right"))
        return slice(lo, hi)


def build_space(K: int, N_max: int) -> HierarchySpace:
    """Enumerate the index space and precompute all neighbor tables.

    Indices are ordered by level, then lexicographically by the index
    vector, so index 0 is the zero vector and each level occupies a
    contiguous block.

    Raises
    ------
    ResourceLimitError
        If the count binomial(K + N_max, N_max) exceeds ``MAX_INDICES``.
    """
    count = capped_count(K, N_max)

    # combinations_with_replacement yields label multisets in ascending
    # label order; reversing each level block gives ascending lexicographic
    # order of the index vectors themselves.
    label_tuples = []
    for level in range(N_max + 1):
        block = list(itertools.combinations_with_replacement(range(K), level))
        block.reverse()
        label_tuples.extend(block)
    position = {labels: i for i, labels in enumerate(label_tuples)}

    indices = np.zeros((count, K), dtype=np.int16)
    levels = np.zeros(count, dtype=np.int16)
    for i, labels in enumerate(label_tuples):
        for k in labels:
            indices[i, k] += 1
        levels[i] = len(labels)

    raise_table = np.full((K, count), ABSENT, dtype=np.int32)
    lower_table = np.full((K, count), ABSENT, dtype=np.int32)
    for j, labels in enumerate(label_tuples):
        # Removing the first occurrence of each distinct label gives every
        # lower neighbor of j; the same pair read upward fills raise_table.
        for pos_in_tuple, k in enumerate(labels):
            if pos_in_tuple > 0 and labels[pos_in_tuple - 1] == k:
                continue
            reduced = labels[:pos_in_tuple] + labels[pos_in_tuple + 1:]
            i = position[reduced]
            lower_table[k, j] = i
            raise_table[k, i] = j

    return HierarchySpace(K=K, N_max=N_max, indices=indices, levels=levels,
                          raise_table=raise_table, lower_table=lower_table)
