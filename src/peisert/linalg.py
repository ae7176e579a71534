"""Exact full column rank of an integer matrix whose columns admit an
ordering in which non-consecutive columns are orthogonal.

rank P = rank P^T P over the rationals (P^T P x = 0 gives |P x|^2 = 0),
so P has full column rank iff its Gram G = P^T P is nonsingular.  Under
such an ordering G is tridiagonal, a direct sum of tridiagonal blocks
split where consecutive columns are orthogonal, and det G is the
three-term continuant of its diagonal and off-diagonal, computed over
exact Python ints with no division.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def certified_full_column_rank(matrix: np.ndarray, ordering: Sequence[int]) -> bool:
    """True iff the integer matrix has full column rank over the rationals.

    Hypothesis: ordering is admissible, that is, columns at
    non-consecutive positions are orthogonal (the ordering
    whd.is_weakly_hadamard returns, after checking that every entry is
    in {-1, 0, 1}, so each int64 dot product below is at most the row
    count and exact).  Then G, the Gram of the reordered
    columns, is tridiagonal with diagonal d_i = |column o_i|^2 and
    off-diagonal e_i = <column o_i, column o_(i+1)>; rank P = rank G,
    and reordering the columns keeps det G.  det G is the continuant
    f_k = d_k f_(k-1) - e_(k-1)^2 f_(k-2), f_0 = 1: 2n - 1 int64 dot
    products and n steps, each a big int times a small one.  Where
    e = 0 the recurrence is the product of the blocks' determinants, so
    one singular block makes det G = 0.
    """
    cols = np.asarray(matrix, dtype=np.int64).T[list(ordering)]
    d = np.einsum("ij,ij->i", cols, cols).tolist()
    e = np.einsum("ij,ij->i", cols[:-1], cols[1:]).tolist()
    before, det = 0, 1
    for dk, ek in zip(d, [0] + e):
        before, det = det, dk * det - ek * ek * before
    return det != 0
