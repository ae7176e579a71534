"""Exact linear algebra on small integer and rational matrices.

Two tiers: plain Gaussian elimination over Fraction for small rank
questions, and vectorized elimination over a large prime field for
rank certificates on bigger integer matrices.  Full rank modulo a prime
implies full rank over the rationals (a nonzero minor survives), so the
modular pass alone certifies success; only a deficient modular result
needs the rational fallback before declaring failure.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

# large prime below 2**31 so int64 products of two residues cannot overflow
_RANK_PRIME = 2147483647


def rank_exact(matrix: Sequence[Sequence]) -> int:
    """Rank over the rationals by Fraction elimination."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        sel = None
        for i in range(rank, len(rows)):
            if rows[i][col] != 0:
                sel = i
                break
        if sel is None:
            continue
        rows[rank], rows[sel] = rows[sel], rows[rank]
        pr = rows[rank]
        inv = 1 / pr[col]
        for j in range(col, ncols):
            pr[j] *= inv
        for i in range(rank + 1, len(rows)):
            if rows[i][col] != 0:
                f = rows[i][col]
                ri = rows[i]
                for j in range(col, ncols):
                    ri[j] -= f * pr[j]
        rank += 1
        if rank == len(rows):
            break
    return rank


def rank_mod_prime(matrix: np.ndarray, prime: int = _RANK_PRIME) -> int:
    """Rank of an integer matrix over GF(prime), vectorized elimination."""
    a = np.array(matrix, dtype=np.int64) % prime
    nrows, ncols = a.shape
    rank = 0
    for col in range(ncols):
        if rank == nrows:
            break
        nz = np.nonzero(a[rank:, col])[0]
        if nz.size == 0:
            continue
        sel = rank + int(nz[0])
        if sel != rank:
            a[[rank, sel]] = a[[sel, rank]]
        inv = pow(int(a[rank, col]), prime - 2, prime)
        a[rank] = (a[rank] * inv) % prime
        below = a[rank + 1:]
        if below.size:
            f = below[:, col:col + 1]
            below -= f * a[rank][None, :]
            below %= prime
        rank += 1
    return rank


def certified_full_column_rank(matrix: np.ndarray) -> bool:
    """True iff the integer matrix has full column rank over the rationals.

    The modular pass is a sound success certificate; a deficient modular
    rank is re-decided exactly before answering False.
    """
    ncols = matrix.shape[1]
    if rank_mod_prime(matrix) == ncols:
        return True
    return rank_exact(matrix.tolist()) == ncols
