"""Weakly Hadamard matrices and Laplacian diagonalizers built from the
parallel classes of the full point-line array.

A square {-1, 0, 1} matrix is weakly Hadamard when its columns can be
ordered so that non-consecutive columns are orthogonal; equivalently the
column non-orthogonality graph is a disjoint union of simple paths.  The
builder takes consecutive differences of line indicators across all
q + 1 slopes, giving q^2 integer eigenvectors of the Cayley graph that
assemble into such a matrix.  Their eigenvalues are a closed form in q
and m, certified by oa.verify_isomorphism, which pairs the graph with
its selection; no n x n product is formed.  build_whd is the one
certificate that reads the selection's full (q + 1)-row table, which
the Gram closed form and the unused-row eigenvalues rest on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .derived import derived
from .errors import BadEntries, MalformedFile, NotSquare
from .graphs import Graph
from .oa import SubarraySelection, verify_isomorphism


@dataclass
class WeakHadamardResult:
    ok: bool
    ordering: Optional[tuple[int, ...]] = None
    obstruction: Optional[tuple] = None  # ("degree", v) or ("cycle", (...))


def _as_matrix(matrix) -> np.ndarray:
    a = np.asarray(matrix, dtype=np.int64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSquare(f"shape {a.shape} is not square")
    bad = np.argwhere((a < -1) | (a > 1))
    if bad.size:
        i, j = map(int, bad[0])
        raise BadEntries(f"entry {int(a[i, j])} at ({i}, {j}) outside -1..1")
    return a


def nonorthogonality_edges(matrix: np.ndarray) -> list[tuple[int, int]]:
    """Column pairs (i, j), i < j, with a nonzero inner product, row-major.
    The Gram runs in float64 BLAS (numpy has none for integers), exactly:
    entries in {-1, 0, 1} bound every partial sum by the row count, << 2^53."""
    a = matrix.astype(np.float64)
    i, j = np.nonzero(np.triu(a.T @ a, 1))
    return list(zip(i.tolist(), j.tolist()))


def is_weakly_hadamard(matrix) -> WeakHadamardResult:
    """Decide the path-union condition and produce an ordering or an
    obstruction (a column of non-orthogonality degree 3, or a cycle).

    With degrees at most 2, one walk from each path's least end lists
    the paths by that end; a column left unwalked lies on a cycle, and
    the obstruction is the cycle through the least one.
    """
    a = _as_matrix(matrix)
    n = a.shape[1]
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for i, j in nonorthogonality_edges(a):
        nbrs[i].append(j)
        nbrs[j].append(i)
    for v in range(n):
        if len(nbrs[v]) > 2:
            return WeakHadamardResult(False, obstruction=("degree", v))

    seen = [False] * n

    def walk(v: Optional[int]) -> list[int]:
        out = []
        while v is not None:
            seen[v] = True
            out.append(v)
            v = next((w for w in nbrs[v] if not seen[w]), None)
        return out

    ordering: list[int] = []
    for end in range(n):
        if len(nbrs[end]) < 2 and not seen[end]:
            ordering += walk(end)
    if len(ordering) < n:
        cycle = tuple(sorted(walk(seen.index(False))))
        return WeakHadamardResult(False, obstruction=("cycle", cycle))
    return WeakHadamardResult(True, ordering=tuple(ordering))


def check_ordering(matrix, ordering: Sequence[int]) -> bool:
    """True iff non-consecutive columns (under the ordering) are
    orthogonal: every pair of nonorthogonality_edges sits at adjacent
    positions."""
    a = _as_matrix(matrix)
    n = a.shape[1]
    if sorted(ordering) != list(range(n)):
        raise ValueError(f"ordering is not a permutation of the {n} columns")
    pos = {c: i for i, c in enumerate(ordering)}
    return all(abs(pos[i] - pos[j]) == 1 for i, j in nonorthogonality_edges(a))


def _whd_matrix(cert: WhdCertificate) -> np.ndarray:
    """P, n x n int8: the ones column, then per row r of the symbol table
    the q - 1 differences chi_(r, s) - chi_(r, s + 1) of its lines."""
    symbol = cert.symbol
    q, n = symbol.shape[0] - 1, symbol.shape[1]
    P = np.ones((n, n), dtype=np.int8)
    for r, row in enumerate(symbol):  # one slope at a time: a q x n indicator
        ind = (row == np.arange(q)[:, None]).view(np.int8)
        P[:, 1 + r * (q - 1):1 + (r + 1) * (q - 1)] = (ind[:-1] - ind[1:]).T
    return P


@dataclass
class WhdCertificate:
    """Weakly Hadamard P with L P = P D for the Laplacian of the graph.

    symbol is the selection's read-only full (q + 1) x n symbol table,
    which fixes P.  matrix, P, is derived from it on first read: column 0 is
    all ones, the rest are consecutive line-indicator differences, slope
    by slope (field slopes ascending, infinity last).  diagonal records,
    per column, the exact eigenvalue under the Laplacian L = k I - A.
    build_whd certifies every column an eigenvector of A, hence L P = P
    D; P^T P is a closed form that gives full rank and certifies the
    natural column order admissible.  P holds int8 entries (n^2 bytes,
    43 MB at q = 81), built only when read; cast it to a wider type
    before any product, or the sums wrap.  == compares the diagonal and
    the used slopes, not the arrays.
    """
    symbol: np.ndarray = field(compare=False)
    diagonal: tuple[int, ...]
    used_slopes: tuple[int, ...]
    matrix: np.ndarray = derived(_whd_matrix, compare=False)


def build_whd(x: Graph, sel: SubarraySelection) -> WhdCertificate:
    """Assemble and certify the diagonalizer for a Peisert-type graph.

    The columns after the ones column are differences of consecutive
    line indicators, read off the symbol table row by row (field slopes
    ascending, infinity last).  verify_isomorphism pairs x with sel,
    which makes the graph regular of valency k = m (q - 1) and, from the
    kept rows, every used-slope difference column an eigenvector of A at
    q - m.  The table is read from SubarraySelection.symbol, which builds
    and certifies the full table on its first read: every row additive
    and every nonzero vertex at 0 in exactly one row.  That makes the
    other columns eigenvectors at -m, so L P = P D for L = k I - A.
    P^T P = n (+) (q + 1) copies of q tridiag(-1, 2, -1) is fixed by
    three certified facts: the full array has strength 2 (lines of
    different slopes meet once), the column -> vertex map is a bijection
    (each line has q vertices), and each row partitions the plane (lines
    of one slope are disjoint).  A tridiagonal Gram matrix makes the
    natural ordering admissible (entries are in {-1, 0, 1} by
    construction), and a nonsingular one gives full rank.
    """
    verify_isomorphism(x, sel)
    q, m = sel.q, sel.m
    k = m * (q - 1)
    thetas = [q - m if r in sel.row_positions else -m for r in range(q + 1)]
    diagonal = (0,) + tuple(k - t for t in thetas for _ in range(q - 1))
    used = tuple(sel.ctx.subfield_elements()[r] for r in sel.row_positions)
    return WhdCertificate(sel.symbol, diagonal, used)


def whd_to_csv(cert: WhdCertificate) -> str:
    """First line the Laplacian diagonal, then the matrix rows, each row
    joined from the strings of its entries -1, 0, 1."""
    text = np.array(["-1", "0", "1"], dtype=object)
    lines = [",".join(str(d) for d in cert.diagonal)]
    lines.extend(",".join(text[row + 1].tolist()) for row in cert.matrix)
    return "\n".join(lines) + "\n"


def whd_from_csv(text: str) -> tuple[np.ndarray, tuple[int, ...]]:
    rows = [line.split(",") for line in text.strip().splitlines()]
    if len(rows) < 2:
        raise MalformedFile("need a diagonal line and at least one matrix row")
    diag = tuple(int(e) for e in rows[0])
    mat = np.array([[int(e) for e in row] for row in rows[1:]], dtype=np.int64)
    if mat.shape[1] != len(diag):
        raise MalformedFile(f"{len(diag)} diagonal entries for {mat.shape[1]} columns")
    return mat, diag
