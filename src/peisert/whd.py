"""Weakly Hadamard matrices and Laplacian diagonalizers built from the
parallel classes of the full point-line array.

A square {-1, 0, 1} matrix is weakly Hadamard when its columns can be
ordered so that non-consecutive columns are orthogonal; equivalently the
column non-orthogonality graph is a disjoint union of simple paths.  The
builder takes consecutive differences of line indicators across all
q + 1 slopes, giving q^2 integer eigenvectors of the Cayley graph that
assemble into such a matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import BadEntries, CertificationFailed, MalformedFile, NotSquare
from .graphs import Graph, dense_adjacency, srg_certify
from .oa import SubarraySelection


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
    gram = matrix.T @ matrix
    n = gram.shape[0]
    return [(i, j) for i in range(n) for j in range(i + 1, n) if gram[i, j] != 0]


def is_weakly_hadamard(matrix) -> WeakHadamardResult:
    """Decide the path-union condition and produce an ordering or an
    obstruction (a column of non-orthogonality degree 3, or a cycle)."""
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
    ordering: list[int] = []
    for start in range(n):
        if seen[start]:
            continue
        comp = [start]
        seen[start] = True
        queue = [start]
        while queue:
            v = queue.pop()
            for w in nbrs[v]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    queue.append(w)
        ends = [v for v in comp if len(nbrs[v]) <= 1]
        if not ends:
            return WeakHadamardResult(False, obstruction=("cycle", tuple(sorted(comp))))
        # walk the path from its least endpoint
        cur = min(ends)
        prev = -1
        walk = [cur]
        while True:
            nxt = [w for w in nbrs[cur] if w != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            walk.append(cur)
        assert len(walk) == len(comp), "component is not a single path"
        ordering.extend(walk)
    return WeakHadamardResult(True, ordering=tuple(ordering))


def check_ordering(matrix, ordering: Sequence[int]) -> bool:
    """True iff non-consecutive columns (under the ordering) are orthogonal."""
    a = _as_matrix(matrix)
    gram = a.T @ a
    n = a.shape[1]
    assert sorted(ordering) == list(range(n))
    pos = {c: i for i, c in enumerate(ordering)}
    for i in range(n):
        for j in range(i + 1, n):
            if gram[i, j] != 0 and abs(pos[i] - pos[j]) != 1:
                return False
    return True


@dataclass
class WhdCertificate:
    """Weakly Hadamard P with L P = P D for the Laplacian of the graph.

    Column 0 is all ones; the rest are consecutive line-indicator
    differences, slope by slope (field slopes ascending, infinity last).
    adjacency_eigenvalue and diagonal record, per column, the exact
    eigenvalue under A and under L = k I - A.  build_whd certifies
    A P = P diag(adjacency_eigenvalue) and the closed-form Gram matrix
    P^T P; together they give L P = P D, full rank, and the admissible
    natural ordering.
    """
    matrix: np.ndarray
    ordering: tuple[int, ...]
    adjacency_eigenvalue: tuple[int, ...]
    diagonal: tuple[int, ...]
    used_slopes: tuple[int, ...]


def build_whd(x: Graph, sel: SubarraySelection) -> WhdCertificate:
    """Assemble and certify the diagonalizer for a Peisert-type graph.

    The columns after the ones column are differences of consecutive
    line indicators, read off the selection's line table row by row
    (field slopes ascending, infinity last).  Two exact checks make the certificate.  First, A P = P Lambda: every
    column is an eigenvector of A (k on the ones column, q - m on the m
    used slopes, -m on the rest), and with L = k I - A this is L P = P D.
    Second, P^T P equals n (+) (q + 1) copies of q tridiag(-1, 2, -1):
    lines of one slope are disjoint and lines of different slopes meet
    once.  A tridiagonal Gram matrix makes the natural ordering admissible
    (the matrix is weakly Hadamard, entries being in {-1, 0, 1} by
    construction), and a nonsingular one gives full rank.
    """
    q = sel.q
    m = sel.m
    n = x.n
    params = x.srg if x.srg is not None else srg_certify(x)
    k = params.k
    if n != q * q or k != m * (q - 1):
        raise CertificationFailed(f"graph (n, k) = ({n}, {k}) is not of type ({m}, {q})")

    used = set(sel.slope_of_coset.values())
    ind = np.zeros((q + 1, q, n), dtype=np.int8)  # slope row, intercept, vertex
    np.put_along_axis(ind, np.array(sel.lines), 1, axis=2)
    diffs = (ind[:, :-1] - ind[:, 1:]).reshape((q + 1) * (q - 1), n)
    P = np.concatenate([np.ones((n, 1), dtype=np.int64), diffs.T], axis=1)
    eigs = [k] + [q - m if s in used else -m
                  for s in sel.parent.row_labels for _ in range(q - 1)]

    eig = np.array(eigs, dtype=np.int64)
    if not np.array_equal(dense_adjacency(x) @ P, P * eig[None, :]):
        raise CertificationFailed("a column fails its adjacency eigenvalue")

    # tridiag(-1, 2, -1) of order q - 1 has determinant q, so the closed
    # form is nonsingular
    path = 2 * np.eye(q - 1, dtype=np.int64) - np.eye(q - 1, k=1, dtype=np.int64) \
        - np.eye(q - 1, k=-1, dtype=np.int64)
    gram = np.zeros((n, n), dtype=np.int64)
    gram[0, 0] = n
    gram[1:, 1:] = np.kron(np.eye(q + 1, dtype=np.int64), q * path)
    if not np.array_equal(P.T @ P, gram):
        raise CertificationFailed("P^T P differs from n (+) (q + 1) copies of q tridiag(-1, 2, -1)")

    return WhdCertificate(P, tuple(range(n)), tuple(int(e) for e in eigs),
                          tuple(int(k - e) for e in eigs), tuple(sorted(used)))


def whd_to_csv(cert: WhdCertificate) -> str:
    """First line the Laplacian diagonal, then the matrix rows."""
    lines = [",".join(str(d) for d in cert.diagonal)]
    for row in cert.matrix:
        lines.append(",".join(str(int(e)) for e in row))
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
