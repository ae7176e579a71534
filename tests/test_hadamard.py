"""Weakly Hadamard recognition and Laplacian diagonalization certificates.

The recognizer is checked against an all-orderings oracle on every
matrix small enough to brute force.
"""

import random
from itertools import permutations

import numpy as np
import pytest

from peisert import (
    build_cayley,
    build_whd,
    check_ordering,
    create,
    is_weakly_hadamard,
    run_sweep,
    srg_certify,
    subarray_for_connection_set,
    whd_from_csv,
    whd_to_csv,
)
from peisert.errors import BadEntries, NotSquare
from peisert.whd import nonorthogonality_edges
from test_ekr import (
    eigenfunction_check,
    indicator,
    line_oracle,
    q19_to_25_graphs,
    run_optimized,
    slopes,
)


def brute_weakly_hadamard(matrix) -> bool:
    """Try every column ordering; non-consecutive pairs must be orthogonal."""
    a = np.asarray(matrix, dtype=np.int64)
    gram = a.T @ a
    n = a.shape[1]
    for perm in permutations(range(n)):
        if all(gram[perm[i], perm[j]] == 0
               for i in range(n) for j in range(i + 2, n)):
            return True
    return False


def build_cert(q, idx, modulus=None):
    p, r = {3: (3, 1), 5: (5, 1), 7: (7, 1), 9: (3, 2)}[q]
    ctx = create(p, 2 * r, modulus)
    x = build_cayley(ctx, idx)
    srg_certify(x)
    sel = subarray_for_connection_set(ctx, idx)
    return ctx, x, build_whd(x, sel)


# ----- recognizer vs oracle ----------------------------------------------------

def test_recognizer_structured_cases():
    assert is_weakly_hadamard(np.eye(4, dtype=int)).ok
    assert is_weakly_hadamard([[1, 1], [1, 1]]).ok  # single edge is a path
    tri = is_weakly_hadamard([[1, 1, 0, 0], [1, 0, 1, 0],
                              [0, 1, 1, 0], [0, 0, 0, 1]])
    assert not tri.ok and tri.obstruction[0] == "cycle"
    deg = is_weakly_hadamard([[1, 1, 1, 1], [0, 1, 0, 0],
                              [0, 0, 1, 0], [0, 0, 0, 1]])
    assert not deg.ok and deg.obstruction == ("degree", 0)


def test_recognizer_path_with_isolated_column():
    m = [[1, 0, 0, 0],
         [1, 1, 0, 0],
         [0, 1, 1, 0],
         [0, 0, 1, 0]]
    res = is_weakly_hadamard(m)
    assert res.ok
    assert check_ordering(m, res.ordering)
    assert brute_weakly_hadamard(m)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_recognizer_matches_brute_force(n):
    rng = random.Random(400 + n)
    agree_ok = agree_bad = 0
    for _ in range(60):
        m = [[rng.choice([-1, 0, 0, 0, 1]) for _ in range(n)] for _ in range(n)]
        res = is_weakly_hadamard(m)
        assert res.ok == brute_weakly_hadamard(m)
        if res.ok:
            agree_ok += 1
            assert check_ordering(m, res.ordering)
        else:
            agree_bad += 1
            assert res.obstruction is not None
    # the sample must exercise both outcomes to mean anything
    assert agree_ok > 0 and agree_bad > 0


def admissible(matrix, ordering) -> bool:
    """The definition: columns at non-consecutive positions are orthogonal."""
    a = np.asarray(matrix, dtype=np.int64)
    gram = a.T @ a
    return all(gram[ordering[i], ordering[j]] == 0
               for i in range(len(ordering)) for j in range(i + 2, len(ordering)))


def component_matrix(rng, shape):
    """A square {-1, 0, 1} matrix whose nonorthogonality graph is the
    disjoint union of the given ("path", k) and ("cycle", k) components,
    on shuffled columns; returns it and each component's columns.  Each
    edge is a row with two random signs; rows with one nonzero pad it."""
    n = sum(k for _, k in shape)
    labels = rng.sample(range(n), n)
    rows, comps = [], []
    for kind, k in shape:
        cols, labels = labels[:k], labels[k:]
        comps.append((kind, cols))
        for i, j in list(zip(cols, cols[1:])) + [(cols[-1], cols[0])] * (kind == "cycle"):
            row = [0] * n
            row[i], row[j] = rng.choice((-1, 1)), rng.choice((-1, 1))
            rows.append(row)
    while len(rows) < n:
        row = [0] * n
        row[rng.randrange(n)] = rng.choice((-1, 1))
        rows.append(row)
    rng.shuffle(rows)
    return rows, comps


def random_shape(rng, n):
    """Random paths (k >= 1) and cycles (k >= 3) with n columns in all."""
    shape, left = [], n
    while left:
        kind = rng.choice(("path", "cycle")) if left >= 3 else "path"
        k = rng.randint(3 if kind == "cycle" else 1, left)
        shape.append((kind, k))
        left -= k
    return shape


@pytest.mark.parametrize("n", [6, 7, 12])
def test_single_walk_matches_all_orderings_oracle(n):
    """Several paths and cycles per matrix: the recognizer agrees with the
    all-orderings oracle (n <= 7), its ordering and check_ordering agree
    with the definition, and a failing matrix's obstruction is the cycle
    component holding the least column on any cycle."""
    rng = random.Random(2700 + n)
    seen = set()
    for _ in range(40):
        m, comps = component_matrix(rng, random_shape(rng, n))
        res = is_weakly_hadamard(m)
        cycles = [sorted(cols) for kind, cols in comps if kind == "cycle"]
        assert res.ok == (not cycles)
        if n <= 7:
            assert res.ok == brute_weakly_hadamard(m)
        if res.ok:
            assert admissible(m, res.ordering) and check_ordering(m, res.ordering)
        else:
            assert res.obstruction == ("cycle", tuple(min(cycles)))
        for _ in range(5):
            perm = rng.sample(range(n), n)
            assert check_ordering(m, perm) == admissible(m, perm)
        seen.add((res.ok, min(len(comps), 2), min(len(cycles), 2)))
    # several components, passing and failing, and failures with two cycles
    assert {(True, 2, 0), (False, 2, 1), (False, 2, 2)} <= seen


def test_ordering_keeps_components_together():
    m = [[1, 1, 0, 0, 0],
         [1, 0, 0, 0, 0],
         [0, 0, 1, 1, 0],
         [0, 0, 1, 0, 0],
         [0, 0, 0, 0, 1]]
    res = is_weakly_hadamard(m)
    assert res.ok and check_ordering(m, res.ordering)
    assert set(nonorthogonality_edges(np.array(m))) == {(0, 1), (2, 3)}
    pos = {c: i for i, c in enumerate(res.ordering)}
    for comp in ({0, 1}, {2, 3}):
        places = sorted(pos[c] for c in comp)
        assert places[1] - places[0] == 1  # each path stays contiguous


def test_input_validation():
    with pytest.raises(NotSquare):
        is_weakly_hadamard([[1, 0, 0], [0, 1, 0]])
    with pytest.raises(BadEntries):
        is_weakly_hadamard([[2, 0], [0, 1]])


REPEATED_INDEX_SCRIPT = """
from peisert import check_ordering
print("debug", __debug__)
for ordering in ((0, 1, 2), (0, 1, 1), (0, 1)):
    try:
        print("accepted", check_ordering([[1, 0, 0], [0, 1, 0], [0, 0, 1]], ordering))
    except ValueError as e:
        print("rejected", e)
"""


def test_ordering_must_be_permutation_under_optimize():
    assert run_optimized(REPEATED_INDEX_SCRIPT) == [
        "accepted True",
        "rejected ordering is not a permutation of the 3 columns",
        "rejected ordering is not a permutation of the 3 columns",
    ]


# ----- graph certificates ------------------------------------------------------

def test_whd_p9_diagonal_frozen():
    ctx, x, cert = build_cert(3, (0, 2))
    assert sorted(cert.diagonal) == [0, 3, 3, 3, 3, 6, 6, 6, 6]
    assert cert.matrix.shape == (9, 9)
    assert set(np.unique(cert.matrix)) <= {-1, 0, 1}
    assert (cert.matrix[:, 0] == 1).all()


def test_whd_matrix_is_int8():
    # n^2 bytes; sums over a column of length n > 127 would wrap, so
    # products cast first
    ctx = create(13, 2)
    x = build_cayley(ctx, (0, 1))
    srg_certify(x)
    P = build_whd(x, subarray_for_connection_set(ctx, (0, 1))).matrix
    assert P.dtype == np.int8
    gram = P.astype(np.int64).T @ P.astype(np.int64)
    assert gram[0, 0] == x.n == 169
    assert (gram[0, 1:] == 0).all()


def test_whd_gp81_tally_frozen():
    ctx, x, cert = build_cert(9, (0, 1, 2, 3, 4), (-1, 0, 0, -1, 1))
    tally = {}
    for d in cert.diagonal:
        tally[d] = tally.get(d, 0) + 1
    assert tally == {0: 1, 36: 40, 45: 40}


@pytest.mark.parametrize("q,idx", [(3, (0, 1)), (3, (0, 1, 2)),
                                   (5, (0, 3)), (5, (0, 1, 2))])
def test_whd_diagonalizes_laplacian(q, idx):
    ctx, x, cert = build_cert(q, idx)
    n, m = x.n, len(idx)
    k = m * (q - 1)
    a = np.zeros((n, n), dtype=np.int64)
    for u in range(n):
        for v in range(n):
            if u != v and x.is_adjacent(u, v):
                a[u, v] = 1
    lap = k * np.eye(n, dtype=np.int64) - a
    assert np.array_equal(lap @ cert.matrix,
                          cert.matrix @ np.diag(np.array(cert.diagonal)))
    # multiplicity law: 1 zero, m(q-1) at k-(q-m), the rest at k+m
    tally = {}
    for d in cert.diagonal:
        tally[d] = tally.get(d, 0) + 1
    assert tally == {0: 1, k - (q - m): k, k + m: n - 1 - k}
    res = is_weakly_hadamard(cert.matrix)
    assert res.ok and check_ordering(cert.matrix, res.ordering)


def test_whd_columns_are_adjacency_eigenvectors():
    ctx, x, cert = build_cert(5, (0, 1, 3))
    q, m = 5, 3
    used = set(cert.used_slopes)
    # columns come in blocks of q-1 per slope, field slopes then infinity
    col = 1
    slopes = list(range(q)) + [None]
    for s in slopes:
        theta = (q - m) if s in used else -m
        for _ in range(q - 1):
            vec = [int(t) for t in cert.matrix[:, col]]
            assert eigenfunction_check(x, vec, theta)
            col += 1
    assert col == x.n


def test_whd_full_m_equals_q():
    # every field slope used; infinity still supplies unused differences
    ctx, x, cert = build_cert(3, (0, 1, 2))
    assert sorted(cert.used_slopes) == [0, 1, 2]
    tally = {}
    for d in cert.diagonal:
        tally[d] = tally.get(d, 0) + 1
    assert tally == {0: 1, 6: 6, 9: 2}  # k = 6, q - m = 0


def whd_matrix_oracle(sel):
    """P from the line indicators: the ones column, then per slope
    (field slopes ascending, infinity last) the differences of
    consecutive intercepts' lines, each line from field arithmetic."""
    ctx = sel.ctx
    cols = [np.ones(ctx.order, dtype=np.int64)]
    for slope in slopes(ctx):
        chi = [np.array(indicator(line_oracle(ctx, sel.alpha, slope, delta), ctx.order))
               for delta in ctx.subfield_elements()]
        cols.extend(a - b for a, b in zip(chi, chi[1:]))
    return np.column_stack(cols)


def test_whd_matrix_matches_line_indicator_oracle():
    # the survey graphs, the m = 2 graphs at q = 19, 23, 25 and the q = 25
    # subfield-5 graph
    pairs = [(r.selection, r.whd_cert) for r in run_sweep()]
    pairs += [(sel, build_whd(x, sel)) for x, sel in q19_to_25_graphs()]
    for sel, cert in pairs:
        assert "matrix" not in vars(cert)
        P = cert.matrix
        assert P.dtype == np.int8 and P is cert.matrix
        assert np.array_equal(P, whd_matrix_oracle(sel))


def test_whd_csv_round_trip():
    ctx, x, cert = build_cert(3, (0, 2))
    text = whd_to_csv(cert)
    mat, diag = whd_from_csv(text)
    assert np.array_equal(mat, cert.matrix)
    assert diag == tuple(cert.diagonal)
