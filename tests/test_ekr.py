"""Canonical cliques, the clique module basis, decompositions, audits."""

import dataclasses
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path
from typing import Sequence

import numpy as np
import pytest

import peisert
from peisert import (
    EkrBasis,
    Graph,
    cli,
    ekr,
    build_cayley,
    build_counterexample,
    build_ekr_basis,
    build_whd,
    canonical_cliques,
    canonical_correspondence,
    create,
    decompose_clique,
    decompose_cliques,
    enumerate_max_cliques,
    run_sweep,
    srg_certify,
    strict_ekr_audit,
    subarray_for_connection_set,
    survey,
    unused_slope_coloring,
    verify_coloring,
    verify_isomorphism,
)
from peisert.errors import (
    CertificationFailed,
    CorrespondenceFailed,
    IndexOutOfRange,
    LengthMismatch,
    NotIsomorphicUnderF,
    NotMaximumClique,
    NotProperSubfield,
    OAVerificationFailed,
    ReducibleModulus,
    SearchTimeout,
    VerificationFailed,
)
from peisert.graphs import (_Deadline, _bits, _mask_of, _translates, color_classes, is_clique,
                            transversal_cliques)
from peisert.oa import INFINITY_SLOPE, _certify_kept, _certify_strength_two, _subfield_ranks

PINNED81 = (-1, 0, 0, -1, 1)


def solve_exact(columns, rhs):
    """Oracle: solve sum_j x_j * columns[j] = rhs exactly.

    Returns the coefficient list, or None when the system is inconsistent.
    Requires the columns to be linearly independent, which is asserted.
    """
    n = len(rhs)
    k = len(columns)
    for col in columns:
        assert len(col) == n
    rows = [[Fraction(columns[j][i]) for j in range(k)] + [Fraction(rhs[i])]
            for i in range(n)]

    pivot_row = 0
    pivots = []
    for col in range(k):
        sel = None
        for i in range(pivot_row, n):
            if rows[i][col] != 0:
                sel = i
                break
        if sel is None:
            continue
        rows[pivot_row], rows[sel] = rows[sel], rows[pivot_row]
        pr = rows[pivot_row]
        inv = 1 / pr[col]
        for j in range(col, k + 1):
            pr[j] *= inv
        for i in range(n):
            if i != pivot_row and rows[i][col] != 0:
                f = rows[i][col]
                ri = rows[i]
                for j in range(col, k + 1):
                    ri[j] -= f * pr[j]
        pivots.append(col)
        pivot_row += 1

    assert len(pivots) == k, "columns are linearly dependent"
    for i in range(pivot_row, n):
        if rows[i][k] != 0:
            return None
    sol = [Fraction(0)] * k
    for i, col in enumerate(pivots):
        sol[col] = rows[i][k]
    return sol


def line_oracle(ctx, alpha, slope, delta):
    """Sorted labels of the line {t + (slope*t + delta)*alpha} of AG(2, q)
    coordinatized by alpha, or {delta + t*alpha} at slope infinity."""
    sub = ctx.subfield_elements()
    if slope is INFINITY_SLOPE:
        pts = (ctx.add(delta, ctx.mul(t, alpha)) for t in sub)
    else:
        pts = (ctx.add(t, ctx.mul(ctx.add(ctx.mul(slope, t), delta), alpha)) for t in sub)
    return tuple(sorted(pts))


def lines_of(sel, r):
    """The q lines of row r of the symbol table, by symbol."""
    return [tuple(np.flatnonzero(sel.symbol[r] == s).tolist()) for s in range(sel.q)]


def slopes(ctx):
    """The slope of each row of the symbol table: the subfield labels
    ascending, then the row at infinity."""
    return list(ctx.subfield_elements()) + [INFINITY_SLOPE]


def assert_table_matches_oracle(ctx, sel):
    sub = ctx.subfield_elements()
    assert sel.symbol.shape == (len(sub) + 1, ctx.order)
    for r, slope in enumerate(slopes(ctx)):
        assert [line_oracle(ctx, sel.alpha, slope, delta) for delta in sub] == lines_of(sel, r)


def used_lines_oracle(sel):
    """The lines of the used rows, from field arithmetic."""
    return [line_oracle(sel.ctx, sel.alpha, slopes(sel.ctx)[r], delta)
            for r in sel.row_positions for delta in sel.ctx.subfield_elements()]


def correspondence_oracle(sel, table=None):
    """Every coset clique c_i * F_q + delta * alpha from field arithmetic
    (q x q cells per coset, one sorted row per delta), each checked
    against row sel.rows[j] of table (the selection's full table by
    default): a cell of q distinct vertices all at its symbol is the
    whole line.  Returns them by (coset, symbol); raises
    CorrespondenceFailed on the first cell that differs."""
    ctx = sel.ctx
    table = sel.symbol if table is None else table
    sub = np.array(ctx.subfield_elements(), dtype=np.int64)
    shifts = ctx.mul_array(sub, sel.alpha)[:, None]  # delta * alpha, one per symbol
    out = {}
    for coset, r in zip(sel.coset_indices, sel.rows):
        cells = np.sort(ctx.add_array(shifts, ctx.mul_array(sub, ctx.gen_pow(coset))), axis=1)
        bad = (table[r][cells] != np.arange(len(sub))[:, None]).any(axis=1)
        bad |= (np.diff(cells, axis=1) <= 0).any(axis=1)
        if bad.any():
            raise CorrespondenceFailed(f"row {ctx.subfield_elements()[r]} symbol "
                                       f"{np.flatnonzero(bad)[0]}: line and coset clique differ")
        out.update(((coset, sym), tuple(cell)) for sym, cell in enumerate(cells.tolist()))
    return out


def isomorphism_oracle(x, lines):
    """Edge-by-edge check of the block graph image, the union of cliques
    on the given used lines, against every row of x; returns the first
    witness message, or None when the image is x."""
    image = [0] * x.n
    for line in lines:
        mask = _mask_of(line)
        for z in line:
            image[z] |= mask
    for v in range(x.n):
        row = image[v] & ~(1 << v)
        if row != x.adj[v]:
            diff = row ^ x.adj[v]
            w = (diff & -diff).bit_length() - 1
            return f"pair ({v}, {w}) adjacent in exactly one of the graphs"
    return None


def assert_isomorphism_matches_oracle(x, sel, lines):
    want = isomorphism_oracle(x, lines)
    if want is None:
        assert verify_isomorphism(x, sel) == list(sel.vertex_of_column)
    else:
        with pytest.raises(NotIsomorphicUnderF, match=f"^{re.escape(want)}$"):
            verify_isomorphism(x, sel)


def assert_table_fault_refused(sel, r, fault):
    """A fault written into kept row r of the selection's table is refused
    three times over: the write raises, as the kept rows and the full
    table are read-only, and on a faulty copy both the kept-row
    certificate that built the selection and the strength-2 certificate
    of the full table name row r."""
    with pytest.raises(ValueError, match="read-only"):
        fault(sel.symbol)
    with pytest.raises(ValueError, match="read-only"):
        sel.kept[sel.kept_rows.index(r), 0] = 1
    bad = sel.symbol.copy()
    fault(bad)
    plus = _subfield_ranks(sel.ctx)[2]
    with pytest.raises(OAVerificationFailed, match=rf"^row {r} symbols are not additive: "):
        _certify_kept(sel.ctx.p, plus, bad[list(sel.kept_rows)], sel.kept_rows)
    with pytest.raises(OAVerificationFailed, match=rf"^row {r} symbols are not additive: "):
        _certify_strength_two(sel.ctx, plus, bad)
    return bad


def build(q, idx, modulus=None):
    p, r = {3: (3, 1), 5: (5, 1), 7: (7, 1), 9: (3, 2), 25: (5, 2)}[q]
    ctx = create(p, 2 * r, modulus)
    x = build_cayley(ctx, idx)
    srg_certify(x)
    sel = subarray_for_connection_set(ctx, idx)
    return ctx, x, sel


# ----- canonical cliques -------------------------------------------------------

def test_canonical_cliques_are_coset_translates():
    ctx, x, sel = build(3, (0, 2))
    cliques = canonical_cliques(sel)
    assert len(cliques) == 2 * 3  # m * q
    sub = ctx.subfield_elements()
    for c in cliques:
        rep = ctx.gen_pow(c.coset)
        # subtracting any member of the clique from all others lands in
        # the scaled subfield
        v0 = c.vertices[0]
        diffs = {ctx.sub(v, v0) for v in c.vertices}
        assert {ctx.div(d, rep) for d in diffs if d} <= set(sub)
        assert len(c.vertices) == 3

    # every line of the table, against field arithmetic; the canonical
    # cliques are the cells of the used rows
    for q, idx in [(3, (0, 2)), (5, (0, 1, 4)), (7, (0, 3)), (9, (0, 1, 2, 3, 4))]:
        ctx, x, sel = build(q, idx, PINNED81 if q == 9 else None)
        assert_table_matches_oracle(ctx, sel)
        slope_of = {i: slopes(ctx)[r] for i, r in zip(sel.coset_indices, sel.rows)}
        for c in canonical_cliques(sel):
            assert c.vertices == line_oracle(ctx, sel.alpha, slope_of[c.coset],
                                             ctx.subfield_elements()[c.intercept])

    # the same under every monic irreducible quadratic modulus
    for p, idx in [(3, (0, 1)), (5, (0, 2, 3))]:
        accepted = 0
        for c0, c1 in product(range(p), repeat=2):
            try:
                ctx = create(p, 2, (c0, c1, 1))
            except ReducibleModulus:
                continue
            accepted += 1
            sel = subarray_for_connection_set(ctx, idx)
            assert_table_matches_oracle(ctx, sel)
            assert len(canonical_correspondence(sel)) == len(idx) * p
        assert accepted == (p * p - p) // 2


def test_corrupted_line_table_rejected():
    """Two vertices' symbols swapped in a used row, once on the line
    through 0 and once both outside N(0) + {0}, where only additivity
    sees the swap: the selection's rows refuse both writes, and the
    kept-row and strength-2 certificates refuse both copies.  The
    field-arithmetic correspondence oracle refuses both copies on its
    own.  canonical_correspondence rests on the certified kept rows: it
    equals that oracle on the selection, and a copy forced past the
    certificate is refused by its 2 m q reads when a swapped vertex lies
    on the line through 0."""
    for near in (True, False):
        ctx, x, sel = build(5, (0, 1))
        r = sel.row_positions[0]
        row = sel.symbol[r]
        if near:
            a, b = int(np.flatnonzero(row == 0)[1]), int(np.flatnonzero(row == 1)[0])
        else:
            far = [v for v in range(1, x.n) if not x.is_adjacent(0, v)]
            a, b = next((a, b) for a, b in combinations(far, 2) if row[a] != row[b])

        def swap(table):
            table[r, [a, b]] = table[r, [b, a]]
        bad = assert_table_fault_refused(sel, r, swap)
        assert canonical_correspondence(sel) == correspondence_oracle(sel)
        with pytest.raises(CorrespondenceFailed, match=r"^row \d+ symbol \d+: line and coset"):
            correspondence_oracle(sel, bad)
        object.__setattr__(sel, "kept", bad[list(sel.kept_rows)])
        if near:
            with pytest.raises(CorrespondenceFailed, match=r"^row \d+ symbol 0: line and coset"):
                canonical_correspondence(sel)


def test_canonical_cliques_partition_per_coset():
    ctx, x, sel = build(5, (0, 1, 2))
    cliques = canonical_cliques(sel)
    assert len(cliques) == 15
    by_coset = {}
    for c in cliques:
        by_coset.setdefault(c.coset, []).append(c.vertices)
    for coset, group in by_coset.items():
        flat = [v for verts in group for v in verts]
        assert sorted(flat) == list(range(25))  # q parallel lines tile the plane


# ----- eigenfunctions ----------------------------------------------------------

def test_balanced_indicator_eigenvector():
    ctx, x, sel = build(3, (0, 2))
    q, m = 3, 2
    for c in canonical_cliques(sel):
        g = balanced_indicator(c.vertices, x.n)
        assert eigenfunction_check(x, g, q - m)
        chi = indicator(c.vertices, x.n)
        # q * balanced = scaled column q*chi - 1
        assert [q * b for b in g] == [q * a - 1 for a in chi]
        # indicator itself is not an eigenvector (J component)
        assert not eigenfunction_check(x, chi, q - m)


def test_class_sums_vanish():
    ctx, x, sel = build(5, (0, 2, 3))
    cliques = canonical_cliques(sel)
    by_coset = {}
    for c in cliques:
        by_coset.setdefault(c.coset, []).append(
            balanced_indicator(c.vertices, x.n))
    assert len(by_coset) == 3
    for group in by_coset.values():
        assert len(group) == 5
        total = [sum(col) for col in zip(*group)]
        assert all(t == 0 for t in total)


def test_eigenfunction_difference_identity():
    # f = chi_base - chi_other equals the scaled-vector difference / q
    ctx, x, sel = build(3, (0, 1))
    cliques = canonical_cliques(sel)
    q, m = 3, 2
    for coset in (0, 1):
        group = [c for c in cliques if c.coset == coset]
        base = group[0]
        sb = [q * a - 1 for a in indicator(base.vertices, x.n)]
        for other in group[1:]:
            f = [a - b for a, b in zip(indicator(base.vertices, x.n),
                                       indicator(other.vertices, x.n))]
            so = [q * a - 1 for a in indicator(other.vertices, x.n)]
            assert [Fraction(a - b, q) for a, b in zip(sb, so)] == f
            assert eigenfunction_check(x, f, q - m)


def test_eigenfunction_check_guards():
    ctx, x, sel = build(3, (0, 2))
    with pytest.raises(ValueError, match="eigenfunction check on the zero vector"):
        eigenfunction_check(x, [0] * 9, 1)


# ----- basis -------------------------------------------------------------------

@pytest.mark.parametrize("q,idx", [(3, (0, 2)), (3, (0, 1, 2)), (5, (0, 1, 4))])
def test_basis_shape_and_rank(q, idx):
    ctx, x, sel = build(q, idx)
    basis = build_ekr_basis(x, sel)
    m = len(idx)
    assert basis.q == q and basis.m == m
    assert basis.matrix.shape == (q * q, m * (q - 1))
    assert basis.rank == m * (q - 1)
    assert len(basis.all_cliques) == m * q
    assert len(basis.basis_cliques) == m * (q - 1)
    assert all(basis.base_vertex not in c.vertices for c in basis.basis_cliques)
    base = [c for c in basis.all_cliques if basis.base_vertex in c.vertices]
    assert sorted(c.coset for c in base) == sorted(set(idx))


def test_basis_gram_structure():
    ctx, x, sel = build(5, (0, 1, 2))
    basis = build_ekr_basis(x, sel)
    q = 5
    gram = basis.matrix.T @ basis.matrix
    block = q * q * (q * np.eye(q - 1, dtype=np.int64)
                     - np.ones((q - 1, q - 1), dtype=np.int64))
    for bi in range(3):
        for bj in range(3):
            sub = gram[bi * 4:(bi + 1) * 4, bj * 4:(bj + 1) * 4]
            if bi == bj:
                assert (sub == block).all()
            else:
                assert not sub.any()


# ----- decomposition -----------------------------------------------------------

def test_basis_clique_decomposes_to_unit_vector():
    ctx, x, sel = build(9, (0, 1, 2, 3, 4), PINNED81)
    basis = build_ekr_basis(x, sel)
    for j in (0, 7, 23):
        dec = decompose_clique(x, basis, basis.basis_cliques[j].vertices)
        assert dec.residual_zero
        assert dec.coefficients[j] == 1
        assert dec.zero_count == len(basis.basis_cliques) - 1


def test_base_clique_decomposes_to_class_sum():
    ctx, x, sel = build(9, (0, 1, 2, 3, 4), PINNED81)
    basis = build_ekr_basis(x, sel)
    base = next(c for c in basis.all_cliques if c.coset == 0 and basis.base_vertex in c.vertices)
    dec = decompose_clique(x, basis, base.vertices)
    assert dec.residual_zero
    assert dec.histogram == {Fraction(-1): 8, Fraction(0): 32}
    for cl, b in zip(basis.basis_cliques, dec.coefficients):
        assert b == (Fraction(-1) if cl.coset == 0 else Fraction(0))


def test_case_study_clique_decomposition():
    ctx, x, sel = build(9, (0, 1, 2, 3, 4), PINNED81)
    basis = build_ekr_basis(x, sel)
    # the span {c1*g + c2*g^10} as a vertex set
    c2 = tuple(sorted(ctx.add(ctx.mul(u, ctx.gen_pow(1)), ctx.mul(v, ctx.gen_pow(10)))
                      for u in (0, 1, 2) for v in (0, 1, 2)))
    dec = decompose_clique(x, basis, c2)
    assert dec.residual_zero
    assert dec.zero_count == 16
    assert dec.histogram == {Fraction(0): 16, Fraction(-1, 3): 24}
    # unbalanced lift sums to the plain indicator
    chi = indicator(c2, x.n)
    recon = [Fraction(0)] * x.n
    for cl, b in dec.unbalanced.items():
        verts = next(c.vertices for c in basis.all_cliques
                     if (c.coset, c.intercept) == cl)
        for v in verts:
            recon[v] += b
    assert recon == [Fraction(t) for t in chi]


def test_decomposition_matches_exact_elimination():
    # same coefficients from plain Fraction elimination over the basis
    ctx, x, sel = build(9, (0, 1, 2, 3, 4), PINNED81)
    basis = build_ekr_basis(x, sel)
    c2 = tuple(sorted(ctx.add(ctx.mul(u, ctx.gen_pow(1)), ctx.mul(v, ctx.gen_pow(10)))
                      for u in (0, 1, 2) for v in (0, 1, 2)))
    dec = decompose_clique(x, basis, c2)
    # matrix columns are q * balanced, so elimination yields coeffs / q
    cols = [[int(v) for v in basis.matrix[:, j]]
            for j in range(basis.matrix.shape[1])]
    sol = solve_exact(cols, balanced_indicator(c2, x.n))
    assert sol is not None
    assert [s * 9 for s in sol] == list(dec.coefficients)


def indicator(vertices: Sequence[int], n: int) -> list[int]:
    v = [0] * n
    for u in vertices:
        v[u] = 1
    return v


def balanced_indicator(vertices: Sequence[int], n: int) -> list[Fraction]:
    shift = Fraction(len(vertices), n)
    return [Fraction(1) - shift if u in set(vertices) else -shift for u in range(n)]


def eigenfunction_check(x: Graph, vec: Sequence, theta) -> bool:
    """Exact check that sum of vec over each neighborhood equals theta
    times the center value.  Zero vectors are rejected."""
    if len(vec) != x.n:
        raise LengthMismatch(f"vector length {len(vec)} != {x.n}")
    if all(c == 0 for c in vec):
        raise ValueError("eigenfunction check on the zero vector")
    for v in range(x.n):
        acc = 0
        nb = x.adj[v]
        while nb:
            low = nb & -nb
            acc += vec[low.bit_length() - 1]
            nb ^= low
        if acc != theta * vec[v]:
            return False
    return True


def clique_regularity(g: Graph, clique: Sequence[int]) -> bool:
    """Check every outside vertex sees exactly mu/m clique vertices.

    Only defined for Hoffman-tight cliques of a certified SRG with
    integral least eigenvalue -m; anything else raises ValueError.
    """
    params = srg_certify(g)
    if params.complete or params.mu is None:
        raise ValueError("complete graph has no Hoffman-tight cliques")
    m = -params.least_eigenvalue
    bound = params.hoffman_bound()
    if Fraction(len(clique)) != bound:
        raise ValueError(f"|C| = {len(clique)} but Hoffman bound is {bound}")
    expected = Fraction(params.mu, m)
    assert expected.denominator == 1, "mu/m must be integral at a tight clique"
    expected = int(expected)
    cmask = _mask_of(clique)
    for v in range(g.n):
        if (cmask >> v) & 1:
            continue
        if (g.adj[v] & cmask).bit_count() != expected:
            return False
    return True


def dense_projection(x, basis, clique):
    """Oracle: project w = q chi_C - 1 through the dense basis matrix.

    The Gram matrix inverts per class to (I + J) / q^3, so t = (I + J)
    B^T w per class; the residual B t - q^3 w is checked entrywise and
    the unbalanced lift vertex by vertex in Fractions.  Returns the
    coefficients, histogram and lift as decompose_clique builds them.
    """
    q, m = basis.q, basis.m
    cl = tuple(sorted(set(clique)))
    n = x.n
    w = np.full(n, -1, dtype=np.int64)
    w[list(cl)] = q - 1

    B = basis.matrix
    u = B.T @ w
    t = np.empty_like(u)
    width = q - 1
    for b in range(m):
        seg = u[b * width:(b + 1) * width]
        t[b * width:(b + 1) * width] = seg + seg.sum()
    assert np.array_equal(B @ t, q**3 * w), "projection residual is nonzero"

    q3 = q**3
    coeffs = [Fraction(int(tj), q3) for tj in t]

    hist = {}
    for c in coeffs:
        hist[c] = hist.get(c, 0) + 1

    total = sum(coeffs, Fraction(0))
    uniform = (1 - total) / (q * m)
    unbalanced = {(c.coset, c.intercept): uniform for c in basis.all_cliques}
    for cl_obj, b in zip(basis.basis_cliques, coeffs):
        unbalanced[(cl_obj.coset, cl_obj.intercept)] += b

    check = [Fraction(0)] * n
    for cl_obj in basis.all_cliques:
        coef = unbalanced[(cl_obj.coset, cl_obj.intercept)]
        if coef:
            for v in cl_obj.vertices:
                check[v] += coef
    viamask = set(cl)
    assert all(c == (1 if v in viamask else 0) for v, c in enumerate(check)), \
        "unbalanced lift mismatch"
    return coeffs, hist, unbalanced


def assert_same_decomposition(dec, other):
    """Equal in every field, with the histogram and lift in equal order."""
    assert dec == other
    assert list(dec.histogram.items()) == list(other.histogram.items())
    assert list(dec.unbalanced.items()) == list(other.unbalanced.items())


def assert_matches_dense_projection(x, basis, cliques, decs=None):
    """The batch decompositions (decs, or decompose_cliques on cliques)
    equal, in order, decompose_clique's on each clique and the oracle's
    coefficients, histogram and lift."""
    if decs is None:
        decs = decompose_cliques(x, basis, cliques)
    assert len(decs) == len(cliques)
    for c, dec in zip(cliques, decs):
        assert_same_decomposition(dec, decompose_clique(x, basis, c))
        coeffs, hist, unbalanced = dense_projection(x, basis, c)
        assert dec.residual_zero
        assert dec.coefficients == coeffs
        assert list(dec.histogram.items()) == list(hist.items())
        assert dec.zero_count == hist.get(Fraction(0), 0)
        assert list(dec.unbalanced.items()) == list(unbalanced.items())


def test_line_counts_match_dense_projection_on_survey_graphs():
    """analyze_graph decomposes the cliques through 0; the decompositions
    it lists on read are decompose_cliques on every audited clique, in
    order, with equal count tables, and agree with dense_projection."""
    reports = run_sweep()
    assert len(reports) == 37
    for r in reports:
        assert "decompositions" not in vars(r)
        through_0 = r.decompositions_through_0
        assert [d.clique for d in through_0] == list(r.audit.through_0)
        listed = r.decompositions
        assert [d.clique for d in listed] == r.audit.cliques
        want = decompose_cliques(r.graph, r.basis, r.audit.cliques)
        for dec, other in zip(listed, want, strict=True):
            assert_same_decomposition(dec, other)
            assert np.array_equal(dec.counts, other.counts)
        by_clique = {d.clique: d for d in listed}
        for dec in through_0:
            assert_same_decomposition(dec, by_clique[dec.clique])
            assert np.array_equal(dec.counts, by_clique[dec.clique].counts)
        assert_matches_dense_projection(r.graph, r.basis, r.audit.cliques, listed)


def q19_to_25_graphs():
    """The m = 2 graphs at q = 19, 23, 25 and the q = 25 subfield-5 graph,
    with their selections."""
    cases = [(q, (0, c)) for q, c in ((19, 3), (23, 11), (25, 7))]
    cases.append((25, build_counterexample(create(5, 4), 5).coset_indices))
    for q, idx in cases:
        x = build_cayley(survey.ambient_field(q), idx)
        yield x, subarray_for_connection_set(x.field, idx)


def test_batch_matches_per_clique_and_dense_projection_at_q19_to_25(monkeypatch):
    # one clique per chunk gives the same list as the default cap
    for x, sel in q19_to_25_graphs():
        basis = build_ekr_basis(x, sel)
        cliques = strict_ekr_audit(x, sel).cliques
        decs = decompose_cliques(x, basis, cliques)
        assert_matches_dense_projection(x, basis, cliques, decs)
        with monkeypatch.context() as patch:
            patch.setattr(ekr, "_GATHER_BYTES", 1)
            for dec, other in zip(decs, decompose_cliques(x, basis, cliques), strict=True):
                assert_same_decomposition(dec, other)


def bad_cliques(x, basis):
    """A clique of each kind a batch must refuse, with its error."""
    good = basis.basis_cliques[0].vertices
    far = next(v for v in range(x.n) if v != good[0] and not x.is_adjacent(good[0], v))
    return [(good[:-1], NotMaximumClique),  # q - 1 vertices
            (good[:-1] + (far,), NotMaximumClique),  # q vertices, not a clique
            (good[:-1] + (x.n,), IndexOutOfRange),
            (good[:-1] + (good[0],), NotMaximumClique)]  # a repeated vertex


@pytest.mark.parametrize("gather_bytes", [ekr._GATHER_BYTES, 1])
def test_batch_raises_the_per_clique_error_of_its_first_bad_clique(monkeypatch, gather_bytes):
    monkeypatch.setattr(ekr, "_GATHER_BYTES", gather_bytes)
    ctx, x, sel = build(9, (0, 1, 7, 8))
    basis = build_ekr_basis(x, sel)
    good = strict_ekr_audit(x, sel).cliques[:6]
    assert decompose_cliques(x, basis, []) == []
    bad = bad_cliques(x, basis)
    for clique, error in bad:
        with pytest.raises(error) as single:
            decompose_clique(x, basis, clique)
        for at in (0, 3, len(good)):
            with pytest.raises(error) as batch:
                decompose_cliques(x, basis, good[:at] + [clique] + good[at:])
            assert str(batch.value) == str(single.value)
    for (first, error), (second, _) in combinations(bad, 2):
        with pytest.raises(error):
            decompose_cliques(x, basis, good[:2] + [first] + good[2:4] + [second])


def test_line_counts_match_dense_projection_under_every_modulus():
    # every index set at q = 3 and 5; the maximum cliques through 0
    # represent every clique up to translation, and every one is checked
    # where a graph has fewer than 32, else 16 to 32 of them evenly spaced
    graphs_checked = 0
    for p in (3, 5):
        for c0, c1 in product(range(p), repeat=2):
            try:
                ctx = create(p, 2, (c0, c1, 1))
            except ReducibleModulus:
                continue
            for size in range(p):
                for rest in combinations(range(1, p + 1), size):
                    idx = (0,) + rest
                    x = build_cayley(ctx, idx)
                    srg_certify(x)
                    sel = subarray_for_connection_set(ctx, idx)
                    assert_audit_matches_enumeration(x, sel)
                    cliques = strict_ekr_audit(x, sel, through_vertex=0).cliques
                    assert_matches_dense_projection(
                        x, build_ekr_basis(x, sel), cliques[::max(1, len(cliques) // 16)])
                    graphs_checked += 1
    assert graphs_checked == 3 * 7 + 10 * 31


def test_decompose_rejects_non_maximum():
    ctx, x, sel = build(3, (0, 2))
    basis = build_ekr_basis(x, sel)
    with pytest.raises(NotMaximumClique):
        decompose_clique(x, basis, (0, 1))  # too small
    with pytest.raises(NotMaximumClique):
        decompose_clique(x, basis, (0, 3, 4))  # not a clique


def test_decompose_refuses_a_graph_the_basis_was_not_paired_with():
    """The basis's selection holds N(0) of its block graph; a decomposition
    over it is refused for another graph, even one in which the clique is maximum:
    here F_5 is a 5-clique of the graph of cosets (0, 2) and of the
    switched graph, whose row 0 is the paired graph's."""
    from test_graph_core import two_switched_rows  # it imports this module

    ctx, x, sel = build(5, (0, 1))
    basis = build_ekr_basis(x, sel)
    clique = tuple(ctx.subfield_elements())
    decompose_clique(x, basis, clique)
    others = [build_cayley(ctx, (0, 2)),
              Graph(x.n, two_switched_rows(x)),
              build_cayley(create(7, 2), (0, 1))]
    assert others[1].adj[0] == x.adj[0] and others[1].field is None
    for other in others:
        with pytest.raises(CertificationFailed,
                           match="^graph is not the one the basis was paired with$"):
            decompose_clique(other, basis, clique)


def module_identity_oracle(basis, sets):
    """The module identity at every vertex, by one (sets, m, n) gather per
    32 sets, as decompose_cliques checked it before the pair count: the
    (sets, m q) count tables c_L = |L & C| over the basis's selection and
    the residuals r(v) = sum_b c_{L_b(v)} - q [v in C] - (m - 1)."""
    q, m, sel = basis.q, basis.m, basis.selection
    lines = sel.symbol[list(sel.rows)] + q * np.arange(m)[:, None]
    out = []
    for lo in range(0, len(sets), 32):
        members = np.array(sets[lo:lo + 32], dtype=np.int64)
        rows = np.arange(len(members))[:, None]
        counts = np.bincount((lines.T[members] + m * q * rows[:, :, None]).ravel(),
                             minlength=len(members) * m * q).reshape(len(members), m * q)
        resid = counts[:, lines].sum(axis=1) - (m - 1)
        resid[rows, members] -= q
        out.append((counts, resid))
    return np.concatenate([c for c, _ in out]), np.concatenate([r for _, r in out])


def identity_cases():
    """(graph, selection, audited maximum cliques): the 37 survey graphs
    (m = 1 among them), the m = 2 graphs at q = 19, 23, 25, the q = 25
    subfield-5 graph and q = 49 with m = 13."""
    for r in run_sweep():
        yield r.graph, r.selection, r.audit.cliques
    ctx = survey.ambient_field(49)
    graphs = [*q19_to_25_graphs(), (build_cayley(ctx, tuple(range(13))),
                                    subarray_for_connection_set(ctx, tuple(range(13))))]
    for x, sel in graphs:
        yield x, sel, strict_ekr_audit(x, sel).cliques


def test_pair_count_decides_the_module_identity():
    """Against the per-vertex oracle: sum_v r(v)^2 = q (q (q - 1) - P) for
    every set, with P the pair count of the oracle's table, and
    decompose_cliques accepts a q-set exactly when r is zero, with the
    oracle's table; a rejected set is no clique.  The sets are every
    audited maximum clique, seeded random q-sets and canonical cliques
    with one vertex moved off.  Over a certified selection of other
    cosets, which x was not paired with, the identity still holds with
    the moved table's pair count, and every clique of x is refused as
    unpaired."""
    rng = np.random.default_rng(2024)
    graphs_checked = sets_checked = unpaired_refused = 0
    for x, sel, cliques in identity_cases():
        basis = build_ekr_basis(x, sel)
        q, m, n = basis.q, basis.m, x.n
        sets = [tuple(c) for c in cliques]
        sets += [tuple(sorted(rng.choice(n, q, replace=False).tolist())) for _ in range(16)]
        for j in rng.choice(len(basis.all_cliques), 16):
            line = basis.all_cliques[j].vertices
            off = rng.choice(np.setdiff1d(np.arange(n), line))
            sets.append(tuple(sorted(line[1:] + (int(off),))))
        counts, resid = module_identity_oracle(basis, sets)
        pairs = (counts * (counts - 1)).sum(axis=1)
        assert np.array_equal((resid ** 2).sum(axis=1), q * (q * (q - 1) - pairs))
        zero = ~resid.any(axis=1)
        assert zero[:len(cliques)].all()
        decs = decompose_cliques(x, basis, [c for c, z in zip(sets, zero) if z])
        assert [d.clique for d in decs] == [c for c, z in zip(sets, zero) if z]
        assert all(np.array_equal(d.counts.ravel(), c) for d, c in zip(decs, counts[zero]))
        for c in (c for c, z in zip(sets, zero) if not z):
            with pytest.raises(NotMaximumClique):
                decompose_clique(x, basis, c)
            assert not is_clique(x, c)
        sets_checked += len(sets)

        other = tuple(sorted((i + 1) % (q + 1) for i in sel.coset_indices))
        if q <= 25 and set(range(1, q + 1)) - set(other):
            moved = dataclasses.replace(basis, selection=subarray_for_connection_set(x.field, other))
            counts, resid = module_identity_oracle(moved, cliques)
            pairs = (counts * (counts - 1)).sum(axis=1)
            assert np.array_equal((resid ** 2).sum(axis=1), q * (q * (q - 1) - pairs))
            for c in cliques:
                with pytest.raises(CertificationFailed,
                                   match="^graph is not the one the basis was paired with$"):
                    decompose_clique(x, moved, c)
                unpaired_refused += 1
        graphs_checked += 1
    assert (graphs_checked, sets_checked) == (37 + 4 + 1, 1942 + 42 * 32)
    assert unpaired_refused == 1278


# ----- derived fields ----------------------------------------------------------

def basis_matrix_oracle(sel, basis):
    """B column by column: q chi - 1 of each basis clique's line, the line
    from field arithmetic by its coset's slope and its intercept."""
    ctx = sel.ctx
    row_of = dict(zip(sel.coset_indices, sel.rows))
    B = np.full((ctx.order, len(basis.basis_cliques)), -1, dtype=np.int64)
    for j, cl in enumerate(basis.basis_cliques):
        line = line_oracle(ctx, sel.alpha, slopes(ctx)[row_of[cl.coset]],
                           ctx.subfield_elements()[cl.intercept])
        B[list(line), j] = sel.q - 1
    return B


def test_basis_matrix_matches_line_oracle():
    # the survey graphs, then the m = 2 graphs at q = 19, 23, 25 and the
    # q = 25 subfield-5 graph; the decompositions' derived values meet
    # dense_projection on the same graphs in the tests above
    pairs = [(r.selection, r.basis) for r in run_sweep()]
    pairs += [(sel, build_ekr_basis(x, sel)) for x, sel in q19_to_25_graphs()]
    for sel, basis in pairs:
        assert "matrix" not in vars(basis)
        B = basis.matrix
        assert B.dtype == np.int64 and B is basis.matrix
        assert np.array_equal(B, basis_matrix_oracle(sel, basis))


def test_basis_is_built_from_its_selection_alone():
    """EkrBasis(sel) is build_ekr_basis less the pairing check; a basis
    re-pointed at another selection by dataclasses.replace equals the one
    built for that selection's graph; and a field derived from the
    selection takes no value."""
    for q, idx, other in ((5, (0, 1, 3), (0, 1, 4)), (9, (0, 1, 7, 8), (0, 2, 5)),
                          (25, (0, 7), (0, 3, 11))):
        ctx = survey.ambient_field(q)
        sel, moved = (subarray_for_connection_set(ctx, i) for i in (idx, other))
        basis = build_ekr_basis(build_cayley(ctx, idx), sel)
        assert EkrBasis(sel) == basis and not hasattr(basis, "base_neighbors")
        repointed = dataclasses.replace(basis, selection=moved)
        built = build_ekr_basis(build_cayley(ctx, other), moved)
        assert repointed == built != basis and repointed.selection is moved
        assert np.array_equal(repointed.lines, built.lines)
    for name in ("base_vertex", "q", "m", "all_cliques", "basis_cliques", "rank", "line_keys"):
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(basis, **{name: getattr(basis, name)})


def derived_values(q=5, idx=(0, 1, 3)):
    """The decomposition of one basis line, its basis and the WHD
    certificate of one graph, each derived field still unbuilt."""
    ctx, x, sel = build(q, idx)
    basis = build_ekr_basis(x, sel)
    dec = decompose_clique(x, basis, basis.all_cliques[-1].vertices)
    return x, dec, basis, build_whd(x, sel)


def test_derived_fields_keep_a_passed_value():
    for built in (False, True):
        x, dec, basis, cert = derived_values()
        for obj, name in ((dec, "coefficients"), (dec, "histogram"), (dec, "unbalanced"),
                          (basis, "matrix"), (cert, "matrix")):
            own = getattr(obj, name) if built else None
            passed = object()
            assert getattr(dataclasses.replace(obj, **{name: passed}), name) is passed
            if built:
                assert getattr(obj, name) is own
    x, dec, basis, cert = derived_values()
    kept = ekr.Decomposition(dec.clique, True, dec.zero_count, dec.counts, coefficients=[1])
    assert kept.coefficients == [1]


def test_derived_fields_compare_by_value():
    x, dec, basis, cert = derived_values()
    _, dec2, basis2, cert2 = derived_values()
    assert dec == dec2 and basis == basis2 and cert == cert2
    assert dec.coefficients == dec2.coefficients and dec.unbalanced == dec2.unbalanced
    coeffs = list(dec.coefficients)
    coeffs[0] += 1
    assert dataclasses.replace(dec, coefficients=coeffs) != dec
    lift = dict(dec.unbalanced)
    lift[next(iter(lift))] += 1
    assert dataclasses.replace(dec, unbalanced=lift) != dec
    assert decompose_clique(x, basis, basis.all_cliques[0].vertices) != dec
    _, _, other_basis, other_cert = derived_values(5, (0, 1, 4))
    assert other_basis != basis and other_cert != cert


def test_survey_builds_no_fractions_or_matrices(monkeypatch, capsys):
    """peisert survey reads the clique count, residual_zero of the
    decompositions through 0 and the WHD diagonal only, so no Fraction,
    no dense matrix and no list of every clique or its decomposition is
    built."""
    reports = []
    sweep = survey.run_sweep
    monkeypatch.setattr(survey, "run_sweep", lambda *args: reports.extend(sweep(*args)) or reports)
    assert cli.main(["survey"]) == 0
    assert '"count": 37' in capsys.readouterr().out
    assert len(reports) == 37
    for r in reports:
        assert "decompositions" not in vars(r) and "cliques" not in vars(r.audit)
        assert "matrix" not in vars(r.basis) and "matrix" not in vars(r.whd_cert)
        for dec in r.decompositions:
            assert not {"coefficients", "histogram", "unbalanced"} & set(vars(dec))
    dec = reports[-1].decompositions[-1]
    assert dec.coefficients is dec.coefficients and "coefficients" in vars(dec)


# ----- audits ------------------------------------------------------------------

def assert_audit_matches_enumeration(x, sel, through=(None, 0, 1)):
    """The transversal audit lists exactly the q-cliques that the generic
    branch-and-bound finds: in full, through 0, and through vertex 1.  It
    splits them as the set of used lines from field arithmetic does,
    each line through the vertex found, and verify_isomorphism agrees
    with the edge-by-edge check on those lines.  The unused-slope
    coloring is proper with q colors, and the selection carries the
    cosets of N(0)."""
    lines = used_lines_oracle(sel)
    line_set = set(lines)
    assert_isomorphism_matches_oracle(x, sel, lines)
    # what the pairing implies, and so the audit does not check itself
    colors = unused_slope_coloring(sel)
    assert verify_coloring(x, colors) is None and len(set(colors)) == sel.q
    assert tuple(sorted({sel.ctx.coset_index(v) for v in x.neighbors(0)})) == sel.coset_indices
    for v in through:
        want = enumerate_max_cliques(x, target=sel.q, through_vertex=v)
        report = strict_ekr_audit(x, sel, through_vertex=v)
        assert report.cliques == want, (sel.coset_indices, v)
        assert set(want) >= {c for c in lines if v is None or v in c}
        assert report.non_canonical == tuple(c for c in want if c not in line_set)
        assert report.canonical_count == len(want) - len(report.non_canonical)


def test_audit_matches_enumeration_on_survey_graphs():
    checked = 0
    for q in survey.Q_CHOICES:
        ctx = survey.ambient_field(q)
        extra = (build_counterexample(ctx, 3).coset_indices,) if q == 9 else ()
        for _, idx in survey.sweep_index_sets(ctx, 10, survey.DEFAULT_SEED, extra):
            x = build_cayley(ctx, idx)
            srg_certify(x)
            assert_audit_matches_enumeration(x, subarray_for_connection_set(ctx, idx))
            checked += 1
    assert checked == 37


def test_audit_matches_enumeration_on_counterexamples():
    ce9 = build_counterexample(create(3, 4), 3)
    assert_audit_matches_enumeration(ce9.graph, ce9.selection)
    ce25 = build_counterexample(create(5, 4), 5)
    assert_audit_matches_enumeration(ce25.graph, ce25.selection, through=(0,))


def test_isomorphism_matches_oracle_on_wrong_cosets():
    checked = 0
    for q, idx in [(3, (0, 2)), (5, (0, 1, 4)), (9, (0, 1, 2, 3, 4))]:
        ctx, x, sel = build(q, idx, PINNED81 if q == 9 else None)
        lines = used_lines_oracle(sel)
        for other in [(0,), (0, 1), (0, 3), tuple(range(q))]:
            if other != idx:
                assert_isomorphism_matches_oracle(build_cayley(ctx, other), sel, lines)
                checked += 1
        with pytest.raises(CertificationFailed, match="^graph is not certified translation invariant$"):
            verify_isomorphism(Graph(x.n, x.adj), sel)
    assert checked == 12


def test_audit_paley9_strict():
    ctx, x, sel = build(3, (0, 2))
    report = strict_ekr_audit(x, sel)
    assert report.strict
    assert report.omega == 3
    assert report.clique_count == 6
    assert report.canonical_count == 6
    assert report.non_canonical == ()


def test_audit_full_m3_q3_not_strict():
    ctx, x, sel = build(3, (0, 1, 2))
    report = strict_ekr_audit(x, sel)
    assert not report.strict
    assert report.clique_count == 27
    assert report.canonical_count == 9
    assert len(report.non_canonical) == 18
    assert all(len(c) == 3 for c in report.non_canonical)


def test_audit_through_vertex_case_study():
    ctx, x, sel = build(9, (0, 1, 2, 3, 4), PINNED81)
    report = strict_ekr_audit(x, sel, through_vertex=0)
    assert report.omega == 9
    assert report.clique_count == 9
    assert report.canonical_count == 5
    assert len(report.non_canonical) == 4
    assert not report.strict


def test_audit_rejects_selection_of_other_cosets():
    # with cosets (0, 1) the class-2 lines would count as non-canonical;
    # at equal m only the cosets of N(0) tell the selections apart, and
    # the pairing check names the pair where the graphs differ
    for q, graph_idx, sel_idx in [(3, (0, 1, 2), (0, 1)), (5, (0, 1), (0, 2))]:
        ctx, x, _ = build(q, graph_idx)
        assert {ctx.coset_index(v) for v in x.neighbors(0)} == set(graph_idx)
        sel = subarray_for_connection_set(ctx, sel_idx)
        want = isomorphism_oracle(x, used_lines_oracle(sel))
        with pytest.raises(NotIsomorphicUnderF, match=f"^{re.escape(want)}$"):
            strict_ekr_audit(x, sel)


def test_audit_rejects_vertex_outside_graph():
    ctx, x, sel = build(3, (0, 2))
    for v in (-1, 9):
        with pytest.raises(IndexOutOfRange, match=f"vertex {v} outside"):
            strict_ekr_audit(x, sel, through_vertex=v)


def test_audit_budget():
    ctx, x, sel = build(9, (0, 1, 2, 3, 4), PINNED81)
    with pytest.raises(SearchTimeout):
        strict_ekr_audit(x, sel, budget=0)


def cliques_through_0(x, sel):
    """The transversal search through 0 that strict_ekr_audit runs, as a
    (T0, q) array."""
    classes = color_classes(unused_slope_coloring(sel)).values()
    found = transversal_cliques(x, classes, 0, _Deadline(None))
    return np.array(found, dtype=np.int64).reshape(len(found), sel.q)


def translation_closure_oracle(ctx, through_0, through_vertex=None):
    """The translates C + v read off the rows of _translates(ctx, C): row
    v when v = through_vertex, or, for the full list, every row whose
    least set bit is v."""
    out = []
    for c in through_0.tolist():
        rows = _translates(ctx, c)
        if through_vertex is not None:
            out.append(tuple(_bits(rows[through_vertex])))
        else:
            out.extend(tuple(_bits(row)) for v, row in enumerate(rows)
                       if (row & -row).bit_length() == v + 1)
    return sorted(out)


def closure_cases():
    """The survey graphs, the subfield counterexamples at q = 9, 25, 27
    and 49, q = 49 with m = 13 and q = 81 with m = 9: fields of r = 2, 4,
    6 and 8 base-p digits, so a clique's top digits vary."""
    for q in survey.Q_CHOICES:
        ctx = survey.ambient_field(q)
        extra = (build_counterexample(ctx, 3).coset_indices,) if q == 9 else ()
        for _, idx in survey.sweep_index_sets(ctx, 10, survey.DEFAULT_SEED, extra):
            yield ctx, idx
    for q, s in [(9, 3), (25, 5), (27, 3), (49, 7)]:
        ctx = survey.ambient_field(q)
        yield ctx, build_counterexample(ctx, s).coset_indices
    for q, m in [(49, 13), (81, 9)]:
        yield survey.ambient_field(q), tuple(range(m))


def test_translation_closure_matches_bitset_oracle():
    """The digit-box closure lists what the bitset walk lists, rows and
    order, in full and through vertices 1 and n - 1."""
    checked = 0
    for ctx, idx in closure_cases():
        x, sel = build_cayley(ctx, idx), subarray_for_connection_set(ctx, idx)
        through_0 = cliques_through_0(x, sel)
        for v in (None, 1, x.n - 1):
            got = ekr._translation_closure(ctx, through_0, v, _Deadline(None))
            want = translation_closure_oracle(ctx, through_0, v)
            assert got.dtype == np.int64 and got.shape == (len(want), sel.q)
            assert list(map(tuple, got.tolist())) == want, (ctx, idx, v)
        checked += 1
    assert checked == 37 + 6


def test_empty_translation_closure_returns_at_once(monkeypatch):
    """With no clique left to translate, the closure checks its deadline
    and returns its (0, q) input; a strict audit's report is the one its
    cliques through 0 and the bitset oracle give."""
    ctx = survey.ambient_field(9)
    empty = np.zeros((0, 9), dtype=np.int64)
    for v in (None, 0, 5):
        got = ekr._translation_closure(ctx, empty, v, _Deadline(None))
        assert got.shape == (0, 9) and got.dtype == np.int64
    late = _Deadline(1.0)
    late.t -= 2.0
    with pytest.raises(SearchTimeout):
        ekr._translation_closure(ctx, empty, None, late)

    idx = tuple(sorted(peisert.family_cosets(ctx, "paley")))
    x, sel = build_cayley(ctx, idx), subarray_for_connection_set(ctx, idx)
    seen = []
    closure = ekr._translation_closure
    monkeypatch.setattr(ekr, "_translation_closure",
                        lambda *args: seen.append(args[1].shape) or closure(*args))
    through_0 = cliques_through_0(x, sel)
    for v in (None, 7):
        report = strict_ekr_audit(x, sel, through_vertex=v)
        count = len(through_0) * (9 if v is None else 1)
        assert report == ekr.AuditReport(9, v, count, count, (),
                                         tuple(map(tuple, through_0.tolist())), ctx)
        assert report.cliques == translation_closure_oracle(ctx, through_0, v)
    assert seen == [(0, 9), (5, 9)] * 2  # the audit's empty closure, then the listing


def top_digit(c, p):
    """(j, c_j) for the top nonzero base-p digit of c > 0."""
    j = 0
    while c >= p ** (j + 1):
        j += 1
    return j, c // p ** j


@pytest.mark.parametrize("q", [3, 5, 9, 25, 27, 49])
def test_digit_rule(q):
    """add(c, u) > u iff u_j < p - c_j at the top nonzero digit j of c:
    every pair c != 0, u at q <= 9, a seeded sample of pairs above."""
    ctx = survey.ambient_field(q)
    p, n = ctx.p, ctx.order
    if q <= 9:
        pairs = list(product(range(1, n), range(n)))
    else:
        rng = np.random.default_rng(q)
        pairs = list(zip(rng.integers(1, n, 20000).tolist(), rng.integers(0, n, 20000).tolist()))
    sums = ctx.add_array(*np.array(pairs).T).tolist()
    for (c, u), s in zip(pairs, sums):
        j, cj = top_digit(c, p)
        assert (s > u) == (u // p ** j % p < p - cj), (q, c, u)


CLOSURE_DEADLINE_SCRIPT = """
import time
import numpy as np
from peisert import build_cayley, create, ekr, subarray_for_connection_set
from peisert.errors import SearchTimeout
from peisert.graphs import _Deadline
print("debug", __debug__)
ctx = create(3, 4)
x = build_cayley(ctx, (0, 1, 7, 8))
through_0 = np.array(ekr.strict_ekr_audit(x, subarray_for_connection_set(ctx, (0, 1, 7, 8)),
                                          through_vertex=0).cliques)
for v in (None, 5):
    expired = _Deadline(60.0)
    expired.t = time.monotonic() - 1
    out = None
    try:
        out = ekr._translation_closure(ctx, through_0, v, expired)
    except SearchTimeout as e:
        print("SearchTimeout", e, out)
    print("live", len(ekr._translation_closure(ctx, through_0, v, _Deadline(60.0))))
"""


def test_translation_closure_honours_an_expired_deadline():
    """An expired deadline raises SearchTimeout before any translate is
    listed, under python and under python -O."""
    ctx = create(3, 4)
    x = build_cayley(ctx, (0, 1, 7, 8))
    through_0 = cliques_through_0(x, subarray_for_connection_set(ctx, (0, 1, 7, 8)))
    for v in (None, 5):
        expired = _Deadline(60.0)
        expired.t = time.monotonic() - 1
        with pytest.raises(SearchTimeout, match="^clique search exceeded its budget$"):
            ekr._translation_closure(ctx, through_0, v, expired)
    assert run_optimized(CLOSURE_DEADLINE_SCRIPT) == [
        "SearchTimeout clique search exceeded its budget None", "live 72",
        "SearchTimeout clique search exceeded its budget None", "live 8"]


def full_list_audit_oracle(x, sel, through_vertex=None):
    """The audit over the full list: every translate of every clique
    through 0 (the bitset walk), each tested for canonicity by a used
    row constant on it; (clique_count, canonical_count, non_canonical,
    cliques)."""
    cliques = translation_closure_oracle(x.field, cliques_through_0(x, sel), through_vertex)
    members = np.array(cliques, dtype=np.int64).reshape(len(cliques), sel.q)
    canonical = np.zeros(len(members), dtype=bool)
    for r in sel.row_positions:
        sym = sel.symbol[r][members]
        canonical |= (sym == sym[:, :1]).all(axis=1)
    assert np.count_nonzero(canonical) == sel.m * (1 if through_vertex is not None else sel.q)
    non_canonical = tuple(c for c, ok in zip(cliques, canonical.tolist()) if not ok)
    return len(cliques), len(cliques) - len(non_canonical), non_canonical, cliques


def test_audit_per_orbit_matches_full_list_oracle():
    """Counts, non-canonical cliques and the listed cliques agree with the
    full-list audit on every oracle case, in full and through three
    nonzero vertices."""
    from test_graph_core import oracle_cases  # it imports this module

    checked = 0
    for ctx, idx in oracle_cases():
        x, sel = build_cayley(ctx, idx), subarray_for_connection_set(ctx, idx)
        for v in (None, 1, x.n // 2, x.n - 1):
            report = strict_ekr_audit(x, sel, through_vertex=v)
            assert report.through_0 == tuple(map(tuple, cliques_through_0(x, sel).tolist()))
            assert (report.clique_count, report.canonical_count, report.non_canonical,
                    report.cliques) == full_list_audit_oracle(x, sel, v), (ctx, idx, v)
        checked += 1
    assert checked == 37 + 3 * 7 + 10 * 31


def test_audit_cliques_are_built_on_read_and_not_copied():
    ctx, x, sel = build(9, (0, 1, 2, 3, 4), PINNED81)
    report = strict_ekr_audit(x, sel)
    assert "cliques" not in {f.name for f in dataclasses.fields(report)}
    assert "cliques" not in vars(report)
    full = report.cliques
    assert report.cliques is full and len(full) == report.clique_count == 81
    moved = dataclasses.replace(report, through_vertex=5)
    assert "cliques" not in vars(moved)
    assert moved.cliques == strict_ekr_audit(x, sel, through_vertex=5).cliques
    assert moved.cliques == [c for c in full if 5 in c]


DROPPED_LINE_SCRIPT = """
from peisert import build_cayley, create, ekr, strict_ekr_audit, subarray_for_connection_set
from peisert.errors import CertificationFailed
print("debug", __debug__)
search = ekr.transversal_cliques

def drop_a_line(*args):  # the line through 0 of the first used row
    found = search(*args)
    return [c for c in found if sel.symbol[sel.row_positions[0]][list(c)].any()]

ekr.transversal_cliques = drop_a_line
for q, idx in [(3, (0, 2)), (9, (0, 1, 7, 8))]:
    ctx = create(3, 2 if q == 3 else 4)
    x = build_cayley(ctx, idx)
    sel = subarray_for_connection_set(ctx, idx)
    for v in (None, 0, 5):
        try:
            report = strict_ekr_audit(x, sel, through_vertex=v)
            print("accepted", q, v, report.clique_count)
        except CertificationFailed as e:
            print("rejected", q, v, e)
"""


def test_audit_refuses_a_search_that_drops_a_line_under_optimize():
    lines = run_optimized(DROPPED_LINE_SCRIPT)
    assert lines == [f"rejected {q} {v} a canonical clique is missing from the enumeration"
                     for q in (3, 9) for v in (None, 0, 5)]


# ----- counterexamples ---------------------------------------------------------

def test_counterexample_q9():
    ctx = create(3, 4)
    ce = build_counterexample(ctx, 3)
    assert ce.q == 9 and ce.m == 4
    assert ce.coset_indices == (0, 1, 7, 8)
    # C = K + g*K as labels
    want = tuple(sorted(ctx.add(u, ctx.mul(v, ctx.generator))
                        for u in (0, 1, 2) for v in (0, 1, 2)))
    assert ce.clique == want
    report = strict_ekr_audit(ce.graph, ce.selection)
    assert not report.strict
    assert report.clique_count == 72
    assert report.canonical_count == 36
    assert ce.clique in report.non_canonical


def test_counterexample_q25():
    ctx = create(5, 4)
    ce = build_counterexample(ctx, 5)
    assert ce.q == 25 and ce.m == 6
    assert ce.coset_indices == (0, 1, 6, 18, 23, 24)
    p = ce.srg
    assert (p.n, p.k, p.lam, p.mu) == (625, 144, 43, 30)
    assert ce.clique in strict_ekr_audit(
        ce.graph, ce.selection, through_vertex=0).non_canonical


@pytest.mark.parametrize("q, s", [(81, 3), (81, 9), (125, 5)])
def test_counterexample_at_every_subfield(q, s):
    """At q = 81, s = 3 and q = 125, s = 5 the direct sum meets too few
    cosets and C is the graph of x -> x^s; at q = 81, s = 9 it is the
    direct sum.  Either way C is a K-linear q-set holding K, and the
    audit through 0 finds it non-canonical."""
    ctx = survey.ambient_field(q)
    ce = build_counterexample(ctx, s)
    assert ce.m == (q - 1) // (s - 1) and 0 in ce.coset_indices
    K = ctx.subfield_of_order(s)
    C = np.array(ce.clique)
    assert len(set(ce.clique)) == q and set(K) <= set(ce.clique)
    for k in K[1:]:  # C + k C = C
        assert np.isin(ctx.add_array(C[:, None], ctx.mul_array(C, k)), C).all()
    assert ce.clique in strict_ekr_audit(ce.graph, ce.selection, through_vertex=0).non_canonical


def test_counterexample_rejects_improper_subfield():
    ctx = create(3, 4)
    with pytest.raises(NotProperSubfield):
        build_counterexample(ctx, 9)  # K = F_q itself
    with pytest.raises(NotProperSubfield):
        build_counterexample(ctx, 2)  # wrong characteristic


def test_strict_threshold_q_vs_m():
    # q > (m-1)^2 forces strict; every non-strict case here has q <= (m-1)^2
    for q, idx in [(3, (0, 1)), (3, (0, 3)), (5, (0, 1)), (5, (0, 2, 4))]:
        ctx, x, sel = build(q, idx)
        report = strict_ekr_audit(x, sel)
        m = len(idx)
        if q > (m - 1) ** 2:
            assert report.strict
        if not report.strict:
            assert q <= (m - 1) ** 2


# ----- certificates under python -O ------------------------------------------

def run_optimized(script: str) -> list[str]:
    """Run script under python -O, which strips assert; return its
    output lines after checking that asserts were indeed off."""
    src = str(Path(peisert.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-O", "-c", script],
                         env=env, capture_output=True, text=True, check=True).stdout
    lines = out.splitlines()
    assert lines[0] == "debug False"
    return lines[1:]


# defines refuse(sel, fault): print whether the selection's table takes
# the fault, then whether the kept-row and strength-2 certificates take a
# faulty copy (one verdict when they agree, both otherwise)
TABLE_FAULT_PRELUDE = """
from peisert.errors import OAVerificationFailed
from peisert.oa import _certify_kept, _certify_strength_two, _subfield_ranks

def refuse(sel, fault):
    try:
        fault(sel.symbol)
        print("accepted write")
    except ValueError as e:
        print("refused write:", e)
    bad = sel.symbol.copy()
    fault(bad)
    plus = _subfield_ranks(sel.ctx)[2]
    verdicts = []
    for certify in (lambda: _certify_kept(sel.ctx.p, plus, bad[list(sel.kept_rows)], sel.kept_rows),
                    lambda: _certify_strength_two(sel.ctx, plus, bad)):
        try:
            certify()
            verdicts.append("accepted table")
        except OAVerificationFailed as e:
            verdicts.append(f"rejected table: {e}")
    print(verdicts[0] if verdicts[0] == verdicts[1] else " / ".join(verdicts))
"""

BROKEN_CLIQUE_SCRIPT = """
from peisert import Graph, build_cayley, build_ekr_basis, canonical_cliques, create
from peisert import strict_ekr_audit, subarray_for_connection_set
from peisert.errors import PeisertError
print("debug", __debug__)
ctx = create(3, 2)
g = build_cayley(ctx, (0, 2))
sel = subarray_for_connection_set(ctx, (0, 2))
u, v = canonical_cliques(sel)[0].vertices[:2]
rows = list(g.adj)
rows[u] &= ~(1 << v)
rows[v] &= ~(1 << u)
for certify in (build_ekr_basis, strict_ekr_audit):
    try:
        certify(Graph(g.n, rows), sel)
        print("accepted", certify.__name__)
    except PeisertError as e:
        print("rejected", certify.__name__, e)

# with its field: S loses the difference of an edge of a canonical line,
# so every translate of that line misses an edge
ctx = create(5, 2)
g = build_cayley(ctx, (0, 2))
sel = subarray_for_connection_set(ctx, (0, 2))
u, v = canonical_cliques(sel)[0].vertices[:2]
d = ctx.sub(v, u)
g = Graph.cayley(ctx, [s for s in g.neighbors(0) if s not in (d, ctx.neg(d))])
for certify in (build_ekr_basis, strict_ekr_audit):
    try:
        certify(g, sel)
        print("accepted", certify.__name__)
    except PeisertError as e:
        print("rejected", certify.__name__, e)
"""


def test_broken_canonical_clique_rejected_under_optimize():
    """The clique certificate must not rest on assert, which -O strips:
    a graph missing an edge of a canonical line is refused by the basis
    and the audit, without its field and with it.  Both run the pairing
    check first, which names the missing difference of the edge."""
    lines = run_optimized(BROKEN_CLIQUE_SCRIPT)
    assert len(lines) == 4
    for line, name in zip(lines, ["build_ekr_basis", "strict_ekr_audit"] * 2):
        assert line.startswith(f"rejected {name} ")
    assert {line.split(" ", 2)[2] for line in lines[:2]} == {
        "graph is not certified translation invariant"}
    witness = {line.split(" ", 2)[2] for line in lines[2:]}
    assert len(witness) == 1
    assert re.fullmatch(r"pair \(0, \d+\) adjacent in exactly one of the graphs", witness.pop())


LINE_CHECK_SCRIPT = TABLE_FAULT_PRELUDE + """
from itertools import product
from peisert import Graph, build_cayley, build_ekr_basis, build_whd, create
from peisert import subarray_for_connection_set
from peisert.errors import CertificationFailed
print("debug", __debug__)

def attempt(build, g, sel):
    try:
        build(g, sel)
        print("accepted", build.__name__)
    except CertificationFailed as e:
        print("rejected", build.__name__, e)

ctx = create(5, 2)
sel = subarray_for_connection_set(ctx, (0, 1))

# (a) 2-switch u-v, w-z to u-w, v-z: regular, and no Cayley graph, so it
# has no field
g = build_cayley(ctx, (0, 1))
u, v, w, z = next((u, v, w, z) for u, v, w, z in product(range(g.n), repeat=4)
                  if len({u, v, w, z}) == 4
                  and g.is_adjacent(u, v) and g.is_adjacent(w, z)
                  and not g.is_adjacent(u, w) and not g.is_adjacent(v, z))
rows = list(g.adj)
for a, b, add in ((u, v, False), (w, z, False), (u, w, True), (v, z, True)):
    for s, t in ((a, b), (b, a)):
        rows[s] = rows[s] | 1 << t if add else rows[s] & ~(1 << t)
switched = Graph(g.n, rows)
attempt(build_ekr_basis, switched, sel)
attempt(build_whd, switched, sel)

# (b) two vertices' symbols swapped in an unused row
r = next(r for r in range(sel.q + 1) if r not in sel.row_positions)
row = sel.symbol[r]
u, w = 0, int(next(t for t in range(sel.ctx.order) if row[t] != row[0]))
print("row", r)

def swap(table):
    table[r, [u, w]] = table[r, [w, u]]
refuse(sel, swap)
"""


def test_line_check_rejects_switched_graph_and_swapped_symbols():
    lines = run_optimized(LINE_CHECK_SCRIPT)
    assert len(lines) == 5
    assert lines[0] == "rejected build_ekr_basis graph is not certified translation invariant"
    assert lines[1] == "rejected build_whd graph is not certified translation invariant"
    r = lines[2].removeprefix("row ")
    assert lines[3] == "refused write: assignment destination is read-only"
    assert lines[4] == f"rejected table: row {r} symbols are not additive: vertex 0 plus 1"


CORRUPTED_SUM_SCRIPT = """
from peisert import build_counterexample, create
from peisert.errors import VerificationFailed
print("debug", __debug__)
for bad in ((0, 1, 3), (0, 2, 4)):  # F_3 with one element replaced
    ctx = create(3, 4)
    ctx.subfield_of_order = lambda order, bad=bad: bad
    try:
        build_counterexample(ctx, 3)
        print("accepted", bad)
    except VerificationFailed as e:
        print("rejected", e)
"""


def test_corrupted_direct_sum_rejected_under_optimize():
    assert run_optimized(CORRUPTED_SUM_SCRIPT) == [
        "rejected direct sum has 8 elements, not 9",
        "rejected direct sum meets cosets [0, 1, 3, 4, 7, 8], expected 4 cosets including 0",
    ]


SWAPPED_INTERCEPT_SCRIPT = """
import dataclasses
from peisert import build_cayley, build_ekr_basis, create, decompose_clique, srg_certify
from peisert import subarray_for_connection_set
from peisert.errors import CertificationFailed
print("debug", __debug__)
ctx = create(5, 2)
g = build_cayley(ctx, (0, 1, 3))
srg_certify(g)
basis = build_ekr_basis(g, subarray_for_connection_set(ctx, (0, 1, 3)))
clique = basis.basis_cliques[0].vertices
print("clique", *clique)
u = clique[0]
w = next(v for v in range(g.n) if basis.symbol[0, v] != basis.symbol[0, u])
try:  # the basis's table takes no write
    basis.symbol[0, u] = basis.symbol[0, w]
    print("accepted write")
except ValueError as e:
    print("refused write:", e)
swapped = basis.symbol.copy()  # two vertices' intercepts swapped in one used row
swapped[0, [u, w]] = swapped[0, [w, u]]
try:  # the table is read from a selection, never passed in
    dataclasses.replace(basis, symbol=swapped)
    print("accepted table")
except TypeError:
    print("refused table")
other = subarray_for_connection_set(ctx, (1, 2, 4))  # certified, but not paired with g
for b in (dataclasses.replace(basis, selection=other), basis):
    try:
        decompose_clique(g, b, clique)
        print("accepted")
    except CertificationFailed as e:
        print("rejected", e)
"""


BATCH_ERRORS_SCRIPT = """
from peisert import build_cayley, build_ekr_basis, create, decompose_clique, decompose_cliques
from peisert import strict_ekr_audit, subarray_for_connection_set
print("debug", __debug__)
ctx = create(3, 4)
x = build_cayley(ctx, (0, 1, 7, 8))
sel = subarray_for_connection_set(ctx, (0, 1, 7, 8))
basis = build_ekr_basis(x, sel)
good = strict_ekr_audit(x, sel).cliques[:6]
print(decompose_cliques(x, basis, []))
line = basis.basis_cliques[0].vertices
far = next(v for v in range(x.n) if v != line[0] and not x.is_adjacent(line[0], v))
for clique in (line[:-1], line[:-1] + (far,), line[:-1] + (x.n,), line[:-1] + (line[0],)):
    raised = []
    for run in (lambda: decompose_clique(x, basis, clique),
                lambda: decompose_cliques(x, basis, good[:3] + [clique] + good[3:])):
        try:
            run()
            raised.append("accepted")
        except Exception as e:
            raised.append(f"{type(e).__name__}: {e}")
    print(raised[0] == raised[1], raised[1].split(":")[0])
"""


def test_batch_errors_under_optimize():
    lines = run_optimized(BATCH_ERRORS_SCRIPT)
    assert lines == ["[]", "True NotMaximumClique", "True NotMaximumClique",
                     "True IndexOutOfRange", "True NotMaximumClique"]


def test_swapped_intercept_rejected_under_optimize():
    """The basis's symbol table refuses an in-place write, and the basis
    takes no table but its selection's, which _plane certified.  A basis
    re-pointed at a certified selection of other cosets refuses g as
    unpaired, and the original basis still decomposes the clique."""
    lines = run_optimized(SWAPPED_INTERCEPT_SCRIPT)
    assert len(lines) == 5
    assert lines[1] == "refused write: assignment destination is read-only"
    assert lines[2] == "refused table"
    assert lines[3] == "rejected graph is not the one the basis was paired with"
    assert lines[4] == "accepted"


NON_CLIQUE_LINE_SCRIPT = TABLE_FAULT_PRELUDE + """
from peisert import create, subarray_for_connection_set
print("debug", __debug__)
ctx = create(5, 2)
sel = subarray_for_connection_set(ctx, (0, 1))
r = sel.row_positions[0]
row = sel.symbol[r]  # one vertex traded between two used lines
a = next(v for v in range(1, ctx.order) if row[v] == 0)
b = next(v for v in range(ctx.order) if row[v] == 1)
print("row", r)

def trade(table):
    table[r, [a, b]] = table[r, [b, a]]
refuse(sel, trade)
"""


def test_audit_rejects_non_clique_line_under_optimize():
    """A used line that is no clique never reaches the audit: the
    selection's table refuses the trade, and the strength-2 certificate
    refuses the traded copy."""
    lines = run_optimized(NON_CLIQUE_LINE_SCRIPT)
    assert len(lines) == 3
    r = lines[0].removeprefix("row ")
    assert lines[1] == "refused write: assignment destination is read-only"
    assert re.fullmatch(rf"rejected table: row {r} symbols are not additive: "
                        r"vertex \d+ plus \d+", lines[2])


BROKEN_AUDIT_INPUT_SCRIPT = TABLE_FAULT_PRELUDE + """
from peisert import Graph, build_cayley, create, ekr, srg_certify, strict_ekr_audit
from peisert import subarray_for_connection_set
from peisert.errors import CertificationFailed, VerificationFailed
print("debug", __debug__)

def no_search(*args):
    raise SystemExit("searched")

ekr.transversal_cliques = no_search
ctx = create(5, 2)
g = build_cayley(ctx, (0, 1))
srg_certify(g)
sel = subarray_for_connection_set(ctx, (0, 1))
free = next(r for r in range(sel.q + 1) if r not in sel.row_positions)
print("row", free)

def move(table):  # vertex 7 moves to another line of the coloring row
    table[free, 7] = (table[free, 7] + 1) % sel.q
refuse(sel, move)
w = next(v for v in g.neighbors(1) if v != 0)  # drop the edge {1, w}; N(0) is kept
rows = list(g.adj)
rows[1] ^= 1 << w
rows[w] ^= 1 << 1
s = g.neighbors(0)
try:  # with its field, the graph is built from S, and an asymmetric S is refused
    Graph.cayley(ctx, s[1:])
    print("accepted")
except VerificationFailed as e:
    print("rejected", e)
try:
    strict_ekr_audit(Graph(g.n, rows), sel)
    print("accepted")
except CertificationFailed as e:
    print("rejected", e)
"""


def test_audit_rejects_broken_coloring_and_translation_under_optimize():
    lines = run_optimized(BROKEN_AUDIT_INPUT_SCRIPT)
    assert len(lines) == 5
    r = lines[0].removeprefix("row ")
    assert lines[1] == "refused write: assignment destination is read-only"
    assert re.fullmatch(rf"rejected table: row {r} symbols are not additive: "
                        r"vertex \d+ plus \d+", lines[2])
    assert re.fullmatch(r"rejected connection set holds \d+ but not its negative \d+", lines[3])
    assert lines[4] == "rejected graph is not certified translation invariant"


TABLE_CELL_SCRIPT = """
from types import SimpleNamespace
from peisert import build_cayley, build_ekr_basis, cli, create, decompose_clique
from peisert import subarray_for_connection_set
from peisert.errors import ReproductionMismatch
print("debug", __debug__)
ctx = create(3, 4, cli.CASE_STUDY_MODULUS)
g = build_cayley(ctx, (0, 1, 2, 3, 4))
basis = build_ekr_basis(g, subarray_for_connection_set(ctx, (0, 1, 2, 3, 4)))
dec = decompose_clique(g, basis, basis.basis_cliques[0].vertices)
for cells, cut in ((cli.CASE_STUDY_CELLS, 1),  # a basis clique missing
                   ([cli.CASE_STUDY_CELLS[0]] * 8, 0)):  # one row repeated
    cli.CASE_STUDY_CELLS = cells
    short = SimpleNamespace(basis_cliques=basis.basis_cliques[cut:])  # the table reads no more
    try:
        cli._case_study_table(ctx, short, dec)
        print("accepted")
    except ReproductionMismatch as e:
        print("rejected", e)
"""


def test_missing_table_cell_rejected_under_optimize():
    lines = run_optimized(TABLE_CELL_SCRIPT)
    assert len(lines) == 2
    assert lines[0].startswith("rejected table cell (") and lines[0].endswith("is not a basis clique")
    assert lines[1] == "rejected table covers 5 basis cliques, not all 40 once"
