"""Clique eigenspace analysis: canonical cliques, the module basis built
from their balanced indicators, exact decompositions, strict audits, and
subfield counterexamples.

Everything is exact.  Basis columns are stored as the integer vectors
q*chi - 1 (q times the balanced characteristic vector), certified by
oa.line_eigenvalues with no n x n product, and the only rational step
is the final coefficient division by q^3.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    CanonicalAfterAll,
    CertificationFailed,
    LengthMismatch,
    NonZeroResidual,
    NotMaximumClique,
    NotProperSubfield,
    VerificationFailed,
    ZeroVector,
)
from .field import FieldCtx
from .graphs import (
    DEFAULT_BUDGET,
    Graph,
    _mask_of,
    build_cayley,
    enumerate_max_cliques,
    is_maximal_clique,
    srg_certify,
)
from .oa import SubarraySelection, line_eigenvalues, subarray_for_connection_set


class CanonicalClique(NamedTuple):
    """Coset clique c_i * F_q + delta * alpha.

    intercept is the symbol rank of delta, so the clique contains the
    zero vertex exactly when intercept == 0.
    """
    coset: int
    intercept: int
    vertices: tuple[int, ...]


def canonical_cliques(x: Graph, sel: Optional[SubarraySelection] = None) -> list[CanonicalClique]:
    """All m*q coset cliques, ordered by (coset, intercept).

    Each is a line of the selection's table: the cells of the row whose
    slope carries the coset.  Certifies that each one is a clique of x
    and that each parallel class partitions the vertex set; raises
    VerificationFailed otherwise.  Lines of the table come from a
    certified bijection, so each has q distinct vertices.
    """
    sel = sel or subarray_for_connection_set(x.field, x.cosets)
    out = []
    for i in sorted(x.cosets):
        row = sel.parent.row_labels.index(sel.slope_of_coset[i])
        seen = 0
        for sym, verts in enumerate(sel.lines[row]):
            mask = _mask_of(verts)
            for v in verts:
                if (x.adj[v] | (1 << v)) & mask != mask:
                    raise VerificationFailed(f"coset line {i}:{sym} is not a clique")
            seen |= mask
            out.append(CanonicalClique(i, sym, verts))
        if seen != (1 << x.n) - 1:
            raise VerificationFailed(f"parallel class {i} does not partition the vertices")
    return out


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
        raise ZeroVector("eigenfunction check on the zero vector")
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


@dataclass
class EkrBasis:
    """Balanced indicators of the canonical cliques missing a base vertex.

    matrix columns hold q*chi - 1 (so column / q is the balanced
    indicator), ordered by (coset, intercept).  build_ekr_basis certifies
    them eigenvectors at q - m; their Gram matrix is I_m (x) q^2 (q I - J),
    so they are orthogonal across parallel classes and of full column
    rank m*(q - 1).
    """
    base_vertex: int
    q: int
    m: int
    all_cliques: list[CanonicalClique]
    basis_cliques: list[CanonicalClique]
    base_clique_of_coset: dict[int, CanonicalClique]
    matrix: np.ndarray
    rank: int


def build_ekr_basis(x: Graph, sel: Optional[SubarraySelection] = None,
                    base_vertex: int = 0) -> EkrBasis:
    """Assemble and certify the clique eigenspace basis.

    line_eigenvalues on the used rows gives A B = (q - m) B, and
    canonical_cliques certifies that each parallel class partitions the
    vertices, so it has one clique through the base vertex.  B^T B =
    I_m (x) q^2 (q I - J), entry q^2 (|L & L'| - 1), is fixed by three
    certified facts: the full array has strength 2 (lines of different
    slopes meet once), the column -> vertex map is a bijection (each
    line has q vertices), and each row partitions the plane (lines of
    one slope are disjoint).  It is nonsingular, so B has full column
    rank m (q - 1) and spans every difference chi_base - chi_other.
    """
    ctx = x.field
    params = x.srg if x.srg is not None else srg_certify(x)
    q = ctx.subfield_order
    m = len(x.cosets)
    if params.least_eigenvalue != -m:
        raise CertificationFailed(f"least eigenvalue {params.least_eigenvalue} != -{m}")
    sel = sel or subarray_for_connection_set(ctx, x.cosets)
    line_eigenvalues(x, sel, sel.row_positions)

    cliques = canonical_cliques(x, sel)
    base_of: dict[int, CanonicalClique] = {}
    basis_cliques = []
    for cl in cliques:
        if base_vertex in cl.vertices:
            base_of[cl.coset] = cl
        else:
            basis_cliques.append(cl)

    rows = [sel.parent.row_labels.index(sel.slope_of_coset[cl.coset]) for cl in basis_cliques]
    intercepts = np.array([cl.intercept for cl in basis_cliques])
    B = np.ascontiguousarray(np.where(sel.symbol[rows].T == intercepts, q - 1, -1))
    return EkrBasis(base_vertex, q, m, cliques, basis_cliques, base_of, B, B.shape[1])


@dataclass
class Decomposition:
    clique: tuple[int, ...]
    coefficients: list[Fraction]  # aligned with basis.basis_cliques
    residual_zero: bool
    zero_count: int
    histogram: dict[Fraction, int]
    unbalanced: dict[tuple[int, int], Fraction]  # over all m*q canonical cliques


def decompose_clique(x: Graph, basis: EkrBasis, clique: Sequence[int]) -> Decomposition:
    """Exact coefficients of a maximum clique's balanced indicator over
    the basis.

    The Gram matrix certified at build time is block diagonal with
    closed-form inverse (I + J) / q^3 per class, so the solve is a
    projection; the residual is then re-verified entrywise in integers,
    and the unbalanced lift is checked against the raw indicator.
    """
    q, m = basis.q, basis.m
    cl = tuple(sorted(set(clique)))
    if len(cl) != q or not is_maximal_clique(x, cl):
        raise NotMaximumClique(f"{cl} is not a maximum clique (|C| must be {q})")
    params = x.srg if x.srg is not None else srg_certify(x)
    if params.hoffman_bound() != q:  # q-cliques are maximum
        raise CertificationFailed(f"Hoffman bound {params.hoffman_bound()} != {q}")

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
    if not np.array_equal(B @ t, q**3 * w):
        raise NonZeroResidual("projection residual is nonzero")

    q3 = q**3
    coeffs = [Fraction(int(tj), q3) for tj in t]

    hist: dict[Fraction, int] = {}
    for c in coeffs:
        hist[c] = hist.get(c, 0) + 1
    zero_count = hist.get(Fraction(0), 0)

    # lift: chi_C = sum b_j chi_j + (1 - sum b_j) / (q m) * sum over all
    # canonical cliques, using that the m parallel classes cover each
    # vertex m times
    total = sum(coeffs, Fraction(0))
    uniform = (1 - total) / (q * m)
    unbalanced: dict[tuple[int, int], Fraction] = {
        (c.coset, c.intercept): uniform for c in basis.all_cliques}
    for cl_obj, b in zip(basis.basis_cliques, coeffs):
        unbalanced[(cl_obj.coset, cl_obj.intercept)] += b

    check = [Fraction(0)] * n
    for cl_obj in basis.all_cliques:
        coef = unbalanced[(cl_obj.coset, cl_obj.intercept)]
        if coef:
            for v in cl_obj.vertices:
                check[v] += coef
    viamask = set(cl)
    if not all(c == (1 if v in viamask else 0) for v, c in enumerate(check)):
        raise NonZeroResidual("unbalanced lift mismatch")

    return Decomposition(cl, coeffs, True, zero_count, hist, unbalanced)


@dataclass
class AuditReport:
    omega: int
    through_vertex: Optional[int]
    clique_count: int
    canonical_count: int
    non_canonical: tuple[tuple[int, ...], ...]
    cliques: list[tuple[int, ...]]  # every enumerated maximum clique, sorted

    @property
    def strict(self) -> bool:
        return not self.non_canonical


def strict_ekr_audit(x: Graph, sel: Optional[SubarraySelection] = None,
                     through_vertex: Optional[int] = None,
                     budget: Optional[float] = DEFAULT_BUDGET) -> AuditReport:
    """Exhaustively enumerate maximum cliques and split them into
    canonical and not.

    The Hoffman bound of the certified parameters equals q exactly and
    the coset cliques attain it, so enumeration at target q is complete
    maximum-clique enumeration.  A timeout aborts with no verdict.
    """
    ctx = x.field
    params = x.srg if x.srg is not None else srg_certify(x)
    q = ctx.subfield_order
    m = len(x.cosets)
    if params.hoffman_bound() != q:
        raise CertificationFailed(f"Hoffman bound {params.hoffman_bound()} != {q}")

    cliques = enumerate_max_cliques(x, target=q, through_vertex=through_vertex,
                                    budget=budget)
    canon = canonical_cliques(x, sel)
    canon_sets = {c.vertices for c in canon}
    expected_canon = [c.vertices for c in canon
                      if through_vertex is None or through_vertex in c.vertices]
    found = set(cliques)
    if not all(c in found for c in expected_canon):
        raise CertificationFailed("a canonical clique is missing from the enumeration")

    non_canonical = tuple(c for c in cliques if c not in canon_sets)
    if non_canonical and q > (m - 1) ** 2:
        raise CertificationFailed("non-canonical maximum clique below the threshold")
    return AuditReport(q, through_vertex, len(cliques),
                       len(cliques) - len(non_canonical), non_canonical, cliques)


@dataclass
class Counterexample:
    q: int
    subfield_order: int
    t: int
    m: int
    coset_indices: tuple[int, ...]
    clique: tuple[int, ...]
    graph: Graph


def build_counterexample(ctx: FieldCtx, subfield_order: int) -> Counterexample:
    """Direct sum C = K + g K + ... + g^(t-1) K for a proper subfield K
    of F_q, yielding a non-canonical maximum clique of its own graph.

    Verifies: |C| = q, C - C = C lands in the connection set, the induced
    index set has size exactly (q - 1) / (|K| - 1), and C differs from
    every canonical clique.
    """
    q = ctx.subfield_order
    K = ctx.subfield_of_order(subfield_order)
    if subfield_order >= q or (q - 1) % (subfield_order - 1) != 0:
        raise NotProperSubfield(f"{subfield_order} is not a proper subfield order of {q}")
    t = round(math.log(q, subfield_order))  # |K|^t = q
    if subfield_order ** t != q:
        raise NotProperSubfield(f"F_{subfield_order} does not fill F_{q}")

    gens = [ctx.gen_pow(j) for j in range(t)]
    if len({ctx.coset_index(g) for g in gens}) != t:
        raise VerificationFailed("generators g^0 .. g^(t-1) share a coset")

    cset = set()
    for combo in itertools.product(K, repeat=t):
        z = 0
        for gj, kj in zip(gens, combo):
            z = ctx.add(z, ctx.mul(gj, kj))
        cset.add(z)
    if len(cset) != q:
        raise VerificationFailed(f"direct sum has {len(cset)} elements, not {q}")

    indices = sorted({ctx.coset_index(z) for z in cset if z != 0})
    m = (q - 1) // (subfield_order - 1)
    if len(indices) != m or 0 not in indices:
        raise VerificationFailed(
            f"direct sum meets cosets {indices}, expected {m} cosets including 0")

    # closure under subtraction (C is an additive group)
    for a in cset:
        for b in cset:
            if ctx.sub(a, b) not in cset:
                raise VerificationFailed(f"{a} - {b} leaves the direct sum")

    g = build_cayley(ctx, indices)
    srg_certify(g)
    clique = tuple(sorted(cset))
    if not is_maximal_clique(g, clique):
        raise NotMaximumClique("direct-sum construction is not even maximal")
    if g.srg.hoffman_bound() != q:  # |C| = q meets the bound, so C is maximum
        raise CertificationFailed(f"Hoffman bound {g.srg.hoffman_bound()} != {q}")

    for canon in canonical_cliques(g):
        if canon.vertices == clique:
            raise CanonicalAfterAll(f"C equals the coset clique {canon}")
    return Counterexample(q, subfield_order, t, m, tuple(indices), clique, g)
