"""Clique eigenspace analysis: canonical cliques, the module basis built
from their balanced indicators, exact decompositions, strict audits, and
subfield counterexamples.

Each certificate takes the graph and its oa.SubarraySelection, which
carries the field, the cosets, q, m and the certified, read-only line
table, and is never rebuilt here.  The basis and the audit first run
oa.verify_isomorphism, the one check that pairs the graph with the
selection; what it implies, the line eigenvalues, the spectrum
{k, q - m, -m} and the proper unused-slope coloring, is not checked
again; a decomposition checks by N(0) that its graph is the paired one.
Everything is exact.  Basis columns are stored as the integer
vectors q*chi - 1, with no n x n product.  A decomposition is read off
the clique's line counts and certified by one integer identity per
vertex; the only rational steps are the divisions by q and by q m.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    CanonicalAfterAll,
    CertificationFailed,
    IndexOutOfRange,
    NonZeroResidual,
    NotMaximumClique,
    NotProperSubfield,
    VerificationFailed,
)
from .field import FieldCtx
from .graphs import (
    DEFAULT_BUDGET,
    Graph,
    SrgParams,
    _Deadline,
    _bits,
    _translates,
    build_cayley,
    color_classes,
    is_maximal_clique,
    srg_certify,
    transversal_cliques,
)
from .oa import (
    SubarraySelection,
    subarray_for_connection_set,
    unused_slope_coloring,
    verify_isomorphism,
)


class CanonicalClique(NamedTuple):
    """Coset clique c_i * F_q + delta * alpha.

    intercept is the symbol rank of delta, so the clique contains the
    zero vertex exactly when intercept == 0.
    """
    coset: int
    intercept: int
    vertices: tuple[int, ...]


def canonical_cliques(sel: SubarraySelection) -> list[CanonicalClique]:
    """All m*q coset cliques, ordered by (coset, intercept): the lines of
    each used row of the symbol table, by one stable argsort per row.

    Certifies nothing.  Strength 2 (oa._plane) makes each row a partition
    into q lines of q.  Once oa.verify_isomorphism pairs a graph with the
    selection, the used lines are cliques of that graph.
    """
    q = sel.q
    label = np.array(range(sel.ctx.order), dtype=object)  # one int object per vertex, shared by its lines
    out = []
    for i, row in zip(sel.coset_indices, sel.rows):
        cells = label[np.argsort(sel.symbol[row], kind="stable")].reshape(q, q).tolist()
        out.extend(CanonicalClique(i, sym, tuple(cell)) for sym, cell in enumerate(cells))
    return out


@dataclass
class EkrBasis:
    """Balanced indicators of the canonical cliques missing the base
    vertex 0.

    symbol holds the m used rows of the selection's symbol table in
    coset order: symbol[b, v] is the intercept of the class-b line
    through v.  matrix columns hold q*chi - 1 (so column / q is the
    balanced indicator), ordered by (coset, intercept).  build_ekr_basis
    certifies them eigenvectors at q - m; their Gram matrix is
    I_m (x) q^2 (q I - J), so they are orthogonal across parallel
    classes and of full column rank m*(q - 1).  base_neighbors is N(0),
    as a bitset, of the graph the basis was paired with.
    """
    base_vertex: int
    q: int
    m: int
    all_cliques: list[CanonicalClique]
    basis_cliques: list[CanonicalClique]
    symbol: np.ndarray
    matrix: np.ndarray
    rank: int
    base_neighbors: int


def build_ekr_basis(x: Graph, sel: SubarraySelection) -> EkrBasis:
    """Assemble and certify the clique eigenspace basis.

    verify_isomorphism pairs x with sel, which gives A chi_L = (m - 1) 1
    + (q - m) chi_L on every used line L: so A B = (q - m) B, the
    canonical cliques are cliques, and A has spectrum {k, q - m, -m}.
    Each strength-2 row partitions the vertices, so each class has one
    line through the base vertex.  B^T B =
    I_m (x) q^2 (q I - J), entry q^2 (|L & L'| - 1), is fixed by three
    certified facts: the full array has strength 2 (lines of different
    slopes meet once), the column -> vertex map is a bijection (each
    line has q vertices), and each row partitions the plane (lines of
    one slope are disjoint).  It is nonsingular, so B has full column
    rank m (q - 1) and spans every difference chi_base - chi_other.
    """
    verify_isomorphism(x, sel)
    q, m = sel.q, sel.m
    cliques = canonical_cliques(sel)
    basis_cliques = [cl for cl in cliques if 0 not in cl.vertices]

    symbol = sel.symbol[list(sel.rows)]
    intercepts = np.array([cl.intercept for cl in basis_cliques])
    columns = symbol[np.repeat(np.arange(m), q - 1)]  # q - 1 basis cliques per class
    B = np.where(np.ascontiguousarray(columns.T) == intercepts, q - 1, -1)
    return EkrBasis(0, q, m, cliques, basis_cliques, symbol, B, B.shape[1], x.adj[0])


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
    the basis, read off its line counts c_L = |L & C|.

    Let L_b(v) be the class-b line through v and L_b = L_b(base).  For
    w = q chi_C - 1, B^T w = q^2 (c_L - 1); the certified Gram matrix
    inverts per class to (I + J) / q^3, and each class's counts sum to q,
    so the projection has b_L = (c_L - c_{L_b}) / q.  As (B b)(v) =
    sum_b c_{L_b(v)} - m, the residual is zero iff every vertex v has
    sum_b c_{L_b(v)} = q [v in C] + m - 1, checked by one bincount per
    used row and one gather (NonZeroResidual otherwise).  The identity
    also makes the unbalanced lift chi_C = sum_L (u + b_L) chi_L exact,
    with u = (1 - m + sum_b c_{L_b}) / (q m).  CertificationFailed unless
    x has its field, n vertices and N(0) = basis.base_neighbors: that
    fixes x as the paired graph (Graph.cayley), whose Hoffman bound is q.
    """
    q, m = basis.q, basis.m
    if x.field is None or x.n != basis.symbol.shape[1] or x.adj[0] != basis.base_neighbors:
        raise CertificationFailed("graph is not the one the basis was paired with")
    cl = tuple(sorted(set(clique)))
    outside = [v for v in cl if not 0 <= v < x.n]
    if outside:
        raise IndexOutOfRange(f"vertex {outside[0]} outside [0, {x.n})")
    if len(cl) != q or not is_maximal_clique(x, cl):
        raise NotMaximumClique(f"{cl} is not a maximum clique (|C| must be {q})")

    members = np.array(cl)
    classes = np.arange(m)[:, None]
    counts = np.bincount((basis.symbol[:, members] + q * classes).ravel(),
                         minlength=m * q).reshape(m, q)
    want = np.full(x.n, m - 1)
    want[members] += q
    bad = np.flatnonzero(counts[classes, basis.symbol].sum(axis=0) != want)
    if bad.size:
        raise NonZeroResidual(f"line counts fail the module identity at vertex {bad[0]}")

    at_base = basis.symbol[:, [basis.base_vertex]]
    base = counts[classes, at_base]  # c_{L_b}
    diff = counts - base  # q b_L, zero on the lines through the base
    nums = diff[np.arange(q) != at_base].tolist()
    lift = 1 - m + int(base.sum())  # q m u
    # one Fraction per distinct value: b_L = t / q and u + b_L = (lift + m t) / (q m)
    tally = Counter(nums)
    coeff_of = {t: Fraction(t, q) for t in tally}
    lift_of = {t: Fraction(lift + m * t, q * m) for t in [0, *coeff_of]}

    coeffs = [coeff_of[t] for t in nums]
    hist = {coeff_of[t]: count for t, count in tally.items()}
    unbalanced = dict(zip(((c.coset, c.intercept) for c in basis.all_cliques),
                          (lift_of[t] for t in diff.ravel().tolist())))
    return Decomposition(cl, coeffs, True, tally.get(0, 0), hist, unbalanced)


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


def strict_ekr_audit(x: Graph, sel: SubarraySelection,
                     through_vertex: Optional[int] = None,
                     budget: Optional[float] = DEFAULT_BUDGET) -> AuditReport:
    """Exhaustively enumerate maximum cliques and split them into
    canonical and not.

    Completeness rests on what verify_isomorphism, run first, certifies.
    The unused-slope coloring is proper with q colors, so omega <= q and
    every clique of size q meets each of its classes exactly once; the
    transversal search through vertex 0 lists every one of them through
    0.  The graph carries its field, so it was built translation
    invariant (Graph.cayley), and the maximum cliques are the translates
    C + u of those through 0: the full list keeps C + u when u is its
    least vertex, which gives each clique once, and the list through v
    is the C + v.  A found clique is canonical when a used row of the
    symbol table, whose lines are those of the cosets of N(0), is
    constant on it, so it is that line of q points; the found cliques
    are distinct, so m q canonical ones (m through a given vertex) are
    every expected line, which attains omega = q.  A timeout aborts with
    no verdict.
    """
    verify_isomorphism(x, sel)
    q, m = sel.q, sel.m
    if through_vertex is not None and not 0 <= through_vertex < x.n:
        raise IndexOutOfRange(f"vertex {through_vertex} outside [0, {x.n})")
    deadline = _Deadline(budget)

    classes = color_classes(unused_slope_coloring(sel))
    through_0 = transversal_cliques(x, classes.values(), 0, deadline)
    cliques = _translation_closure(x.field, through_0, through_vertex, deadline)
    members = np.array(cliques, dtype=np.int64).reshape(len(cliques), q)
    canonical = np.zeros(len(cliques), dtype=bool)
    for r in sel.row_positions:  # one gather per row: one (N, q) array at a time
        sym = sel.symbol[r][members]
        canonical |= (sym == sym[:, :1]).all(axis=1)
    if np.count_nonzero(canonical) != (m if through_vertex is not None else m * q):
        raise CertificationFailed("a canonical clique is missing from the enumeration")

    non_canonical = tuple(c for c, ok in zip(cliques, canonical.tolist()) if not ok)
    if non_canonical and q > (m - 1) ** 2:
        raise CertificationFailed("non-canonical maximum clique below the threshold")
    return AuditReport(q, through_vertex, len(cliques),
                       len(cliques) - len(non_canonical), non_canonical, cliques)


def _translation_closure(ctx: FieldCtx, through_0: list[tuple[int, ...]],
                         through_vertex: Optional[int], deadline) -> list[tuple[int, ...]]:
    """The translates C + v of the cliques C through 0, sorted: those with
    v = through_vertex, one add_array, or, for the full list, those whose
    least vertex is v, read off the rows of _translates(ctx, C)."""
    if through_vertex is not None:
        if not through_0:
            return []
        moved = ctx.add_array(np.array(through_0, dtype=np.int64), through_vertex)
        return sorted(tuple(c) for c in np.sort(moved, axis=1).tolist())
    out = []
    for c in through_0:
        deadline.check()
        out.extend(tuple(_bits(row)) for v, row in enumerate(_translates(ctx, c))
                   if (row & -row).bit_length() == v + 1)
    out.sort()
    return out


@dataclass
class Counterexample:
    q: int
    subfield_order: int
    t: int
    m: int
    coset_indices: tuple[int, ...]
    clique: tuple[int, ...]
    graph: Graph
    selection: SubarraySelection
    srg: SrgParams  # certified by build_counterexample


def subfield_direct_sum(ctx: FieldCtx,
                        subfield_order: int) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """Direct sum C = K + g K + ... + g^(t-1) K for a proper subfield K
    of F_q; returns t, C sorted, and the cosets that C \\ {0} meets.

    Verifies: |C| = q, C - C = C, and the index set has size exactly
    (q - 1) / (|K| - 1) and contains 0.
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

    indices = tuple(sorted({ctx.coset_index(z) for z in cset if z != 0}))
    m = (q - 1) // (subfield_order - 1)
    if len(indices) != m or 0 not in indices:
        raise VerificationFailed(
            f"direct sum meets cosets {list(indices)}, expected {m} cosets including 0")

    # closure under subtraction (C is an additive group)
    for a in cset:
        for b in cset:
            if ctx.sub(a, b) not in cset:
                raise VerificationFailed(f"{a} - {b} leaves the direct sum")
    return t, tuple(sorted(cset)), indices


def build_counterexample(ctx: FieldCtx, subfield_order: int) -> Counterexample:
    """The subfield direct sum C as a non-canonical maximum clique of
    the graph on the cosets it meets.

    Verifies, beyond subfield_direct_sum: C is a maximal clique meeting
    the Hoffman bound q, and C differs from every canonical clique.
    """
    q = ctx.subfield_order
    t, clique, indices = subfield_direct_sum(ctx, subfield_order)
    g = build_cayley(ctx, indices)
    params = srg_certify(g)
    if not is_maximal_clique(g, clique):
        raise NotMaximumClique("direct-sum construction is not even maximal")
    if params.hoffman_bound() != q:  # |C| = q meets the bound, so C is maximum
        raise CertificationFailed(f"Hoffman bound {params.hoffman_bound()} != {q}")

    sel = subarray_for_connection_set(ctx, indices)
    for canon in canonical_cliques(sel):
        if canon.vertices == clique:
            raise CanonicalAfterAll(f"C equals the coset clique {canon}")
    return Counterexample(q, subfield_order, t, len(indices), indices, clique, g, sel, params)
