"""Clique eigenspace analysis: canonical cliques, the module basis built
from their balanced indicators, exact decompositions, strict audits, and
subfield counterexamples.

Each certificate takes the graph and its oa.SubarraySelection, which
carries the field, the cosets, q, m, N(0) and the certified, read-only
kept rows (the m used rows and the coloring row), and is never rebuilt
here; nothing here reads the full (q + 1)-row table.  The basis and the
audit first run oa.verify_isomorphism, and a decomposition runs the
same oa.is_paired check against its basis's selection: that one check
pairs the graph with the selection, and what it implies from the kept
rows, the used-line eigenvalues, the spectrum {k, q - m, -m} and the
proper unused-slope coloring, is not checked again.  An EkrBasis is
built from its selection alone.  Everything is exact.  Basis columns
are stored as the integer vectors q*chi - 1, with no n x n product.
Decompositions are batched: decompose_cliques reads every clique's line
counts c_L = |L & C| with one bincount per chunk of cliques;
decompose_clique is the batch of one.  The pair count P = sum_L
c_L (c_L - 1) is the one certificate: the module identity's residual r
has sum_v r(v)^2 = q (q (q - 1) - P) by three facts the row
certificate (oa._certify_rows) gives once per selection (lines of
different used rows meet once, every line has q points, two points share
at most one used line), and on the paired graph P = q (q - 1) iff C is
a clique.  A decomposition keeps its integer count table; the Fractions
are built when a reader asks.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import InitVar, dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .derived import derived, read_only
from .errors import (
    CanonicalAfterAll,
    CertificationFailed,
    IndexOutOfRange,
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
    build_cayley,
    color_classes,
    is_clique,
    srg_certify,
    transversal_cliques,
)
from .oa import (
    SubarraySelection,
    _used_lines,
    is_paired,
    subarray_for_connection_set,
    unused_slope_coloring,
    verify_isomorphism,
)

_GATHER_BYTES = 4 << 20  # cap on one chunk's (cliques, q, m) keys and (cliques, m q) counts


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
    the used kept rows (oa._used_lines).

    Certifies nothing.  Once oa.verify_isomorphism pairs a graph with the
    selection, the used lines are cliques of that graph.
    """
    return [CanonicalClique(*line) for line in _used_lines(sel)]


def _basis_matrix(basis: EkrBasis) -> np.ndarray:
    """B, n x m (q - 1) int64: column j is q chi - 1 of basis_cliques[j]."""
    q, m = basis.q, basis.m
    intercepts = np.array([cl.intercept for cl in basis.basis_cliques])
    columns = basis.symbol[np.repeat(np.arange(m), q - 1)]  # q - 1 basis cliques per class
    return np.where(np.ascontiguousarray(columns.T) == intercepts, q - 1, -1)


@dataclass(frozen=True)
class EkrBasis:
    """Balanced indicators of the canonical cliques missing the base
    vertex 0, built from the certified SubarraySelection alone.

    Every other field is derived from selection in __post_init__, so
    none can disagree with it or be passed to dataclasses.replace:
    all_cliques and basis_cliques (canonical_cliques), q, m, rank m (q -
    1) and line_keys, the (coset, intercept) of all_cliques, which key
    every Decomposition.unbalanced.  So are symbol, the m used rows in
    coset order, read-only (symbol[b, v] is the intercept of the class-b
    line through v), and the tables decompose_cliques reads, lines[v, b]
    = b q + symbol[b, v], at_base, base_keys = b q + at_base[b] and
    off_base.  The identity sum_v r(v)^2 = q (q (q - 1) - P)
    (decompose_cliques) needs lines of different used rows to meet
    once, every line to have q points and two points to share at most
    one used line; the selection's kept-row certificate gave all three
    when it built those rows, so a basis holds no uncertified table and
    certifies none again.  matrix, derived from symbol on first read,
    holds the columns q*chi - 1 (so column / q is the balanced
    indicator), ordered by (coset, intercept).  build_ekr_basis
    certifies them eigenvectors at q - m; their Gram matrix is I_m (x)
    q^2 (q I - J), so they are orthogonal across parallel classes and of
    full column rank m*(q - 1).  The tables are not fields.
    """
    selection: SubarraySelection = field(compare=False)
    matrix: np.ndarray = derived(_basis_matrix, compare=False)
    base_vertex: int = field(init=False)
    q: int = field(init=False)
    m: int = field(init=False)
    all_cliques: list[CanonicalClique] = field(init=False)
    basis_cliques: list[CanonicalClique] = field(init=False)
    rank: int = field(init=False)
    line_keys: tuple[tuple[int, int], ...] = field(init=False)

    def __post_init__(self):
        sel = self.selection
        q, m = sel.q, sel.m
        cliques = canonical_cliques(sel)
        symbol = sel.kept[:m]
        at_base = symbol[:, 0]
        for name, value in (("base_vertex", 0), ("q", q), ("m", m), ("rank", m * (q - 1)),
                            ("all_cliques", cliques),
                            ("basis_cliques", [cl for cl in cliques if 0 not in cl.vertices]),
                            ("line_keys", tuple((cl.coset, cl.intercept) for cl in cliques)),
                            ("symbol", symbol), ("at_base", at_base),
                            ("lines", np.ascontiguousarray((symbol + q * np.arange(m)[:, None]).T)),
                            ("base_keys", q * np.arange(m) + at_base),
                            ("off_base", np.arange(q) != at_base[:, None])):
            object.__setattr__(self, name, value)


def build_ekr_basis(x: Graph, sel: SubarraySelection) -> EkrBasis:
    """Certify the clique eigenspace basis of x: verify_isomorphism(x,
    sel), then EkrBasis(sel).

    The pairing gives A chi_L = (m - 1) 1 + (q - m) chi_L on every used
    line L: so A B = (q - m) B, the canonical cliques are cliques, and A
    has spectrum {k, q - m, -m}.  Each strength-2 row partitions the
    vertices, so each class has one line through the base vertex.  B^T
    B = I_m (x) q^2 (q I - J), entry q^2 (|L & L'| - 1), is fixed by
    three certified facts: the kept rows are pairwise strength 2 (lines
    of different used slopes meet once), the column -> vertex map is a
    bijection (each line has q vertices), and each row partitions the
    plane (lines of one slope are disjoint).  It is nonsingular, so B has
    full column rank m (q - 1) and spans every difference chi_base -
    chi_other.
    """
    verify_isomorphism(x, sel)
    return EkrBasis(sel)


def _shifted_counts(dec: Decomposition) -> tuple[np.ndarray, np.ndarray]:
    """The base counts c_{L_b} and the (m, q) table c_L - c_{L_b} = q b_L."""
    basis = dec.basis
    counts = dec.counts.astype(np.int64)
    base = counts[np.arange(basis.m), basis.at_base]
    return base, counts - base[:, None]


def _numerators(dec: Decomposition) -> list[int]:
    """q b_L over the basis cliques, in basis order."""
    return _shifted_counts(dec)[1][dec.basis.off_base].tolist()


def _coefficients(dec: Decomposition) -> list[Fraction]:
    return [Fraction(t, dec.basis.q) for t in _numerators(dec)]


def _histogram(dec: Decomposition) -> dict[Fraction, int]:
    return {Fraction(t, dec.basis.q): count for t, count in Counter(_numerators(dec)).items()}


def _unbalanced(dec: Decomposition) -> dict[tuple[int, int], Fraction]:
    basis = dec.basis
    base, diff = _shifted_counts(dec)
    lift = (1 - basis.m + base.sum()) + basis.m * diff.ravel()  # q m (u + b_L)
    return {key: Fraction(k, basis.q * basis.m) for key, k in zip(basis.line_keys, lift.tolist())}


@dataclass
class Decomposition:
    """An exact decomposition, kept as its certified line counts.

    counts is the read-only (m, q) table c_L = |L & C| of the basis's
    used lines, by (class, intercept).  coefficients (aligned with
    basis.basis_cliques), histogram and unbalanced (over all m*q
    canonical cliques) are derived from it on first read.  basis is the
    EkrBasis the counts were read against; it is an init-only argument,
    not a field.
    """
    clique: tuple[int, ...]
    residual_zero: bool
    zero_count: int
    counts: np.ndarray = field(compare=False)
    coefficients: list[Fraction] = derived(_coefficients)
    histogram: dict[Fraction, int] = derived(_histogram)
    unbalanced: dict[tuple[int, int], Fraction] = derived(_unbalanced)
    basis: InitVar[Optional[EkrBasis]] = None

    def __post_init__(self, basis):
        self.basis = basis


def decompose_clique(x: Graph, basis: EkrBasis, clique: Sequence[int]) -> Decomposition:
    """decompose_cliques on the one clique."""
    return decompose_cliques(x, basis, [clique])[0]


def decompose_cliques(x: Graph, basis: EkrBasis,
                      cliques: Iterable[Sequence[int]]) -> list[Decomposition]:
    """Exact coefficients of each maximum clique's balanced indicator over
    the basis, read off its line counts c_L = |L & C|, in input order.

    Let L_b(v) be the class-b line through v and L_b = L_b(base).  For
    w = q chi_C - 1, B^T w = q^2 (c_L - 1); the certified Gram matrix
    inverts per class to (I + J) / q^3, and each class's counts sum to q,
    so the projection has b_L = (c_L - c_{L_b}) / q.  As (B b)(v) =
    sum_b c_{L_b(v)} - m, the projection is exact iff the residual r(v) =
    sum_b c_{L_b(v)} - q [v in C] - (m - 1) is zero at every vertex, and
    then so is the unbalanced lift chi_C = sum_L (u + b_L) chi_L, with
    u = (1 - m + sum_b c_{L_b}) / (q m).

    The pair count P = sum_L c_L (c_L - 1) decides that identity: with
    s(v) = sum_b c_{L_b(v)}, the three facts the kept-row certificate
    gave for the selection's used rows (lines of different used rows
    meet once, every line has q points, two points share at most one
    used line) give
    sum_v s = m q^2, sum_{v in C} s = P + m q and sum_v s^2 = q (P + m q)
    + m (m - 1) q^2, so sum_v r(v)^2 = q (q (q - 1) - P).  P counts the
    ordered pairs of C on a used line, and the paired graph joins two
    vertices iff they share one, so P = q (q - 1) iff C is a clique of
    x; a q-clique is maximum, as the certified q-coloring gives omega <=
    q.  A set that fails the pair count is therefore no clique of x, and
    raises NotMaximumClique.  One bincount per chunk of cliques, its
    (cliques, q, m) keys and (cliques, m q) counts capped at
    _GATHER_BYTES, reads every count table; no array spans the n
    vertices.

    The first clique that fails raises the error decompose_clique raises
    on it.  CertificationFailed unless x passes oa.is_paired against
    basis.selection, the check build_ekr_basis ran.  Each Decomposition
    keeps its count table, as int16 (c_L <= q <= 1024), and its zero
    count; the Fractions are built only when a reader asks for them.
    """
    q, m, n = basis.q, basis.m, x.n
    if not is_paired(x, basis.selection):
        raise CertificationFailed("graph is not the one the basis was paired with")
    sets, refused = [], None
    for clique in cliques:
        cl = tuple(sorted(set(clique)))
        if cl and not (0 <= cl[0] and cl[-1] < n):
            refused = IndexOutOfRange(f"vertex {next(v for v in cl if not 0 <= v < n)} "
                                      f"outside [0, {n})")
            break
        if len(cl) != q:
            refused = NotMaximumClique(f"{cl} is not a maximum clique (|C| must be {q})")
            break
        sets.append(cl)

    lines = basis.lines
    step = max(1, _GATHER_BYTES // (8 * m * q))
    out = []
    for lo in range(0, len(sets), step):
        chunk = sets[lo:lo + step]
        keys = lines.take(np.array(chunk, dtype=np.intp), axis=0)  # (cliques, q, m)
        keys += m * q * np.arange(len(chunk))[:, None, None]
        counts = np.bincount(keys.ravel(), minlength=len(chunk) * m * q).reshape(len(chunk), m * q)
        failed = ((counts * (counts - 1)).sum(axis=1) != q * (q - 1)).nonzero()[0]
        if failed.size:
            raise NotMaximumClique(f"{chunk[failed[0]]} is not a maximum clique (|C| must be {q})")

        base = counts.take(basis.base_keys, axis=1)  # c_{L_b}
        table = counts.reshape(len(chunk), m, q)
        zeros = (table == base[:, :, None]).sum(axis=(1, 2)) - m  # b_L = 0 off base
        table = read_only(table.astype(np.int16))
        out.extend(Decomposition(cl, True, z, t, basis=basis)
                   for cl, z, t in zip(chunk, zeros.tolist(), table))
    if refused is not None:
        raise refused
    return out


@dataclass(frozen=True)
class AuditReport:
    """A strict-EKR audit, kept as its T0 maximum cliques through 0.

    through_0 holds them sorted, and ctx is the field whose translates
    carry them to every other maximum clique.  cliques, every maximum
    clique (through through_vertex when it is set) sorted, is not a
    field: it is built from through_0 by one _translation_closure on
    first read and cached on this object, so dataclasses.replace never
    copies it.
    """
    omega: int
    through_vertex: Optional[int]
    clique_count: int
    canonical_count: int
    non_canonical: tuple[tuple[int, ...], ...]
    through_0: tuple[tuple[int, ...], ...]
    ctx: FieldCtx = field(compare=False, repr=False)

    @property
    def strict(self) -> bool:
        return not self.non_canonical

    @cached_property
    def cliques(self) -> list[tuple[int, ...]]:
        rows = np.array(self.through_0, dtype=np.int64).reshape(len(self.through_0), self.omega)
        closure = _translation_closure(self.ctx, rows, self.through_vertex, _Deadline(None))
        return list(map(tuple, closure.tolist()))


def strict_ekr_audit(x: Graph, sel: SubarraySelection,
                     through_vertex: Optional[int] = None,
                     budget: Optional[float] = DEFAULT_BUDGET) -> AuditReport:
    """Exhaustively enumerate maximum cliques and split them into
    canonical and not, working on the cliques through 0.

    Completeness rests on what verify_isomorphism, run first, certifies.
    The unused-slope coloring is proper with q colors, so omega <= q and
    every clique of size q meets each of its classes exactly once; the
    transversal search through vertex 0 lists every one of them through
    0, T0 in all.  The graph carries its field, so it was built
    translation invariant (Graph.cayley), and the maximum cliques are
    the translates C + u of those through 0, each arising once per
    vertex: counting (clique, vertex) pairs gives N q = n T0, so N = q
    T0 with n = q^2, and T0 cliques pass through any given vertex.
    Translation maps each line to a line of the same slope, so the
    translates of a clique through 0 are canonical iff it is, and the
    canonicity test reads the T0 cliques only: a used kept row, whose
    lines are those of the cosets of N(0), reads 0 at vertex 0, so a
    clique through 0 is canonical iff that row reads 0 on all of it,
    which makes it that line of q points.  The found cliques are
    distinct, so exactly m canonical ones through 0 are every expected
    line, which attains omega = q; a search that lost one is refused.
    Only the non-canonical cliques are translated, by
    _translation_closure: for the full list it keeps C + u when u is its
    least vertex, which gives each clique once, and the list through v
    is the C + v.  The full list of cliques is built on first read of
    AuditReport.cliques.  A timeout aborts with no verdict.
    """
    verify_isomorphism(x, sel)
    q, m = sel.q, sel.m
    if through_vertex is not None and not 0 <= through_vertex < x.n:
        raise IndexOutOfRange(f"vertex {through_vertex} outside [0, {x.n})")
    deadline = _Deadline(budget)

    classes = color_classes(unused_slope_coloring(sel))
    through_0 = transversal_cliques(x, classes.values(), 0, deadline)
    members = np.array(through_0, dtype=np.int64).reshape(len(through_0), q)
    canonical = (sel.kept[:m, members] == 0).all(axis=2).any(axis=0)  # (m, T0, q) gather
    if np.count_nonzero(canonical) != m:
        raise CertificationFailed("a canonical clique is missing from the enumeration")
    if not canonical.all() and q > (m - 1) ** 2:
        raise CertificationFailed("non-canonical maximum clique below the threshold")

    moved = _translation_closure(x.field, members[~canonical], through_vertex, deadline)
    count = len(through_0) if through_vertex is not None else q * len(through_0)
    non_canonical = tuple(map(tuple, moved.tolist()))
    return AuditReport(q, through_vertex, count, count - len(non_canonical), non_canonical,
                       tuple(through_0), x.field)


def _translation_closure(ctx: FieldCtx, through_0: np.ndarray,
                         through_vertex: Optional[int], deadline) -> np.ndarray:
    """The translates C + u of the cliques C through 0 (the rows of
    through_0), each row sorted and the rows in lexicographic order: those
    with u = through_vertex, or, for the full list, those whose least
    vertex is u.

    The full list rests on the digit rule.  Labels add digit by digit
    mod p with no carry, so for c != 0 with top nonzero digit j, c + u
    agrees with u above digit j and differs at j: c + u > u iff c_j + u_j
    < p, that is u_j < p - c_j.  As 0 is in C, min(C + u) = u iff every
    c in C \\ {0} has c + u > u, iff u lies in the digit box u_j < b_j(C)
    = p - max{c_j : top(c) = j} (b_j = p when no c has top digit j).
    The bounds of all cliques come from one (T0, q, r) digit comparison;
    each box is enumerated in mixed radix and one add_array moves every
    kept (C, u) pair.  For the N cliques listed, memory is O(N q + T0 q
    r) and the work is r digit passes over N q labels and one row sort,
    never T0 x n.  Raises SearchTimeout, and returns nothing, once the
    deadline has passed.
    """
    deadline.check()
    if not len(through_0):  # nothing to translate
        return through_0
    if through_vertex is not None:
        moved = ctx.add_array(through_0, through_vertex)
    else:
        p, r = ctx.p, ctx.r
        places = p ** np.arange(r)
        top = np.count_nonzero(through_0[:, :, None] >= places, axis=2) - 1  # -1 at c = 0
        lead = through_0 // places[np.maximum(top, 0)]  # digit top(c) of c
        b = p - np.where(top[:, :, None] == np.arange(r), lead[:, :, None], 0).max(axis=1)
        sizes = b.prod(axis=1)
        owner = np.repeat(np.arange(len(b)), sizes)
        k = np.arange(owner.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        u = np.zeros_like(k)
        for j in range(r):  # mixed radix: digit j of u runs over [0, b_j)
            u += k % b[owner, j] * places[j]
            k //= b[owner, j]
        moved = ctx.add_array(through_0[owner], u[:, None])
    moved.sort(axis=1)
    return moved[np.lexsort(moved.T[::-1])]


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


def subfield_clique(ctx: FieldCtx,
                    subfield_order: int) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """A K-linear q-set C for a proper subfield K of F_q, s = |K| and
    q = s^t, that meets exactly m = (q - 1) / (s - 1) cosets, 0 among
    them; returns t, C sorted, and the cosets that C \\ {0} meets.

    C is first the direct sum K + g K + ... + g^(t-1) K.  A K-span is an
    additive group by construction, so C - C = C needs no check.  Its m
    K-lines through 0 each lie in one coset of F_q^*, and 1 in C lies in
    coset 0, so a K-span meets at most m cosets, 0 among them; more, or
    no coset 0, means K is not the subfield.  It meets fewer when two
    of its K-lines share a coset (q = 81, s = 3 and q = 125, s = 5), and
    then C is the graph of x -> x^s, {x + x^s g : x in F_q}, scaled by
    (1 + g)^(-1) into coset 0.  That is K-linear, as (x + y)^s = x^s +
    y^s and k^s = k on K, and has q points, as g is not in F_q; its
    differences d (1 + d^(s-1) g) have the m directions of the (s-1)-th
    powers d^(s-1).  Verifies |C| = q and the m cosets including 0.
    """
    q = ctx.subfield_order
    K = ctx.subfield_of_order(subfield_order)
    if subfield_order >= q or (q - 1) % (subfield_order - 1) != 0:
        raise NotProperSubfield(f"{subfield_order} is not a proper subfield order of {q}")
    t = round(math.log(q, subfield_order))  # |K|^t = q
    if subfield_order ** t != q:
        raise NotProperSubfield(f"F_{subfield_order} does not fill F_{q}")
    m = (q - 1) // (subfield_order - 1)

    span = np.zeros(1, dtype=np.int64)
    for j in range(t):  # every sum of the span so far and g^j K
        span = ctx.add_array(span[:, None], ctx.mul_array(K, ctx.gen_pow(j))).ravel()
    kind, clique = "direct sum", sorted(set(span.tolist()))
    indices = sorted({ctx.coset_index(z) for z in clique if z != 0})
    if len(clique) == q and len(indices) < m and 0 in indices:  # two K-lines share a coset
        sub, g = ctx.subfield_elements(), ctx.generator
        powers = ctx.mul_array([ctx.pow(x, subfield_order) for x in sub], g)
        graph = ctx.mul_array(ctx.add_array(sub, powers), ctx.inv(ctx.add(1, g)))
        kind, clique = "graph of x^s", sorted(set(graph.tolist()))
        indices = sorted({ctx.coset_index(z) for z in clique if z != 0})
    if len(clique) != q:
        raise VerificationFailed(f"{kind} has {len(clique)} elements, not {q}")
    if len(indices) != m or 0 not in indices:
        raise VerificationFailed(
            f"{kind} meets cosets {indices}, expected {m} cosets including 0")
    return t, tuple(clique), tuple(indices)


def build_counterexample(ctx: FieldCtx, subfield_order: int) -> Counterexample:
    """The subfield clique C (subfield_clique) as a non-canonical maximum
    clique of the graph on the cosets it meets.

    Verifies, beyond subfield_clique: C is a clique meeting the Hoffman
    bound q, so a maximum one, and C differs from every canonical clique.
    """
    q = ctx.subfield_order
    t, clique, indices = subfield_clique(ctx, subfield_order)
    g = build_cayley(ctx, indices)
    params = srg_certify(g)
    if not is_clique(g, clique):
        raise NotMaximumClique("subfield clique is not a clique")
    if params.hoffman_bound() != q:  # |C| = q meets the bound, so C is maximum
        raise CertificationFailed(f"Hoffman bound {params.hoffman_bound()} != {q}")

    sel = subarray_for_connection_set(ctx, indices)
    for canon in canonical_cliques(sel):
        if canon.vertices == clique:
            raise CanonicalAfterAll(f"C equals the coset clique {canon}")
    return Counterexample(q, subfield_order, t, len(indices), indices, clique, g, sel, params)
