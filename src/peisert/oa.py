"""Point-line orthogonal arrays over AG(2, q) and their block graphs.

The plane is coordinatized inside GF(q^2): fixing alpha outside F_q,
every z splits uniquely as z = x + y*alpha with x, y in F_q.  Row k of
the full array holds y - k*x at column (x, y) (the row at infinity holds
x), so rows are slopes, columns are points, and the cells of one row
partition the plane into the q parallel lines of that slope.  Any set
of rows is one gather through q x q tables of subfield ranks (_rows),
and the column -> vertex map and the coset cliques are whole label
arrays computed with FieldCtx.add_array and mul_array, never cell by
cell.

An array is fixed by its symbol table: symbol[r, z] is the entry of row
r at the column of vertex z, the intercept rank of the slope-r line
through z.  A row is certified by reading its own cells: additive on the
digit generators (_nonadditive), so a homomorphism F_(q^2) -> F_q.  A
SubarraySelection realizes a connection set as the block graph of the
rows carrying its cosets, the row of coset i being the slope v / u of
g^i = u + v*alpha.  It builds and certifies only its kept rows, the m
used rows and the least unused one: each additive with a kernel of q
points, and no two kernels sharing a nonzero vertex, so any two kept
rows are a bijection onto F_q^2 and show each symbol pair once.  It is
built from the field and the cosets alone and holds its rows read-only,
so it is certified once and never altered, and holds N(0) of its block
graph.  is_paired, the one check that pairs it with a graph (by the
graph's field, n and N(0)), implies from the kept rows the used-line
eigenvalues, the valency and the unused-slope coloring, which ekr and
whd therefore never re-check; the canonical cliques, their
decompositions and the clique bound also read the kept rows only.  The
full (q + 1)-row table is built on first read of
SubarraySelection.symbol, its other rows certified additive and every
nonzero vertex at 0 in exactly one row; only build_whd reads it, for
the WHD Gram closed form and the unused-row eigenvalues.
certify_coset_lines checks the used lines against the coset cliques by
2 m q reads, and the clique bound counts triangles of the paired graph,
so only `oa blockgraph` builds a block graph.  The selection is built
once per graph: the certificates here and in ekr and whd take it and
never rebuild it.  build_pointline_oa builds and certifies the full
table at once (_plane); OrthogonalArray.verify, the row-pair count,
checks arrays read from CSV.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .derived import read_only
from .errors import (
    AlphaInSubfield,
    CertificationFailed,
    CorrespondenceFailed,
    IndexOutOfRange,
    MalformedFile,
    NoFreeCoset,
    NotIsomorphicUnderF,
    OAVerificationFailed,
)
from .field import FieldCtx
from .graphs import DEFAULT_BUDGET, Graph, _bits, _Deadline, _mask_of, enumerate_maximal_cliques

INFINITY_SLOPE = None  # sentinel for the vertical-line row
_VERIFY_BINS = 1 << 17


@dataclass
class OrthogonalArray:
    """m x n^2 array with symbols in [0, n); strength-2 when verified.

    row_labels are slopes (field-element labels, with None for the row at
    infinity) for built arrays, or opaque strings for imported ones.
    column_labels, when present, are (x, y) pairs of subfield-element
    labels in the builder's column order.
    """
    n: int
    entries: list[list[int]]
    row_labels: list
    column_labels: Optional[list[tuple[int, int]]] = None

    @property
    def num_rows(self) -> int:
        return len(self.entries)

    @property
    def num_columns(self) -> int:
        return self.n * self.n

    def verify(self):
        """Strength-2 check: every ordered symbol pair appears exactly
        once in every pair of distinct rows, counted by one bincount per
        row against the later rows, each pair in its own range of n^2
        bins; a bincount spans at most _VERIFY_BINS bins, so that up to
        q = 49 it takes all later rows at once and above that its counts
        stay in cache."""
        n = self.n
        ncols = self.num_columns
        for row in self.entries:
            if len(row) != ncols:
                raise OAVerificationFailed(f"row length {len(row)} != {ncols}")
            if row and (min(row) < 0 or max(row) >= n):
                e = next(e for e in row if not 0 <= e < n)
                raise OAVerificationFailed(f"symbol {e} outside [0, {n})")
        arr = np.array(self.entries, dtype=np.int64)
        step = max(1, _VERIFY_BINS // max(1, ncols))
        for i in range(self.num_rows - 1):
            for lo in range(i + 1, self.num_rows, step):
                later = arr[lo:lo + step]
                keys = arr[i] * n + later
                keys += np.arange(len(later))[:, None] * ncols  # row lo + t in range t
                counts = np.bincount(keys.ravel(), minlength=later.size)
                if counts.all():  # n^2 pairs fill n^2 bins only once each
                    continue
                t = int(np.flatnonzero(~counts.reshape(len(later), -1).all(axis=1))[0])
                first = np.zeros(ncols, dtype=bool)
                first[np.unique(keys[t], return_index=True)[1]] = True
                c = int(np.flatnonzero(~first)[0])
                raise OAVerificationFailed(
                    f"rows ({i}, {lo + t}) repeat symbol pair at column {c}")
        return True


def build_pointline_oa(ctx: FieldCtx, alpha: int) -> OrthogonalArray:
    """The full OA(q + 1, q) of the affine plane coordinates by alpha.

    alpha must lie outside F_q (Frobenius-checked).  Symbols are subfield
    elements ranked by label; columns are ordered lexicographically by
    the (x, y) symbol pair.  Certified strength 2 by _plane.
    """
    vertex, symbol = _plane(ctx, alpha)
    return _list_array(ctx, vertex, symbol, range(ctx.subfield_order + 1))


def _list_array(ctx: FieldCtx, vertex, table: np.ndarray, rows) -> OrthogonalArray:
    """The rows of a symbol table as a list-form array, table[j] holding
    row rows[j], with the (x, y) columns in the order of the column ->
    vertex map."""
    labels = list(ctx.subfield_elements())
    slopes = labels + [INFINITY_SLOPE]
    return OrthogonalArray(len(labels), table[:, vertex].tolist(),
                           [slopes[r] for r in rows], [(x, y) for x in labels for y in labels])


def _plane(ctx: FieldCtx, alpha: int) -> tuple[np.ndarray, np.ndarray]:
    """The column -> vertex map and the symbol table of the full array,
    built by _rows and certified strength 2 in O(n q) by
    _certify_strength_two."""
    ranks = _subfield_ranks(ctx)
    vertex, _ = _coordinates(ctx, ranks[0], alpha)
    symbol = _rows(ranks, vertex, range(ctx.subfield_order + 1))
    _certify_strength_two(ctx, ranks[2], symbol)
    return vertex, symbol


def _coordinates(ctx: FieldCtx, sub: np.ndarray, alpha: int) -> tuple[np.ndarray, np.ndarray]:
    """The column -> vertex map, vertex[c] = x + y * alpha at column c =
    (x, y) = (sub[c // q], sub[c % q]), and its inverse column[z].
    Raises AlphaInSubfield unless alpha lies outside F_q, and
    NotIsomorphicUnderF unless the map is a bijection onto the field:
    its n labels fill all n slots of the inverse."""
    q = len(sub)
    if alpha == 0 or ctx.pow(alpha, q) == alpha:
        raise AlphaInSubfield(f"alpha label {alpha} lies in F_{q}")
    vertex = ctx.add_array(np.repeat(sub, q), ctx.mul_array(np.tile(sub, q), alpha))
    column = np.full(ctx.order, -1, dtype=np.int64)
    column[vertex] = np.arange(q * q)
    if (column < 0).any():
        raise NotIsomorphicUnderF("(x, y) -> x + y*alpha is not a bijection onto the field")
    return vertex, column


def _rows(ranks, vertex: np.ndarray, rows) -> np.ndarray:
    """Rows `rows` of the symbol table, given _subfield_ranks' tables.
    Row k holds y - sub[k] x at column (x, y) = (sub[a], sub[b]), the
    rank plus[minus[k, a], b]; the row at infinity holds x, the rank a.
    All rows are one gather through the rank tables and one scatter
    through the column -> vertex map."""
    plus, minus = ranks[2], ranks[3]
    q, rows = len(plus), np.asarray(rows, dtype=np.intp)
    cells = plus[minus[np.minimum(rows, q - 1)]]  # (rows, a, b)
    cells[rows == q] = np.arange(q)[:, None]
    out = np.empty((len(rows), q * q), dtype=np.int16)
    out[:, vertex] = cells.reshape(len(rows), q * q)
    return out


def _subfield_ranks(ctx: FieldCtx) -> tuple[np.ndarray, ...]:
    """The subfield labels sub ascending, rank[z] (the index of z among
    them, -1 off the subfield), the rank-addition table plus[a, b], the
    rank of sub[a] + sub[b], and the table minus[k, a], the rank of
    -sub[k] * sub[a].  minus adds exponents of h = g^(q + 1), which
    generates F_q^* (its q - 1 powers are the nonzero subfield labels),
    and -1 = h^((q - 1) / 2).  Raises OAVerificationFailed unless F_q is
    closed under addition."""
    sub = np.array(ctx.subfield_elements(), dtype=np.int64)
    rank = np.full(ctx.order, -1, dtype=np.int16)  # q <= 2^10
    rank[sub] = np.arange(len(sub))
    plus = rank[ctx.add_array(sub[:, None], sub)]
    if (plus < 0).any():
        raise OAVerificationFailed("the subfield is not closed under addition")
    q = len(sub)
    power = rank[[ctx.gen_pow(j * (q + 1)) for j in range(q - 1)]]  # rank of h^j
    log = np.zeros(q, dtype=np.int64)
    log[power] = np.arange(q - 1)
    minus = power[(log[:, None] + log + (q - 1) // 2) % (q - 1)]
    minus[0] = minus[:, 0] = 0  # 0 times anything
    return sub, rank, plus, minus


def _nonadditive(p: int, plus: np.ndarray,
                 symbol: np.ndarray) -> Optional[tuple[int, int, int]]:
    """The first (row, vertex z, generator g) with symbol[row, z + g] !=
    symbol[row, z] + symbol[row, g] in F_q, g a digit generator p^j, or
    None.  Each row sigma is compared with its additive extension from
    the generators, hat(z + d p^j) = hat(z) + d sigma(p^j) for z < p^j,
    filled block by block through the rank-addition table plus.  hat is
    a group homomorphism (p sigma(p^j) = 0 in F_q), so sigma = hat
    certifies sigma additive; at the first vertex z > 0 where they
    differ, the last digit step z - p^j -> z fails for sigma."""
    n = symbol.shape[1]
    hat = np.zeros_like(symbol)
    place = 1
    while place < n:
        gen = symbol[:, [place]]  # sigma(p^j)
        for d in range(1, p):
            hat[:, d * place:(d + 1) * place] = plus[hat[:, (d - 1) * place:d * place], gen]
        place *= p
    wrong = hat != symbol
    if not wrong.any():
        return None
    i, z = (int(t) for t in np.argwhere(wrong)[0])
    if z == 0:  # sigma(0) != 0, so sigma(0 + 1) != sigma(0) + sigma(1)
        return i, 0, 1
    g = 1
    while g * p <= z:  # the leading digit place of z
        g *= p
    return i, z - g, g


def _certify_additive(p: int, plus: np.ndarray, table: np.ndarray, rows) -> None:
    """Raise OAVerificationFailed naming row rows[j] unless every row
    table[j] is additive (_nonadditive)."""
    bad = _nonadditive(p, plus, table)
    if bad is not None:
        raise OAVerificationFailed(
            f"row {rows[bad[0]]} symbols are not additive: vertex {bad[1]} plus {bad[2]}")


def _certify_strength_two(ctx: FieldCtx, plus: np.ndarray, symbol: np.ndarray,
                          unchecked: Optional[list[int]] = None) -> None:
    """Certify the (q + 1) x n symbol table of a point-line array strength
    2: each row additive, a group homomorphism F_(q^2) -> F_q, and each
    nonzero vertex at symbol 0 in exactly one row, so two rows' kernels
    meet only in 0.  Any two rows together are then an injective
    homomorphism onto F_q^2, which shows each symbol pair exactly once.
    unchecked, when given, lists the only rows not yet certified
    additive.  Raises OAVerificationFailed."""
    if unchecked is None:
        _certify_additive(ctx.p, plus, symbol, range(len(symbol)))
    else:
        _certify_additive(ctx.p, plus, symbol[unchecked], unchecked)
    zeros = np.count_nonzero(symbol[:, 1:] == 0, axis=0)
    bad = np.flatnonzero(zeros != 1)
    if bad.size:
        raise OAVerificationFailed(
            f"vertex {bad[0] + 1} has symbol 0 in {zeros[bad[0]]} rows, not one")


def _certify_kept(p: int, plus: np.ndarray, kept: np.ndarray, rows) -> None:
    """Certify kept rows pairwise strength 2, reading them alone: each
    additive, so a homomorphism F_(q^2) -> F_q; each at 0 on exactly q
    vertices, a kernel of q points, so onto F_q; and no nonzero vertex at
    0 in two of them.  Two kept rows then have kernels meeting only in 0,
    so together they are an injective, hence bijective, homomorphism
    onto F_q^2.  kept[j] is row rows[j] of the table.  Raises
    OAVerificationFailed naming the row or the vertex."""
    _certify_additive(p, plus, kept, rows)
    q = len(plus)
    zeros = kept == 0
    counts = np.count_nonzero(zeros, axis=1)
    bad = np.flatnonzero(counts != q)
    if bad.size:
        raise OAVerificationFailed(
            f"row {rows[bad[0]]} reads 0 on {counts[bad[0]]} vertices, not {q}")
    shared = np.count_nonzero(zeros[:, 1:], axis=0)
    bad = np.flatnonzero(shared > 1)
    if bad.size:
        raise OAVerificationFailed(
            f"vertex {bad[0] + 1} has symbol 0 in {shared[bad[0]]} kept rows")


def default_alpha(ctx: FieldCtx, coset_indices) -> int:
    """Least-labeled element of the least coset not in the index set.

    Coset 0 is F_q^* itself, so it can never supply alpha and is always
    skipped.
    """
    q = ctx.subfield_order
    free = sorted(set(range(1, q + 1)) - set(coset_indices))
    if not free:
        raise NoFreeCoset("every coset is used; no room for alpha")
    return min(ctx.coset_elements(free[0]))


@dataclass(frozen=True, eq=False)
class SubarraySelection:
    """The kept rows of the full array realizing one connection set.

    Built from the field and the cosets alone: alpha is default_alpha's,
    and vertex_of_column and kept are built and certified here
    (_certify_kept), so a selection never holds an uncertified row.
    rows[j] is the row of coset i = coset_indices[j]: the slope v / u of
    g^i = u + v * alpha, where g^i reads 0, field slopes ascending and the
    row at infinity last.  An index outside [0, q] raises IndexOutOfRange,
    and a coset on the alpha axis (u = 0) or sharing its row raises
    CorrespondenceFailed.  kept_rows is rows followed by the least unused
    row, the coloring row, and kept[j], an array over immutable bytes
    that no flag makes writeable again, is row kept_rows[j] of the symbol
    table: kept[j, z] is the intercept rank of the slope line through
    vertex z.  vertex_of_column sends column (x, y) of the full array and
    of the subarray to the Cayley label x + y * alpha.  neighbors is N(0)
    of the block graph as a bitset: the vertices v > 0 at symbol 0 in
    some used row.  The pairing, the used-line eigenvalues, the coloring,
    the canonical cliques, the decompositions and the clique bound read
    the kept rows only; symbol, the full table, is built on first read.
    """
    ctx: FieldCtx
    coset_indices: tuple[int, ...]
    alpha: int = field(init=False)
    rows: tuple[int, ...] = field(init=False)
    kept_rows: tuple[int, ...] = field(init=False)
    vertex_of_column: tuple[int, ...] = field(init=False)
    kept: np.ndarray = field(init=False)
    neighbors: int = field(init=False, repr=False)

    def __post_init__(self):
        ctx, idx = self.ctx, self.coset_indices
        q = ctx.subfield_order
        for i in idx:
            if not 0 <= i <= q:
                raise IndexOutOfRange(f"coset index {i} outside [0, {q}]")
        alpha = default_alpha(ctx, idx)
        ranks = _subfield_ranks(ctx)
        sub, rank = ranks[:2]
        vertex, column = _coordinates(ctx, sub, alpha)
        u, v = np.divmod(column[[ctx.gen_pow(i) for i in idx]], q)  # g^i = sub[u] + sub[v] alpha
        rows = tuple(q if a == 0 else int(rank[ctx.div(int(sub[b]), int(sub[a]))])
                     for a, b in zip(u.tolist(), v.tolist()))
        if q in rows:  # the row at infinity
            raise CorrespondenceFailed(f"coset {idx[rows.index(q)]} representative "
                                       "lies on the alpha axis")
        if len(set(rows)) != len(idx):
            raise CorrespondenceFailed("coset slopes are not pairwise distinct")
        kept_rows = rows + (min(set(range(q + 1)) - set(rows)),)
        kept = _rows(ranks, vertex, kept_rows)
        _certify_kept(ctx.p, ranks[2], kept, kept_rows)
        neighbors = _bitset((kept[:len(idx), 1:] == 0).any(axis=0)) << 1  # vertices 1, 2, ...
        for name, value in (("alpha", alpha), ("rows", rows), ("kept_rows", kept_rows),
                            ("vertex_of_column", tuple(vertex.tolist())),
                            ("kept", read_only(kept)), ("neighbors", neighbors),
                            ("_ranks", ranks), ("_vertex", vertex)):
            object.__setattr__(self, name, value)

    @property
    def q(self) -> int:
        return self.ctx.subfield_order

    @property
    def m(self) -> int:
        return len(self.coset_indices)

    @property
    def row_positions(self) -> tuple[int, ...]:
        return tuple(sorted(self.rows))

    @property
    def subarray(self) -> OrthogonalArray:
        """The used rows as a list-form array, built on each call."""
        order = np.argsort(self.rows)
        return _list_array(self.ctx, self._vertex, self.kept[order], self.row_positions)

    @cached_property
    def symbol(self) -> np.ndarray:
        """The full (q + 1) x n symbol table, read-only, built on first
        read from the rank tables and the column -> vertex map the
        selection holds.  Only the rows not kept are built and certified
        additive, then every nonzero vertex is checked at 0 in exactly
        one of the q + 1 rows (_certify_strength_two), with no second
        certificate of the kept rows.  A cached property, not a field, so
        dataclasses.replace never copies it."""
        rest = [r for r in range(self.q + 1) if r not in self.kept_rows]
        table = np.empty((self.q + 1, self.ctx.order), dtype=np.int16)
        table[list(self.kept_rows)] = self.kept
        table[rest] = _rows(self._ranks, self._vertex, rest)
        _certify_strength_two(self.ctx, self._ranks[2], table, rest)
        return read_only(table)


def _bitset(flags: np.ndarray) -> int:
    """The int bitset of the True positions of a boolean vector."""
    return int.from_bytes(np.packbits(flags, bitorder="little"), "little")


def subarray_for_connection_set(ctx: FieldCtx, coset_indices) -> SubarraySelection:
    """The selection of the given cosets, as a sorted tuple."""
    return SubarraySelection(ctx, tuple(sorted(set(int(i) for i in coset_indices))))


# ----- block graphs --------------------------------------------------------

def block_graph(oa: OrthogonalArray) -> Graph:
    """Columns adjacent iff they agree in some row."""
    ncols = oa.num_columns
    adj = [0] * ncols
    for row in oa.entries:
        cells: dict[int, list[int]] = {}
        for c, e in enumerate(row):
            cells.setdefault(e, []).append(c)
        for cols in cells.values():
            mask = _mask_of(cols)
            for c in cols:
                adj[c] |= mask & ~(1 << c)
    return Graph(ncols, adj)


def is_paired(x: Graph, sel: SubarraySelection) -> bool:
    """The one pairing check: x carries its field, so row u is N(0) + u
    (Graph.cayley), has sel's n vertices, and N(0) = sel.neighbors."""
    return x.field is not None and x.n == sel.ctx.order and x.adj[0] == sel.neighbors


def verify_isomorphism(x: Graph, sel: SubarraySelection) -> list[int]:
    """Certify by is_paired that (x, y) -> x + y*alpha maps the block
    graph of the selected subarray onto the Cayley graph x; return the
    vertex map (block column position -> Cayley label).

    The kept rows are pairwise strength 2 (_certify_kept): each is
    additive onto F_q with a kernel K_r of q points, and two kernels meet
    only in 0.  So u and v share a used line exactly when v - u is in
    sel.neighbors, and the image is x.  A line L = K_r + t of a row whose
    kernel meets each used kernel only in 0 meets N(0) in e (q - 1)
    points when t is in K_r and in m - e otherwise, with e = 1 on used
    rows and 0 elsewhere; as L - u is a line of row r, A chi_L = (m - e) 1
    + (e q - m) chi_L.  So k = m (q - 1), and from the kept rows alone,
    differences of lines of a used row are eigenvectors at q - m and the
    lines of the coloring row (an unused kept row) color x properly
    with q colors.  The other unused rows are eigenvectors at -m once
    SubarraySelection.symbol has certified the full table, which
    build_whd reads.  Raises NotIsomorphicUnderF on a size mismatch or
    with the pair (0, w), w least in exactly one of the two N(0), and
    CertificationFailed on a graph without its field."""
    if not is_paired(x, sel):
        if x.n != sel.ctx.order:
            raise NotIsomorphicUnderF(f"block graph has {sel.ctx.order} vertices, the graph {x.n}")
        if x.field is None:
            raise CertificationFailed("graph is not certified translation invariant")
        diff = x.adj[0] ^ sel.neighbors
        raise NotIsomorphicUnderF(f"pair (0, {(diff & -diff).bit_length() - 1}) "
                                  "adjacent in exactly one of the graphs")
    return list(sel.vertex_of_column)


def certify_coset_lines(sel: SubarraySelection) -> None:
    """Certify that each used line of symbol rank(delta) is the coset
    clique g^i F_q + delta * alpha of its coset i, by 2 m q reads of the
    kept rows.  Used row j reads 0 on the q points of g^i F_q, distinct
    as multiplication by g^i != 0 permutes the field, so they are its
    whole kernel (q points, _certify_kept); it reads rank(delta) at delta
    * alpha, so by additivity it reads rank(delta) on every point of g^i
    F_q + delta * alpha, which is then the line of that symbol.  Raises
    CorrespondenceFailed naming the row and the first symbol whose line
    differs (symbol 0 when the kernel read fails)."""
    ctx, q, m = sel.ctx, sel.q, sel.m
    sub = sel._ranks[0]
    used = sel.kept[:m]
    kernels = np.array([ctx.mul_array(sub, ctx.gen_pow(i)) for i in sel.coset_indices])
    bad = used[:, ctx.mul_array(sub, sel.alpha)] != np.arange(q)  # at delta * alpha
    bad[:, 0] |= np.take_along_axis(used, kernels, axis=1).any(axis=1)
    if bad.any():
        j, s = (int(t) for t in np.argwhere(bad)[0])
        raise CorrespondenceFailed(f"row {int(sub[sel.rows[j]])} symbol {s}: "
                                   "line and coset clique differ")


def _used_lines(sel: SubarraySelection):
    """Yield (coset, symbol, sorted vertices) for every line of the used
    kept rows, in coset order then symbol order: one stable argsort per
    row, whose positions are the vertex labels, each row's lists freed
    before the next.  The labels are one shared int object per vertex.
    Certifies nothing: the kept-row certificate makes each row a
    partition into q lines of q."""
    q = sel.q
    label = np.array(range(sel.ctx.order), dtype=object)
    for i, row in zip(sel.coset_indices, sel.kept):
        cells = label[np.argsort(row, kind="stable")].reshape(q, q).tolist()
        for sym, cell in enumerate(cells):
            yield i, sym, tuple(cell)


def canonical_correspondence(sel: SubarraySelection) -> dict:
    """Match every used line with its coset clique c_i * F_q + delta *
    alpha, certified by certify_coset_lines, returned by (coset, symbol):
    the sorted labels of the line (_used_lines)."""
    certify_coset_lines(sel)
    return {(i, sym): cell for i, sym, cell in _used_lines(sel)}


def unused_slope_coloring(sel: SubarraySelection) -> list[int]:
    """Proper q-coloring of the Cayley graph by the least unused slope,
    the last kept row.

    Field slopes rank below infinity; the color of vertex z is the symbol
    of the unused-slope line through z.  Some slope is unused, as
    SubarraySelection refuses any coset on the row at infinity.
    """
    return sel.kept[sel.m].tolist()


# ----- non-canonical clique bound ------------------------------------------

def translate_to_zero(oa: OrthogonalArray, column: int) -> OrthogonalArray:
    """Shift each row's symbols additively (mod n) so `column` reads all
    zeros.  The shift is a bijection of each row's symbols, so cell
    partitions, strength 2 and the block graph are unchanged."""
    n = oa.n
    entries = [[(e - row[column]) % n for e in row] for row in oa.entries]
    return OrthogonalArray(n, entries, list(oa.row_labels), oa.column_labels)


def certify_clique_bound(x: Graph, sel: SubarraySelection, *,
                         budget: Optional[float] = DEFAULT_BUDGET) -> int:
    """Certify by a triangle count, listing no clique, that no
    non-canonical maximal clique of x exceeds (m - 1)^2 vertices; return
    the bound.  verify_isomorphism runs first.

    If q <= (m - 1)^2, the unused-slope coloring, proper on a paired
    graph, gives omega <= q.  Otherwise let C be a non-canonical maximal
    clique through 0 (translations carry any vertex to 0).  A maximal
    clique inside one line through 0 is that line, so C has adjacent
    members v, w on two lines through 0.  Scaling by F_q^* fixes 0, S and
    every line through 0, so we may take v = g^i, i a used coset, and w
    in N(0) & N(v) off L_i, the kernel of i's row.  Every other member
    of C is a common neighbour of 0, v and w, so |C| <= 3 + |N(0) & N(v)
    & N(w)|, checked on all m (m - 1) (m - 2) triples.  None fails on a
    paired graph: strength 2 leaves at most m - 3 common neighbours on
    each triangle line and (m - 2)^2 - (m - 3) off them, and 3 + (m - 2)^2
    + 2 (m - 3) = (m - 1)^2.  Raises CertificationFailed naming the first
    failing (i, w)."""
    verify_isomorphism(x, sel)
    deadline = _Deadline(budget)
    bound = (sel.m - 1) ** 2
    if sel.q <= bound:
        return bound
    for i, row in zip(sel.coset_indices, sel.kept):
        deadline.check()
        both = x.adj[0] & x.adj[sel.ctx.gen_pow(i)]
        for w in _bits(both & ~_bitset(row == 0)):
            count = (both & x.adj[w]).bit_count()
            if 3 + count > bound:
                raise CertificationFailed(f"coset {i}, vertex {w}: 3 + {count} common "
                                          f"neighbours exceed the bound {bound}")
    return bound


def noncanonical_clique_bound(x: Graph, sel: SubarraySelection, *,
                              budget: Optional[float] = DEFAULT_BUDGET) -> dict:
    """Check every non-canonical maximal clique through column 0 of the
    selected subarray's block graph against the (m - 1)^2 size bound, its
    members other than column 0 grouped by the subarray row where each
    agrees with column 0.  verify_isomorphism, run first, maps the block
    graph onto x, and column 0 is vertex 0, so the cliques are those of x
    through 0, mapped back to columns.  Rows are additive, so a column
    agrees with column 0 in the used row where its vertex reads 0, unique
    by strength 2.  A cell through column 0, the canonical clique, is one
    part of q - 1 columns.  Translations of the plane permute the columns
    and keep every parallel class, so column 0 stands for every column."""
    vertex_of = verify_isomorphism(x, sel)
    column_of = [0] * x.n
    for col, v in enumerate(vertex_of):
        column_of[v] = col
    row_of = (sel.kept[np.argsort(sel.rows)] == 0).argmax(axis=0).tolist()
    found = enumerate_maximal_cliques(x, through_vertex=0, budget=budget)
    cliques = sorted(tuple(sorted(column_of[v] for v in c)) for c in found)
    bound = (sel.m - 1) ** 2
    noncanonical = []
    for c in cliques:
        parts: dict[int, list[int]] = {}
        for col in c[1:]:  # c[0] is column 0
            parts.setdefault(row_of[vertex_of[col]], []).append(col)
        if len(parts) == 1 and len(c) == sel.q:
            continue
        if len(c) > bound:
            return {"ok": False, "witness": c, "bound": bound,
                    "maximal_through": len(cliques)}
        noncanonical.append({"clique": c, "parts": {r: tuple(p) for r, p in parts.items()}})
    return {"ok": True, "bound": bound, "maximal_through": len(cliques),
            "noncanonical": noncanonical}


# ----- CSV ------------------------------------------------------------------

def oa_to_csv(oa: OrthogonalArray) -> str:
    """Header `slope,<col labels>`; one line per row.  Slope cells render
    field labels, with `inf` for the row at infinity; column labels render
    as x:y pairs."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    if oa.column_labels is not None:
        cols = [f"{x}:{y}" for (x, y) in oa.column_labels]
    else:
        cols = [f"c{i}" for i in range(oa.num_columns)]
    w.writerow(["slope"] + cols)
    for lab, row in zip(oa.row_labels, oa.entries):
        name = "inf" if lab is INFINITY_SLOPE else str(lab)
        w.writerow([name] + [str(e) for e in row])
    return buf.getvalue()


def oa_from_csv(text: str) -> OrthogonalArray:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or not rows[0] or rows[0][0] != "slope":
        raise MalformedFile("missing slope header")
    header = rows[0][1:]
    column_labels = None
    if header and all(":" in h for h in header):
        column_labels = [tuple(int(t) for t in h.split(":")) for h in header]
    entries = []
    row_labels: list = []
    for row in rows[1:]:
        if not row:
            continue
        row_labels.append(INFINITY_SLOPE if row[0] == "inf" else int(row[0]))
        entries.append([int(e) for e in row[1:]])
    if not entries:
        raise MalformedFile("no array rows after the header")
    ncols = len(entries[0])
    n = round(ncols ** 0.5)
    if n * n != ncols:
        raise OAVerificationFailed(f"{ncols} columns is not a perfect square")
    if len(header) != ncols:
        raise MalformedFile(f"header names {len(header)} columns, the rows hold {ncols}")
    for i, row in enumerate(entries):
        if len(row) != ncols:
            raise MalformedFile(f"array row {i} holds {len(row)} cells, the header names {ncols}")
    return OrthogonalArray(n, entries, row_labels, column_labels)
