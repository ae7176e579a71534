"""Point-line orthogonal arrays over AG(2, q) and their block graphs.

The plane is coordinatized inside GF(q^2): fixing alpha outside F_q,
every z splits uniquely as z = x + y*alpha with x, y in F_q.  Row k of
the full array holds y - k*x at column (x, y) (the row at infinity holds
x), so rows are slopes, columns are points, and the cells of one row
partition the plane into the q parallel lines of that slope.

Selecting the rows whose slopes come from a connection-set decomposition
c_i = u_i + v_i*alpha realizes the Cayley graph as the block graph of the
subarray; the realization is certified edge by edge, never assumed.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import (
    AlphaInSubfield,
    CorrespondenceFailed,
    MalformedFile,
    NoFreeCoset,
    NotIsomorphicUnderF,
    NoUnusedSlope,
    OAVerificationFailed,
)
from .field import FieldCtx
from .graphs import Graph, _bits, _mask_of

INFINITY_SLOPE = None  # sentinel for the vertical-line row


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
        once in every pair of distinct rows."""
        n = self.n
        ncols = self.num_columns
        for row in self.entries:
            if len(row) != ncols:
                raise OAVerificationFailed(f"row length {len(row)} != {ncols}")
            for e in row:
                if not 0 <= e < n:
                    raise OAVerificationFailed(f"symbol {e} outside [0, {n})")
        for i in range(self.num_rows):
            ri = self.entries[i]
            for j in range(i + 1, self.num_rows):
                rj = self.entries[j]
                seen = set()
                for c in range(ncols):
                    pair = ri[c] * n + rj[c]
                    if pair in seen:
                        raise OAVerificationFailed(
                            f"rows ({i}, {j}) repeat symbol pair at column {c}")
                    seen.add(pair)
                assert len(seen) == n * n
        return True

    def subarray(self, row_positions: Sequence[int]) -> "OrthogonalArray":
        sub = OrthogonalArray(
            self.n,
            [list(self.entries[i]) for i in row_positions],
            [self.row_labels[i] for i in row_positions],
            self.column_labels,
        )
        sub.verify()
        return sub


def build_pointline_oa(ctx: FieldCtx, alpha: int) -> OrthogonalArray:
    """The full OA(q + 1, q) of the affine plane coordinates by alpha.

    alpha must lie outside F_q (Frobenius-checked).  Symbols are subfield
    elements ranked by label; columns are ordered lexicographically by
    the (x, y) symbol pair.
    """
    q = ctx.subfield_order
    if alpha == 0 or ctx.pow(alpha, q) == alpha:
        raise AlphaInSubfield(f"alpha label {alpha} lies in F_{q}")
    sub = ctx.subfield_elements()
    symbol_of = {lab: i for i, lab in enumerate(sub)}

    # the planar coordinate map is a bijection; materialize and assert it
    coords_of: dict[int, tuple[int, int]] = {}
    columns: list[tuple[int, int]] = []
    for x in sub:
        for y in sub:
            z = ctx.add(x, ctx.mul(y, alpha))
            assert z not in coords_of, "coordinate map not injective"
            coords_of[z] = (x, y)
            columns.append((x, y))
    assert len(coords_of) == ctx.order

    entries = []
    row_labels: list = []
    for k in sub:
        row = [symbol_of[ctx.sub(y, ctx.mul(k, x))] for (x, y) in columns]
        entries.append(row)
        row_labels.append(k)
    entries.append([symbol_of[x] for (x, y) in columns])
    row_labels.append(INFINITY_SLOPE)

    oa = OrthogonalArray(q, entries, row_labels, columns)
    oa.verify()
    oa._ctx = ctx  # type: ignore[attr-defined]
    oa._alpha = alpha  # type: ignore[attr-defined]
    oa._coords_of = coords_of  # type: ignore[attr-defined]
    oa._symbol_of = symbol_of  # type: ignore[attr-defined]
    return oa


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


@dataclass
class SubarraySelection:
    """Rows of the full array realizing one connection set.

    slope_of_coset maps each coset index to the slope v_i / u_i of its
    decomposition c_i = u_i + v_i * alpha with c_i = g^i; row_positions
    index into the parent array (slope-ascending order).
    """
    ctx: FieldCtx
    coset_indices: tuple[int, ...]
    alpha: int
    parent: OrthogonalArray
    slope_of_coset: dict[int, int]
    row_positions: tuple[int, ...]
    subarray: OrthogonalArray

    @property
    def q(self) -> int:
        return self.ctx.subfield_order

    @property
    def m(self) -> int:
        return len(self.coset_indices)

    def coords(self, z: int) -> tuple[int, int]:
        return self.parent._coords_of[z]  # type: ignore[attr-defined]

    def point_label(self, x: int, y: int) -> int:
        return self.ctx.add(x, self.ctx.mul(y, self.alpha))

    def symbol(self, subfield_label: int) -> int:
        return self.parent._symbol_of[subfield_label]  # type: ignore[attr-defined]


def subarray_for_connection_set(ctx: FieldCtx,
                                coset_indices,
                                oa: Optional[OrthogonalArray] = None) -> SubarraySelection:
    """Select the rows whose slopes carry the given cosets.

    With no array supplied, alpha defaults to the least-labeled element
    of the least free coset and the full array is built for it.  Slopes
    are pairwise distinct and finite because every u_i is nonzero (alpha
    sits in an unused coset).
    """
    idx = tuple(sorted(set(int(i) for i in coset_indices)))
    q = ctx.subfield_order
    if oa is None:
        alpha = default_alpha(ctx, idx)
        oa = build_pointline_oa(ctx, alpha)
    else:
        alpha = oa._alpha  # type: ignore[attr-defined]
        if ctx.coset_index(alpha) in idx:
            raise AlphaInSubfield(
                f"alpha label {alpha} lies inside the selected connection set")

    coords_of = oa._coords_of  # type: ignore[attr-defined]
    slope_of: dict[int, int] = {}
    for i in idx:
        rep = ctx.gen_pow(i)  # g^i, the canonical coset representative
        u, v = coords_of[rep]
        assert u != 0, "representative collapses onto the alpha axis"
        slope_of[i] = ctx.div(v, u)
    slopes = set(slope_of.values())
    assert len(slopes) == len(idx), "coset slopes must be pairwise distinct"

    positions = tuple(r for r, lab in enumerate(oa.row_labels)
                      if lab is not INFINITY_SLOPE and lab in slopes)
    assert len(positions) == len(idx)
    sub = oa.subarray(positions)
    return SubarraySelection(ctx, idx, alpha, oa, slope_of, positions, sub)


# ----- block graphs --------------------------------------------------------

def block_graph(oa: OrthogonalArray) -> Graph:
    """Columns adjacent iff they agree in some row.

    line_cliques maps (row position, symbol) to the column tuple of that
    cell, i.e. the canonical cliques of the block graph.
    """
    ncols = oa.num_columns
    adj = [0] * ncols
    lines: dict[tuple[int, int], tuple[int, ...]] = {}
    for r, row in enumerate(oa.entries):
        cells: dict[int, list[int]] = {}
        for c, e in enumerate(row):
            cells.setdefault(e, []).append(c)
        for sym, cols in cells.items():
            lines[(r, sym)] = tuple(cols)
            mask = _mask_of(cols)
            for c in cols:
                adj[c] |= mask & ~(1 << c)
    g = Graph(ncols, adj, oa.column_labels)
    g.line_cliques = lines
    return g


def verify_isomorphism(x: Graph, sel: SubarraySelection) -> list[int]:
    """Certify that (x, y) -> x + y*alpha maps the block graph of the
    selected subarray onto the Cayley graph.  Returns the vertex map
    (block column position -> Cayley label); raises NotIsomorphicUnderF
    with a witness pair otherwise."""
    b = block_graph(sel.subarray)
    assert b.n == x.n
    mapping = [sel.point_label(px, py) for (px, py) in sel.subarray.column_labels]
    assert len(set(mapping)) == b.n, "planar map is not a bijection"

    remapped = [0] * x.n
    for c in range(b.n):
        row = 0
        for d in _bits(b.adj[c]):
            row |= 1 << mapping[d]
        remapped[mapping[c]] = row
    for v in range(x.n):
        if remapped[v] != x.adj[v]:
            diff = remapped[v] ^ x.adj[v]
            w = (diff & -diff).bit_length() - 1
            raise NotIsomorphicUnderF(
                f"pair ({v}, {w}) adjacent in exactly one of the graphs")
    return mapping


def canonical_correspondence(sel: SubarraySelection) -> dict:
    """Match every cell clique of the subarray with its coset clique
    c_i * F_q + delta * alpha, verified as vertex sets under the map."""
    ctx = sel.ctx
    sub = ctx.subfield_elements()
    out = {}
    for pos, parent_row in enumerate(sel.row_positions):
        slope = sel.subarray.row_labels[pos]
        coset = next(i for i, s in sel.slope_of_coset.items() if s == slope)
        rep = ctx.gen_pow(coset)
        row = sel.subarray.entries[pos]
        for sym_idx, delta in enumerate(sub):
            cols = tuple(c for c, e in enumerate(row) if e == sym_idx)
            via_map = {sel.point_label(*sel.subarray.column_labels[c]) for c in cols}
            coset_clique = {ctx.add(ctx.mul(rep, t), ctx.mul(delta, sel.alpha))
                            for t in sub}
            if via_map != coset_clique:
                raise CorrespondenceFailed(
                    f"row {slope} symbol {sym_idx}: line and coset clique differ")
            out[(coset, sym_idx)] = tuple(sorted(coset_clique))
    assert len(out) == sel.m * sel.q
    return out


def unused_slope_coloring(sel: SubarraySelection) -> list[int]:
    """Proper q-coloring of the Cayley graph by the least unused slope.

    Field slopes rank below infinity; the color of vertex z is the symbol
    of the unused-slope line through z.
    """
    ctx = sel.ctx
    used = set(sel.slope_of_coset.values())
    free = [s for s in ctx.subfield_elements() if s not in used]
    colors = [0] * ctx.order
    if free:
        k = free[0]
        for z in range(ctx.order):
            x, y = sel.coords(z)
            colors[z] = sel.symbol(ctx.sub(y, ctx.mul(k, x)))
    else:
        if sel.m >= sel.q + 1:
            raise NoUnusedSlope("all q + 1 slopes consumed")
        for z in range(ctx.order):  # fall back to the row at infinity
            x, _ = sel.coords(z)
            colors[z] = sel.symbol(x)
    assert len(set(colors)) == sel.q
    return colors


# ----- non-canonical clique bound ------------------------------------------

def translate_to_zero(oa: OrthogonalArray, column: int) -> OrthogonalArray:
    """Shift each row's symbols additively (mod n) so `column` reads all
    zeros.  Cell partitions are preserved, so the block graph is unchanged."""
    n = oa.n
    entries = [[(e - row[column]) % n for e in row] for row in oa.entries]
    out = OrthogonalArray(n, entries, list(oa.row_labels), oa.column_labels)
    out.verify()
    return out


def noncanonical_zero_rows(shifted: OrthogonalArray, clique: Sequence[int],
                           column: int) -> dict[int, list[int]]:
    """Partition of clique \\ {column} by the row where each member agrees
    with `column`, read off the array translate_to_zero(oa, column).
    Distinct columns of an OA agree in at most one row, so the row of
    agreement is unique."""
    parts: dict[int, list[int]] = {}
    for c in clique:
        if c == column:
            continue
        zero_rows = [r for r, row in enumerate(shifted.entries) if row[c] == 0]
        if len(zero_rows) != 1:
            raise OAVerificationFailed(f"clique member {c} agrees with {column} in rows {zero_rows}")
        parts.setdefault(zero_rows[0], []).append(c)
    return parts


def noncanonical_clique_bound(sel: SubarraySelection, column: int = 0,
                              budget: Optional[float] = None) -> dict:
    """Enumerate maximal cliques of the block graph through one column and
    check every non-canonical one against the (m - 1)^2 size bound, with
    the agreement-row partition recorded per clique."""
    from .graphs import enumerate_maximal_cliques

    g = block_graph(sel.subarray)
    m = sel.m
    canonical = {frozenset(cols) for (r, s), cols in g.line_cliques.items()
                 if column in cols}
    assert len(canonical) == m
    cliques = enumerate_maximal_cliques(g, through_vertex=column, budget=budget)
    shifted = translate_to_zero(sel.subarray, column)
    bound = (m - 1) ** 2
    noncanonical = []
    for c in cliques:
        if frozenset(c) in canonical:
            continue
        parts = noncanonical_zero_rows(shifted, c, column)
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
    return OrthogonalArray(n, entries, row_labels, column_labels)
