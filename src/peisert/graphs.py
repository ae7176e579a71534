"""Graphs on integer bitsets, Cayley builders, and exact SRG certificates.

Adjacency rows are Python ints used as bitsets, which keeps the common
neighbor counts, clique search and complement operations exact.  A graph
that carries its field is built from its connection set S alone, as the
translates u + S: adding one base-p digit place permutes a bitset by two
shifts and three masks, so the n rows cost O(n) big-int operations
whatever k.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (
    BadDivisor,
    IndexOutOfRange,
    LengthMismatch,
    MalformedFile,
    MissingBaseCoset,
    NotRegular,
    NotStronglyRegular,
    SearchTimeout,
    TooManyCosets,
    VerificationFailed,
    WrongCharacteristicResidue,
)
from .field import FieldCtx

DEFAULT_BUDGET = 300.0


def _bits(x: int):
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def _flags(x: int, n: int) -> list[bool]:
    """The membership flags of vertices 0..n-1 in bitset x."""
    x &= (1 << n) - 1
    return np.unpackbits(np.frombuffer(x.to_bytes((n + 7) // 8, "little"), dtype=np.uint8),
                         count=n, bitorder="little").astype(bool).tolist()


def _mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


class Graph:
    """Undirected graph; adj[v] is the neighbor bitset of vertex v.

    Graph(n, adj) takes any rows and carries no field.  Graph.cayley(field,
    S) is the one way to a graph with a field: it checks S loopless and
    symmetric and builds row u as u + S, so `field is not None` certifies
    an undirected Cayley graph on GF(q^2)+ with N(0) = S.  No attribute
    is settable after construction."""

    __slots__ = ("n", "adj", "field")

    def __init__(self, n: int, adj: Iterable[int]):
        adj = tuple(adj)
        if len(adj) != n:
            raise LengthMismatch(f"{len(adj)} adjacency rows for {n} vertices")
        self.n = n
        self.adj = adj
        self.field: Optional[FieldCtx] = None

    @classmethod
    def cayley(cls, field: FieldCtx, labels: Iterable[int]) -> "Graph":
        """Cay(GF(q^2)+, S) for the labels S; raises VerificationFailed
        unless check_symmetric_set accepts S."""
        g = cls(field.order, _translates(field, check_symmetric_set(field, labels)))
        object.__setattr__(g, "field", field)  # the one place a field is set
        return g

    def __setattr__(self, name, value):
        if hasattr(self, name):
            raise AttributeError(f"Graph.{name} is fixed at construction")
        object.__setattr__(self, name, value)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def is_adjacent(self, u: int, v: int) -> bool:
        return (self.adj[u] >> v) & 1 == 1

    def edge_count(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2

    def neighbors(self, v: int) -> list[int]:
        return list(_bits(self.adj[v]))

    def complement(self) -> "Graph":
        full = (1 << self.n) - 1
        adj = [(~self.adj[v]) & full & ~(1 << v) for v in range(self.n)]
        return Graph(self.n, adj)


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Simple graph on vertices 0..n-1; raises MalformedFile on a
    self-loop or an endpoint outside that range."""
    adj = [0] * n
    for u, v in edges:
        if u == v or not (0 <= u < n and 0 <= v < n):
            raise MalformedFile(f"edge ({u}, {v}) is a self-loop or leaves 0..{n - 1}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, adj)


# ----- strongly regular certification -----------------------------------

@dataclass(frozen=True)
class SrgParams:
    """Certified parameter set (n, k, lambda, mu) with exact spectrum.

    eigenvalues holds (value, multiplicity) pairs: the valency, then the
    positive and negative restricted eigenvalues.  For a complete graph
    mu is None and the restricted spectrum is the single value -1.
    """
    n: int
    k: int
    lam: Optional[int]
    mu: Optional[int]
    eigenvalues: tuple[tuple[int, int], ...]
    complete: bool = False
    disconnected: bool = False

    @property
    def least_eigenvalue(self) -> int:
        return self.eigenvalues[-1][0]

    def hoffman_bound(self) -> Fraction:
        return 1 + Fraction(self.k, -self.least_eigenvalue)


def srg_certify(g: Graph) -> SrgParams:
    """Verify A^2 = kI + lambda*A + mu*(J - I - A) on every vertex pair.

    A graph that carries its field was built with every row u the
    translate N(0) + u (Graph.cayley), so it is a Cayley graph: the pair
    (u, v) has the adjacency and the common neighbors of (0, v - u), and
    the n - 1 pairs through vertex 0 stand for all of them and give the
    same first witness; it is regular, so no degree is checked.  Any
    other graph is checked vertex by vertex and pair by pair.

    Raises NotRegular / NotStronglyRegular with a witness.  Complete
    graphs come back flagged with mu = None; mu = 0 flags a disconnected
    union of cliques.  The graph is left unchanged.
    """
    n = g.n
    if n < 2:
        raise NotStronglyRegular(f"{n} vertices: need at least one vertex pair")
    k = g.degree(0)
    if g.field is None:  # else every row is N(0) + u, of degree k
        for v in range(1, n):
            if g.degree(v) != k:
                raise NotRegular(f"deg({v}) = {g.degree(v)} but deg(0) = {k}")

    if k == n - 1:
        return SrgParams(n, k, n - 2, None, ((k, 1), (-1, n - 1)), complete=True)

    lam = mu = None
    for u in (0,) if g.field is not None else range(n):
        au = g.adj[u]
        adjacent = _flags(au, n)
        for v in range(u + 1, n):
            common = (au & g.adj[v]).bit_count()
            if adjacent[v]:
                if lam is None:
                    lam = common
                elif common != lam:
                    raise NotStronglyRegular(
                        f"adjacent pair ({u}, {v}) has {common} common neighbors, "
                        f"expected {lam}")
            else:
                if mu is None:
                    mu = common
                elif common != mu:
                    raise NotStronglyRegular(
                        f"non-adjacent pair ({u}, {v}) has {common} common neighbors, "
                        f"expected {mu}")
    if lam is None:
        lam = 0  # edgeless; mu is set, as k < n - 1 leaves vertex 0 a non-neighbor
    if k * (k - lam - 1) != (n - k - 1) * mu:
        raise NotStronglyRegular(
            f"(n,k,lam,mu)=({n},{k},{lam},{mu}) fails k(k - lam - 1) = (n - k - 1) mu")

    disc = math.isqrt((lam - mu) ** 2 + 4 * (k - mu))
    if disc * disc != (lam - mu) ** 2 + 4 * (k - mu):
        raise NotStronglyRegular(
            f"irrational restricted eigenvalues for (n,k,lam,mu)=({n},{k},{lam},{mu})")
    theta = (lam - mu + disc) // 2
    tau = (lam - mu - disc) // 2

    num = 2 * k + (n - 1) * (lam - mu)
    shift, rem = divmod(num, disc) if disc else (0, num)
    f, odd = divmod(n - 1 - shift, 2)
    fg = n - 1 - f
    if (lam - mu + disc) % 2 or rem or odd or f < 0 or fg < 0:
        raise NotStronglyRegular(
            f"non-integral eigenvalues or multiplicities for (n,k,lam,mu)=({n},{k},{lam},{mu})")
    if k + f * theta + fg * tau != 0:
        raise NotStronglyRegular(
            f"trace k + {f}*{theta} + {fg}*{tau} of A is not 0")

    return SrgParams(n, k, lam, mu, ((k, 1), (theta, f), (tau, fg)),
                     disconnected=(mu == 0))


# ----- Cayley construction ----------------------------------------------

def connection_set(ctx: FieldCtx, coset_indices: Iterable[int]) -> list[int]:
    """Labels of the union of the selected F_q^* cosets, ascending."""
    return sorted(x for i in set(coset_indices) for x in ctx.coset_elements(i))


def check_symmetric_set(ctx: FieldCtx, labels: Iterable[int]) -> list[int]:
    """S as ascending Python ints; raises VerificationFailed unless S is a
    set of nonzero field labels with S = -S, which makes Cay(GF(q^2)+, S)
    loopless and undirected."""
    s = np.array(sorted(set(labels)), dtype=np.int64)
    bad = s[(s <= 0) | (s >= ctx.order)]  # 0 would put a loop at every vertex
    if bad.size:
        raise VerificationFailed(f"connection set contains {bad[0]}, not a nonzero field label")
    neg = ctx.mul_array(s, ctx.neg(1))
    missing = np.flatnonzero(np.bincount(s, minlength=ctx.order)[neg] == 0)
    if missing.size:
        x = missing[0]
        raise VerificationFailed(f"connection set holds {s[x]} but not its negative {neg[x]}")
    return s.tolist()


def _translates(ctx: FieldCtx, labels: Iterable[int]) -> list[int]:
    """Bitsets of the translates u + S, for u = 0, 1, ... in label order.

    Labels add digit by digit mod p, so adding p^j permutes the bits of a
    set: a label whose digit j is below p - 1 moves up by p^j, and one
    whose digit j is p - 1 wraps down by (p - 1) p^j.  With top_j the
    labels of digit j = p - 1,

        T_j(x) = ((x & ~top_j) << p^j) | ((x & top_j) >> (p - 1) p^j).

    Row 0 is S itself.  For p^j <= u < p^(j+1), digit j of u is nonzero,
    so u = (u - p^j) + p^j digit by digit and row u is T_j(row u - p^j),
    a row already built.  That is two shifts and three masks on n-bit
    ints per row, whatever |S|.
    """
    p, n = ctx.p, ctx.order
    full = (1 << n) - 1
    rows = [_mask_of(labels)]
    place = 1
    while place < n:
        period = place * p
        # top_j: the highest p^j labels of every period of p^(j+1)
        top = (((1 << place) - 1) << (period - place)) * (full // ((1 << period) - 1))
        rest, wrap = full ^ top, period - place
        for u in range(place, period):
            x = rows[u - place]
            rows.append(((x & rest) << place) | ((x & top) >> wrap))
        place = period
    return rows


def build_cayley(ctx: FieldCtx, coset_indices: Iterable[int]) -> Graph:
    """Cayley graph on GF(q^2)+ whose connection set is a union of
    F_q^* cosets including F_q^* itself (index 0).

    Vertex i is the field element with label i; row u is u + S
    (Graph.cayley).  Symmetry follows from -1 lying in F_q^*, and
    check_symmetric_set certifies it on S before the rows are built.
    """
    q = ctx.subfield_order
    idx = sorted(set(int(i) for i in coset_indices))
    for i in idx:
        if not 0 <= i <= q:
            raise IndexOutOfRange(f"coset index {i} outside [0, {q}]")
    if 0 not in idx:
        raise MissingBaseCoset("connection set must include coset 0 (F_q^*)")
    if len(idx) > q:
        raise TooManyCosets(f"m = {len(idx)} exceeds q = {q}")

    return Graph.cayley(ctx, connection_set(ctx, idx))


def family_cosets(ctx: FieldCtx, name: str, d: Optional[int] = None) -> frozenset[int]:
    """Coset indices i in [0, q] that meet a named family's exponent rule.

    paley    squares of GF(q^2)
    peisert  exponents 0, 1 mod 4 (needs q = 3 mod 4)
    gp       d-th powers, d | q + 1, d > 1
    gpstar   exponents with residue mod d below d/2, d | q + 1, d > 0 even

    The FieldCtx exp/log tables are a certified bijection, so coset i =
    exp[i::q + 1] holds exactly the x with dlog(x) = i mod q + 1, and q +
    1 is a multiple of the rule's modulus (2 as q is odd, 4 and d by the
    refusals): the rule on i is the rule on every element of coset i.
    """
    q = ctx.subfield_order
    if name == "paley":
        rule = lambda e: e % 2 == 0
    elif name == "peisert":
        if q % 4 != 3:
            raise WrongCharacteristicResidue(f"peisert family needs q = 3 mod 4, got q = {q}")
        rule = lambda e: e % 4 in (0, 1)
    elif name == "gp":
        if d is None or d <= 1 or (q + 1) % d != 0:
            raise BadDivisor(f"gp needs d > 1 dividing q + 1 = {q + 1}, got {d}")
        rule = lambda e: e % d == 0
    elif name == "gpstar":
        if d is None or d <= 0 or d % 2 != 0 or (q + 1) % d != 0:
            raise BadDivisor(f"gpstar needs even d > 0 dividing q + 1 = {q + 1}, got {d}")
        rule = lambda e: e % d < d // 2
    else:
        raise ValueError(f"unknown family {name!r}")
    return frozenset(i for i in range(q + 1) if rule(i))


# ----- colorings and cliques ----------------------------------------------

def color_classes(colors: Sequence[int]) -> dict[int, int]:
    """The vertex bitset of each color, keyed by color in order of first
    appearance: one packbits over the colors x n indicator."""
    colors = np.asarray(colors)
    keys, first = np.unique(colors, return_index=True)
    keys = keys[np.argsort(first)]
    packed = np.packbits(colors == keys[:, None], axis=1, bitorder="little")
    return {c: int.from_bytes(row.tobytes(), "little") for c, row in zip(keys.tolist(), packed)}


def verify_coloring(g: Graph, colors: Sequence[int]) -> Optional[tuple[int, int]]:
    """None if proper, else the first violating edge (u, v), u < v, in
    lexicographic order."""
    if len(colors) != g.n:
        raise LengthMismatch(f"coloring length {len(colors)} != {g.n} vertices")
    classes = color_classes(colors)
    for u in range(g.n):
        clash = (g.adj[u] & classes[colors[u]]) >> (u + 1)
        if clash:
            return (u, u + (clash & -clash).bit_length())
    return None


def is_clique(g: Graph, vertices: Sequence[int]) -> bool:
    mask = _mask_of(vertices)
    return all((g.adj[v] & mask).bit_count() == len(vertices) - 1 for v in vertices)


# ----- clique search ------------------------------------------------------

class _Deadline:
    __slots__ = ("t",)

    def __init__(self, budget: Optional[float]):
        if budget is not None and math.isnan(budget):  # NaN compares false, so never expires
            raise ValueError("budget is not a number of seconds")
        if budget is not None and budget <= 0:
            raise SearchTimeout("zero budget")
        self.t = None if budget is None else time.monotonic() + budget

    def check(self):
        if self.t is not None and time.monotonic() > self.t:
            raise SearchTimeout("clique search exceeded its budget")

    def left(self) -> Optional[float]:
        """Seconds until the deadline, or None without one."""
        return None if self.t is None else self.t - time.monotonic()


def _color_sort(P: int, adj: list[int]) -> tuple[list[int], list[int]]:
    """Greedy coloring of the candidate set; returns vertices ordered by
    color class with the per-position clique upper bound."""
    order: list[int] = []
    bounds: list[int] = []
    color = 0
    rest = P
    while rest:
        color += 1
        avail = rest
        while avail:
            v = (avail & -avail).bit_length() - 1
            avail &= ~adj[v] & ~(1 << v)
            rest &= ~(1 << v)
            order.append(v)
            bounds.append(color)
    return order, bounds


def _max_clique_size(adj, start_size, P, deadline) -> int:
    best = start_size

    def expand(size, cand):
        nonlocal best
        deadline.check()
        order, bounds = _color_sort(cand, adj)
        for i in range(len(order) - 1, -1, -1):
            if size + bounds[i] <= best:
                return
            v = order[i]
            nxt = cand & adj[v]
            if nxt:
                expand(size + 1, nxt)
            else:
                if size + 1 > best:
                    best = size + 1
            cand &= ~(1 << v)

    expand(start_size, P)
    return best


def _collect_size_t(adj, R, P, target, out, deadline):
    deadline.check()
    if len(R) == target:
        out.append(tuple(sorted(R)))
        return
    need = target - len(R)
    if P.bit_count() < need:
        return
    order, bounds = _color_sort(P, adj)
    for i in range(len(order) - 1, -1, -1):
        if len(R) + bounds[i] < target:
            return
        v = order[i]
        R.append(v)
        _collect_size_t(adj, R, P & adj[v], target, out, deadline)
        R.pop()
        P &= ~(1 << v)


def enumerate_max_cliques(g: Graph,
                          target: Optional[int] = None,
                          through_vertex: Optional[int] = None,
                          budget: Optional[float] = DEFAULT_BUDGET) -> list[tuple[int, ...]]:
    """All cliques of maximum size, or of size exactly `target`.

    Deterministic: the result is lexicographically sorted.  Without a
    target, branch and bound first finds the clique number; a target
    above n gives no cliques.  Raises ValueError for a target below 1,
    IndexOutOfRange for a through_vertex outside [0, n), and SearchTimeout
    if the budget runs out; no partial output is returned.
    """
    if target is not None and target < 1:
        raise ValueError(f"clique size target {target} is not positive")
    if through_vertex is not None and not 0 <= through_vertex < g.n:
        raise IndexOutOfRange(f"vertex {through_vertex} outside [0, {g.n})")
    deadline = _Deadline(budget)
    if g.n == 0:
        return []
    full = (1 << g.n) - 1

    if through_vertex is not None:
        seed = [through_vertex]
        P0 = g.adj[through_vertex]
    else:
        seed = []
        P0 = full

    if target is None:
        target = _max_clique_size(g.adj, len(seed), P0, deadline)
    if target > g.n:
        return []

    out: list[tuple[int, ...]] = []
    if len(seed) == target:
        out.append(tuple(seed))
    else:
        _collect_size_t(g.adj, list(seed), P0, target, out, deadline)
    out.sort()
    return out


def _collect_transversals(adj, R, classes, out, deadline):
    deadline.check()
    if not classes:
        out.append(tuple(sorted(R)))
        return
    sizes = [c.bit_count() for c in classes]
    if 1 in sizes:  # a transversal uses a class's only candidate: take them all at once
        forced = [c.bit_length() - 1 for c, size in zip(classes, sizes) if size == 1]
        both, row = sum(1 << v for v in forced), -1
        for v in forced:
            if adj[v] & both != both ^ 1 << v:
                return
            row &= adj[v]
        nxt = [c & row for c, size in zip(classes, sizes) if size > 1]
        if all(nxt):
            R.extend(forced)
            _collect_transversals(adj, R, nxt, out, deadline)
            del R[len(R) - len(forced):]
        return
    i = sizes.index(min(sizes))
    rest = classes[:i] + classes[i + 1:]
    for v in _bits(classes[i]):
        nxt = [c & adj[v] for c in rest]
        if all(nxt):
            R.append(v)
            _collect_transversals(adj, R, nxt, out, deadline)
            R.pop()


def transversal_cliques(g: Graph, classes: Iterable[int], through_vertex: int,
                        deadline: _Deadline) -> list[tuple[int, ...]]:
    """The cliques through `through_vertex` with exactly one vertex in
    each class (vertex bitsets partitioning the graph), lexicographically
    sorted.

    Each class keeps the candidates adjacent to every vertex chosen so
    far.  When some classes have one candidate left, a transversal of
    this branch must use each of those vertices, so the search takes
    them all in one step: it abandons the branch unless they are
    pairwise adjacent, ANDs their rows into the other classes, and
    recurses once.  Otherwise it branches on the class with the fewest.
    Either way a branch ends as soon as some class has none, so no
    transversal is lost and none is listed twice.  When the classes are
    those of a proper coloring by omega colors, every maximum clique
    meets each class once, so these are all the maximum cliques through
    the vertex.  Raises SearchTimeout when the deadline passes.
    """
    nbrs = g.adj[through_vertex]
    cand = [c & nbrs for c in classes if not (c >> through_vertex) & 1]
    out: list[tuple[int, ...]] = []
    if all(cand):
        _collect_transversals(g.adj, [through_vertex], cand, out, deadline)
    out.sort()
    return out


def enumerate_maximal_cliques(g: Graph,
                              through_vertex: Optional[int] = None,
                              budget: Optional[float] = DEFAULT_BUDGET) -> list[tuple[int, ...]]:
    """All maximal cliques (optionally through one vertex), pivoted
    Bron-Kerbosch, lexicographically sorted."""
    deadline = _Deadline(budget)
    adj = g.adj
    out: list[tuple[int, ...]] = []

    def bk(R: list[int], P: int, X: int):
        deadline.check()
        if P == 0 and X == 0:
            out.append(tuple(sorted(R)))
            return
        # pivot with the most candidates, lowest index breaking ties
        pivot, best = -1, -1
        both = P | X
        while both:
            u = (both & -both).bit_length() - 1
            both &= both - 1
            c = (P & adj[u]).bit_count()
            if c > best:
                pivot, best = u, c
        ext = P & ~adj[pivot]
        while ext:
            v = (ext & -ext).bit_length() - 1
            ext &= ext - 1
            R.append(v)
            bk(R, P & adj[v], X & adj[v])
            R.pop()
            P &= ~(1 << v)
            X |= 1 << v

    if through_vertex is None:
        bk([], (1 << g.n) - 1, 0)
    else:
        bk([through_vertex], g.adj[through_vertex], 0)
    out.sort()
    return out


# ----- DIMACS -------------------------------------------------------------

def to_dimacs(g: Graph) -> str:
    lines = [f"p edge {g.n} {g.edge_count()}"]
    for u in range(g.n):
        for v in _bits(g.adj[u] >> (u + 1)):
            lines.append(f"e {u + 1} {v + u + 2}")
    return "\n".join(lines) + "\n"


def from_dimacs(text: str) -> Graph:
    n = None
    edges = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p" and parts[1:2] != ["edge"]:
            raise MalformedFile(f"problem line {line!r} is not 'p edge'")
        if parts[0] in ("p", "e") and len(parts) < 3:
            raise MalformedFile(f"line {line!r} has fewer than three fields")
        try:
            if parts[0] == "p":
                n = int(parts[2])
            elif parts[0] == "e":
                edges.append((int(parts[1]) - 1, int(parts[2]) - 1))
        except ValueError:
            raise MalformedFile(f"line {line!r} has a field that is not an integer") from None
    if n is None:
        raise MalformedFile("missing problem line")
    return from_edges(n, edges)
