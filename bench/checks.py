"""Independent checks of one certified graph's outputs.

Each check recomputes a fact without calling back into peisert's
certificate code: closed forms from the paper, the vertex lists the
program returns, a GF(p^r) arithmetic of its own, float linear algebra
that is exact at these sizes (integer entries far below 2^53), and
networkx on the small graphs.  Nothing is compared against stored
output.  Every failed check raises CheckFailed.
"""

from __future__ import annotations

import collections
import dataclasses
import hashlib
import json
import math
from fractions import Fraction

import numpy as np
from peisert.field import FieldCtx
from peisert.graphs import Graph


class CheckFailed(Exception):
    pass


class SearchTimedOut(CheckFailed):
    """A report with no audit: the search hit its budget, so the op
    failed without giving a wrong answer."""


def require(cond, msg: str):
    if not cond:
        raise CheckFailed(msg)


# ----- closed forms ---------------------------------------------------------

def closed_form_srg(q: int, m: int):
    """(n, k, lambda, mu, spectrum) of a Peisert-type graph of type (m, q)."""
    k = m * (q - 1)
    spectrum = ((k, 1), (q - m, m * (q - 1)), (-m, (q + 1 - m) * (q - 1)))
    return q * q, k, (m - 1) * (m - 2) + q - 2, m * (m - 1), spectrum


def expects_strict(q: int, indices) -> bool:
    """Strict EKR is a theorem for the Paley graph of square order
    (Blokhuis) and for prime q with m <= (q + 1) / 2."""
    paley = set(indices) == set(range(0, q + 1, 2))
    prime = q > 1 and all(q % d for d in range(2, math.isqrt(q) + 1))
    return paley or (prime and len(indices) <= (q + 1) // 2)


def check_srg(params, q: int, m: int):
    got = (params.n, params.k, params.lam, params.mu,
           tuple(tuple(e) for e in params.eigenvalues))
    want = closed_form_srg(q, m)
    require(got == want, f"srg {got} != closed form {want}")


# ----- bitset helpers ---------------------------------------------------------

def mask_of(vertices) -> int:
    out = 0
    for v in vertices:
        out |= 1 << v
    return out


def is_clique(adj, vertices) -> bool:
    mask = mask_of(vertices)
    return all((adj[v] | (1 << v)) & mask == mask for v in vertices)


def check_clique(adj, vertices, size: int, what: str):
    require(len(set(vertices)) == len(vertices) == size,
            f"{what} has {len(set(vertices))} distinct vertices, expected {size}")
    require(is_clique(adj, vertices), f"{what} is not a clique")


def dense(adj, n: int) -> np.ndarray:
    """Adjacency bitsets as an n x n float64 0/1 matrix."""
    nbytes = (n + 7) // 8
    raw = b"".join(a.to_bytes(nbytes, "little") for a in adj)
    bits = np.unpackbits(np.frombuffer(raw, np.uint8).reshape(n, nbytes),
                         axis=1, bitorder="little")[:, :n]
    return bits.astype(np.float64)


def _bitset(labels, n: int) -> int:
    row = np.zeros(n, dtype=bool)
    row[labels] = True
    return int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")


# ----- the Cayley graph from a field arithmetic of its own -------------------

def _polymulmod(a, b, mod, p):
    r = len(mod) - 1
    prod = [0] * (2 * r - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
    for d in range(len(prod) - 1, r - 1, -1):
        c = prod[d] % p
        if c:
            for i in range(r + 1):
                prod[d - r + i] -= c * mod[i]
    return [c % p for c in prod[:r]]


def _polypow(a, e, mod, p):
    out = [1] + [0] * (len(mod) - 2)
    while e:
        if e & 1:
            out = _polymulmod(out, a, mod, p)
        a = _polymulmod(a, a, mod, p)
        e >>= 1
    return out


def check_cayley(p: int, r: int, modulus, generator: int, indices, adj):
    """adj is Cay(GF(p^r)+, S) with S the union of the F_q^* cosets
    g^i F_q^*, i in indices.

    Elements are base-p digit vectors (label = sum c_i p^i).  x lies in
    coset i iff x^(q-1) = g^(i(q-1)), i.e. iff Frob(x) = c x with
    c = g^(i(q-1)); Frobenius x -> x^q and multiplication by c are both
    GF(p)-linear, so S is found with r x r matrices over all labels.
    """
    n = p**r
    q = p ** (r // 2)
    mod = [int(c) % p for c in modulus]
    require(len(adj) == n, f"{len(adj)} vertices, expected {n}")
    powers = p ** np.arange(r)
    digits = (np.arange(n)[:, None] // powers[None, :]) % p
    basis = [[int(i == j) for j in range(r)] for i in range(r)]

    def matrix(f):
        return np.array([f(b) for b in basis], dtype=np.int64).T

    frob = matrix(lambda b: _polypow(b, q, mod, p))
    g = [int(c) for c in digits[generator]]
    fx = digits @ frob.T % p
    in_s = np.zeros(n, dtype=bool)
    for i in indices:
        c = _polypow(g, i * (q - 1), mod, p)
        cx = digits @ matrix(lambda b: _polymulmod(c, b, mod, p)).T % p
        in_s |= (fx == cx).all(axis=1)
    in_s[0] = False
    s = np.flatnonzero(in_s)
    require(len(s) == len(indices) * (q - 1), f"|S| = {len(s)}, expected m(q-1)")
    for u in range(n):
        row = ((digits[u] + digits[s]) % p) @ powers
        require(adj[u] == _bitset(row, n), f"row {u} is not the translate of S by {u}")


# ----- certificates -------------------------------------------------------------

def check_coloring(adj, colors, q: int):
    n = len(adj)
    require(len(colors) == n, f"coloring length {len(colors)} != {n}")
    require(len(set(colors)) == q, f"{len(set(colors))} colors, expected {q}")
    classes: dict[int, int] = collections.defaultdict(int)
    for v, c in enumerate(colors):
        classes[c] |= 1 << v
    for v, c in enumerate(colors):
        clash = adj[v] & classes[c]
        require(not clash, f"edge ({v}, {(clash & -clash).bit_length() - 1}) is monochromatic")


def check_isomorphism(adj, sub_entries, mapping):
    """mapping sends block-graph columns (columns agreeing in some row of
    the subarray) onto Cayley labels, edge for edge."""
    n = len(adj)
    require(sorted(mapping) == list(range(n)), "vertex map is not a bijection")
    image = [mapping[c] for c in range(n)]
    nbrs = [0] * n
    for row in sub_entries:
        cells: dict[int, int] = collections.defaultdict(int)
        for c, e in enumerate(row):
            cells[e] |= 1 << image[c]
        nbrs = [a | cells[e] for a, e in zip(nbrs, row)]
    for c in range(n):
        v = image[c]
        require(nbrs[c] & ~(1 << v) == adj[v], f"column {c} -> {v}: neighborhoods differ")


def check_parallel_classes(adj, cliques_by_class, q: int, m: int):
    """m classes of q canonical q-cliques, each class partitioning V."""
    n = len(adj)
    require(len(cliques_by_class) == m, f"{len(cliques_by_class)} parallel classes, expected {m}")
    for key, cliques in cliques_by_class.items():
        require(len(cliques) == q, f"class {key} has {len(cliques)} cliques, expected {q}")
        cover = 0
        for verts in cliques:
            check_clique(adj, verts, q, f"canonical clique of class {key}")
            require(not cover & mask_of(verts), f"class {key} cliques overlap")
            cover |= mask_of(verts)
        require(cover == (1 << n) - 1, f"class {key} does not cover the vertices")


def check_correspondence(adj, corr: dict, q: int, m: int):
    classes = collections.defaultdict(list)
    for (coset, _sym), verts in corr.items():
        classes[coset].append(verts)
    check_parallel_classes(adj, classes, q, m)


def check_basis(adj, A: np.ndarray, basis, q: int, m: int):
    n = len(adj)
    classes = collections.defaultdict(list)
    for cl in basis.all_cliques:
        classes[cl.coset].append(cl.vertices)
    check_parallel_classes(adj, classes, q, m)
    base = basis.base_vertex
    outside = [cl for cl in basis.all_cliques if base not in cl.vertices]
    require(list(basis.basis_cliques) == outside,
            "basis cliques are not the canonical cliques missing the base vertex")
    B = basis.matrix
    require(B.shape == (n, m * (q - 1)) and basis.rank == m * (q - 1),
            f"basis shape {B.shape}, rank {basis.rank}, expected {m * (q - 1)} columns")
    for j, cl in enumerate(basis.basis_cliques):
        col = np.full(n, -1, dtype=np.int64)
        col[list(cl.vertices)] = q - 1
        require(np.array_equal(B[:, j], col), f"column {j} is not q*chi - 1 of its clique")
    Bf = B.astype(np.float64)
    require(np.linalg.matrix_rank(Bf) == m * (q - 1), "basis columns are dependent")
    require(np.array_equal(A @ Bf, (q - m) * Bf), "a basis column is not an eigenvector at q - m")


def _scaled(coeffs) -> tuple[int, list[int]]:
    den = math.lcm(*(Fraction(c).denominator for c in coeffs)) if coeffs else 1
    return den, [int(Fraction(c) * den) for c in coeffs]


def check_decomposition(adj, basis, dec, q: int):
    """Re-verify the balanced decomposition and its unbalanced lift in
    exact rational arithmetic, cleared to integers by the common
    denominator, from the clique vertex lists."""
    n = len(adj)
    check_clique(adj, dec.clique, q, "decomposed clique")
    require(len(dec.coefficients) == len(basis.basis_cliques), "coefficient count")
    require(dec.residual_zero, "residual flag is false")
    require(dec.zero_count == sum(1 for c in dec.coefficients if c == 0), "zero count")
    in_c = set(dec.clique)

    # sum_j b_j (chi_j - q/n) = chi_C - q/n, times den * n
    den, ints = _scaled(dec.coefficients)
    lhs = [0] * n
    for cl, b in zip(basis.basis_cliques, ints):
        if b:
            for v in cl.vertices:
                lhs[v] += n * b
    shift = q * sum(ints)
    for v in range(n):
        require(lhs[v] - shift == den * (n * (v in in_c) - q),
                f"balanced decomposition wrong at vertex {v}")

    # sum over all m q canonical cliques of u_c chi_c = chi_C
    keys = [(cl.coset, cl.intercept) for cl in basis.all_cliques]
    require(sorted(dec.unbalanced) == sorted(keys), "lift keys are not the canonical cliques")
    den, ints = _scaled([dec.unbalanced[k] for k in keys])
    total = [0] * n
    for cl, u in zip(basis.all_cliques, ints):
        if u:
            for v in cl.vertices:
                total[v] += u
    for v in range(n):
        require(total[v] == den * (v in in_c), f"unbalanced lift wrong at vertex {v}")


def _tridiagonal_det(G: np.ndarray) -> int:
    """Exact determinant of a symmetric tridiagonal integer matrix."""
    prev, cur = 1, int(round(G[0, 0]))
    for i in range(1, G.shape[0]):
        b = int(round(G[i, i - 1]))
        prev, cur = cur, int(round(G[i, i])) * cur - b * b * prev
    return cur


def check_whd(A: np.ndarray, cert, q: int, m: int):
    n = q * q
    k = m * (q - 1)
    P = cert.matrix
    require(P.shape == (n, n), f"WHD shape {P.shape}")
    require(np.isin(P, (-1, 0, 1)).all(), "WHD entries outside -1..1")
    want = collections.Counter({0: 1})
    want[q * (m - 1)] += m * (q - 1)
    want[q * m] += (q + 1 - m) * (q - 1)
    require(collections.Counter(cert.diagonal) == want,
            f"Laplacian tally {dict(collections.Counter(cert.diagonal))} != {dict(want)}")
    Pf = P.astype(np.float64)
    G = Pf.T @ Pf
    off = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) >= 2
    require(not G[off].any(), "P^T P is not tridiagonal in the natural order")
    require(_tridiagonal_det(G) != 0, "P is singular")
    D = np.array(cert.diagonal, dtype=np.float64)
    require(np.array_equal(k * Pf - A @ Pf, Pf * D[None, :]), "L P != P D")


def check_audit(adj, audit, canonical: set, q: int, m: int, expect: str | None):
    """Full-vertex audit: omega = q, m q canonical cliques counted, the
    non-canonical cliques real, and the EKR verdict the theory demands."""
    require(audit.omega == q and audit.through_vertex is None, "audit is not a full omega = q audit")
    nc = audit.non_canonical
    require(audit.canonical_count == m * q, f"{audit.canonical_count} canonical, expected {m * q}")
    require(audit.clique_count == m * q + len(nc), "clique count != canonical + non-canonical")
    require(len(set(nc)) == len(nc), "repeated non-canonical clique")
    for c in nc:
        check_clique(adj, c, q, "non-canonical clique")
        require(c not in canonical, "a 'non-canonical' clique is canonical")
    if expect == "strict":
        require(not nc, f"strict EKR expected, found {len(nc)} non-canonical cliques")
    elif expect == "counterexample":
        require(nc, "subfield counterexample has no non-canonical clique")


def check_bound(adj, sel, mapping, bound: dict, m: int):
    """The (m - 1)^2 bound on non-canonical maximal cliques of the block
    graph through column 0, each with its agreement-row partition."""
    entries = sel.subarray.entries
    require(bound["ok"] is True and bound["bound"] == (m - 1) ** 2, f"bound report {bound}")
    cells = {frozenset(c for c, e in enumerate(row) if e == row[0]) for row in entries}
    for item in bound["noncanonical"]:
        cl = item["clique"]
        image = [mapping[c] for c in cl]
        require(0 in cl and len(cl) <= (m - 1) ** 2, f"clique {cl} breaks the bound")
        require(frozenset(cl) not in cells, f"clique {cl} is a canonical cell")
        require(is_clique(adj, image), f"clique {cl} is not a clique")
        common = (1 << len(adj)) - 1
        for v in image:
            common &= adj[v]
        require(common & ~mask_of(image) == 0, f"clique {cl} is not maximal")
        members = sorted(c for part in item["parts"].values() for c in part)
        require(members == sorted(c for c in cl if c != 0), f"parts of {cl} do not partition it")
        for r, part in item["parts"].items():
            for c in part:
                agree = [t for t, row in enumerate(entries) if row[c] == row[0]]
                require(agree == [r], f"column {c} agrees with column 0 in rows {agree}")


def check_networkx(adj, params, clique_count: int, q: int, m: int, sel, bound: dict):
    """networkx agrees on strong regularity, the maximum-clique count and
    the number of maximal block-graph cliques through column 0."""
    import networkx as nx

    n = len(adj)
    G = nx.from_numpy_array(dense(adj, n))
    # networkx calls a graph strongly regular only when it is connected
    # with diameter two, which excludes m = 1 (disjoint cliques)
    require(nx.is_strongly_regular(G) == (m >= 2), "networkx disagrees on strong regularity")
    sizes = collections.Counter(len(c) for c in nx.find_cliques(G))
    omega = max(sizes)
    require(omega == q and sizes[omega] == clique_count,
            f"networkx: {sizes[omega]} cliques of size {omega}, program: {clique_count} of size {q}")
    entries = sel.subarray.entries
    block = nx.Graph()
    block.add_nodes_from(range(n))
    for row in entries:
        cells = collections.defaultdict(list)
        for c, e in enumerate(row):
            cells[e].append(c)
        for cols in cells.values():
            block.add_edges_from((a, b) for i, a in enumerate(cols) for b in cols[i + 1:])
    through = sum(1 for _ in nx.find_cliques(block, nodes=[0]))
    require(through == bound["maximal_through"],
            f"networkx: {through} maximal cliques through column 0, program: {bound['maximal_through']}")


def check_reproduction(rc: int, text: str):
    require(rc == 0, f"reproduce-81 exited {rc}")
    result = json.loads(text)["result"]
    srg = result["srg"]
    require((srg["n"], srg["k"], srg["lambda"], srg["mu"]) == (81, 40, 19, 20), "GF(81) parameters")
    require(result["positional_match"] is True, "pinned GF(81) table does not match")
    require(result["full_count"] == 81 and result["omega"] == 9, "GF(81) clique counts")
    require(result["whd_diagonal_tally"] == {"0": 1, "36": 40, "45": 40}, "GF(81) WHD tally")


# ----- digests ----------------------------------------------------------------------

def digest(obj) -> str:
    """Stable hash of an op's outputs, used to recognise an output equal
    to one already verified in the same run."""
    h = hashlib.sha256()

    def feed(o):
        if isinstance(o, np.ndarray):
            h.update(repr((o.shape, o.dtype.str)).encode())
            h.update(np.ascontiguousarray(o).tobytes())
        elif isinstance(o, Graph):
            feed(("graph", o.n, tuple(o.adj)))
        elif isinstance(o, FieldCtx):
            feed(("field", o.p, o.r, o.modulus))
        elif dataclasses.is_dataclass(o) and not isinstance(o, type):
            h.update(type(o).__name__.encode())
            for f in dataclasses.fields(o):
                if f.name not in ("parent", "ctx"):
                    feed(getattr(o, f.name))
        elif isinstance(o, dict):
            h.update(b"{")
            for key in sorted(o, key=repr):
                feed(key)
                feed(o[key])
            h.update(b"}")
        elif isinstance(o, (list, tuple)):
            h.update(b"(")
            for x in o:
                feed(x)
            h.update(b")")
        else:
            h.update(repr(o).encode())
            h.update(b",")

    feed(obj)
    return h.hexdigest()
