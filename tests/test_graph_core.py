"""Cayley construction, SRG certification, clique search, colorings.

Clique-search results are checked against a brute-force subset oracle on
every graph small enough to afford one.
"""

import random
from itertools import combinations, product

import numpy as np
import pytest

from peisert import (
    Graph,
    build_cayley,
    build_counterexample,
    build_ekr_basis,
    build_whd,
    connection_set,
    create,
    enumerate_max_cliques,
    enumerate_maximal_cliques,
    family_cosets,
    from_dimacs,
    srg_certify,
    strict_ekr_audit,
    subarray_for_connection_set,
    survey,
    to_dimacs,
    unused_slope_coloring,
    verify_coloring,
    verify_isomorphism,
)
from peisert.errors import (
    CertificationFailed,
    IndexOutOfRange,
    LengthMismatch,
    MalformedFile,
    MissingBaseCoset,
    NotRegular,
    NotStronglyRegular,
    ReducibleModulus,
    SearchTimeout,
    TooManyCosets,
    VerificationFailed,
)
from peisert.graphs import (
    _Deadline,
    _bits,
    _mask_of,
    _translates,
    check_symmetric_set,
    color_classes,
    family_cosets as _families,
    from_edges,
    transversal_cliques,
)
from test_ekr import assert_table_fault_refused, clique_regularity, run_optimized


# ----- oracles ---------------------------------------------------------------

def brute_max_cliques(g: Graph) -> list[tuple[int, ...]]:
    """All maximum cliques by exhaustive subset search, n <= ~30."""
    best: list[tuple[int, ...]] = [()]
    size = 0
    # grow level by level; level k holds all k-cliques
    level = [((v,), g.adj[v]) for v in range(g.n)]
    while level:
        best = [c for c, _ in level]
        size += 1
        nxt = []
        for clique, common in level:
            u = clique[-1]
            cand = common
            while cand:
                v = (cand & -cand).bit_length() - 1
                cand &= cand - 1
                if v > u:
                    nxt.append((clique + (v,), common & g.adj[v]))
        level = nxt
    return sorted(best)


def brute_maximal_cliques(g: Graph) -> list[tuple[int, ...]]:
    """Every maximal clique of a small graph by scanning all subsets."""
    assert g.n <= 16
    out = []
    verts = range(g.n)
    for size in range(1, g.n + 1):
        for sub in combinations(verts, size):
            if all(g.is_adjacent(u, v) for u, v in combinations(sub, 2)):
                ext = [w for w in verts if w not in sub
                       and all(g.is_adjacent(w, u) for u in sub)]
                if not ext:
                    out.append(sub)
    return sorted(out)


def dense_adjacency(g: Graph) -> np.ndarray:
    """The adjacency bitsets unpacked into an n x n int64 0/1 matrix."""
    nbytes = (g.n + 7) // 8
    raw = b"".join(a.to_bytes(nbytes, "little") for a in g.adj)
    bits = np.unpackbits(np.frombuffer(raw, np.uint8).reshape(g.n, nbytes),
                         axis=1, bitorder="little")[:, :g.n]
    return bits.astype(np.int64)


def srg_oracle(g: Graph):
    """(n, k, lam, mu) by direct common-neighbor counting, or None."""
    degs = {g.degree(v) for v in range(g.n)}
    if len(degs) != 1:
        return None
    k = degs.pop()
    lams, mus = set(), set()
    for u in range(g.n):
        for v in range(u + 1, g.n):
            c = bin(g.adj[u] & g.adj[v]).count("1")
            (lams if g.is_adjacent(u, v) else mus).add(c)
    if len(lams) > 1 or len(mus) > 1:
        return None
    return (g.n, k, lams.pop() if lams else 0, mus.pop() if mus else None)


def connection_set_oracle(ctx, coset_indices) -> list[int]:
    """The union of the cosets by the discrete log of every nonzero label."""
    idx = set(coset_indices)
    return [x for x in range(1, ctx.order)
            if ctx.dlog(x) % (ctx.subfield_order + 1) in idx]


def cayley_rows_oracle(ctx, s_labels) -> list[int]:
    """Row u of Cay(GF(q^2)+, S) as the bitset of u + s over s in S, one
    scalar field addition at a time."""
    rows = []
    for u in range(ctx.order):
        row = 0
        for s in s_labels:
            row |= 1 << ctx.add(u, s)
        rows.append(row)
    return rows


def oracle_cases():
    """(field, coset indices): every survey graph at q <= 9, and every
    index set at q = 3 and 5 under every monic irreducible quadratic
    modulus."""
    for q in survey.Q_CHOICES:
        ctx = survey.ambient_field(q)
        extra = (build_counterexample(ctx, 3).coset_indices,) if q == 9 else ()
        for _, idx in survey.sweep_index_sets(ctx, 10, survey.DEFAULT_SEED, extra):
            yield ctx, idx
    for p in (3, 5):
        for c0, c1 in product(range(p), repeat=2):
            try:
                ctx = create(p, 2, (c0, c1, 1))
            except ReducibleModulus:
                continue
            for size in range(p):
                for rest in combinations(range(1, p + 1), size):
                    yield ctx, (0,) + rest


def plain_transversals(g: Graph, classes, through_vertex: int) -> list[tuple[int, ...]]:
    """transversal_cliques without propagation: each recursion level
    takes one vertex of the class with the fewest candidates, also when
    a class has a single candidate."""
    def collect(R, classes, out):
        if not classes:
            out.append(tuple(sorted(R)))
            return
        sizes = [c.bit_count() for c in classes]
        i = sizes.index(min(sizes))
        rest = classes[:i] + classes[i + 1:]
        for v in _bits(classes[i]):
            nxt = [c & g.adj[v] for c in rest]
            if all(nxt):
                collect(R + [v], nxt, out)

    nbrs = g.adj[through_vertex]
    cand = [c & nbrs for c in classes if not (c >> through_vertex) & 1]
    out: list[tuple[int, ...]] = []
    if all(cand):
        collect([through_vertex], cand, out)
    return sorted(out)


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return from_edges(10, outer + inner + spokes)


# ----- construction ----------------------------------------------------------

def test_connection_set_is_union_of_cosets():
    ctx = create(3, 2)
    assert connection_set(ctx, (0, 2)) == [1, 2, 5, 7]
    assert connection_set(ctx, (0, 2)) == sorted(
        {ctx.mul(t, t) for t in range(1, 9)})  # paley = nonzero squares
    assert connection_set(ctx, range(4)) == list(range(1, 9))


def test_connection_set_matches_dlog_oracle():
    # every index set at q = 3 and 5, then the survey graphs and every
    # index set under every modulus at q = 3 and 5
    for q in (3, 5):
        ctx = create(q, 2)
        for size in range(q + 2):
            for idx in combinations(range(q + 1), size):
                assert connection_set(ctx, idx) == connection_set_oracle(ctx, idx)
    for ctx, idx in oracle_cases():
        assert connection_set(ctx, idx) == connection_set_oracle(ctx, idx)


def test_build_cayley_symmetry_and_regularity():
    ctx = create(5, 2)
    g = build_cayley(ctx, (0, 1, 3))
    q = 5
    assert g.n == 25
    assert all(g.degree(v) == 3 * (q - 1) for v in range(g.n))
    for u in range(g.n):
        for v in range(u + 1, g.n):
            assert g.is_adjacent(u, v) == g.is_adjacent(v, u)
            assert g.is_adjacent(u, v) == (
                ctx.coset_index(ctx.sub(u, v)) in (0, 1, 3))


def test_build_cayley_matches_scalar_oracle():
    for ctx, idx in oracle_cases():
        assert list(build_cayley(ctx, idx).adj) == cayley_rows_oracle(
            ctx, connection_set(ctx, idx)), (ctx, idx)


def test_digit_shift_translates_match_scalar_oracle_where_high_digits_wrap():
    # q = 25 is GF(5^4) and q = 27 is GF(3^6): every digit place j >= 1
    # wraps, so each shift of the kernel meets labels of digit p - 1
    rng = random.Random(12)
    for q in (25, 27):
        ctx = survey.ambient_field(q)
        for idx in ((0,), (0, 1, q), (0,) + tuple(rng.sample(range(1, q + 1), 4))):
            assert list(build_cayley(ctx, idx).adj) == cayley_rows_oracle(
                ctx, connection_set(ctx, idx)), (ctx, idx)
        for _ in range(4):  # symmetric sets that are not coset unions
            half = rng.sample(range(1, ctx.order), rng.randint(1, 30))
            s = sorted(set(half) | {ctx.neg(x) for x in half})
            rows = cayley_rows_oracle(ctx, s)
            assert _translates(ctx, s) == rows, (ctx, s)
            assert Graph.cayley(ctx, s).adj == tuple(rows), (ctx, s)


def test_symmetry_check_rejects_asymmetric_connection_set():
    ctx = create(5, 2)
    s = connection_set(ctx, (0, 2))
    check_symmetric_set(ctx, s)
    with pytest.raises(VerificationFailed, match="not its negative"):
        check_symmetric_set(ctx, [x for x in s if x != ctx.neg(s[0])])
    with pytest.raises(VerificationFailed, match="contains 0"):
        check_symmetric_set(ctx, [0] + s)


def test_build_cayley_input_checks():
    ctx = create(3, 2)
    with pytest.raises(MissingBaseCoset):
        build_cayley(ctx, (1, 2))
    with pytest.raises(IndexOutOfRange):
        build_cayley(ctx, (0, 4))
    with pytest.raises(IndexOutOfRange):
        build_cayley(ctx, (0, -1))
    with pytest.raises(TooManyCosets):
        build_cayley(ctx, (0, 1, 2, 3))


def test_family_cosets_frozen():
    assert _families(create(3, 2), "paley") == frozenset({0, 2})
    assert _families(create(3, 2), "peisert") == frozenset({0, 1})
    ctx81 = create(3, 4)
    assert _families(ctx81, "paley") == frozenset({0, 2, 4, 6, 8})
    assert _families(ctx81, "gp", 5) == frozenset({0, 5})
    assert _families(ctx81, "gpstar", 10) == frozenset({0, 1, 2, 3, 4})
    assert _families(create(7, 2), "peisert") == frozenset({0, 1, 4, 5})


def test_family_element_level_oracles():
    # peisert: S = {g^j : j = 0, 1 mod 4}
    ctx = create(7, 2)
    idx = family_cosets(ctx, "peisert")
    want = set()
    for j in range(0, ctx.order - 1, 4):
        want.add(ctx.gen_pow(j))
        want.add(ctx.gen_pow(j + 1))
    assert set(connection_set(ctx, idx)) == want
    # gp(d): S = {x != 0 : x^((q^2-1)/d) = 1}, the d-th power residues
    ctx81 = create(3, 4)
    idx = family_cosets(ctx81, "gp", 5)
    e = (ctx81.order - 1) // 5
    assert set(connection_set(ctx81, idx)) == {
        t for t in range(1, 81) if ctx81.pow(t, e) == 1}


FAMILY_RULES = {  # the defining exponent rule of each family, on numpy exponents
    "paley": lambda e, d: e % 2 == 0,
    "peisert": lambda e, d: e % 4 <= 1,
    "gp": lambda e, d: e % d == 0,
    "gpstar": lambda e, d: e % d < d / 2,
}


def valid_families(q):
    """Every (family, d) that family_cosets accepts at q."""
    out = [("paley", None)] + [("peisert", None)] * (q % 4 == 3)
    for d in range(2, q + 2):
        if (q + 1) % d == 0:
            out += [("gp", d)] + [("gpstar", d)] * (d % 2 == 0)
    return out


def assert_families_match_exponent_rule(ctx):
    """family_cosets reads each rule on the coset indices; the oracle
    reads it on the discrete log of every nonzero element."""
    q = ctx.subfield_order
    labels = np.arange(1, ctx.order)
    exponents = np.array([ctx.dlog(int(x)) for x in labels])
    for name, d in valid_families(q):
        want = labels[FAMILY_RULES[name](exponents, d)].tolist()
        got = connection_set(ctx, family_cosets(ctx, name, d))
        assert got == want, (ctx, name, d)


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13, 19, 23, 25, 27, 49, 81])
def test_family_cosets_match_element_exponent_rule(q):
    assert_families_match_exponent_rule(survey.ambient_field(q))


def test_family_cosets_match_element_exponent_rule_under_every_modulus():
    checked = 0
    for p in (3, 5):
        for c0, c1 in product(range(p), repeat=2):
            try:
                ctx = create(p, 2, (c0, c1, 1))
            except ReducibleModulus:
                continue
            assert_families_match_exponent_rule(ctx)
            checked += 1
    assert checked == 3 + 10  # the monic irreducible quadratics over GF(3) and GF(5)


def test_family_validation():
    from peisert.errors import BadDivisor, WrongCharacteristicResidue
    with pytest.raises(WrongCharacteristicResidue):
        family_cosets(create(5, 2), "peisert")  # needs q = 3 mod 4
    with pytest.raises(BadDivisor):
        family_cosets(create(3, 2), "gp", 3)  # 3 does not divide q + 1
    with pytest.raises(BadDivisor):
        family_cosets(create(3, 2), "gpstar", 1)
    with pytest.raises(BadDivisor):
        family_cosets(create(3, 4), "gpstar", 5)  # gpstar needs even d
    with pytest.raises(ValueError):
        family_cosets(create(3, 2), "nosuch")


# ----- srg certification ------------------------------------------------------

@pytest.mark.parametrize("q,idx", [
    (3, (0, 2)), (3, (0,)), (3, (0, 1, 2)), (5, (0, 1)), (5, (0, 2, 4)),
])
def test_srg_matches_counting_oracle(q, idx):
    ctx = create(q, 2)
    g = build_cayley(ctx, idx)
    params = srg_certify(g)
    m = len(idx)
    assert srg_oracle(g) == (params.n, params.k, params.lam, params.mu)
    assert (params.n, params.k) == (q * q, m * (q - 1))
    assert params.lam == (m - 1) * (m - 2) + q - 2
    if m > 1:
        assert params.mu == m * (m - 1)
    else:
        assert params.mu == 0 and params.disconnected


@pytest.mark.parametrize("q,idx", [(3, (0, 2)), (5, (0, 1, 2)), (7, (0, 3))])
def test_srg_spectrum(q, idx):
    g = build_cayley(create(q, 2), idx)
    params = srg_certify(g)
    m = len(idx)
    k = m * (q - 1)
    assert params.eigenvalues == ((k, 1), (q - m, k), (-m, q * q - 1 - k))
    assert sum(mult for _, mult in params.eigenvalues) == q * q
    assert sum(v * mult for v, mult in params.eigenvalues) == 0  # trace


def test_srg_rejects_irregular_and_non_srg():
    with pytest.raises(NotRegular):
        srg_certify(from_edges(4, [(0, 1), (1, 2), (2, 3)]))
    hexagon = from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    with pytest.raises(NotStronglyRegular):
        srg_certify(hexagon)


def test_srg_by_translation_matches_pair_loop():
    for ctx, idx in oracle_cases():
        g = build_cayley(ctx, idx)
        plain = Graph(g.n, g.adj)  # no field, so the pair loop runs
        assert g.field is ctx and plain.field is None
        assert srg_certify(g) == srg_certify(plain), (ctx, idx)

    # Cayley graphs of symmetric sets that are not coset unions, mostly
    # not strongly regular: the same verdict and the same first witness
    def verdict(g):
        try:
            return srg_certify(g)
        except NotStronglyRegular as e:
            return str(e)

    ctx = create(5, 2)
    rng = random.Random(7)
    for _ in range(20):
        half = rng.sample(range(1, ctx.order), rng.randint(1, 8))
        s = sorted(set(half) | {ctx.neg(x) for x in half})
        g = Graph.cayley(ctx, s)
        assert verdict(g) == verdict(Graph(g.n, g.adj))


def two_switched_rows(g: Graph) -> list[int]:
    """The rows of g with u-v, w-z switched to u-w, v-z among the
    non-neighbors of 0: still regular, and every pair through 0 keeps its
    counts, but no longer the translates of N(0)."""
    far = [v for v in range(1, g.n) if not g.is_adjacent(0, v)]
    u, v, w, z = next((u, v, w, z) for u, v, w, z in product(far, repeat=4)
                      if len({u, v, w, z}) == 4
                      and g.is_adjacent(u, v) and g.is_adjacent(w, z)
                      and not g.is_adjacent(u, w) and not g.is_adjacent(v, z))
    rows = list(g.adj)
    for a, b, add in ((u, v, False), (w, z, False), (u, w, True), (v, z, True)):
        for x, y in ((a, b), (b, a)):
            rows[x] = rows[x] | 1 << y if add else rows[x] & ~(1 << y)
    return rows


def test_srg_rejects_two_switched_cayley_graph():
    # the switched rows are no Cayley graph, so they carry no field and
    # the pair loop runs, since the pairs through 0 keep their counts
    g = build_cayley(create(5, 2), (0, 1))
    switched = Graph(g.n, two_switched_rows(g))
    assert {switched.degree(x) for x in range(g.n)} == {8}
    with pytest.raises(NotStronglyRegular):
        srg_certify(switched)


def test_graph_with_field_rejects_rows_that_are_not_translates():
    # a field graph is built from S alone, so no rows can be given with a
    # field; a bad S is refused instead
    ctx = create(3, 2)
    with pytest.raises(TypeError):
        Graph(9, _translates(ctx, [1]), ctx)
    for s, message in (([1], "holds 1 but not its negative 2$"),
                       ([0, 1, 2], "contains 0"),
                       ([1, 2, 9], "contains 9, not a nonzero field label$"),
                       ([-1, 1], "contains -1, not a nonzero field label$")):
        with pytest.raises(VerificationFailed, match=message):
            Graph.cayley(ctx, s)
    g = build_cayley(create(5, 2), (0, 1))
    assert Graph.cayley(g.field, g.neighbors(0)).adj == g.adj
    # the switched rows pass without the field, as any graph does
    assert Graph(g.n, two_switched_rows(g)).field is None


def test_graph_fields_are_fixed_at_construction():
    g = build_cayley(create(3, 2), (0, 2))
    for name, value in (("adj", [0] * g.n), ("field", None), ("n", 1)):
        with pytest.raises(AttributeError, match=f"Graph.{name} is fixed at construction"):
            setattr(g, name, value)
    assert isinstance(g.adj, tuple)
    with pytest.raises(AttributeError):  # no slot left to cache a certificate in
        setattr(g, "srg", srg_certify(g))
    adj, field = g.adj, g.field
    srg_certify(g)
    assert g.adj is adj and g.field is field and not hasattr(g, "srg")


def test_srg_complete_graph_flag():
    k4 = from_edges(4, list(combinations(range(4), 2)))
    params = srg_certify(k4)
    assert params.complete and params.mu is None


def test_hoffman_bound_and_clique_regularity():
    g = build_cayley(create(3, 2), (0, 2))
    params = srg_certify(g)
    assert params.hoffman_bound() == 3
    assert clique_regularity(g, (0, 1, 2))
    pg = petersen()
    assert srg_certify(pg).least_eigenvalue == -2  # (10, 3, 0, 1)
    with pytest.raises(ValueError, match=r"\|C\| = 2 but Hoffman bound is 5/2"):
        clique_regularity(pg, (0, 1))  # bound 5/2 is not an integer


# ----- clique search ----------------------------------------------------------

@pytest.mark.parametrize("idx", [(0,), (0, 1), (0, 2), (0, 3),
                                 (0, 1, 2), (0, 1, 3), (0, 2, 3)])
def test_max_cliques_q3_all_sets(idx):
    g = build_cayley(create(3, 2), idx)
    srg_certify(g)
    assert enumerate_max_cliques(g) == brute_max_cliques(g)


def test_max_cliques_p9_frozen():
    g = build_cayley(create(3, 2), (0, 2))
    srg_certify(g)
    assert enumerate_max_cliques(g) == [
        (0, 1, 2), (0, 5, 7), (1, 3, 8), (2, 4, 6), (3, 4, 5), (6, 7, 8)]


def test_max_cliques_q5_sampled_against_oracle():
    rng = random.Random(55)
    ctx = create(5, 2)
    for _ in range(4):
        rest = rng.sample(range(1, 6), rng.randint(1, 2))
        g = build_cayley(ctx, tuple([0] + rest))
        srg_certify(g)
        assert enumerate_max_cliques(g) == brute_max_cliques(g)


def test_max_cliques_through_vertex():
    g = build_cayley(create(3, 2), (0, 2))
    srg_certify(g)
    through = enumerate_max_cliques(g, through_vertex=4)
    assert through == [c for c in brute_max_cliques(g) if 4 in c]


def test_max_cliques_with_target_size():
    g = build_cayley(create(3, 2), (0, 2))
    srg_certify(g)
    assert enumerate_max_cliques(g, target=3) == brute_max_cliques(g)


def test_maximal_cliques_random_graphs():
    rng = random.Random(99)
    for trial in range(12):
        n = rng.randint(4, 11)
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.5]
        g = from_edges(n, edges)
        assert sorted(enumerate_maximal_cliques(g)) == brute_maximal_cliques(g)


def test_maximal_cliques_through_vertex_petersen():
    pg = petersen()
    got = enumerate_maximal_cliques(pg, through_vertex=0)
    assert sorted(got) == [c for c in brute_maximal_cliques(pg) if 0 in c]


def test_search_budget_exhaustion():
    g = build_cayley(create(3, 4), (0, 1, 2, 3, 4))
    srg_certify(g)
    with pytest.raises(SearchTimeout):
        enumerate_max_cliques(g, budget=0)
    with pytest.raises(SearchTimeout):
        enumerate_maximal_cliques(g, budget=0)


def assert_transversals_match_plain_search(ctx, idx, through=(0,)):
    x = build_cayley(ctx, idx)
    classes = list(color_classes(unused_slope_coloring(
        subarray_for_connection_set(ctx, idx))).values())
    for v in through:
        got = transversal_cliques(x, classes, v, _Deadline(None))
        assert got == plain_transversals(x, classes, v), (ctx, idx, v)


def test_propagating_search_matches_plain_search_on_oracle_cases():
    checked = 0
    for ctx, idx in oracle_cases():
        assert_transversals_match_plain_search(ctx, idx, (0, ctx.order - 1))
        checked += 1
    assert checked == 37 + 3 * 7 + 10 * 31


@pytest.mark.parametrize("q, s", [(9, 3), (25, 5), (27, 3), (49, 7), (81, 3), (81, 9)])
def test_propagating_search_matches_plain_search_on_counterexamples(q, s):
    ctx = survey.ambient_field(q)
    assert_transversals_match_plain_search(ctx, build_counterexample(ctx, s).coset_indices)


def test_forced_vertices_that_are_not_adjacent_end_the_branch():
    """Classes {0}, {1}, {2}, {3}, {4, 5} through 0: 1, 2 and 3 are then
    forced, and all three are adjacent to 4.  Without the edge {1, 2}
    there is no transversal, although ANDing the three rows into the
    last class leaves it vertex 4; with the edge, (0, 1, 2, 3, 4) is the
    one transversal."""
    classes = [1 << 0, 1 << 1, 1 << 2, 1 << 3, 1 << 4 | 1 << 5]
    edges = [(0, v) for v in range(1, 6)] + [(1, 3), (2, 3), (1, 4), (2, 4), (3, 4)]
    for extra, want in (([], []), ([(1, 2)], [(0, 1, 2, 3, 4)])):
        g = from_edges(6, edges + extra)
        assert transversal_cliques(g, classes, 0, _Deadline(None)) == want
        assert plain_transversals(g, classes, 0) == want


# ----- colorings and serialization --------------------------------------------

def test_verify_coloring():
    g = build_cayley(create(3, 2), (0, 2))
    proper = [0, 0, 0, 1, 1, 1, 2, 2, 2]
    # cosets of the line {0,3,6} are color classes only if independent;
    # check against the graph instead of assuming
    witness = verify_coloring(g, proper)
    if witness is not None:
        u, v = witness
        assert g.is_adjacent(u, v) and proper[u] == proper[v]
    bad = [0] * 9
    u, v = verify_coloring(g, bad)
    assert g.is_adjacent(u, v)
    # the witness is the lexicographically first clashing edge
    rng = random.Random(3)
    for _ in range(20):
        colors = [rng.randrange(3) for _ in range(9)]
        clashes = [(a, b) for a, b in combinations(range(9), 2)
                   if g.is_adjacent(a, b) and colors[a] == colors[b]]
        assert verify_coloring(g, colors) == (clashes[0] if clashes else None)
    with pytest.raises(LengthMismatch):
        verify_coloring(g, [0, 1])


def test_dimacs_round_trip():
    g = build_cayley(create(5, 2), (0, 2))
    h = from_dimacs(to_dimacs(g))
    assert h.n == g.n and h.adj == g.adj
    assert to_dimacs(h) == to_dimacs(g)


MALFORMED_DIMACS_SCRIPT = """
from peisert import from_dimacs
from peisert.errors import MalformedFile
print("debug", __debug__)
for text in ("p col 3 1\\ne 1 2\\n",   # problem line is not 'p edge'
             "e 1 2\\n",                # no problem line
             "p edge 3 1\\ne 2 2\\n",   # self-loop
             "p edge 3 1\\ne 1 4\\n",   # endpoint above n
             "p edge 3 1\\ne 0 2\\n",   # endpoint below 1
             "p edge\\ne 1 2\\n",       # no vertex count
             "p edge 3 1\\ne 1\\n",     # one endpoint
             "p edge x 1\\n",           # vertex count not an integer
             "p edge 3 1\\ne 1 b\\n"):  # endpoint not an integer
    try:
        from_dimacs(text)
        print("accepted")
    except MalformedFile as e:
        print("rejected", e)
"""


def test_malformed_dimacs_rejected_under_optimize():
    assert run_optimized(MALFORMED_DIMACS_SCRIPT) == [
        "rejected problem line 'p col 3 1' is not 'p edge'",
        "rejected missing problem line",
        "rejected edge (1, 1) is a self-loop or leaves 0..2",
        "rejected edge (0, 3) is a self-loop or leaves 0..2",
        "rejected edge (-1, 1) is a self-loop or leaves 0..2",
        "rejected line 'p edge' has fewer than three fields",
        "rejected line 'e 1' has fewer than three fields",
        "rejected line 'p edge x 1' has a field that is not an integer",
        "rejected line 'e 1 b' has a field that is not an integer",
    ]
    with pytest.raises(MalformedFile):
        from_edges(2, [(0, 2)])
    with pytest.raises(LengthMismatch, match="2 adjacency rows for 3 vertices"):
        Graph(3, [0, 0])


def test_complement_involution():
    g = build_cayley(create(3, 2), (0, 1))
    gc = g.complement()
    assert gc.complement().adj == g.adj
    for u in range(g.n):
        for v in range(u + 1, g.n):
            assert g.is_adjacent(u, v) != gc.is_adjacent(u, v)


@pytest.mark.parametrize("r,idx", [(2, (0, 2)), (2, (0, 1, 3)), (4, (0, 1)), (4, (0, 1, 2, 3, 4))])
def test_dense_adjacency_matches_loop(r, idx):
    g = build_cayley(create(3, r), idx)
    ref = [[(g.adj[u] >> v) & 1 for v in range(g.n)] for u in range(g.n)]
    a = dense_adjacency(g)
    assert a.shape == (g.n, g.n) and a.tolist() == ref


def test_line_eigenvalues_match_dense_product():
    """A chi_L by the dense product, for every line of every row, is
    (m - e) 1 + (e q - m) chi_L with e = 1 exactly on the used rows: the
    closed form that verify_isomorphism implies, and the eigenvalue that
    build_whd's diagonal gives each row's q - 1 columns."""
    for ctx, idx in oracle_cases():
        g = build_cayley(ctx, idx)
        sel = subarray_for_connection_set(ctx, idx)
        q, m = sel.q, len(idx)
        diagonal = build_whd(g, sel).diagonal  # runs verify_isomorphism first
        a = dense_adjacency(g)
        for r in range(q + 1):
            e = int(r in sel.row_positions)
            theta = e * q - m
            assert diagonal[1 + r * (q - 1):1 + (r + 1) * (q - 1)] == (m * (q - 1) - theta,) * (q - 1)
            chi = (sel.symbol[r][:, None] == np.arange(q)).astype(np.int64)  # vertex, line
            assert np.array_equal(a @ chi, (m - e) + theta * chi), (ctx, idx, r)
            assert chi.sum(axis=0).tolist() == [q] * q  # each line has q points


def test_line_check_rejects_symbols_swapped_outside_the_connection_set():
    """Two vertices outside S + {0}, S = N(0), swapped in an unused row
    keep every count over S, yet the dense product shows that the lines
    are broken.  The selection's table refuses the swap, and the row
    certificate that built it refuses the swapped copy."""
    ctx = create(5, 2)
    g = build_cayley(ctx, (0, 1))
    sel = subarray_for_connection_set(ctx, (0, 1))
    q, m = sel.q, sel.m
    r = next(r for r in range(q + 1) if r not in sel.row_positions)
    row = sel.symbol[r]
    far = [v for v in range(1, g.n) if not g.is_adjacent(0, v)]
    a, b = next((a, b) for a, b in combinations(far, 2) if row[a] != row[b])
    row = row.copy()
    row[a], row[b] = row[b], row[a]
    assert np.bincount(row[g.neighbors(0)], minlength=q).tolist() == [0] + [m] * (q - 1)
    chi = (row[:, None] == np.arange(q)).astype(np.int64)
    assert not np.array_equal(dense_adjacency(g) @ chi, m - m * chi)

    def swap(table):
        table[r, [a, b]] = table[r, [b, a]]
    assert_table_fault_refused(sel, r, swap)


def test_line_check_needs_the_translation_certificate():
    ctx = create(3, 2)
    g = build_cayley(ctx, (0, 2))
    sel = subarray_for_connection_set(ctx, (0, 2))
    build_whd(g, sel)
    for certify in (verify_isomorphism, build_ekr_basis, strict_ekr_audit, build_whd):
        with pytest.raises(CertificationFailed,
                           match="^graph is not certified translation invariant$"):
            certify(Graph(g.n, g.adj), sel)


# ----- bitset constants against the loops they replaced -------------------------

def translates_loop(ctx, labels):
    """_translates with ~top_j built again for every row."""
    p, n = ctx.p, ctx.order
    full = (1 << n) - 1
    rows = [_mask_of(labels)]
    place = 1
    while place < n:
        period = place * p
        top = (((1 << place) - 1) << (period - place)) * (full // ((1 << period) - 1))
        for u in range(place, period):
            x = rows[u - place]
            rows.append(((x & ~top) << place) | ((x & top) >> (period - place)))
        place = period
    return rows


def srg_pair_loop(g):
    """srg_certify's pair loop reading u's adjacency bit by bit: (lam,
    mu), or the message of the first witness."""
    lam = mu = None
    for u in (0,) if g.field is not None else range(g.n):
        au = g.adj[u]
        for v in range(u + 1, g.n):
            common = (au & g.adj[v]).bit_count()
            if (au >> v) & 1:
                if lam is None:
                    lam = common
                elif common != lam:
                    return (f"adjacent pair ({u}, {v}) has {common} common neighbors, "
                            f"expected {lam}")
            else:
                if mu is None:
                    mu = common
                elif common != mu:
                    return (f"non-adjacent pair ({u}, {v}) has {common} common neighbors, "
                            f"expected {mu}")
    return lam, mu


def color_classes_loop(colors):
    """color_classes one vertex at a time."""
    classes = {}
    for v, c in enumerate(colors):
        classes[c] = classes.get(c, 0) | 1 << v
    return classes


def srg_verdict(g):
    """srg_certify's (lam, mu), or its witness message."""
    try:
        params = srg_certify(g)
    except (NotRegular, NotStronglyRegular) as e:
        return str(e)
    return params.lam, params.mu


def test_bitset_constants_match_their_loops():
    """The translates with the complement of top_j hoisted, the SRG pair
    loop reading flags built once, and the color classes from one
    packbits give what the loops they replaced give: the same rows, the
    same (lam, mu) or first witness, and the same classes in the same key
    order, so verify_coloring keeps its first clash edge."""
    rng = random.Random(32)
    graphs = []
    for q in (3, 5, 9, 25, 27):
        ctx = survey.ambient_field(q)
        for _ in range(3):  # symmetric sets, mostly neither coset unions nor SRG
            half = rng.sample(range(1, ctx.order), rng.randint(1, min(30, ctx.order - 1)))
            s = sorted(set(half) | {ctx.neg(x) for x in half})
            assert _translates(ctx, s) == translates_loop(ctx, s), (ctx, s)
            graphs.append(Graph.cayley(ctx, s))
    for ctx, idx in oracle_cases():
        assert _translates(ctx, connection_set(ctx, idx)) == translates_loop(
            ctx, connection_set(ctx, idx)), (ctx, idx)
    g = build_cayley(create(5, 2), (0, 1))
    graphs += [g, Graph(g.n, two_switched_rows(g))]
    graphs += [Graph(h.n, h.adj) for h in graphs[:6]]  # no field: every u runs
    witnesses = 0
    for h in graphs:
        want = srg_pair_loop(h)
        witnesses += isinstance(want, str)
        if h.field is None and len({h.degree(v) for v in range(h.n)}) > 1:
            continue  # the degree check refuses first
        if h.degree(0) == h.n - 1:
            continue  # complete: no pair loop
        got = srg_verdict(h)
        if isinstance(want, str):
            assert got == want, h.n
        elif not isinstance(got, str):  # lam is None only on an edgeless graph
            assert got == (want[0] or 0, want[1]), h.n
    assert witnesses >= 5

    for h in graphs[:8]:
        n = h.n
        for k in (1, 2, 3, 9, n):
            colors = [rng.randrange(k) * 7 - 5 for _ in range(n)]
            got = color_classes(colors)
            assert list(got.items()) == list(color_classes_loop(colors).items())
            classes = color_classes_loop(colors)
            clash = next(((u, u + (c & -c).bit_length()) for u in range(n)
                          for c in [(h.adj[u] & classes[colors[u]]) >> (u + 1)] if c), None)
            assert verify_coloring(h, colors) == clash
    assert color_classes([]) == {}
