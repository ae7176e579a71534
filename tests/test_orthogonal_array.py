"""Point-line arrays, subarrays, block graphs, and the clique bound."""

import copy
import dataclasses
import inspect
import random
import re
from itertools import combinations, product

import numpy as np
import pytest

import peisert

from peisert import (
    INFINITY_SLOPE,
    OrthogonalArray,
    SubarraySelection,
    block_graph,
    build_cayley,
    build_counterexample,
    build_pointline_oa,
    canonical_correspondence,
    certify_clique_bound,
    create,
    default_alpha,
    enumerate_max_cliques,
    family_cosets,
    noncanonical_clique_bound,
    oa_from_csv,
    oa_to_csv,
    srg_certify,
    strict_ekr_audit,
    subarray_for_connection_set,
    unused_slope_coloring,
    verify_coloring,
    verify_isomorphism,
)
from peisert import oa
from peisert.errors import (
    AlphaInSubfield,
    CertificationFailed,
    CorrespondenceFailed,
    NotIsomorphicUnderF,
    OAVerificationFailed,
    ReducibleModulus,
    SearchTimeout,
)
from peisert.graphs import DEFAULT_BUDGET, Graph, _mask_of, enumerate_maximal_cliques
from peisert.oa import (
    _certify_kept,
    _certify_strength_two,
    _nonadditive,
    _plane,
    _subfield_ranks,
    translate_to_zero,
)
from peisert import survey
from peisert.survey import ambient_field
from test_ekr import correspondence_oracle, q19_to_25_graphs, run_optimized
from test_graph_core import oracle_cases, two_switched_rows


def strength2_oracle(arr) -> bool:
    """Every row pair must show every ordered symbol pair exactly once."""
    for r1, r2 in combinations(range(arr.num_rows), 2):
        seen = sorted(zip(arr.entries[r1], arr.entries[r2]))
        if seen != sorted(product(range(arr.n), repeat=2)):
            return False
    return True


def verify_oracle(arr):
    """The set-based strength-2 check, with the witnesses of
    OrthogonalArray.verify: one Python set of symbol pairs per row pair."""
    n = arr.n
    ncols = arr.num_columns
    for row in arr.entries:
        if len(row) != ncols:
            raise OAVerificationFailed(f"row length {len(row)} != {ncols}")
        for e in row:
            if not 0 <= e < n:
                raise OAVerificationFailed(f"symbol {e} outside [0, {n})")
    for i in range(arr.num_rows):
        ri = arr.entries[i]
        for j in range(i + 1, arr.num_rows):
            rj = arr.entries[j]
            seen = set()
            for c in range(ncols):
                pair = ri[c] * n + rj[c]
                if pair in seen:
                    raise OAVerificationFailed(
                        f"rows ({i}, {j}) repeat symbol pair at column {c}")
                seen.add(pair)
    return True


def verdict(check, arr):
    try:
        return check(arr)
    except OAVerificationFailed as e:
        return str(e)


def test_q3_array_frozen():
    arr = build_pointline_oa(create(3, 2), 3)
    assert arr.n == 3
    assert arr.row_labels == [0, 1, 2, INFINITY_SLOPE]
    assert arr.column_labels == [(x, y) for x in range(3) for y in range(3)]
    assert arr.entries == [
        [0, 1, 2, 0, 1, 2, 0, 1, 2],
        [0, 1, 2, 2, 0, 1, 1, 2, 0],
        [0, 1, 2, 1, 2, 0, 2, 0, 1],
        [0, 0, 0, 1, 1, 1, 2, 2, 2],
    ]
    # slope-1 line through (2,1): symbol of y - x = 1 - 2
    assert arr.entries[1][arr.column_labels.index((2, 1))] == 2


@pytest.mark.parametrize("q", [3, 5, 7])
def test_full_array_strength_two(q):
    ctx = create(q, 2)
    arr = build_pointline_oa(ctx, default_alpha(ctx, set()))
    assert arr.num_rows == q + 1
    arr.verify()
    assert strength2_oracle(arr)


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_verify_matches_set_oracle(q):
    ctx = create(*{3: (3, 2), 5: (5, 2), 7: (7, 2), 9: (3, 4)}[q])
    rng = random.Random(q)

    def assert_same_rejection(bad):
        got = verdict(OrthogonalArray.verify, bad)
        assert got is not True and got == verdict(verify_oracle, bad)

    full = build_pointline_oa(ctx, default_alpha(ctx, set()))
    sel = subarray_for_connection_set(ctx, (0, 1, 2))
    for arr in (full, sel.subarray):
        assert verdict(OrthogonalArray.verify, arr) is verdict(verify_oracle, arr) is True
        for _ in range(10):  # one cell moved to another symbol
            bad = copy.deepcopy(arr)
            r, c = rng.randrange(bad.num_rows), rng.randrange(bad.num_columns)
            bad.entries[r][c] = (bad.entries[r][c] + rng.randrange(1, q)) % q
            assert_same_rejection(bad)
        for r, c, e in ((1, 3, q), (0, 0, -1)):  # one symbol out of range
            bad = copy.deepcopy(arr)
            bad.entries[r][c] = e
            assert_same_rejection(bad)
        bad = copy.deepcopy(arr)
        bad.entries[-1].pop()  # a short row
        assert_same_rejection(bad)


def test_alpha_must_leave_the_subfield():
    ctx = create(3, 2)
    with pytest.raises(AlphaInSubfield):
        build_pointline_oa(ctx, 1)
    with pytest.raises(AlphaInSubfield):
        build_pointline_oa(ctx, 0)


def test_default_alpha_rule():
    ctx = create(3, 2)
    # free cosets of {0,2} are {1,3}; least element of coset 1
    assert default_alpha(ctx, {0, 2}) == min(ctx.coset_elements(1)) == 3
    assert default_alpha(ctx, set()) == 3  # coset 0 never supplies alpha
    assert default_alpha(ctx, {0, 1}) == min(ctx.coset_elements(2))


def test_verify_catches_corruption():
    arr = build_pointline_oa(create(3, 2), 3)
    arr.entries[0][0], arr.entries[0][1] = arr.entries[0][1], arr.entries[0][0]
    with pytest.raises(OAVerificationFailed):
        arr.verify()
    assert not strength2_oracle(arr)


def test_subarray_selection_rows():
    ctx = create(3, 2)
    sel = subarray_for_connection_set(ctx, (0, 2))
    assert sel.q == 3 and sel.m == 2
    assert sel.rows == (0, 2)
    assert sel.row_positions == (0, 2)
    sel.subarray.verify()
    # the slope of coset i solves c_i = u + v*alpha, slope = v/u
    for i, r in zip(sel.coset_indices, sel.rows):
        slope = ctx.subfield_elements()[r]
        c = ctx.gen_pow(i)
        for u in ctx.subfield_elements():
            for v in ctx.subfield_elements():
                if ctx.add(u, ctx.mul(v, sel.alpha)) == c:
                    assert u != 0
                    assert ctx.div(v, u) == slope


def slope_rows_oracle(ctx, sel):
    """The row of each coset by field arithmetic: g^i = u + v * alpha
    solved over F_q x F_q, and the slope v / u ranked among the subfield
    labels (None when u = 0, on the alpha axis)."""
    sub = ctx.subfield_elements()
    rows = []
    for i in sel.coset_indices:
        c = ctx.gen_pow(i)
        (u, v), = [(u, v) for u in sub for v in sub if ctx.add(u, ctx.mul(v, sel.alpha)) == c]
        rows.append(None if u == 0 else sub.index(ctx.div(v, u)))
    return tuple(rows)


def test_selection_rows_match_slope_oracle(monkeypatch):
    """The row where g^i reads 0 is the slope v / u of g^i = u + v alpha:
    on every index set with a free coset at q = 3 and 5 under every monic
    irreducible quadratic modulus, and on both subfield counterexamples.
    An alpha taken from a used coset puts that coset on the alpha axis."""
    checked = 0
    for p in (3, 5):
        for c0, c1 in product(range(p), repeat=2):
            try:
                ctx = create(p, 2, (c0, c1, 1))
            except ReducibleModulus:
                continue
            for size in range(p + 1):
                for idx in combinations(range(p + 1), size):
                    if set(range(1, p + 1)) <= set(idx):
                        continue  # no free coset for alpha
                    sel = subarray_for_connection_set(ctx, idx)
                    if sel.rows != slope_rows_oracle(ctx, sel):
                        pytest.fail(f"{ctx} {idx}: rows {sel.rows}")
                    checked += 1
    for p, subfield in ((3, 3), (5, 5)):
        ce = build_counterexample(create(p, 4), subfield)
        assert ce.selection.rows == slope_rows_oracle(ce.selection.ctx, ce.selection)
    assert checked == 3 * 14 + 10 * 62
    monkeypatch.setattr(oa, "default_alpha", lambda ctx, idx: min(ctx.coset_elements(2)))
    with pytest.raises(CorrespondenceFailed, match="^coset 2 representative lies on the alpha axis$"):
        subarray_for_connection_set(create(5, 2), (0, 2))


def test_block_graph_of_full_array_is_complete():
    arr = build_pointline_oa(create(3, 2), 3)
    g = block_graph(arr)
    assert g.n == 9 and g.edge_count() == 36
    params = srg_certify(g)
    assert params.complete and params.mu is None


@pytest.mark.parametrize("q,family,d", [
    (3, "paley", None), (3, "peisert", None), (5, "paley", None),
    (5, "gp", 3), (7, "peisert", None), (9, "gpstar", 10),
])
def test_isomorphism_families(q, family, d):
    p, r = {3: (3, 1), 5: (5, 1), 7: (7, 1), 9: (3, 2)}[q]
    ctx = create(p, 2 * r)
    idx = family_cosets(ctx, family, d)
    x = build_cayley(ctx, idx)
    sel = subarray_for_connection_set(ctx, idx)
    mapping = verify_isomorphism(x, sel)  # block column -> Cayley label
    bg = block_graph(sel.subarray)
    # independent edge-by-edge audit of the returned vertex map
    assert sorted(mapping) == list(range(x.n))
    for c in range(bg.n):
        for d in range(c + 1, bg.n):
            assert bg.is_adjacent(c, d) == x.is_adjacent(mapping[c], mapping[d])


def test_isomorphism_rejects_wrong_graph():
    ctx = create(3, 2)
    sel = subarray_for_connection_set(ctx, (0, 2))
    other = build_cayley(ctx, (0, 1))
    with pytest.raises(NotIsomorphicUnderF):
        verify_isomorphism(other, sel)


def numpy_pairing_oracle(x, sel):
    """The pairing as two n-length masks: N(0) of the block graph, the
    nonzero vertices at symbol 0 in some used row, as a bitset, and the
    witness message for x, the least vertex in exactly one of that set
    and x's N(0), or None when there is none."""
    joined = (sel.symbol[list(sel.row_positions)] == 0).any(axis=0)
    joined[0] = False
    adjacent = np.zeros(x.n, dtype=bool)
    adjacent[x.neighbors(0)] = True
    diff = np.flatnonzero(joined != adjacent)
    witness = f"pair (0, {diff[0]}) adjacent in exactly one of the graphs" if diff.size else None
    return _mask_of(np.flatnonzero(joined).tolist()), witness


def pairing_cases():
    """(graph, selection) pairs: each survey graph at q <= 9, each index
    set under each monic irreducible quadratic modulus at q = 3 and 5 and
    each m = 2 graph at q = 19 to 25 with its own selection; each with
    the selection of other cosets of its field (its last coset swapped
    for the least free one) and, where its order has another field, with
    the selection of its cosets there; and, at q <= 5 with m <= q - 2,
    the graph with two rows switched, which keeps N(0) but not the
    field."""
    cases = [(build_cayley(ctx, idx), subarray_for_connection_set(ctx, idx))
             for ctx, idx in oracle_cases()]
    cases += q19_to_25_graphs()
    fields = {}
    for x, _ in cases:
        fields.setdefault(x.field.order, {})[id(x.field)] = x.field
    for x, sel in cases:
        ctx, idx, q = x.field, sel.coset_indices, sel.q
        yield x, sel
        free = min(set(range(1, q + 1)) - set(idx))
        yield x, subarray_for_connection_set(ctx, idx[:-1] + (free,))
        other = next((f for f in fields[ctx.order].values() if f is not ctx), None)
        if other is not None:
            yield x, subarray_for_connection_set(other, idx)
        if q <= 5 and sel.m <= q - 2:
            yield Graph(x.n, two_switched_rows(x)), sel


def test_pairing_check_matches_numpy_oracle():
    """sel.neighbors is the oracle's N(0), and verify_isomorphism returns
    the vertex map exactly when the oracle finds no witness and the graph
    carries its field; otherwise it raises the oracle's witness, or
    CertificationFailed for a graph without its field."""
    counts = {"paired": 0, "witness": 0, "no field": 0}
    for x, sel in pairing_cases():
        mask, witness = numpy_pairing_oracle(x, sel)
        assert sel.neighbors == mask
        if x.field is None:
            assert witness is None
            with pytest.raises(CertificationFailed,
                               match="^graph is not certified translation invariant$"):
                verify_isomorphism(x, sel)
            counts["no field"] += 1
        elif witness is None:
            assert verify_isomorphism(x, sel) == list(sel.vertex_of_column)
            counts["paired"] += 1
        else:
            with pytest.raises(NotIsomorphicUnderF, match=f"^{re.escape(witness)}$"):
                verify_isomorphism(x, sel)
            counts["witness"] += 1
    assert counts == {"paired": 444, "witness": 650, "no field": 174}


def test_canonical_correspondence_counts():
    ctx = create(3, 4)
    sel = subarray_for_connection_set(ctx, (0, 1, 2, 3, 4))
    pairs = canonical_correspondence(sel)
    assert len(pairs) == 5 * 9  # one line per coset and intercept


def test_unused_slope_coloring_proper():
    for q, idx in [(3, (0, 2)), (3, (0, 1, 2)), (5, (0, 1, 4))]:
        p, r = (3, 1) if q == 3 else (5, 1)
        ctx = create(p, 2 * r)
        sel = subarray_for_connection_set(ctx, idx)
        x = build_cayley(ctx, idx)
        colors = unused_slope_coloring(sel)
        assert verify_coloring(x, colors) is None
        assert len(set(colors)) == q
        # color classes are lines, hence equal sized
        sizes = sorted(colors.count(c) for c in set(colors))
        assert sizes == [q] * q


def test_row_at_infinity_is_never_used():
    """unused_slope_coloring reads the least row off sel.rows with no
    guard: some row is always free, as the row at infinity never carries
    a coset.  Every index set with a free coset at q = 3 and 5, and a
    seeded sample at q = 7 and 9."""
    cases = [(q, idx) for q in (3, 5) for size in range(q + 1)
             for idx in combinations(range(q + 1), size)
             if not set(range(1, q + 1)) <= set(idx)]
    rng = random.Random(2027)
    cases += [(q, tuple(sorted(rng.sample(range(q + 1), rng.randint(1, q - 1)))))
              for q in (7, 9) for _ in range(25)]
    for q, idx in cases:
        sel = subarray_for_connection_set(ambient_field(q), idx)
        assert q not in sel.rows, (q, idx)
        free = min(r for r in range(q + 1) if r not in sel.rows)
        assert unused_slope_coloring(sel) == sel.symbol[free].tolist(), (q, idx)
    assert len(cases) == 14 + 62 + 50


def test_translate_to_zero():
    ctx = create(3, 2)
    sel = subarray_for_connection_set(ctx, (0, 2))
    arr = translate_to_zero(sel.subarray, 4)
    assert [row[4] for row in arr.entries] == [0] * arr.num_rows
    arr.verify()


def test_zero_rows_partition():
    ctx = create(3, 4)
    sel = subarray_for_connection_set(ctx, (0, 1, 2, 3, 4))
    x = build_cayley(ctx, (0, 1, 2, 3, 4))
    srg_certify(x)
    mapping = verify_isomorphism(x, sel)
    pos_of = {label: c for c, label in enumerate(mapping)}
    cliques = enumerate_max_cliques(x, target=9, through_vertex=mapping[0])
    arr = translate_to_zero(sel.subarray, 0)
    for c in cliques:
        cols = tuple(sorted(pos_of[v] for v in c))
        # every non-base column of the clique agrees with column 0 in
        # exactly one row
        assert cols[0] == 0
        for col in cols[1:]:
            assert sum(row[col] == 0 for row in arr.entries) == 1


def bound_oracle(sel):
    """The (m - 1)^2 bound as first written: the block graph rebuilt from
    the list-form subarray, its maximal cliques through column 0, and
    each non-canonical one's members other than column 0 grouped by the
    row where they agree with column 0, their zero in
    translate_to_zero(subarray, 0)."""
    array = sel.subarray
    zero = np.array(translate_to_zero(array, 0).entries) == 0
    zero[:, 0] = False  # column 0 meets itself in every row
    assert (zero.sum(axis=0) <= 1).all()  # distinct columns agree in one row at most
    row_of = zero.argmax(axis=0).tolist()
    cliques = enumerate_maximal_cliques(block_graph(array), through_vertex=0)
    bound = (sel.m - 1) ** 2
    noncanonical = []
    for c in cliques:
        parts = {}
        for col in c[1:]:
            parts.setdefault(row_of[col], []).append(col)
        if len(parts) == 1 and len(c) == sel.q:
            continue
        if len(c) > bound:
            return {"ok": False, "witness": c, "bound": bound, "maximal_through": len(cliques)}
        noncanonical.append({"clique": c, "parts": {r: tuple(p) for r, p in parts.items()}})
    return {"ok": True, "bound": bound, "maximal_through": len(cliques),
            "noncanonical": noncanonical}


def assert_bound_matches_oracle(ctx, idx):
    """The bound on the paired graph returns the oracle's dict, with the
    same key order and the same Python types throughout."""
    sel = subarray_for_connection_set(ctx, idx)
    res = noncanonical_clique_bound(build_cayley(ctx, idx), sel)
    want = bound_oracle(sel)
    assert res == want and repr(res) == repr(want), (ctx.modulus, idx)
    return res


def test_noncanonical_clique_bound_gp81():
    res = assert_bound_matches_oracle(create(3, 4), (0, 1, 2, 3, 4))
    assert res["ok"]
    assert res["bound"] == 16  # (m - 1)^2
    assert res["maximal_through"] == 289
    assert len(res["noncanonical"]) == 284
    for item in res["noncanonical"]:
        assert len(item["clique"]) <= 16
        # the agreement rows partition the clique minus the base column
        assert sum(len(v) for v in item["parts"].values()) == len(item["clique"]) - 1


def test_bound_parts_match_agreement_rows_on_survey_graphs():
    """Every survey graph at q <= 9 (and every index set at q = 3, 5 under
    every modulus): the bound, run on the Cayley graph, returns the dict
    of the block-graph oracle."""
    checked = 0
    for ctx, idx in oracle_cases():
        assert assert_bound_matches_oracle(ctx, idx)["ok"]
        checked += 1
    assert checked == 37 + 3 * 7 + 10 * 31


def test_noncanonical_clique_bound_small():
    ctx = create(3, 2)
    res = noncanonical_clique_bound(build_cayley(ctx, (0, 2)),
                                    subarray_for_connection_set(ctx, (0, 2)))
    assert res["ok"] and res["bound"] == 1


def test_bound_refuses_a_graph_of_other_cosets():
    ctx = create(5, 2)
    sel = subarray_for_connection_set(ctx, (0, 2))
    with pytest.raises(NotIsomorphicUnderF,
                       match=r"^pair \(0, \d+\) adjacent in exactly one of the graphs$"):
        noncanonical_clique_bound(build_cayley(ctx, (0, 1)), sel)


def test_bound_budget():
    ctx = create(3, 4)
    idx = (0, 1, 2, 3, 4)
    with pytest.raises(SearchTimeout):
        noncanonical_clique_bound(build_cayley(ctx, idx),
                                  subarray_for_connection_set(ctx, idx), budget=0)


# ----- the triangle-count certificate ---------------------------------------

def counting_cases(seed=29):
    """(field, coset indices): one seeded set per odd prime power q in
    11..49 with m >= 3 and q > (m - 1)^2, where certify_clique_bound
    counts triangles instead of returning at once."""
    rng = random.Random(seed)
    for q in (11, 13, 17, 19, 23, 25, 27, 29, 31, 37, 41, 43, 47, 49):
        m = rng.randint(3, max(m for m in range(3, q) if (m - 1) ** 2 < q))
        yield ambient_field(q), tuple(sorted([0] + rng.sample(range(1, q + 1), m - 1)))


def assert_certificate_matches_listing(ctx, idx):
    """The certificate on the paired graph returns the bound of the
    block-graph listing oracle, which finds every clique within it."""
    sel = subarray_for_connection_set(ctx, idx)
    want = bound_oracle(sel)
    assert want["ok"], (ctx.modulus, idx)
    assert certify_clique_bound(build_cayley(ctx, idx), sel) == want["bound"], (ctx.modulus, idx)


def test_certificate_matches_the_listing_on_oracle_cases():
    checked = 0
    for ctx, idx in oracle_cases():
        assert_certificate_matches_listing(ctx, idx)
        checked += 1
    assert checked == 368


def test_certificate_matches_the_listing_where_it_counts():
    cases = list(counting_cases())
    assert len(cases) == 14 and all(len(idx) >= 3 for _, idx in cases)
    for ctx, idx in cases:
        assert_certificate_matches_listing(ctx, idx)


def test_certificate_on_subfield_counterexamples():
    """q <= (m - 1)^2 on every subfield counterexample, so the
    certificate returns the bound without counting.  At q = 27 the
    listing finds 2,164,929 maximal cliques through 0 in about a minute,
    so there the audit's exact omega = q stands in for it."""
    for q, s in ((9, 3), (25, 5), (49, 7)):
        ce = build_counterexample(ambient_field(q), s)
        assert certify_clique_bound(ce.graph, ce.selection) == bound_oracle(ce.selection)["bound"]
    ce = build_counterexample(ambient_field(27), 3)
    assert certify_clique_bound(ce.graph, ce.selection) == 144
    assert strict_ekr_audit(ce.graph, ce.selection).omega == 27


def test_each_noncanonical_clique_fits_its_triangle_count():
    """The step of the certificate's argument, on every listed
    non-canonical maximal clique C of the oracle and counting cases: C
    has members v and w on two lines through 0, and |C| <= 3 +
    |N(0) & N(v) & N(w)|."""
    checked = 0
    for ctx, idx in [*oracle_cases(), *counting_cases()]:
        x, sel = build_cayley(ctx, idx), subarray_for_connection_set(ctx, idx)
        for item in noncanonical_clique_bound(x, sel)["noncanonical"]:
            parts = list(item["parts"].values())
            assert len(parts) >= 2, item
            v, w = (sel.vertex_of_column[part[0]] for part in parts[:2])
            assert len(item["clique"]) <= 3 + (x.adj[0] & x.adj[v] & x.adj[w]).bit_count()
            checked += 1
    assert checked == 54125


def test_certificate_refuses_a_graph_of_other_cosets():
    ctx = create(5, 2)
    with pytest.raises(NotIsomorphicUnderF, match=r"^pair \(0, \d+\) adjacent"):
        certify_clique_bound(build_cayley(ctx, (0, 1)), subarray_for_connection_set(ctx, (0, 2)))


def test_certificate_refuses_a_graph_of_more_cosets_without_asserts():
    """With the pairing check patched to pass, the count alone refuses
    the graphs of cosets 0..4 and 0..3 at q = 7 given the selection of
    0..2, under python -O; on the second, 3 + count exceeds the bound
    4 while the count alone does not."""
    lines = run_optimized("""
from peisert import build_cayley, create, oa, subarray_for_connection_set
from peisert.errors import CertificationFailed
print("debug", __debug__)
oa.verify_isomorphism = lambda *args: None
ctx = create(7, 2)
for m in (5, 4):
    try:
        oa.certify_clique_bound(build_cayley(ctx, range(m)),
                                subarray_for_connection_set(ctx, (0, 1, 2)))
    except CertificationFailed as e:
        print(e)
""")
    assert lines == ["coset 0, vertex 10: 3 + 9 common neighbours exceed the bound 4",
                     "coset 0, vertex 10: 3 + 3 common neighbours exceed the bound 4"]


def test_certificate_budget():
    ctx = create(3, 4)
    idx = (0, 1, 2, 3, 4)
    default = inspect.signature(certify_clique_bound).parameters["budget"].default
    assert default == DEFAULT_BUDGET
    with pytest.raises(SearchTimeout, match="^zero budget$"):
        certify_clique_bound(build_cayley(ctx, idx), subarray_for_connection_set(ctx, idx),
                             budget=0)


def test_csv_round_trip():
    for q in (3, 5):
        ctx = create(q, 2)
        arr = build_pointline_oa(ctx, default_alpha(ctx, set()))
        text = oa_to_csv(arr)
        back = oa_from_csv(text)
        assert back.entries == arr.entries
        assert back.row_labels == arr.row_labels
        assert oa_to_csv(back) == text
        back.verify()


def _entries_of(symbol, vertex, like):
    """The array whose row r holds symbol[r] at the column of each vertex."""
    return OrthogonalArray(like.n, symbol[:, vertex].tolist(), like.row_labels, like.column_labels)


def array_oracle(ctx, alpha):
    """The full array cell by cell from scalar field arithmetic: row k
    holds the rank of y - k x at column (x, y), the row at infinity the
    rank of x, and column (x, y) is the vertex x + y alpha."""
    sub = ctx.subfield_elements()
    cols = [(x, y) for x in sub for y in sub]
    rows = [[sub.index(ctx.sub(y, ctx.mul(k, x))) for x, y in cols] for k in sub]
    rows.append([sub.index(x) for x, _ in cols])
    return rows, [ctx.add(x, ctx.mul(y, alpha)) for x, y in cols]


@pytest.mark.parametrize("q", [3, 5, 7, 9, 25, 27])
def test_strength_two_certificate_agrees_with_verify_and_oracle(q):
    """_plane certifies the full array from its symbol table in O(n q);
    the row-pair check and the set oracle agree on it, and on tables
    with one cell moved to another symbol, which all three reject."""
    ctx = ambient_field(q)
    alpha = default_alpha(ctx, set())
    vertex, symbol = _plane(ctx, alpha)
    arr = build_pointline_oa(ctx, alpha)
    if (arr.entries, vertex.tolist()) != array_oracle(ctx, alpha):
        pytest.fail("the symbol table does not scatter the array")
    if not (verdict(OrthogonalArray.verify, arr) is verdict(verify_oracle, arr) is True):
        pytest.fail(f"q = {q}: certified array fails the row-pair check")
    plus = _subfield_ranks(ctx)[2]
    rng = random.Random(q)
    for _ in range(3):
        bad = symbol.copy()
        r, z = rng.randrange(q + 1), rng.randrange(ctx.order)
        bad[r, z] = (bad[r, z] + rng.randrange(1, q)) % q
        with pytest.raises(OAVerificationFailed):
            _certify_strength_two(ctx, plus, bad)
        witness = _nonadditive(ctx.p, plus, bad)
        if witness is not None:  # a vertex z and generator g where the row fails
            i, z, g = witness
            if bad[i, ctx.add(z, g)] == plus[bad[i, z], bad[i, g]]:
                pytest.fail(f"q = {q}: witness {witness} is additive")
        broken = _entries_of(bad, vertex, arr)
        got = verdict(OrthogonalArray.verify, broken)
        if got is True or got != verdict(verify_oracle, broken):
            pytest.fail(f"q = {q}: row-pair check and oracle disagree on a moved cell")


def test_strength_two_certificate_rejects_swapped_symbols():
    """Two vertices' symbols swapped in one row keep every row a
    partition into lines of q points, but the row is no longer additive;
    a row repeated in place of another is additive, and then vertices
    of the shared kernel read 0 in two rows."""
    ctx = create(5, 2)
    vertex, symbol = _plane(ctx, default_alpha(ctx, set()))
    arr = build_pointline_oa(ctx, default_alpha(ctx, set()))
    plus = _subfield_ranks(ctx)[2]
    for r in range(ctx.subfield_order + 1):
        bad = symbol.copy()
        a, b = 1, int(np.flatnonzero(bad[r] != bad[r, 1])[0])
        bad[r, a], bad[r, b] = bad[r, b], bad[r, a]
        with pytest.raises(OAVerificationFailed, match=rf"^row {r} symbols are not additive: "):
            _certify_strength_two(ctx, plus, bad)
        with pytest.raises(OAVerificationFailed, match=r"repeat symbol pair"):
            _entries_of(bad, vertex, arr).verify()
    bad = symbol.copy()
    bad[1] = bad[0]
    with pytest.raises(OAVerificationFailed, match=r"^vertex \d+ has symbol 0 in 2 rows, not one$"):
        _certify_strength_two(ctx, plus, bad)
    with pytest.raises(OAVerificationFailed, match=r"^rows \(0, 1\) repeat symbol pair"):
        _entries_of(bad, vertex, arr).verify()


def test_selection_holds_only_its_certified_table():
    """A selection is built from its field and cosets alone: its kept
    rows and its full table cannot be passed in, replaced or written
    (the full table is no field at all, so dataclasses.replace neither
    takes nor copies it), and replacing the cosets builds and certifies
    new rows."""
    ctx = create(5, 2)
    sel = subarray_for_connection_set(ctx, (0, 2))
    with pytest.raises(ValueError, match="init=False"):
        dataclasses.replace(sel, kept=sel.kept.copy())
    with pytest.raises(TypeError, match="symbol"):
        dataclasses.replace(sel, symbol=sel.symbol.copy())
    for name in ("kept", "symbol"):
        with pytest.raises(TypeError):
            SubarraySelection(ctx, (0, 2), **{name: sel.kept.copy()})
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(sel, name, sel.kept.copy())
    for table in (sel.kept, sel.symbol):
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 1
    for table in (sel.kept, sel.kept.base, sel.symbol, sel.symbol.base):
        with pytest.raises(ValueError, match="cannot set WRITEABLE flag"):
            table.flags.writeable = True
    assert "symbol" not in dataclasses.replace(sel).__dict__
    assert isinstance(sel.vertex_of_column, tuple)
    other = dataclasses.replace(sel, coset_indices=(0, 1))
    assert other.rows == slope_rows_oracle(ctx, other) != sel.rows


def test_build_path_never_runs_the_row_pair_check(monkeypatch):
    def refuse(self):
        raise AssertionError("OrthogonalArray.verify called while building")

    monkeypatch.setattr(OrthogonalArray, "verify", refuse)
    ctx = create(7, 2)
    build_pointline_oa(ctx, default_alpha(ctx, set()))
    subarray_for_connection_set(ctx, (0, 3))


# ----- kept rows ----------------------------------------------------------------

def kept_row_cases():
    """The survey graphs at q <= 9, q = 49 with m = 2 and with m = 25
    (gpstar, d = 10) and q = 81 Paley."""
    for q in survey.Q_CHOICES:
        ctx = ambient_field(q)
        extra = (build_counterexample(ctx, 3).coset_indices,) if q == 9 else ()
        for _, idx in survey.sweep_index_sets(ctx, 10, survey.DEFAULT_SEED, extra):
            yield ctx, idx
    ctx = ambient_field(49)
    yield ctx, (0, 1)
    yield ctx, tuple(sorted(family_cosets(ctx, "gpstar", 10)))
    ctx = ambient_field(81)
    yield ctx, tuple(sorted(family_cosets(ctx, "paley")))


def row_oracle(ctx, alpha, r):
    """Row r of the symbol table from field arithmetic on whole label
    arrays: the rank of y - k x at the vertex x + y alpha, k the r-th
    subfield label, or the rank of x at r = q."""
    sub = np.array(ctx.subfield_elements())
    q = len(sub)
    rank = np.full(ctx.order, -1)
    rank[sub] = np.arange(q)
    x, y = np.repeat(sub, q), np.tile(sub, q)
    row = np.empty(ctx.order, dtype=np.int64)
    at = ctx.add_array(x, ctx.mul_array(y, alpha))
    row[at] = rank[x] if r == q else rank[ctx.add_array(y, ctx.mul_array(x, ctx.neg(int(sub[r]))))]
    return row


def test_kept_rows_equal_the_full_table_and_plane():
    """The kept rows are the m used rows in coset order, then the least
    unused row, and equal those rows by field arithmetic, of the full
    table and of _plane's; the full table, built on first read, equals
    _plane's."""
    checked = 0
    for ctx, idx in kept_row_cases():
        sel = subarray_for_connection_set(ctx, idx)
        q = sel.q
        assert sel.kept_rows == sel.rows + (min(set(range(q + 1)) - set(sel.rows)),)
        assert sel.kept.shape == (len(idx) + 1, ctx.order)
        for r, row in zip(sel.kept_rows, sel.kept):
            if not np.array_equal(row, row_oracle(ctx, sel.alpha, r)):
                pytest.fail(f"{ctx} {idx}: kept row {r} differs from field arithmetic")
        vertex, symbol = _plane(ctx, sel.alpha)
        assert sel.vertex_of_column == tuple(vertex.tolist())
        if not np.array_equal(sel.kept, symbol[list(sel.kept_rows)]):
            pytest.fail(f"{ctx} {idx}: kept rows differ from _plane's")
        assert "symbol" not in sel.__dict__
        if not np.array_equal(sel.symbol, symbol):
            pytest.fail(f"{ctx} {idx}: full table differs from _plane's")
        if not np.array_equal(symbol, [row_oracle(ctx, sel.alpha, r) for r in range(q + 1)]):
            pytest.fail(f"{ctx} {idx}: full table differs from field arithmetic")
        checked += 1
    assert checked == 37 + 3


@pytest.mark.parametrize("q", [3, 5])
def test_kept_row_certificate_refuses_every_single_cell_change(q):
    """Every change of one cell of one kept row to another symbol is
    refused, on every index set with m <= q - 1 at q = 3 and a sample at
    q = 5."""
    ctx = create(q, 2)
    plus = _subfield_ranks(ctx)[2]
    cases = [(0,) + rest for size in range(q) for rest in combinations(range(1, q + 1), size)]
    if q == 5:
        cases = cases[::5]
    changes = 0
    for idx in cases:
        sel = subarray_for_connection_set(ctx, idx)
        _certify_kept(ctx.p, plus, sel.kept, sel.kept_rows)
        for j, z in product(range(len(sel.kept)), range(ctx.order)):
            for s in range(q):
                if s == sel.kept[j, z]:
                    continue
                bad = sel.kept.copy()
                bad[j, z] = s
                with pytest.raises(OAVerificationFailed):
                    _certify_kept(ctx.p, plus, bad, sel.kept_rows)
                changes += 1
    assert changes == sum(len(idx) + 1 for idx in cases) * q * q * (q - 1)


def test_kept_row_certificate_refuses_a_shared_or_wrong_sized_kernel():
    """A kept row repeated in place of another is additive, and its
    kernel vertices read 0 in two kept rows; a zero row is additive with
    a kernel of n points."""
    ctx = create(5, 2)
    plus = _subfield_ranks(ctx)[2]
    sel = subarray_for_connection_set(ctx, (0, 1, 3))
    bad = sel.kept.copy()
    bad[1] = bad[0]
    with pytest.raises(OAVerificationFailed, match=r"^vertex \d+ has symbol 0 in 2 kept rows$"):
        _certify_kept(ctx.p, plus, bad, sel.kept_rows)
    bad = sel.kept.copy()
    bad[2] = 0
    with pytest.raises(OAVerificationFailed,
                       match=rf"^row {sel.kept_rows[2]} reads 0 on 25 vertices, not 5$"):
        _certify_kept(ctx.p, plus, bad, sel.kept_rows)


def test_full_table_certifies_the_rows_it_adds(monkeypatch):
    """A row the full table adds on first read is certified additive, and
    the table's vertices at 0 in exactly one row; a faulty kept row never
    reaches a selection."""
    ctx = create(5, 2)
    rows = oa._rows

    def faulty(at):
        def build(ranks, vertex, wanted):
            out = rows(ranks, vertex, wanted)
            if at in wanted:
                j = list(wanted).index(at)
                out[j, 1], out[j, 2] = out[j, 2], out[j, 1]
            return out
        return build

    sel = subarray_for_connection_set(ctx, (0, 1))
    unkept = max(set(range(6)) - set(sel.kept_rows))
    monkeypatch.setattr(oa, "_rows", faulty(unkept))
    sel = subarray_for_connection_set(ctx, (0, 1))
    with pytest.raises(OAVerificationFailed, match=rf"^row {unkept} symbols are not additive: "):
        sel.symbol
    monkeypatch.setattr(oa, "_rows", faulty(sel.rows[1]))
    with pytest.raises(OAVerificationFailed, match=rf"^row {sel.rows[1]} symbols are not additive: "):
        subarray_for_connection_set(ctx, (0, 1))


def test_certificates_leave_the_full_table_unbuilt():
    """The pairing, the correspondence, the coloring, the audit, the
    basis, the decompositions, the clique bound, its listing and the
    subarray read the kept rows only; build_whd builds the full table."""
    for q, idx in ((9, (0, 1, 2, 3, 4)), (25, (0, 3))):
        ctx = ambient_field(q)
        x, sel = build_cayley(ctx, idx), subarray_for_connection_set(ctx, idx)
        verify_isomorphism(x, sel)
        canonical_correspondence(sel)
        unused_slope_coloring(sel)
        audit = strict_ekr_audit(x, sel)
        basis = peisert.build_ekr_basis(x, sel)
        peisert.decompose_cliques(x, basis, audit.cliques)
        certify_clique_bound(x, sel)
        noncanonical_clique_bound(x, sel)
        sel.subarray
        assert "symbol" not in sel.__dict__, (q, idx)
        peisert.build_whd(x, sel)
        assert "symbol" in sel.__dict__
    report = peisert.analyze_graph(ambient_field(5), (0, 2))
    assert "symbol" in report.selection.__dict__  # analyze_graph certifies it at build_whd


def test_canonical_correspondence_matches_field_oracle():
    """canonical_correspondence, which rests on the certified kept rows and
    2 m q reads, equals the field-arithmetic derivation on every oracle
    case and at q = 49, m = 13."""
    checked = 0
    cases = list(oracle_cases()) + [(ambient_field(49), tuple(range(13)))]
    for ctx, idx in cases:
        sel = subarray_for_connection_set(ctx, idx)
        got = canonical_correspondence(sel)
        assert "symbol" not in sel.__dict__
        want = correspondence_oracle(sel)
        if list(got.items()) != list(want.items()):
            pytest.fail(f"{ctx} {idx}: correspondence differs from the field oracle")
        checked += 1
    assert checked == 37 + 3 * 7 + 10 * 31 + 1
