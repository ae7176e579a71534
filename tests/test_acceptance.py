"""Acceptance gate: the ten headline claims, exact arithmetic, zero tolerance.

Run with -v for one pass/fail line per criterion; -s additionally shows
the printed summary lines.  Budgets come from PEISERT_BUDGET when set.
"""

import os
import time
from fractions import Fraction

import pytest

from peisert import (
    build_cayley,
    build_counterexample,
    build_ekr_basis,
    canonical_cliques,
    canonical_correspondence,
    create,
    decompose_clique,
    enumerate_max_cliques,
    is_weakly_hadamard,
    run_sweep,
    srg_certify,
    strict_ekr_audit,
    subarray_for_connection_set,
    unused_slope_coloring,
    verify_isomorphism,
)
from peisert.errors import SearchTimeout
from test_ekr import balanced_indicator, eigenfunction_check, indicator

PINNED81 = (-1, 0, 0, -1, 1)
BUDGET = float(os.environ.get("PEISERT_BUDGET", "1800"))


@pytest.fixture(scope="module")
def sweep():
    t0 = time.monotonic()
    reports = run_sweep((3, 5, 7, 9))
    return reports, time.monotonic() - t0


def test_criterion_01_case_study():
    t0 = time.monotonic()
    ctx = create(3, 4, PINNED81)
    x = build_cayley(ctx, (0, 1, 2, 3, 4))
    srg_certify(x)
    sel = subarray_for_connection_set(ctx, (0, 1, 2, 3, 4))
    audit = strict_ekr_audit(x, sel, through_vertex=0, budget=BUDGET)
    assert audit.omega == 9
    assert audit.clique_count == 9
    assert audit.canonical_count == 5

    sub = ctx.subfield_elements()
    canonical = {tuple(sorted(ctx.mul(ctx.gen_pow(i), t) for t in sub))
                 for i in range(5)}
    found = set(enumerate_max_cliques(x, target=9, through_vertex=0,
                                      budget=BUDGET))
    assert canonical <= found

    def span(i, j):
        return tuple(sorted(ctx.add(ctx.mul(u, ctx.gen_pow(i)),
                                    ctx.mul(v, ctx.gen_pow(j)))
                            for u in (0, 1, 2) for v in (0, 1, 2)))

    spans = {span(0, 3), span(1, 10), span(11, 20), span(30, 33)}
    assert set(audit.non_canonical) == spans
    assert found == canonical | spans

    basis = build_ekr_basis(x, sel)
    dec = decompose_clique(x, basis, span(1, 10))
    assert dec.residual_zero
    assert dec.zero_count == 16
    assert dec.histogram == {Fraction(0): 16, Fraction(-1, 3): 24}
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    print(f"criterion 1: PASS  case study reproduced in {elapsed:.2f}s")


def test_criterion_02_srg_sweep(sweep):
    reports, elapsed = sweep
    per_q = {}
    for r in reports:
        per_q.setdefault(r.q, []).append(r)
    assert sorted(per_q) == [3, 5, 7, 9]
    # q = 3 admits only 7 index sets in total, so coverage is exhaustive
    assert len(per_q[3]) == 7
    for q in (5, 7, 9):
        assert len(per_q[q]) >= 10
    from peisert.survey import ambient_field, family_index_sets
    for q in (3, 5, 7, 9):
        swept = {r.indices for r in per_q[q]}
        for name, idx in family_index_sets(ambient_field(q)).items():
            assert tuple(sorted(idx)) in swept, (q, name)
    for r in reports:
        q, m = r.q, r.m
        assert (r.srg.n, r.srg.k) == (q * q, m * (q - 1))
        assert r.srg.lam == (m - 1) * (m - 2) + q - 2
        assert r.srg.mu == (m * (m - 1) if m > 1 else 0)
        k = m * (q - 1)
        assert r.srg.eigenvalues == ((k, 1), (q - m, k), (-m, q * q - 1 - k))
    assert elapsed < 300
    print(f"criterion 2: PASS  {len(reports)} graphs certified in {elapsed:.2f}s")


def test_criterion_03_isomorphism(sweep):
    reports, _ = sweep
    for r in reports:
        assert sorted(r.isomorphism) == list(range(r.q * r.q))
        pairs = canonical_correspondence(r.selection)
        assert len(pairs) == r.m * r.q
    print(f"criterion 3: PASS  {len(reports)} block-graph isomorphisms")


def test_criterion_04_module_property(sweep):
    reports, _ = sweep
    total = 0
    for r in reports:
        assert r.audit is not None and r.decompositions is not None
        assert len(r.decompositions) == r.audit.clique_count
        for dec in r.decompositions:
            assert dec.residual_zero
        total += len(r.decompositions)
    print(f"criterion 4: PASS  {total} maximum cliques decomposed exactly")


def test_criterion_05_strict_threshold(sweep):
    reports, _ = sweep
    for r in reports:
        if r.q > (r.m - 1) ** 2:
            assert r.audit.strict, (r.q, r.indices)
        if not r.audit.strict:
            assert r.q <= (r.m - 1) ** 2

    ce9 = build_counterexample(create(3, 4), 3)
    assert ce9.coset_indices == (0, 1, 7, 8)
    audit9 = strict_ekr_audit(ce9.graph, ce9.selection, budget=BUDGET)
    assert not audit9.strict
    assert ce9.clique in audit9.non_canonical
    swept9 = {r.indices: r for r in reports if r.q == 9}
    assert not swept9[(0, 1, 7, 8)].audit.strict

    ce25 = build_counterexample(create(5, 4), 5)
    assert ce25.coset_indices == (0, 1, 6, 18, 23, 24)
    try:
        audit25 = strict_ekr_audit(ce25.graph, ce25.selection, budget=min(BUDGET, 1800))
        assert not audit25.strict
        assert ce25.clique in audit25.non_canonical
        detail = f"q=25 exhaustive, {audit25.clique_count} maximum cliques"
    except SearchTimeout:
        # membership, maximality and non-canonicity were certified during
        # construction, which already falsifies strict-EKR
        detail = "q=25 downgraded to witness verification"
    print(f"criterion 5: PASS  threshold holds; {detail}")


def test_criterion_06_chromatic(sweep):
    reports, _ = sweep
    for r in reports:
        assert r.coloring_proper
        assert r.chromatic == r.q
        assert r.audit.omega == r.q
    print(f"criterion 6: PASS  chi = omega = q on all {len(reports)} graphs")


def test_criterion_07_noncanonical_bound(sweep):
    reports, _ = sweep
    worst = 0
    for r in reports:
        assert r.bound_check["ok"]
        bound = (r.m - 1) ** 2
        assert r.bound_check["bound"] == bound
        for item in r.bound_check["noncanonical"]:
            assert len(item["clique"]) <= bound
            worst = max(worst, len(item["clique"]))
    print(f"criterion 7: PASS  all non-canonical maximal cliques within bound"
          f" (largest seen {worst})")


def test_criterion_08_whd(sweep):
    reports, _ = sweep
    for r in reports:
        cert = r.whd_cert
        q, m = r.q, r.m
        k = m * (q - 1)
        res = is_weakly_hadamard(cert.matrix)
        assert res.ok
        tally = {}
        for d in cert.diagonal:
            tally[d] = tally.get(d, 0) + 1
        want = {}
        # m = 1 collapses the 0 and k - (q - m) eigenvalues
        for value, mult in ((0, 1), (k - (q - m), k), (k + m, q * q - 1 - k)):
            want[value] = want.get(value, 0) + mult
        assert tally == want
    print(f"criterion 8: PASS  {len(reports)} weakly Hadamard certificates")


def test_criterion_09_eigenfunctions(sweep):
    reports, _ = sweep
    for r in reports:
        x, q, m = r.graph, r.q, r.m
        cliques = canonical_cliques(r.selection)
        by_coset = {}
        for c in cliques:
            by_coset.setdefault(c.coset, []).append(c)
        for group in by_coset.values():
            base = group[0]
            chi_base = indicator(base.vertices, x.n)
            for other in group[1:]:
                f = [a - b for a, b in
                     zip(chi_base, indicator(other.vertices, x.n))]
                assert eigenfunction_check(x, f, q - m)
            bal = [balanced_indicator(c.vertices, x.n) for c in group]
            assert all(sum(col) == 0 for col in zip(*bal))
        # unused-slope lines are the color classes; their differences
        # are eigenfunctions at -m
        colors = r.coloring
        classes = sorted(set(colors))
        lines = [[v for v in range(x.n) if colors[v] == c] for c in classes]
        first = indicator(lines[0], x.n)
        for line in lines[1:]:
            f = [a - b for a, b in zip(first, indicator(line, x.n))]
            assert eigenfunction_check(x, f, -m)
    print(f"criterion 9: PASS  eigenfunction identities on {len(reports)} graphs")


def test_criterion_10_clique_coclique(sweep):
    reports, _ = sweep
    pairs = 0
    for r in reports:
        if r.q not in (3, 5):
            continue
        x = r.graph
        comp = x.complement()
        srg_certify(comp)
        cliques = enumerate_max_cliques(x, budget=BUDGET)
        cocliques = enumerate_max_cliques(comp, budget=BUDGET)
        assert all(len(c) == r.q for c in cliques)
        assert all(len(c) == r.q for c in cocliques)
        for cl in cliques:
            cs = set(cl)
            for co in cocliques:
                assert len(cs.intersection(co)) == 1
                pairs += 1
    print(f"criterion 10: PASS  {pairs} clique/coclique pairs meet exactly once")
