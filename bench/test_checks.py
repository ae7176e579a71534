"""Self-test of the benchmark's checks: each accepts the program's real
outputs and rejects a deliberately corrupted copy.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from peisert import ekr, survey  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

Q, IDX = 7, (0, 1, 2)


@pytest.fixture(scope="module")
def report():
    return survey.analyze_graph(survey.ambient_field(Q), IDX, budget=60)


def _check(rep):
    workloads._check_report(rep, Q, IDX, "strict", use_networkx=True)


def _rejects(fn, *args):
    with pytest.raises(checks.CheckFailed):
        fn(*args)


def test_real_report_passes(report):
    _check(report)


def test_wrong_lambda(report):
    _rejects(_check, dataclasses.replace(report, srg=dataclasses.replace(
        report.srg, lam=report.srg.lam + 1)))


def test_coloring_with_one_clash(report):
    colors = list(report.coloring)
    v = report.graph.neighbors(0)[0]
    colors[v] = colors[0]
    _rejects(checks.check_coloring, report.graph.adj, colors, Q)


def test_decomposition_coefficient_changed(report):
    dec = report.decompositions[0]
    coeffs = list(dec.coefficients)
    coeffs[3] += Fraction(1, Q**3)
    bad = dataclasses.replace(dec, coefficients=coeffs)
    _rejects(checks.check_decomposition, report.graph.adj, report.basis, bad, Q)


def test_unbalanced_lift_changed(report):
    dec = report.decompositions[0]
    lift = dict(dec.unbalanced)
    key = next(iter(lift))
    lift[key] += 1
    bad = dataclasses.replace(dec, unbalanced=lift)
    _rejects(checks.check_decomposition, report.graph.adj, report.basis, bad, Q)


def test_basis_column_changed(report):
    matrix = report.basis.matrix.copy()
    matrix[0, 0] = -matrix[0, 0]
    bad = dataclasses.replace(report.basis, matrix=matrix)
    A = checks.dense(report.graph.adj, report.graph.n)
    _rejects(checks.check_basis, report.graph.adj, A, bad, Q, len(IDX))


def test_whd_diagonal_and_columns(report):
    A = checks.dense(report.graph.adj, report.graph.n)
    cert = report.whd_cert
    diag = list(cert.diagonal)
    diag[1], diag[-1] = diag[-1], diag[1]
    _rejects(checks.check_whd, A, dataclasses.replace(cert, diagonal=tuple(diag)), Q, len(IDX))
    swapped = cert.matrix[:, [0, 2, 1] + list(range(3, cert.matrix.shape[1]))]
    _rejects(checks.check_whd, A, dataclasses.replace(cert, matrix=swapped), Q, len(IDX))


def test_audit_counts(report):
    canonical = {cl.vertices for cl in report.basis.all_cliques}
    bad = dataclasses.replace(report.audit, canonical_count=report.audit.canonical_count - 1)
    _rejects(checks.check_audit, report.graph.adj, bad, canonical, Q, len(IDX), "strict")
    _rejects(checks.check_audit, report.graph.adj, report.audit, canonical, Q, len(IDX),
             "counterexample")


def test_timed_out_report_counts_as_failed(report):
    _rejects(_check, dataclasses.replace(report, decompositions=None))


def test_cayley_edge_removed(report):
    ctx = report.graph.field
    adj = list(report.graph.adj)
    v = report.graph.neighbors(5)[0]
    adj[5] &= ~(1 << v)
    _rejects(checks.check_cayley, ctx.p, ctx.r, ctx.modulus, ctx.generator, IDX, adj)
    _rejects(checks.check_cayley, ctx.p, ctx.r, ctx.modulus, ctx.generator, (0, 1, 3),
             report.graph.adj)


def test_isomorphism_map_swapped(report):
    mapping = list(report.isomorphism)
    mapping[1], mapping[2 * Q + 3] = mapping[2 * Q + 3], mapping[1]
    _rejects(checks.check_isomorphism, report.graph.adj,
             report.selection.subarray.entries, mapping)


def test_bound_and_networkx_counts(report):
    bound = copy.deepcopy(report.bound_check)
    bound["maximal_through"] += 1
    _rejects(checks.check_networkx, report.graph.adj, report.srg, report.audit.clique_count,
             Q, len(IDX), report.selection, bound)
    _rejects(checks.check_networkx, report.graph.adj, report.srg,
             report.audit.clique_count + 1, Q, len(IDX), report.selection,
             report.bound_check)
    bound = copy.deepcopy(report.bound_check)
    bound["bound"] += 1
    _rejects(checks.check_bound, report.graph.adj, report.selection, report.isomorphism,
             bound, len(IDX))


def test_module_and_build_ops():
    ctx = survey.ambient_field(9)
    idx = ekr.build_counterexample(ctx, 3).coset_indices
    module = workloads._module_op("q9", 9, idx, "counterexample")
    out = module.run()
    module.check(out)
    dec = out["decompositions"][0]
    out["decompositions"][0] = dataclasses.replace(
        dec, coefficients=[c + Fraction(1, 2) for c in dec.coefficients])
    _rejects(module.check, out)

    build = workloads._build_op("q9", 9, idx)
    out = build.run()
    build.check(out)
    key = next(iter(out["correspondence"]))
    verts = list(out["correspondence"][key])
    verts[0] = (verts[0] + 1) % 81
    out["correspondence"][key] = tuple(verts)
    _rejects(build.check, out)


def test_reproduction():
    rc, text = workloads._reproduce()
    checks.check_reproduction(rc, text)
    _rejects(checks.check_reproduction, 1, text)
    doc = json.loads(text)
    doc["result"]["positional_match"] = False
    _rejects(checks.check_reproduction, 0, json.dumps(doc))


def test_digest_sees_a_changed_coefficient(report):
    dec = report.decompositions[0]
    coeffs = list(dec.coefficients)
    coeffs[0] += 1
    assert checks.digest(report) != checks.digest(
        dataclasses.replace(report, decompositions=[dataclasses.replace(
            dec, coefficients=coeffs)] + report.decompositions[1:]))
