"""The four workloads: which graphs each op certifies, how, and how its
outputs are checked.

An op certifies one graph starting from its (q, coset indices) through
the package's public functions.  The seed permutes the ops of each pass;
on dense-m2 and build-q49 it also picks the cosets besides 0, which
leaves n, k and m and so the work unchanged.  It never picks the field
modulus: certification cost depends strongly on the presentation (one
module-highm pass took 7.4 s to 12.8 s over four random moduli).
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from typing import Callable

from peisert import cli, ekr, graphs, oa, survey

import checks

# search budget per call, far above any op's need; an op that reaches it
# reports a timeout and is counted as failed
BUDGET = 60.0


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]


def _cayley_check(ctx, x, idx):
    checks.check_cayley(ctx.p, ctx.r, ctx.modulus, ctx.generator, idx, x.adj)


def _check_report(rep, q, idx, expect, use_networkx):
    """Every certificate of one survey.analyze_graph report."""
    m = len(idx)
    x = rep.graph
    if rep.audit is None or rep.basis is None or rep.decompositions is None:
        raise checks.SearchTimedOut("a clique search timed out inside analyze_graph")
    _cayley_check(x.field, x, idx)
    checks.check_srg(rep.srg, q, m)
    checks.check_isomorphism(x.adj, rep.selection.subarray.entries, rep.isomorphism)
    checks.check_coloring(x.adj, rep.coloring, q)
    checks.require(rep.coloring_proper and rep.chromatic == q, "chromatic number is not q")
    A = checks.dense(x.adj, x.n)
    checks.check_basis(x.adj, A, rep.basis, q, m)
    canonical = {cl.vertices for cl in rep.basis.all_cliques}
    checks.check_audit(x.adj, rep.audit, canonical, q, m, expect)
    found = [d.clique for d in rep.decompositions]
    checks.require(len(set(found)) == len(found) == rep.audit.clique_count,
                   "decompositions do not cover the maximum cliques once each")
    checks.require(set(found) == canonical | set(rep.audit.non_canonical),
                   "decomposed cliques differ from the audited ones")
    for dec in rep.decompositions:
        checks.check_decomposition(x.adj, rep.basis, dec, q)
    checks.check_whd(A, rep.whd_cert, q, m)
    checks.check_bound(x.adj, rep.selection, rep.isomorphism, rep.bound_check, m)
    if use_networkx:
        checks.check_networkx(x.adj, rep.srg, rep.audit.clique_count, q, m,
                              rep.selection, rep.bound_check)


def _expectation(q, idx, counterexample=False):
    if counterexample:
        return "counterexample"
    return "strict" if checks.expects_strict(q, idx) else None


def _analyze_op(name, q, idx, expect, use_networkx):
    return Op(name,
              lambda: survey.analyze_graph(survey.ambient_field(q), idx, name, budget=BUDGET),
              lambda rep: _check_report(rep, q, idx, expect, use_networkx))


def _reproduce():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(["reproduce-81", "--budget", str(BUDGET)])
    return rc, out.getvalue()


def sweep_small(seed: int) -> list[Op]:
    """The graphs `peisert survey --q 3,5,7,9` selects, plus reproduce-81."""
    ops = []
    for q in survey.Q_CHOICES:
        ctx = survey.ambient_field(q)
        extra = (ekr.build_counterexample(ctx, 3).coset_indices,) if q == 9 else ()
        for name, idx in survey.sweep_index_sets(ctx, 10, survey.DEFAULT_SEED, extra):
            ops.append(_analyze_op(f"q{q}:{name}:" + "-".join(map(str, idx)), q, idx,
                                   _expectation(q, idx, idx in extra), True))
    ops.append(Op("reproduce-81", _reproduce, lambda out: checks.check_reproduction(*out)))
    return ops


def dense_m2(seed: int) -> list[Op]:
    """m = 2 graphs at q = 19, 23, 25; the seed picks the second coset."""
    rng = random.Random(seed)
    ops = []
    for q in (19, 23, 25):
        idx = (0, rng.randint(1, q))
        ops.append(_analyze_op(f"q{q}:0-{idx[1]}", q, idx, _expectation(q, idx), False))
    return ops


def _module_op(name, q, idx, expect):
    def run():
        ctx = survey.ambient_field(q)
        x = graphs.build_cayley(ctx, idx)
        params = graphs.srg_certify(x)
        sel = oa.subarray_for_connection_set(ctx, idx)
        audit = ekr.strict_ekr_audit(x, sel, budget=BUDGET)
        basis = ekr.build_ekr_basis(x, sel)
        decs = [ekr.decompose_clique(x, basis, c) for c in audit.non_canonical]
        return {"graph": x, "srg": params, "audit": audit, "basis": basis,
                "decompositions": decs}

    def check(out):
        x, m = out["graph"], len(idx)
        _cayley_check(x.field, x, idx)
        checks.check_srg(out["srg"], q, m)
        checks.check_basis(x.adj, checks.dense(x.adj, x.n), out["basis"], q, m)
        canonical = {cl.vertices for cl in out["basis"].all_cliques}
        checks.check_audit(x.adj, out["audit"], canonical, q, m, expect)
        checks.require([d.clique for d in out["decompositions"]]
                       == list(out["audit"].non_canonical), "decompositions miss a clique")
        for dec in out["decompositions"]:
            checks.check_decomposition(x.adj, out["basis"], dec, q)

    return Op(name, run, check)


def module_highm(seed: int) -> list[Op]:
    """The EKR-module certificate on three high-m graphs."""
    ctx23, ctx25 = survey.ambient_field(23), survey.ambient_field(25)
    peisert = tuple(sorted(graphs.family_cosets(ctx23, "peisert")))
    paley = tuple(sorted(graphs.family_cosets(ctx25, "paley")))
    subfield = ekr.build_counterexample(ctx25, 5).coset_indices
    return [_module_op("q23:peisert", 23, peisert, _expectation(23, peisert)),
            _module_op("q25:paley", 25, paley, _expectation(25, paley)),
            _module_op("q25:subfield5", 25, subfield, "counterexample")]


def _build_op(name, q, idx):
    def run():
        ctx = survey.ambient_field(q)
        x = graphs.build_cayley(ctx, idx)
        params = graphs.srg_certify(x)
        sel = oa.subarray_for_connection_set(ctx, idx)
        mapping = oa.verify_isomorphism(x, sel)
        corr = oa.canonical_correspondence(sel)
        colors = oa.unused_slope_coloring(sel)
        clash = graphs.verify_coloring(x, colors)
        return {"graph": x, "srg": params, "selection": sel, "isomorphism": mapping,
                "correspondence": corr, "coloring": colors, "clash": clash}

    def check(out):
        x, m = out["graph"], len(idx)
        _cayley_check(x.field, x, idx)
        checks.check_srg(out["srg"], q, m)
        checks.check_isomorphism(x.adj, out["selection"].subarray.entries, out["isomorphism"])
        checks.check_correspondence(x.adj, out["correspondence"], q, m)
        checks.check_coloring(x.adj, out["coloring"], q)
        checks.require(out["clash"] is None, "verify_coloring reports a clash")

    return Op(name, run, check)


def build_q49(seed: int) -> list[Op]:
    """Realize and certify q = 49 graphs with m = 2 and m = 13; the seed
    picks the cosets besides 0."""
    rng = random.Random(seed)
    pair = (0, rng.randint(1, 49))
    wide = (0,) + tuple(sorted(rng.sample(range(1, 50), 12)))
    return [_build_op(f"q49:m2:{pair[1]}", 49, pair),
            _build_op("q49:m13:" + "-".join(map(str, wide)), 49, wide)]


WORKLOADS = {
    "sweep-small": sweep_small,
    "dense-m2": dense_m2,
    "module-highm": module_highm,
    "build-q49": build_q49,
}
