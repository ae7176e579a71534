"""Command line front end.

Every analysis command prints a JSON report with the run configuration
embedded; reports are byte-identical across runs of the same
configuration (no timestamps, sorted keys, seeded sampling only).
Rationals render as "num/den" strings.

Exit codes: 0 success, 1 failed verification, 2 exhausted budget, 3 bad
input.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from collections import Counter
from fractions import Fraction
from typing import Optional

import numpy as np

from . import ekr, graphs, linalg, oa, survey, whd
from .errors import (
    CertificationFailed,
    InputError,
    LengthMismatch,
    PeisertError,
    ReproductionMismatch,
    SearchTimeout,
)

INPUT_ERRORS = (InputError, ValueError, OSError)

CASE_STUDY_MODULUS = (-1, 0, 0, -1, 1)  # x^4 - x^3 - 1 over GF(3)

# pinned 8 x 5 coefficient table for GP*(81, 10): cells are
# (constant, a, a^2) coordinates of t in the clique a^j F_9 + t, column
# j ascending; shaded cells carry coefficient -1/3, unshaded 0
CASE_STUDY_CELLS = [
    [(0, 1, 0), (0, 0, 1), (1, 0, 0), (0, 1, 0), (0, 1, 0)],
    [(0, 2, 0), (0, 0, 2), (2, 0, 0), (0, 2, 0), (0, 2, 0)],
    [(0, 0, 1), (1, 0, 0), (0, 1, 0), (1, 0, 0), (1, 0, 0)],
    [(0, 0, 2), (2, 0, 0), (0, 2, 0), (2, 0, 0), (2, 0, 0)],
    [(0, 1, 1), (1, 0, 1), (1, 1, 0), (1, 1, 0), (1, 1, 0)],
    [(0, 2, 1), (2, 0, 1), (2, 1, 0), (2, 1, 0), (2, 1, 0)],
    [(0, 1, 2), (1, 0, 2), (1, 2, 0), (1, 2, 0), (1, 2, 0)],
    [(0, 2, 2), (2, 0, 2), (2, 2, 0), (2, 2, 0), (2, 2, 0)],
]
CASE_STUDY_SHADED = [[False] * 5] * 2 + [[True, True, False, True, True]] * 6


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _tally(values) -> dict[str, int]:
    return dict(Counter(str(v) for v in values))


def _parse_ints(text: str) -> list[int]:
    return [int(t) for t in text.split(",") if t.strip() != ""]


def default_budget() -> float:
    """PEISERT_BUDGET, or the default; read only by commands that take --budget."""
    raw = os.environ.get("PEISERT_BUDGET", graphs.DEFAULT_BUDGET)
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"PEISERT_BUDGET={raw!r} is not a number of seconds") from None


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are input errors
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(3)


def _srg_json(p: graphs.SrgParams) -> dict:
    return {
        "n": p.n, "k": p.k, "lambda": p.lam, "mu": p.mu,
        "eigenvalues": [[v, m] for v, m in p.eigenvalues],
        "complete": p.complete, "disconnected": p.disconnected,
    }


def _add_graph_args(sub):
    sub.add_argument("--q", type=int, required=True, help="subfield order")
    sub.add_argument("--cosets", type=str, help="comma list of coset indices")
    sub.add_argument("--family", choices=["paley", "peisert", "gp", "gpstar"])
    sub.add_argument("--d", type=int, help="divisor for gp / gpstar")
    sub.add_argument("--modulus", type=str,
                     help="comma list of ambient modulus coefficients, ascending")


def _ambient_field(args):
    modulus = _parse_ints(args.modulus) if args.modulus else None
    return survey.ambient_field(args.q, modulus)


def _resolve_graph(args):
    ctx = _ambient_field(args)
    if args.family:
        idx = graphs.family_cosets(ctx, args.family, args.d)
    elif args.cosets:
        idx = _parse_ints(args.cosets)
    else:
        raise ValueError("need --cosets or --family")
    return ctx, tuple(sorted(set(idx)))


def _certified_graph(args):
    """(ctx, idx, g, params): the options' Cayley graph and its SRG certificate."""
    ctx, idx = _resolve_graph(args)
    g = graphs.build_cayley(ctx, idx)
    return ctx, idx, g, graphs.srg_certify(g)


def _paired(args):
    """The options' Cayley graph and selection; the pairing check each
    caller's certificate runs implies the SRG, so none is certified."""
    ctx, idx = _resolve_graph(args)
    return graphs.build_cayley(ctx, idx), oa.subarray_for_connection_set(ctx, idx)


def _graph_config(args) -> dict:
    return {"q": args.q, "cosets": args.cosets, "family": args.family,
            "d": args.d, "modulus": args.modulus}


def _emit(config: dict, result: dict) -> int:
    print(json.dumps({"config": config, "result": result},
                     sort_keys=True, indent=2))
    return 0


def _write_or_print(text: str, out: Optional[str], config: dict, summary: dict) -> int:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
        return _emit(config, dict(summary, path=out))
    sys.stdout.write(text)
    return 0


# ----- commands -------------------------------------------------------------

def cmd_field_inspect(args) -> int:
    from .field import create
    modulus = _parse_ints(args.modulus) if args.modulus else None
    ctx = create(args.p, args.r, modulus)
    result = {
        "p": ctx.p, "r": ctx.r, "order": ctx.order,
        "modulus": list(ctx.modulus), "generator": ctx.generator,
    }
    if ctx.r % 2 == 0:
        result["subfield_order"] = ctx.subfield_order
        result["subfield"] = list(ctx.subfield_elements())
    return _emit({"command": "field inspect", "p": args.p, "r": args.r,
                  "modulus": args.modulus}, result)


def cmd_graph_build(args) -> int:
    ctx, idx = _resolve_graph(args)
    g = graphs.build_cayley(ctx, idx)
    config = dict(_graph_config(args), command="graph build")
    return _write_or_print(graphs.to_dimacs(g), args.out, config,
                           {"n": g.n, "edges": g.edge_count(), "indices": list(idx)})


def cmd_graph_srg(args) -> int:
    _, idx, _, params = _certified_graph(args)
    return _emit(dict(_graph_config(args), command="graph srg"),
                 dict(_srg_json(params), indices=list(idx),
                      hoffman_bound=_frac(params.hoffman_bound())))


def cmd_graph_cliques(args) -> int:
    _, _, g, params = _certified_graph(args)
    # the graph holds coset 0, so its clique F_q attains the Hoffman bound
    target = math.floor(params.hoffman_bound()) if args.target is None else args.target
    cliques = graphs.enumerate_max_cliques(g, target=target,
                                           through_vertex=args.through,
                                           budget=args.budget)
    return _emit(dict(_graph_config(args), command="graph cliques",
                      target=args.target, through=args.through),
                 {"count": len(cliques), "size": len(cliques[0]) if cliques else 0,
                  "cliques": [list(c) for c in cliques]})


def cmd_oa_build(args) -> int:
    config = dict(_graph_config(args), command="oa build")
    if args.cosets or args.family:
        ctx, idx = _resolve_graph(args)
        sel = oa.subarray_for_connection_set(ctx, idx)
        array = sel.subarray
        summary = {"rows": array.num_rows, "n": array.n,
                   "alpha": sel.alpha, "indices": list(idx)}
    else:
        ctx = _ambient_field(args)
        array = oa.build_pointline_oa(ctx)
        summary = {"rows": array.num_rows, "n": array.n, "alpha": oa.default_alpha(ctx, ())}
    return _write_or_print(oa.oa_to_csv(array), args.out, config, summary)


def cmd_oa_verify(args) -> int:
    with open(args.file) as fh:
        array = oa.oa_from_csv(fh.read())
    array.verify()
    return _emit({"command": "oa verify", "file": os.path.basename(args.file)},
                 {"valid": True, "rows": array.num_rows, "n": array.n})


def cmd_oa_blockgraph(args) -> int:
    with open(args.file) as fh:
        array = oa.oa_from_csv(fh.read())
    array.verify()
    g = oa.block_graph(array)
    config = {"command": "oa blockgraph", "file": os.path.basename(args.file)}
    return _write_or_print(graphs.to_dimacs(g), args.out, config,
                           {"n": g.n, "edges": g.edge_count()})


def cmd_ekr_audit(args) -> int:
    g, sel = _paired(args)
    report = ekr.strict_ekr_audit(g, sel, through_vertex=args.through,
                                  budget=args.budget)
    return _emit(dict(_graph_config(args), command="ekr audit",
                      through=args.through),
                 {"omega": report.omega, "clique_count": report.clique_count,
                  "canonical_count": report.canonical_count,
                  "non_canonical": [list(c) for c in report.non_canonical],
                  "strict_ekr": report.strict})


def cmd_ekr_decompose(args) -> int:
    g, sel = _paired(args)
    basis = ekr.build_ekr_basis(g, sel)
    clique = tuple(sorted(_parse_ints(args.clique)))
    dec = ekr.decompose_clique(g, basis, clique)
    coeffs = [{"coset": cl.coset, "intercept": cl.intercept, "value": _frac(b)}
              for cl, b in zip(basis.basis_cliques, dec.coefficients)]
    hist = {_frac(v): c for v, c in sorted(dec.histogram.items())}
    unbal = {f"{c}:{i}": _frac(v) for (c, i), v in sorted(dec.unbalanced.items())}
    return _emit(dict(_graph_config(args), command="ekr decompose",
                      clique=args.clique),
                 {"clique": list(dec.clique), "residual_zero": dec.residual_zero,
                  "zero_count": dec.zero_count, "histogram": hist,
                  "coefficients": coeffs, "unbalanced": unbal})


def cmd_ekr_counterexample(args) -> int:
    ce = ekr.build_counterexample(_ambient_field(args), args.subfield)
    result = {
        "q": ce.q, "subfield": ce.subfield_order, "summands": ce.t, "m": ce.m,
        "indices": list(ce.coset_indices), "clique": list(ce.clique),
        "srg": _srg_json(ce.srg),
    }
    try:
        audit = ekr.strict_ekr_audit(ce.graph, ce.selection, budget=args.budget)
        result["audit"] = {"exhaustive": True, "strict_ekr": audit.strict,
                           "clique_count": audit.clique_count,
                           "canonical_count": audit.canonical_count}
    except SearchTimeout:
        # the witness clique alone already falsifies strict-EKR
        result["audit"] = {"exhaustive": False, "strict_ekr": False,
                           "witness": list(ce.clique)}
    return _emit({"command": "ekr counterexample", "q": args.q,
                  "subfield": args.subfield, "modulus": args.modulus}, result)


def cmd_whd_build(args) -> int:
    g, sel = _paired(args)
    cert = whd.build_whd(g, sel)
    config = dict(_graph_config(args), command="whd build")
    return _write_or_print(whd.whd_to_csv(cert), args.out, config,
                           {"n": g.n, "diagonal_tally": _tally(cert.diagonal),
                            "used_slopes": list(cert.used_slopes)})


def cmd_whd_verify(args) -> int:
    _, _, g, params = _certified_graph(args)
    with open(args.file) as fh:
        matrix, diag = whd.whd_from_csv(fh.read())
    n = g.n
    if matrix.shape != (n, n):
        raise LengthMismatch(f"matrix shape {matrix.shape}, the graph has {n} vertices")
    wh = whd.is_weakly_hadamard(matrix)
    if not wh.ok:
        raise CertificationFailed(f"not weakly Hadamard: {wh.obstruction}")
    if not linalg.certified_full_column_rank(matrix):
        raise CertificationFailed("columns are rank deficient")
    # L P = k P - A P; row u of A P sums the rows u + s of P over s in N(0)
    at = np.arange(n)
    lap = params.k * matrix - sum(matrix[g.field.add_array(at, s)] for s in g.neighbors(0))
    if not np.array_equal(lap, matrix * np.array(diag, dtype=np.int64)[None, :]):
        raise CertificationFailed("L P != P D for the stored diagonal")
    return _emit(dict(_graph_config(args), command="whd verify",
                      file=os.path.basename(args.file)),
                 {"weakly_hadamard": True, "full_rank": True,
                  "diagonalizes": True, "n": n})


def _case_study_table(sel, basis, dec) -> tuple[list[list[dict]], bool]:
    """Evaluate the pinned 8 x 5 coefficient table cell by cell.

    Each cell names the clique a^j F_9 + t, the coset-j line through t
    (oa.certify_coset_lines), so it is keyed by coset j and the symbol
    the coset-j row reads at t.  It must be one of the 40 basis cliques,
    and its decomposition coefficient must be -1/3 on shaded cells and 0
    elsewhere.
    """
    ctx = sel.ctx
    a, a2 = ctx.gen_pow(1), ctx.gen_pow(2)
    value_of = {(cl.coset, cl.intercept): b for cl, b in zip(basis.basis_cliques, dec.coefficients)}
    table = []
    match = True
    seen = set()
    for i, row in enumerate(CASE_STUDY_CELLS):
        out_row = []
        for j, (c0, c1, c2) in enumerate(row):
            t = ctx.add(ctx.add(c0, ctx.mul(c1, a)), ctx.mul(c2, a2))
            key = (j, int(sel.kept[sel.coset_indices.index(j), t]))
            if key not in value_of:
                raise ReproductionMismatch(f"table cell ({i}, {j}) is not a basis clique")
            seen.add(key)
            value = value_of[key]
            expected = Fraction(-1, 3) if CASE_STUDY_SHADED[i][j] else Fraction(0)
            match = match and value == expected
            out_row.append({"s_power": j, "t": [c0, c1, c2], "value": _frac(value)})
        table.append(out_row)
    if len(seen) != 40:
        raise ReproductionMismatch(f"table covers {len(seen)} basis cliques, not all 40 once")
    return table, match


def cmd_reproduce_81(args) -> int:
    """Re-derive the GF(81) case study from the pinned modulus by
    survey.analyze_graph, one budget bounding its audit and its bound,
    and check every pinned value on its report; any disagreement exits
    nonzero."""
    from .field import create
    ctx = create(3, 4, CASE_STUDY_MODULUS)
    idx = graphs.family_cosets(ctx, "gpstar", 10)
    if tuple(sorted(idx)) != (0, 1, 2, 3, 4):
        raise ReproductionMismatch("connection set is not cosets 0..4")
    rep = survey.analyze_graph(ctx, idx, budget=args.budget)
    params, full = rep.srg, rep.audit
    if (params.n, params.k, params.lam, params.mu) != (81, 40, 19, 20):
        raise ReproductionMismatch(f"srg parameters {params}")

    through_0 = full.through_0
    non_canonical_0 = [c for c in full.non_canonical if 0 in c]
    # the canonical ones are the lines a^i F_9 (oa.certify_coset_lines)
    canonical_0 = len(through_0) - len(non_canonical_0)
    if full.omega != 9 or len(through_0) != 9:
        raise ReproductionMismatch(
            f"expected 9 maximum cliques through 0, found {len(through_0)}")
    if canonical_0 != 5:
        raise ReproductionMismatch(f"canonical count {canonical_0} != 5")

    def span(i, j):
        out = set()
        for c1 in range(3):
            for c2 in range(3):
                out.add(ctx.add(ctx.mul(c1, ctx.gen_pow(i)), ctx.mul(c2, ctx.gen_pow(j))))
        return tuple(sorted(out))

    spans = {"C1": span(0, 3), "C2": span(1, 10), "C3": span(11, 20), "C4": span(30, 33)}
    if set(non_canonical_0) != set(spans.values()):
        raise ReproductionMismatch("non-canonical cliques differ from the four spans")
    if full.clique_count != 81 or full.canonical_count != 45:
        raise ReproductionMismatch(
            f"full audit found {full.clique_count} cliques, {full.canonical_count} canonical")

    dec = rep.decompositions_through_0[through_0.index(spans["C2"])]
    hist = {_frac(v): c for v, c in sorted(dec.histogram.items())}
    if dec.zero_count != 16 or dec.histogram.get(Fraction(-1, 3)) != 24:
        raise ReproductionMismatch(f"C2 histogram {hist}")

    table, positional = _case_study_table(rep.selection, rep.basis, dec)

    if args.table_out:
        lines = []
        for row in table:
            cells = []
            for cell in row:
                c0, c1, c2 = cell["t"]
                terms = []
                if c2:
                    terms.append(("" if c2 == 1 else str(c2)) + "a^2")
                if c1:
                    terms.append(("" if c1 == 1 else str(c1)) + "a")
                if c0:
                    terms.append(str(c0))
                cells.append(f"(a^{cell['s_power']}|{'+'.join(terms)}|{cell['value']})")
            lines.append(",".join(cells))
        with open(args.table_out, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    tally = _tally(rep.whd_cert.diagonal)
    if tally != {"0": 1, "36": 40, "45": 40}:
        raise ReproductionMismatch(f"whd diagonal tally {tally}")

    result = {
        "modulus": list(ctx.modulus),
        "srg": _srg_json(params),
        "omega": 9,
        "maximum_cliques_through_0": 9,
        "canonical_through_0": 5,
        "non_canonical_through_0": {name: list(verts) for name, verts in spans.items()},
        "full_count": full.clique_count,
        "c2_histogram": hist,
        "residual_zero": dec.residual_zero,
        "positional_match": positional,
        "whd_diagonal_tally": tally,
        "strict_ekr": False,
    }
    return _emit({"command": "reproduce-81", "budget_used": args.budget is not None},
                 result)


def cmd_survey(args) -> int:
    q_values = tuple(_parse_ints(args.q))
    for q in q_values:
        if q not in survey.Q_CHOICES:
            raise ValueError(f"survey q must be among {survey.Q_CHOICES}")
    reports = survey.run_sweep(q_values, args.minimum, args.seed, args.budget)
    rows = []
    for r in reports:
        rows.append({
            "name": r.name, "q": r.q, "m": r.m, "indices": list(r.indices),
            "srg": _srg_json(r.srg),
            "isomorphic": True,
            "coloring_proper": r.coloring_proper,
            "chromatic": r.chromatic,
            "omega": r.audit.omega,
            "strict_ekr": r.audit.strict,
            "maximum_cliques": r.audit.clique_count,
            "decompositions": r.audit.clique_count,
            "all_residual_zero": all(d.residual_zero for d in r.decompositions_through_0),
            "basis_rank": r.basis.rank,
            "whd_diagonal_tally": _tally(r.whd_cert.diagonal),
            "bound_ok": True,
        })
    rows.sort(key=lambda row: (row["q"], row["m"], row["name"]))
    return _emit({"command": "survey", "q": list(q_values),
                  "minimum": args.minimum, "seed": args.seed},
                 {"graphs": rows, "count": len(rows)})


# ----- wiring ----------------------------------------------------------------

@functools.cache
def build_parser() -> _Parser:
    """The parser, built once per process.  It names each command only
    by its words: main runs cmd_<words>, looked up when it runs."""
    p = _Parser(prog="peisert")
    sub = p.add_subparsers(dest="cmd", required=True)

    f = sub.add_parser("field").add_subparsers(dest="sub", required=True)
    fi = f.add_parser("inspect")
    fi.add_argument("--p", type=int, required=True)
    fi.add_argument("--r", type=int, required=True)
    fi.add_argument("--modulus", type=str)

    g = sub.add_parser("graph").add_subparsers(dest="sub", required=True)
    gb = g.add_parser("build")
    _add_graph_args(gb)
    gb.add_argument("--out", type=str)
    gs = g.add_parser("srg")
    _add_graph_args(gs)
    gc = g.add_parser("cliques")
    _add_graph_args(gc)
    gc.add_argument("--target", type=int)
    gc.add_argument("--through", type=int)
    gc.add_argument("--budget", type=float)

    o = sub.add_parser("oa").add_subparsers(dest="sub", required=True)
    ob = o.add_parser("build")
    _add_graph_args(ob)
    ob.add_argument("--out", type=str)
    ov = o.add_parser("verify")
    ov.add_argument("file")
    og = o.add_parser("blockgraph")
    og.add_argument("file")
    og.add_argument("--out", type=str)

    e = sub.add_parser("ekr").add_subparsers(dest="sub", required=True)
    ea = e.add_parser("audit")
    _add_graph_args(ea)
    ea.add_argument("--through", type=int)
    ea.add_argument("--budget", type=float)
    ed = e.add_parser("decompose")
    _add_graph_args(ed)
    ed.add_argument("--clique", type=str, required=True)
    ec = e.add_parser("counterexample")
    ec.add_argument("--q", type=int, required=True)
    ec.add_argument("--subfield", type=int, required=True)
    ec.add_argument("--modulus", type=str)
    ec.add_argument("--budget", type=float)

    w = sub.add_parser("whd").add_subparsers(dest="sub", required=True)
    wb = w.add_parser("build")
    _add_graph_args(wb)
    wb.add_argument("--out", type=str)
    wv = w.add_parser("verify")
    wv.add_argument("file")
    _add_graph_args(wv)

    r81 = sub.add_parser("reproduce-81")
    r81.add_argument("--budget", type=float)
    r81.add_argument("--table-out", type=str)

    sv = sub.add_parser("survey")
    sv.add_argument("--q", type=str, default="3,5,7,9")
    sv.add_argument("--minimum", type=int, default=10)
    sv.add_argument("--seed", type=int, default=survey.DEFAULT_SEED)
    sv.add_argument("--budget", type=float)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if "budget" in vars(args) and args.budget is None:
            args.budget = default_budget()
        words = [args.cmd] + ([args.sub] if "sub" in vars(args) else [])
        return globals()["cmd_" + "_".join(words).replace("-", "_")](args)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 3
    except SearchTimeout as e:
        sys.stderr.write(f"timeout: {e}\n")
        return 2
    except INPUT_ERRORS as e:
        sys.stderr.write(f"input error: {e}\n")
        return 3
    except (PeisertError, AssertionError) as e:
        sys.stderr.write(f"verification failed: {e}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
