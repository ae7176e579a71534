"""Sweep orchestration: enumerate connection sets for a given q, run the
whole certificate stack on each graph, and assemble deterministic
per-graph reports.

Index-set policy: every named family available at q is always included;
q = 3 additionally gets every valid index set (there are only seven);
larger q are topped up to the requested count with a seeded sample of
index sets, capped at m <= (q + 1) / 2, above which the maximum cliques
the audit lists grow steeply (q = 7: 133 at m = 5, 823,543 at m = 7).
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Optional

from . import ekr, graphs, oa, whd
from .derived import derived
from .errors import SearchTimeout, WrongCharacteristicResidue
from .field import FieldCtx, _prime_factors, create

DEFAULT_SEED = 20240
Q_CHOICES = (3, 5, 7, 9)


def field_params(q: int) -> tuple[int, int]:
    """(p, r) with q = p^r; raises ValueError on non prime powers."""
    factors = _prime_factors(q)
    if len(factors) != 1:
        raise ValueError(f"q = {q} is not a prime power")
    p = factors[0]
    return p, round(math.log(q, p))


def ambient_field(q: int, modulus=None) -> FieldCtx:
    p, r = field_params(q)
    return create(p, 2 * r, modulus)


def family_index_sets(ctx: FieldCtx) -> dict[str, frozenset[int]]:
    """All named families definable at this q, keyed by family label."""
    q = ctx.subfield_order
    out = {"paley": graphs.family_cosets(ctx, "paley")}
    try:
        out["peisert"] = graphs.family_cosets(ctx, "peisert")
    except WrongCharacteristicResidue:
        pass
    for d in range(2, q + 2):
        if (q + 1) % d == 0:
            out[f"gp_d{d}"] = graphs.family_cosets(ctx, "gp", d)
            if d % 2 == 0:
                out[f"gpstar_d{d}"] = graphs.family_cosets(ctx, "gpstar", d)
    return out


def sweep_index_sets(ctx: FieldCtx, minimum: int = 10,
                     seed: int = DEFAULT_SEED,
                     extra: tuple[tuple[int, ...], ...] = ()) -> list[tuple[str, tuple[int, ...]]]:
    """Deterministic (name, indices) list for one q.

    Families first, then any caller-supplied sets, then seeded samples up
    to `minimum` distinct sets.  At q = 3 the seven valid sets are
    exhausted instead.
    """
    q = ctx.subfield_order
    chosen: dict[tuple[int, ...], str] = {}
    for name, idx in sorted(family_index_sets(ctx).items()):
        chosen.setdefault(tuple(sorted(idx)), name)
    for idx in extra:
        chosen.setdefault(tuple(sorted(idx)), "extra")

    if q == 3:
        for size in range(0, 3):
            for rest in itertools.combinations(range(1, 4), size):
                chosen.setdefault((0,) + rest, "exhaustive")
    else:
        m_cap = (q + 1) // 2
        rng = random.Random(seed + q)
        guard = 0
        while len(chosen) < minimum and guard < 10000:
            guard += 1
            m = rng.randint(2, m_cap)
            rest = rng.sample(range(1, q + 1), m - 1)
            idx = tuple(sorted([0] + rest))
            chosen.setdefault(idx, "sampled")
    return sorted(((name, idx) for idx, name in chosen.items()),
                  key=lambda pair: (len(pair[1]), pair[1]))


def _decompose_all(report: GraphReport) -> list[ekr.Decomposition]:
    return ekr.decompose_cliques(report.graph, report.basis, report.audit.cliques)


@dataclass
class GraphReport:
    """Everything the acceptance criteria need for one graph.

    decompositions_through_0 decomposes the audit's cliques through 0.
    analyze_graph certifies the (m - 1)^2 bound by certify_clique_bound.
    Two fields are derived, built on first read unless passed in:
    bound_check, noncanonical_clique_bound's list of the non-canonical
    maximal cliques through 0, and decompositions, one per maximum clique
    in the order of audit.cliques.  dataclasses.replace reads, so builds,
    and copies both: a copy with another graph, selection, basis or audit
    needs them passed too.
    """
    name: str
    q: int
    m: int
    indices: tuple[int, ...]
    graph: graphs.Graph
    selection: oa.SubarraySelection
    srg: graphs.SrgParams
    isomorphism: list[int]
    coloring: list[int]
    coloring_proper: bool
    chromatic: int
    audit: ekr.AuditReport
    basis: ekr.EkrBasis
    decompositions_through_0: list[ekr.Decomposition]
    whd_cert: whd.WhdCertificate
    bound_check: dict = derived(lambda r: oa.noncanonical_clique_bound(r.graph, r.selection))
    decompositions: list[ekr.Decomposition] = derived(_decompose_all)


def analyze_graph(ctx: FieldCtx, indices, name: str = "",
                  budget: Optional[float] = graphs.DEFAULT_BUDGET) -> GraphReport:
    """Run the full stack on one connection set.  The audit and the bound
    share the budget; a stage that runs out raises SearchTimeout.

    The coset cliques are certified the used lines by 2 m q reads
    (oa.certify_coset_lines), building no dict; build_whd reads, so
    builds and certifies, the selection's full table.  Only the T0
    maximum cliques through 0 are decomposed; every maximum
    clique is a translate C + u of one of them.  Translation by u moves
    each line to the line of the same slope through its translate, so
    C + u has C's count table with each row's intercepts permuted: the
    pair count P, and with it residual_zero, is the same on the whole
    orbit, and so is the verdict of decompose_cliques.  zero_count is
    not, as it reads the counts of the lines through the base vertex;
    the listed decompositions, built on first read, keep it exact for
    every clique.
    """
    deadline = graphs._Deadline(budget)
    q = ctx.subfield_order
    idx = tuple(sorted(set(int(i) for i in indices)))
    x = graphs.build_cayley(ctx, idx)
    params = graphs.srg_certify(x)
    sel = oa.subarray_for_connection_set(ctx, idx)
    mapping = oa.verify_isomorphism(x, sel)
    oa.certify_coset_lines(sel)

    colors = oa.unused_slope_coloring(sel)
    # omega = q (coset cliques meet the Hoffman bound), so q colors pin chi
    chromatic = len(set(colors))

    audit = ekr.strict_ekr_audit(x, sel, budget=deadline.left())  # pairing: `colors` is proper
    basis = ekr.build_ekr_basis(x, sel)
    decs = ekr.decompose_cliques(x, basis, audit.through_0)
    cert = whd.build_whd(x, sel)
    oa.certify_clique_bound(x, sel, budget=deadline.left())

    return GraphReport(name or f"q{q}_" + "-".join(map(str, idx)), q, len(idx),
                       idx, x, sel, params, mapping, colors, True, chromatic,
                       audit, basis, decs, cert)


def run_sweep(q_values=Q_CHOICES, minimum: int = 10, seed: int = DEFAULT_SEED,
              budget: Optional[float] = graphs.DEFAULT_BUDGET) -> list[GraphReport]:
    """Analyze every selected index set for each q, each given the time
    left of the one budget.  The q = 9 sweep always includes the subfield
    counterexample type so a strict-EKR failure is exercised.
    """
    deadline = graphs._Deadline(budget)
    reports = []
    for q in q_values:
        ctx = ambient_field(q)
        extra: tuple[tuple[int, ...], ...] = ()
        if q == 9:
            _, _, cosets = ekr.subfield_clique(ctx, 3)
            extra = (cosets,)
        for name, idx in sweep_index_sets(ctx, minimum, seed, extra):
            if budget is not None and deadline.left() <= 0:
                raise SearchTimeout(f"budget spent after {len(reports)} graphs")
            reports.append(analyze_graph(ctx, idx, f"q{q}:{name}:" + "-".join(map(str, idx)),
                                         deadline.left()))
    return reports
