"""Layer spans timed from outside the package.

The benchmark wraps the public functions of each `peisert` module and
times every call; it edits nothing under `src/`.  A span's self time is
its duration minus the durations of its direct children, so the self
times of all spans of one op sum to the op's wall time.

Names are wrapped wherever callers look them up: `ekr` and `whd` import
`srg_certify`, `enumerate_max_cliques` and friends by name, so those are
replaced in every module that holds the original function object.
"""

from __future__ import annotations

import functools
import time
import tracemalloc

from peisert import cli, ekr, field, graphs, linalg, oa, survey, whd

_MODULES = (cli, ekr, field, graphs, linalg, oa, survey, whd)

# (owner, attribute, span name); the owner is the module or class that
# defines the public function
SPANS = [
    (survey, "ambient_field", "field.ambient_field"),
    (graphs, "build_cayley", "graphs.build_cayley"),
    (graphs, "srg_certify", "graphs.srg_certify"),
    (graphs, "verify_coloring", "graphs.verify_coloring"),
    (graphs, "enumerate_max_cliques", "graphs.enumerate_max_cliques"),
    (graphs, "enumerate_maximal_cliques", "graphs.enumerate_maximal_cliques"),
    (oa, "subarray_for_connection_set", "oa.subarray_for_connection_set"),
    (oa, "verify_isomorphism", "oa.verify_isomorphism"),
    (oa, "canonical_correspondence", "oa.canonical_correspondence"),
    (oa.OrthogonalArray, "verify", "oa.OrthogonalArray.verify"),
    (oa, "translate_to_zero", "oa.translate_to_zero"),
    (oa, "noncanonical_clique_bound", "oa.noncanonical_clique_bound"),
    (ekr, "strict_ekr_audit", "ekr.strict_ekr_audit"),
    (ekr, "decompose_clique", "ekr.decompose_clique"),
    (ekr, "canonical_cliques", "ekr.canonical_cliques"),
    (ekr, "build_ekr_basis", "ekr.build_ekr_basis"),
    (whd, "build_whd", "whd.build_whd"),
    (whd, "is_weakly_hadamard", "whd.is_weakly_hadamard"),
    (whd, "check_ordering", "whd.check_ordering"),
    (linalg, "certified_full_column_rank", "linalg.certified_full_column_rank"),
    (survey, "analyze_graph", "survey.analyze_graph"),
    (cli, "cmd_reproduce_81", "cli.cmd_reproduce_81"),
]
ROOT = "bench.op"

# spans whose tracemalloc peak is recorded (megabytes) while
# Tracer.measure_peaks is set; tracemalloc slows numpy-heavy spans about
# tenfold, so the times of ops run with it on are not layer times
PEAK_SPANS = {"ekr.build_ekr_basis", "whd.build_whd"}

# spans reported as "<name>_self_s"; every other span as "<name>_s"
SELF_NAMED = {"survey.analyze_graph", "cli.cmd_reproduce_81", ROOT}

# spans whose calls are counted, as "<name>.calls"
COUNTED_SPANS = {"graphs.enumerate_max_cliques", "oa.OrthogonalArray.verify",
                 "oa.translate_to_zero", "oa.noncanonical_clique_bound",
                 "ekr.decompose_clique", "ekr.canonical_cliques"}


WORK_COUNTS = ("graphs.max_cliques_returned", "linalg.rank_columns")


def _work_counts(name, args, result) -> dict:
    """Work counters derived from a call's arguments and result."""
    if name == "graphs.enumerate_max_cliques":
        return {"graphs.max_cliques_returned": len(result)}
    if name == "linalg.certified_full_column_rank":
        return {"linalg.rank_columns": int(args[0].shape[1])}
    return {}


class OpTrace:
    """Spans and counters of one op."""

    __slots__ = ("self_s", "counts", "peak_mb", "wall_s", "spans")

    def __init__(self):
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.peak_mb: dict[str, float] = {}
        self.wall_s = 0.0
        self.spans: list[tuple] = []  # (span id, parent id, name, start, end)


class Tracer:
    """Installs the wrappers and records spans while an op runs."""

    def __init__(self):
        self._stack: list[list] = []  # [span id, name, start, child time]
        self._op: OpTrace | None = None
        self._next_id = 0
        self._originals: list[tuple[object, str, object]] = []
        self.measure_peaks = False

    def install(self):
        for owner, attr, name in SPANS:
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original)
            holders = [owner] if isinstance(owner, type) else [
                mod for mod in _MODULES if getattr(mod, attr, None) is original]
            for holder in holders:
                self._originals.append((holder, attr, original))
                setattr(holder, attr, wrapped)

    def uninstall(self):
        for holder, attr, original in reversed(self._originals):
            setattr(holder, attr, original)
        self._originals.clear()

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            result = tracer._span(name, fn, args, kwargs)
            for key, value in _work_counts(name, args, result).items():
                tracer._op.counts[key] = tracer._op.counts.get(key, 0) + value
            return result

        return wrapper

    def _span(self, name, fn, args, kwargs):
        op = self._op
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [sid, name, 0.0]
        self._stack.append(frame)
        peak = self.measure_peaks and name in PEAK_SPANS
        if peak:
            tracemalloc.start()
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            if peak:
                mb = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
                op.peak_mb[name] = max(op.peak_mb.get(name, 0.0), mb)
            t1 = time.perf_counter()
            self._stack.pop()
            dur = t1 - t0
            op.self_s[name] = op.self_s.get(name, 0.0) + dur - frame[2]
            if self._stack:
                self._stack[-1][2] += dur
            if name in COUNTED_SPANS:
                op.counts[name + ".calls"] = op.counts.get(name + ".calls", 0) + 1
            op.spans.append((sid, parent, name, t0, t1))

    def run_op(self, fn) -> tuple[object, OpTrace]:
        """Run fn under a root span; returns its result and the op trace."""
        self._op = OpTrace()
        op = self._op
        try:
            result = self._span(ROOT, fn, (), {})
            _, _, _, t0, t1 = op.spans[-1]
            op.wall_s = t1 - t0
        finally:
            self._op = None
            self._stack.clear()
        return result, op
