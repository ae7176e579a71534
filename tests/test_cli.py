"""End-to-end command tests: JSON reports, exit codes, determinism."""

import importlib.util
import inspect
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from peisert import cli, ekr, errors, graphs, oa, survey, whd
from peisert.cli import main
from peisert.errors import SearchTimeout

BENCH = Path(__file__).resolve().parents[1] / "bench"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    assert code == 0, out
    return json.loads(out)


def counted(monkeypatch, fn):
    """Wrap fn in every package module that holds it by name; returns
    the list its calls are appended to."""
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for mod in (cli, ekr, graphs, oa, survey, whd):
        if getattr(mod, fn.__name__, None) is fn:
            monkeypatch.setattr(mod, fn.__name__, wrapper)
    return calls


def test_field_inspect(capsys):
    rep = run_json(capsys, "field", "inspect", "--p", "3", "--r", "2")
    assert rep["result"]["order"] == 9
    assert rep["result"]["generator"] == 3
    assert rep["result"]["modulus"] == [2, 1, 1]
    assert rep["config"]["p"] == 3


def test_graph_srg_report(capsys):
    rep = run_json(capsys, "graph", "srg", "--q", "3", "--family", "paley")
    r = rep["result"]
    assert (r["n"], r["k"], r["lambda"], r["mu"]) == (9, 4, 1, 2)
    assert r["eigenvalues"] == [[4, 1], [1, 4], [-2, 4]]
    assert r["hoffman_bound"] == "3/1"
    assert r["indices"] == [0, 2]


def test_graph_cliques_report(capsys):
    rep = run_json(capsys, "graph", "cliques", "--q", "3", "--family", "paley")
    assert rep["result"]["count"] == 6
    assert rep["result"]["size"] == 3
    assert [0, 1, 2] in rep["result"]["cliques"]


def test_graph_build_dimacs(capsys, tmp_path):
    out = tmp_path / "g.dimacs"
    rep = run_json(capsys, "graph", "build", "--q", "3", "--cosets", "0,2",
                   "--out", str(out))
    assert rep["result"]["edges"] == 18
    text = out.read_text()
    assert text.startswith("p edge 9 18")
    # without --out the graph goes to stdout raw
    code, raw = run(capsys, "graph", "build", "--q", "3", "--cosets", "0,2")
    assert code == 0 and raw == text


def test_oa_round_trip(capsys, tmp_path):
    path = tmp_path / "oa.csv"
    rep = run_json(capsys, "oa", "build", "--q", "5", "--out", str(path))
    assert rep["result"]["rows"] == 6
    rep = run_json(capsys, "oa", "verify", str(path))
    assert rep["result"]["valid"]
    code, out = run(capsys, "oa", "blockgraph", str(path))
    assert code == 0 and out.startswith("p edge 25 300")  # K_25


def test_oa_subarray_and_corruption(capsys, tmp_path):
    path = tmp_path / "sub.csv"
    rep = run_json(capsys, "oa", "build", "--q", "3", "--family", "paley",
                   "--out", str(path))
    assert rep["result"]["rows"] == 2
    lines = path.read_text().splitlines()
    cells = lines[1].split(",")
    cells[1], cells[2] = cells[2], cells[1]
    path.write_text("\n".join([lines[0], ",".join(cells)] + lines[2:]) + "\n")
    code, _ = run(capsys, "oa", "verify", str(path))
    assert code == 1


def test_ekr_audit_report(capsys):
    rep = run_json(capsys, "ekr", "audit", "--q", "3", "--cosets", "0,1,2")
    r = rep["result"]
    assert (r["omega"], r["clique_count"], r["canonical_count"]) == (3, 27, 9)
    assert r["strict_ekr"] is False
    assert len(r["non_canonical"]) == 18


def test_ekr_decompose_report(capsys):
    rep = run_json(capsys, "ekr", "decompose", "--q", "9", "--family",
                   "gpstar", "--d", "10", "--modulus", "2,0,0,2,1",
                   "--clique", "0,3,6,38,41,44,73,76,79")
    r = rep["result"]
    assert r["residual_zero"] and r["zero_count"] == 16
    assert r["histogram"] == {"-1/3": 24, "0/1": 16}
    assert len(r["coefficients"]) == 40
    values = {c["value"] for c in r["coefficients"]}
    assert values == {"-1/3", "0/1"}


def test_ekr_counterexample_report(capsys):
    rep = run_json(capsys, "ekr", "counterexample", "--q", "9",
                   "--subfield", "3")
    r = rep["result"]
    assert r["indices"] == [0, 1, 7, 8]
    assert r["audit"]["strict_ekr"] is False
    assert r["audit"]["exhaustive"] is True
    assert r["srg"]["k"] == 32


def test_ekr_counterexample_builds_one_selection(capsys, monkeypatch):
    calls = counted(monkeypatch, oa.subarray_for_connection_set)
    run_json(capsys, "ekr", "counterexample", "--q", "9", "--subfield", "3")
    assert len(calls) == 1


def test_whd_round_trip(capsys, tmp_path):
    path = tmp_path / "whd.csv"
    rep = run_json(capsys, "whd", "build", "--q", "3", "--family", "paley",
                   "--out", str(path))
    assert rep["result"]["diagonal_tally"] == {"0": 1, "3": 4, "6": 4}
    rep = run_json(capsys, "whd", "verify", str(path),
                   "--q", "3", "--family", "paley")
    assert rep["result"]["weakly_hadamard"] and rep["result"]["diagonalizes"]
    # the certificate pinned to a different graph must fail
    code, _ = run(capsys, "whd", "verify", str(path),
                  "--q", "3", "--family", "peisert")
    assert code == 1


@pytest.mark.parametrize("column, source, message", [
    (3, 1, "not weakly Hadamard: ('cycle', (1, 2, 3))"),
    (8, None, "columns are rank deficient"),
    (2, 1, "columns are rank deficient"),
])
def test_whd_verify_refuses_an_edited_matrix(capsys, tmp_path, column, source, message):
    """A right-sized file whose matrix lost a column.  Column 1 copied
    over column 3 makes a cycle of nonorthogonal columns.  A zero
    column, and column 1 copied over its neighbour column 2 (no zero
    column), pass the path-union test, and the continuant of the
    ordered Gram refuses both."""
    path = tmp_path / "whd.csv"
    run_json(capsys, "whd", "build", "--q", "3", "--family", "paley", "--out", str(path))
    matrix, diag = whd.whd_from_csv(path.read_text())
    matrix[:, column] = 0 if source is None else matrix[:, source]
    path.write_text("\n".join(",".join(map(str, row)) for row in [diag, *matrix.tolist()]))
    assert main(["whd", "verify", str(path), "--q", "3", "--family", "paley"]) == 1
    assert capsys.readouterr().err == f"verification failed: {message}\n"


def test_reproduce_81(capsys, tmp_path):
    table = tmp_path / "table.csv"
    rep = run_json(capsys, "reproduce-81", "--table-out", str(table))
    r = rep["result"]
    assert r["positional_match"] is True
    assert r["c2_histogram"] == {"-1/3": 24, "0/1": 16}
    assert r["full_count"] == 81
    assert r["whd_diagonal_tally"] == {"0": 1, "36": 40, "45": 40}
    assert r["strict_ekr"] is False
    lines = table.read_text().strip().splitlines()
    assert len(lines) == 8 and all(len(l.split("),(")) == 5 for l in lines)
    assert sum(l.count("-1/3") for l in lines) == 24


def test_reproduce_81_runs_one_audit(capsys, monkeypatch):
    audits = counted(monkeypatch, ekr.strict_ekr_audit)
    searches = counted(monkeypatch, graphs.transversal_cliques)
    run_json(capsys, "reproduce-81")
    assert len(audits) == 1 and len(searches) == 1


def test_reproduce_81_reads_one_analyze_graph_report(capsys, monkeypatch):
    """reproduce-81 reads the one report analyze_graph certifies: every
    stage runs once, inside it, and no clique is decomposed on its own."""
    reports = counted(monkeypatch, survey.analyze_graph)
    stages = [counted(monkeypatch, fn) for fn in (
        graphs.build_cayley, graphs.srg_certify, oa.subarray_for_connection_set,
        ekr.strict_ekr_audit, ekr.build_ekr_basis, ekr.decompose_cliques, whd.build_whd,
        oa.certify_coset_lines, oa.certify_clique_bound)]
    singles = counted(monkeypatch, ekr.decompose_clique)
    run_json(capsys, "reproduce-81")
    assert len(reports) == 1
    assert [len(calls) for calls in stages] == [1] * len(stages)
    assert singles == []


def test_reproduce_81_bound_gets_the_time_the_audit_left(capsys, monkeypatch):
    """The audit gets the budget less the Cayley build, the bound the
    time left after the audit."""
    budgets = staged_clock(monkeypatch)
    run_json(capsys, "reproduce-81", "--budget", "1000")
    assert budgets == [999, 989]


def test_bench_spans_name_existing_functions():
    """The traced benchmark wraps these by name; a deleted or renamed
    function would break it."""
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for owner, attr, name in tracing.SPANS:
        assert callable(getattr(owner, attr, None)), name


def test_survey_report(capsys):
    rep = run_json(capsys, "survey", "--q", "3")
    r = rep["result"]
    assert r["count"] == 7  # exhaustive at q = 3
    for g in r["graphs"]:
        assert g["chromatic"] == 3
        assert g["coloring_proper"] and g["bound_ok"]
        assert g["strict_ekr"] == (3 > (g["m"] - 1) ** 2) or g["strict_ekr"] is False


def test_reports_are_deterministic(capsys):
    _, first = run(capsys, "survey", "--q", "3,5", "--minimum", "10")
    _, second = run(capsys, "survey", "--q", "3,5", "--minimum", "10")
    assert first == second
    _, third = run(capsys, "reproduce-81")
    _, fourth = run(capsys, "reproduce-81")
    assert third == fourth


def test_exit_code_input_errors(capsys):
    assert main(["graph", "srg", "--q", "4", "--family", "paley"]) == 3
    capsys.readouterr()
    assert main(["graph", "srg", "--q", "3"]) == 3  # no cosets or family
    capsys.readouterr()
    assert main(["graph", "srg", "--q", "3", "--cosets", "0,9"]) == 3
    capsys.readouterr()
    for i in ("-1", "9", "5", "4"):  # -1 once built the array of coset 3
        assert main(["oa", "build", "--q", "3", "--cosets", f"0,{i}"]) == 3
        assert capsys.readouterr().err == f"input error: coset index {i} outside [0, 3]\n"
    assert main(["oa", "verify", "/no/such/file.csv"]) == 3
    capsys.readouterr()
    assert main(["nosuchcommand"]) == 3
    capsys.readouterr()
    assert main(["survey", "--q", "11"]) == 3
    capsys.readouterr()
    for d in ("0", "-2"):  # no division by zero, and no empty family for a negative d
        assert main(["graph", "srg", "--q", "3", "--family", "gpstar", "--d", d]) == 3
        assert capsys.readouterr().err == (
            f"input error: gpstar needs even d > 0 dividing q + 1 = 4, got {d}\n")
    for clique, v in (("9,10,11", 9), ("0,1,-1", -1)):  # refused before any bitset operation
        assert main(["ekr", "decompose", "--q", "3", "--cosets", "0,2", "--clique", clique]) == 3
        assert capsys.readouterr().err == f"input error: vertex {v} outside [0, 9)\n"


# `oa build --q 3` with its header cut to 4 of the 9 column labels
OA_HEADER_MISMATCH = """slope,0:0,0:1,0:2,1:0
0,0,1,2,0,1,2,0,1,2
1,0,1,2,2,0,1,1,2,0
2,0,1,2,1,2,0,2,0,1
inf,0,0,0,1,1,1,2,2,2
"""

# `oa build --q 3` with its second row one cell short
OA_SHORT_ROW = """slope,0:0,0:1,0:2,1:0,1:1,1:2,2:0,2:1,2:2
0,0,1,2,0,1,2,0,1,2
1,0,1,2,2,0,1,1,2
2,0,1,2,1,2,0,2,0,1
inf,0,0,0,1,1,1,2,2,2
"""


@pytest.mark.parametrize("command,text", [
    (["oa", "verify"], ""),
    (["oa", "verify"], "0,1,2\n"),
    (["oa", "verify"], "slope,0:0,0:1\n"),
    (["oa", "verify"], OA_HEADER_MISMATCH),
    (["oa", "verify"], OA_SHORT_ROW),
    (["whd", "verify"], ""),
    (["whd", "verify"], "0,3\n"),
    (["whd", "verify"], "0,0\n1,0\n0,1\n"),
    (["whd", "verify"], "1,1,1,1\n" * 5),  # 4 x 4 all ones, not weakly Hadamard
], ids=["oa-empty", "oa-headerless", "oa-header-only", "oa-header-mismatch", "oa-short-row",
        "whd-empty",
        "whd-diagonal-only", "whd-wrong-size", "whd-wrong-size-not-hadamard"])
def test_exit_code_malformed_files(capsys, tmp_path, command, text):
    path = tmp_path / "in.csv"
    path.write_text(text)
    graph = ["--q", "3", "--family", "paley"] if command[0] == "whd" else []
    assert main(command + [str(path)] + graph) == 3
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("through", ["100", "-1"])
def test_exit_code_clique_vertex_out_of_range(capsys, through):
    assert main(["graph", "cliques", "--q", "3", "--family", "paley",
                 "--through", through]) == 3
    assert "outside [0, 9)" in capsys.readouterr().err


def test_exit_code_timeouts(capsys, monkeypatch):
    assert main(["reproduce-81", "--budget", "0"]) == 2
    capsys.readouterr()
    assert main(["ekr", "audit", "--q", "9", "--family", "gpstar",
                 "--d", "10", "--budget", "0"]) == 2
    capsys.readouterr()
    monkeypatch.setenv("PEISERT_BUDGET", "0")
    assert main(["graph", "cliques", "--q", "9", "--family", "gpstar",
                 "--d", "10"]) == 2
    capsys.readouterr()
    assert main(["survey", "--q", "3"]) == 2
    capsys.readouterr()


# every command that takes --budget, on a small case
BUDGET_COMMANDS = {
    "graph cliques": ["graph", "cliques", "--q", "3", "--family", "paley"],
    "ekr audit": ["ekr", "audit", "--q", "3", "--family", "paley"],
    "ekr counterexample": ["ekr", "counterexample", "--q", "9", "--subfield", "3"],
    "reproduce-81": ["reproduce-81"],
    "survey": ["survey", "--q", "3"],
}


@pytest.mark.parametrize("command", list(BUDGET_COMMANDS))
def test_exit_code_nan_budget(capsys, monkeypatch, command):
    """NaN compares false with every deadline, so it would never expire:
    it is refused as input before any search takes a step (every step
    checks its deadline)."""
    checks = []
    monkeypatch.setattr(graphs._Deadline, "check", lambda self: checks.append(self))
    assert main(BUDGET_COMMANDS[command] + ["--budget", "nan"]) == 3
    assert capsys.readouterr().err == "input error: budget is not a number of seconds\n"
    assert checks == []


def test_exit_code_nan_budget_variable(capsys, monkeypatch):
    monkeypatch.setenv("PEISERT_BUDGET", "nan")
    assert main(BUDGET_COMMANDS["ekr audit"]) == 3
    assert capsys.readouterr().err == "input error: budget is not a number of seconds\n"


@pytest.mark.parametrize("target", ["0", "-3"])
def test_exit_code_nonpositive_clique_target(capsys, target):
    assert main(BUDGET_COMMANDS["graph cliques"] + ["--target", target]) == 3
    assert capsys.readouterr().err == (
        f"input error: clique size target {target} is not positive\n")


def test_clique_target_above_n_finds_none(capsys):
    report = run_json(capsys, *BUDGET_COMMANDS["graph cliques"], "--target", "10")
    assert (report["result"]["count"], report["result"]["size"]) == (0, 0)


def test_exit_code_malformed_budget_variable(capsys, monkeypatch):
    """Only the commands that take --budget read PEISERT_BUDGET, and an
    explicit --budget overrides it."""
    monkeypatch.setenv("PEISERT_BUDGET", "abc")
    for argv in (["survey", "--q", "3"], BUDGET_COMMANDS["ekr audit"]):
        assert main(argv) == 3
        assert capsys.readouterr().err == (
            "input error: PEISERT_BUDGET='abc' is not a number of seconds\n")
    assert main(["field", "inspect", "--p", "3", "--r", "2"]) == 0
    assert main(BUDGET_COMMANDS["ekr audit"] + ["--budget", "60"]) == 0
    assert capsys.readouterr().err == ""


# the "bad input" group of errors.py, which exits 3
INPUT_ERROR_NAMES = {
    "NonPrimeCharacteristic", "ReducibleModulus", "OverflowingOrder", "LogOfZero",
    "OddDegreeField", "NotProperSubfield", "MissingBaseCoset", "TooManyCosets",
    "IndexOutOfRange", "BadDivisor", "WrongCharacteristicResidue",
    "NoFreeCoset", "LengthMismatch", "NotMaximumClique", "NotSquare",
    "BadEntries", "MalformedFile",
}


def test_exit_code_of_every_error_class(capsys, monkeypatch):
    classes = [c for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, errors.PeisertError)]
    inputs = {c.__name__ for c in classes
              if issubclass(c, errors.InputError) and c is not errors.InputError}
    assert inputs == INPUT_ERROR_NAMES
    for cls in classes:
        def fail(args, cls=cls):
            raise cls("raised through main")
        monkeypatch.setattr(cli, "cmd_field_inspect", fail)
        if issubclass(cls, errors.InputError):
            want = 3
        elif cls is errors.SearchTimeout:
            want = 2
        else:
            want = 1
        assert main(["field", "inspect", "--p", "3", "--r", "2"]) == want, cls.__name__
        assert "raised through main" in capsys.readouterr().err


def test_sweep_builds_one_selection_per_graph(monkeypatch):
    # the q = 9 counterexample contributes its cosets, not a selection
    calls = counted(monkeypatch, oa.subarray_for_connection_set)
    reports = survey.run_sweep((9,))
    assert len(reports) == 10 and len(calls) == 10
    assert (0, 1, 7, 8) in [r.indices for r in reports]


def test_survey_audit_timeout_propagates(monkeypatch):
    """A timed-out audit ends analyze_graph: neither the diagonalizer nor
    the bound runs, and no report with empty audit fields comes back."""
    ran = []
    monkeypatch.setattr(survey.whd, "build_whd", lambda *a: ran.append("whd"))
    monkeypatch.setattr(survey.oa, "certify_clique_bound",
                        lambda *a, **kw: ran.append("bound"))
    with pytest.raises(SearchTimeout, match="zero budget"):
        survey.analyze_graph(survey.ambient_field(3), (0, 2), budget=0)
    assert ran == []


def staged_clock(monkeypatch):
    """A fake clock for the deadlines that only the stages advance: the
    Cayley build by 1 s, the audit and the bound by 10 s each.  Returns
    the budgets the audit and the bound receive."""
    now, budgets = [0.0], []
    monkeypatch.setattr(graphs, "time", SimpleNamespace(monotonic=lambda: now[0]))

    def staged(stage, seconds, searches=True):
        def run(*args, **kwargs):
            if searches:
                budgets.append(kwargs["budget"])
            now[0] += seconds
            return stage(*args, **kwargs)
        return run

    monkeypatch.setattr(graphs, "build_cayley", staged(graphs.build_cayley, 1, False))
    monkeypatch.setattr(ekr, "strict_ekr_audit", staged(ekr.strict_ekr_audit, 10))
    monkeypatch.setattr(oa, "certify_clique_bound", staged(oa.certify_clique_bound, 10))
    return budgets


def test_survey_budget_bounds_the_whole_command(monkeypatch, capsys):
    """Each search of each graph gets the time left of the one --budget,
    after the stages before it, and the sweep exits 2 once the budget is
    spent, not after 2 searches x 7 graphs x the budget."""
    budgets = staged_clock(monkeypatch)
    assert main(["survey", "--q", "3", "--budget", "1000"]) == 0
    # graph i starts at 21 i s; its audit starts 1 s in, after the build, its bound 11 s in
    assert budgets == [1000 - 21 * i - s for i in range(7) for s in (1, 11)]

    budgets.clear()
    assert main(["survey", "--q", "3", "--budget", "100"]) == 2
    assert budgets == [100 - 21 * i - s for i in range(5) for s in (1, 11)]
    # the sixth graph would start at -5 s
    assert capsys.readouterr().err == "timeout: budget spent after 5 graphs\n"

    with pytest.raises(SearchTimeout, match="^zero budget$"):
        survey.run_sweep((3,), budget=0)


def test_bound_default_budget_is_bounded():
    default = inspect.signature(oa.noncanonical_clique_bound).parameters["budget"].default
    assert default == graphs.DEFAULT_BUDGET


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
