"""Byte-exact command reports against committed golden outputs.

Each file under tests/golden/ holds the stdout of one command.  Reports
are part of the interface: a change to the certificate code must leave
every one of them byte-identical.
"""

from pathlib import Path

import pytest

from peisert import graphs, oa
from peisert.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "reproduce_81": ["reproduce-81"],
    "survey": ["survey"],
    "ekr_audit_q7_paley": ["ekr", "audit", "--q", "7", "--family", "paley"],
    "ekr_decompose_q9_subfield": ["ekr", "decompose", "--q", "9", "--cosets", "0,1,7,8",
                                  "--clique", "0,1,2,3,4,5,6,7,8"],
    "ekr_counterexample_q9": ["ekr", "counterexample", "--q", "9", "--subfield", "3"],
    "whd_build_q5": ["whd", "build", "--q", "5", "--cosets", "0,1"],
    "whd_build_q7_peisert": ["whd", "build", "--q", "7", "--family", "peisert"],
    "oa_build_q5": ["oa", "build", "--q", "5"],
    "oa_build_q7_peisert": ["oa", "build", "--q", "7", "--family", "peisert"],
    "graph_cliques_q7_peisert": ["graph", "cliques", "--q", "7", "--family", "peisert"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(capsys, name):
    assert main(CASES[name]) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / f"{name}.out").read_text()


def test_survey_lists_no_maximal_clique(monkeypatch, capsys):
    """survey certifies the (m - 1)^2 bound by its triangle count alone:
    with the Bron-Kerbosch listing made to raise, the report is still the
    golden one."""
    def refuse(*args, **kwargs):
        raise RuntimeError("survey listed maximal cliques")

    monkeypatch.setattr(graphs, "enumerate_maximal_cliques", refuse)
    monkeypatch.setattr(oa, "enumerate_maximal_cliques", refuse)
    assert main(["survey", "--q", "3,5,7,9"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "survey.out").read_text()
