"""``tensorlights reproduce``: claims on results, one table, one exit code.

Only the cheap groups run here (Table I and Figure 1); the full run is
``tensorlights reproduce --parallel 2``.
"""

import pytest

from repro.cli import main
from repro.experiments import reproduce
from repro.experiments.figures import table1
from repro.experiments.report import Claim


def test_table1_exits_zero_and_prints_the_claims_table(capsys):
    assert main(["reproduce", "--only", "table1"]) == 0
    out = capsys.readouterr().out
    assert "Table I: index of PS placements" in out
    assert "Paper claims against this reproduction" in out
    assert "table1.placements" in out
    assert "1 of 1 claims hold" in out


def test_unknown_group_is_a_usage_error_naming_the_groups(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["reproduce", "--only", "nope"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'nope'" in err
    for name in reproduce.GROUPS:
        assert f"'{name}'" in err


def test_a_failing_claim_exits_one_and_is_marked(monkeypatch, capsys):
    monkeypatch.setattr(table1.Table1Result, "claims", lambda self: [
        Claim("table1.placements", "8", "7", False),
    ])
    assert main(["reproduce", "--only", "table1"]) == 1
    row = next(line for line in capsys.readouterr().out.splitlines()
               if line.startswith("table1.placements"))
    assert row.split("|")[-1].strip() == "NO"


def test_claim_ids_are_unique_and_carry_their_group():
    report = reproduce.generate(only=["table1", "fig1"])
    ids = [claim.id for claim in report.claims]
    assert len(set(ids)) == len(ids) == 3
    assert {claim_id.split(".")[0] for claim_id in ids} == {"table1", "fig1"}
    assert report.ok()
    # Group names are unique, and every claim id must start with its own
    # group's: a duplicate or a misfiled id is refused.
    one = table1.generate()
    with pytest.raises(ValueError, match="table1.placements"):
        reproduce._claims({"table1": one, "fig1": _Claims("table1.placements")})
    with pytest.raises(ValueError, match="fig1.x"):
        reproduce._claims({"fig1": _Claims("fig1.x", "fig1.x")})


class _Claims:
    def __init__(self, *ids):
        self.ids = ids

    def claims(self):
        return [Claim(claim_id, "-", "-", True) for claim_id in self.ids]


def test_plan_is_the_union_of_the_group_plans():
    cfg = reproduce.DEFAULT.replace(iterations=3)
    planned = reproduce.scenarios(only=["fig1", "fig4", "fig6", "A4"], iterations=3)
    expected = [s.key() for name in ("fig1", "fig4", "fig6", "A4")
                for s in reproduce.GROUPS[name].plan(cfg)]
    assert [s.key() for s in planned] == expected
    # fig1 traces 1 scenario, fig4 3 (at 4 iterations), fig6 and A4 3 each
    assert len(planned) == 1 + 3 + 3 + 3
    assert {s.config.iterations for s in planned[1:4]} == {4}
