"""Tests for the text report renderer and the CLI."""

import pytest

from repro.cli import main
from repro.experiments.report import TextTable, render_cdf


# ---------------------------------------------------------------- TextTable


def test_table_alignment_and_title():
    t = TextTable(["a", "long header"], title="T")
    t.add_row("x", 1)
    t.add_row("yyyy", 2.5)
    text = t.render()
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "long header" in lines[1]
    assert len({len(l) for l in lines[2:]}) == 1  # aligned rows


def test_table_float_formatting():
    t = TextTable(["v"])
    t.add_row(0.123456789)
    assert "0.1235" in t.render()


def test_table_row_width_mismatch():
    t = TextTable(["a", "b"])
    with pytest.raises(ValueError):
        t.add_row(1)


def test_table_empty_renders_headers():
    t = TextTable(["a"])
    assert "a" in t.render()


def test_render_cdf_deciles():
    text = render_cdf([1.0, 2.0, 3.0, 4.0], "label")
    assert "label" in text and "p50=" in text and "n=4" in text


# ---------------------------------------------------------------- CLI


def test_cli_table1(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "Table I" in out
    assert "5, 16" in out


def test_cli_run_tiny(capsys):
    code = main([
        "run", "--jobs", "3", "--workers", "3", "--iterations", "3",
        "--placement", "1", "--policy", "tls-one", "--seed", "1",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "avg JCT" in out
    assert "tc qdisc replace" in out


def test_cli_fig2_tiny(capsys):
    code = main([
        "fig2", "--jobs", "3", "--workers", "3", "--iterations", "3",
        "--placements", "1", "8",
    ])
    assert code == 0
    assert "Figure 2" in capsys.readouterr().out


def test_cli_requires_command():
    with pytest.raises(SystemExit):
        main([])


def test_cli_rejects_bad_policy():
    with pytest.raises(SystemExit):
        main(["run", "--policy", "nope"])


def test_cli_export_json(capsys):
    code = main([
        "run", "--jobs", "3", "--workers", "3", "--iterations", "3",
        "--export", "json",
    ])
    assert code == 0
    import json

    data = json.loads(capsys.readouterr().out)
    assert len(data) == 1
    assert len(data[0]["jobs"]) == 3


def test_cli_export_csv_to_file(tmp_path, capsys):
    out = tmp_path / "res.csv"
    code = main([
        "run", "--jobs", "3", "--workers", "3", "--iterations", "3",
        "--export", "csv", "--output", str(out),
    ])
    assert code == 0
    text = out.read_text()
    assert text.splitlines()[0].startswith("policy,")
    assert len(text.splitlines()) == 4  # header + 3 jobs


TINY_ARGS = ["--jobs", "3", "--workers", "3", "--iterations", "3"]


def test_cli_fig1(capsys):
    assert main(["fig1", "--workers", "3", "--iterations", "3"]) == 0
    assert "workflow trace" in capsys.readouterr().out


def test_cli_fig3(capsys):
    assert main(["fig3", *TINY_ARGS]) == 0
    out = capsys.readouterr().out
    assert "Figure 3" in out and "3.71x" in out


def test_cli_fig4(capsys):
    assert main(["fig4", "--workers", "3", "--iterations", "3"]) == 0
    assert "Figure 4" in capsys.readouterr().out


def test_cli_fig5a(capsys):
    assert main(["fig5a", *TINY_ARGS, "--placements", "1"]) == 0
    assert "Figure 5a" in capsys.readouterr().out


def test_cli_fig5b(capsys):
    assert main(["fig5b", *TINY_ARGS, "--batches", "2"]) == 0
    assert "Figure 5b" in capsys.readouterr().out


def test_cli_fig6(capsys):
    assert main(["fig6", *TINY_ARGS]) == 0
    assert "Figure 6" in capsys.readouterr().out


def test_cli_fct(capsys):
    assert main(["fct", *TINY_ARGS]) == 0
    assert "flow completion times" in capsys.readouterr().out


def test_cli_table2(capsys):
    assert main(["table2", *TINY_ARGS, "--sample-interval", "0.05"]) == 0
    assert "Table II" in capsys.readouterr().out


def test_cli_table2_too_short_for_its_sample_interval_is_one_line(capsys):
    # Every job ends before the first 1 s host sample: no utilization
    # mean exists, so the command fails with one line, not a traceback.
    assert main(["table2", "--jobs", "2", "--workers", "2", "--iterations", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("tensorlights table2: error: no utilization sample")
    assert "--iterations" in err[0] and "--sample-interval" in err[0]


def test_cli_utilization(tmp_path, capsys):
    out = tmp_path / "metrics.jsonl"
    code = main([
        "utilization", *TINY_ARGS, "--sample-interval", "0.05", "--quick",
        "--export-metrics", str(out),
    ])
    # exit code is the direction check; at tiny scale it may go either way
    assert code in (0, 1)
    text = capsys.readouterr().out
    assert "Result #3" in text
    assert "direction" in text
    import json

    lines = out.read_text().splitlines()
    assert lines
    scenarios = {json.loads(line)["scenario"] for line in lines}
    # one snapshot per policy plus the campaign-level line
    assert "campaign" in scenarios
    assert len(scenarios) == 4


def test_cli_run_drr_policy(capsys):
    assert main(["run", *TINY_ARGS, "--policy", "drr"]) == 0
    assert "avg JCT" in capsys.readouterr().out
