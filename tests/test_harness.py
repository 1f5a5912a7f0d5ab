"""The experiment drivers (Tables 1-2, Figure 7, §6.2, figures)."""

import pytest

from repro.api import synthesize
from repro.harness import run_figures, run_rtl_bug
from repro.harness.cli import main as cli_main
from repro.harness.figure7 import run_figure7
from repro.harness.table1 import run_table1
from repro.harness.table2 import run_table2


@pytest.fixture(scope="module")
def x86_synthesis():
    return synthesize("x86", 3)


@pytest.fixture(scope="module")
def table1_x86(x86_synthesis):
    return run_table1("x86", 3, synthesis=x86_synthesis)


class TestTable1:
    def test_forbid_counts_match_paper(self, table1_x86):
        by_events = {row.events: row for row in table1_x86.rows}
        assert by_events[3].forbid_total == 4  # Table 1, x86 |E|=3

    def test_no_forbidden_test_is_seen(self, table1_x86):
        """The soundness claim: the model is not too strong."""
        for row in table1_x86.rows:
            assert row.forbid_seen == 0

    def test_most_allowed_tests_are_seen(self, table1_x86):
        """The completeness claim: the model is not too weak."""
        total = sum(r.allow_total for r in table1_x86.rows)
        seen = sum(r.allow_seen for r in table1_x86.rows)
        assert total > 0
        assert seen / total >= 0.8  # paper: 83% for x86

    def test_render(self, table1_x86):
        out = table1_x86.render()
        assert "Forbid" in out and "Total" in out

    def test_power_table_small(self):
        result = run_table1("power", 2)
        by_events = {row.events: row for row in result.rows}
        assert by_events[2].forbid_total == 2  # Table 1, Power |E|=2
        assert all(r.forbid_seen == 0 for r in result.rows)


class TestFigure7:
    def test_curve_properties(self, x86_synthesis):
        fig = run_figure7("x86", 3, synthesis=x86_synthesis)
        assert fig.fraction_found_by(0) <= fig.fraction_found_by(
            fig.elapsed
        )
        assert fig.fraction_found_by(fig.elapsed) == 1.0
        assert 0 <= fig.time_to_fraction(0.5) <= fig.elapsed

    def test_render(self, x86_synthesis):
        out = run_figure7("x86", 3, synthesis=x86_synthesis).render()
        assert "Figure 7" in out and "%" in out

    def test_empty_result_renders(self):
        from repro.harness.figure7 import Figure7Result

        fig = Figure7Result("x86", 2, [], 0.1)
        assert "no tests" in fig.render()


class TestTable2:
    def test_small_run(self):
        result = run_table2(
            monotonicity_bounds={"power": 2, "armv8": 2, "x86": 2},
            compilation_bound=2,
            time_budget=300,
        )
        verdicts = {
            (row.property_name, row.target): row.counterexample_found
            for row in result.rows
        }
        # Monotonicity: Power/ARMv8 break, x86 holds (Table 2).
        assert verdicts[("Monotonicity", "power")] is True
        assert verdicts[("Monotonicity", "armv8")] is True
        assert verdicts[("Monotonicity", "x86")] is False
        # Compilation: no counterexamples (Table 2).
        assert verdicts[("Compilation", "C++/x86")] is False
        assert verdicts[("Compilation", "C++/power")] is False
        assert verdicts[("Compilation", "C++/armv8")] is False
        # Lock elision: ARMv8 breaks, the fix and x86 hold (Table 2);
        # Power's counterexample is this reproduction's finding.
        assert verdicts[("Lock elision", "armv8")] is True
        assert verdicts[("Lock elision", "armv8-fixed")] is False
        assert verdicts[("Lock elision", "x86")] is False
        assert verdicts[("Lock elision", "power")] is True
        assert "Table 2" in result.render()


class TestRTLBug:
    def test_suite_catches_injected_bug(self):
        result = run_rtl_bug(max_events=3)
        assert result.bug_detected
        assert result.false_alarms_on_good_rtl == []
        assert "DETECTED" in result.render()


class TestFiguresDriver:
    def test_all_claims_match(self):
        result = run_figures()
        assert result.all_match
        assert "all verdicts match the paper" in result.render()


class TestCLI:
    def test_figures_command(self, capsys):
        assert cli_main(["figures"]) == 0
        out = capsys.readouterr().out
        assert "Paper figures" in out

    def test_table1_command(self, capsys):
        assert cli_main(["table1", "--arch", "x86", "--events", "2"]) == 0
        assert "Table 1" in capsys.readouterr().out

    def test_figure7_command(self, capsys):
        assert cli_main(["figure7", "--arch", "x86", "--events", "2"]) == 0
        assert "Figure 7" in capsys.readouterr().out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(["frobnicate"])

    def test_fuzz_command_clean_run(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        assert (
            cli_main(
                [
                    "fuzz",
                    "--arch",
                    "x86",
                    "--seed",
                    "7",
                    "--budget",
                    "16",
                    "--corpus",
                    str(corpus),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "discrepancies   : 0" in out
        assert corpus.read_text() == ""

    def test_fuzz_command_exits_nonzero_on_discrepancy(self, capsys, tmp_path):
        # No public flag injects a mutant (it is test-only), so drive
        # the engine config through the module instead and check the
        # CLI replay path against its corpus.
        from repro.fuzz import FuzzConfig, run_fuzz

        corpus = tmp_path / "corpus.jsonl"
        report = run_fuzz(
            FuzzConfig(
                arch="x86",
                seed=7,
                budget=48,
                corpus=str(corpus),
                mutant=("x86tm", ("Coherence",)),
            )
        )
        assert not report.clean
        digest = report.discrepancies[0]["digest"]
        assert (
            cli_main(
                ["fuzz", "--replay", digest[:12], "--corpus", str(corpus)]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "no longer disagrees" in out

    def test_fuzz_replay_unknown_digest(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("")
        assert (
            cli_main(["fuzz", "--replay", "feedbeef", "--corpus", str(corpus)])
            == 1
        )
        assert "no corpus record" in capsys.readouterr().out
