"""DOT diagrams, the randomised runner, and suite export."""

import json

from repro.api import synthesize
from repro.catalog import classics, figures
from repro.harness import export_suite
from repro.litmus import edge_summary, execution_to_litmus, to_dot
from repro.sim import RandomisedRunner, TSOMachine


class TestDot:
    def test_fig10_dot_structure(self):
        dot = to_dot(figures.fig10_concrete(), "fig10")
        assert dot.startswith("digraph fig10 {")
        assert dot.rstrip().endswith("}")
        assert "cluster_t0" in dot and "cluster_t1" in dot
        assert "cluster_txn" in dot  # the transaction box
        # fig10's reads all observe the initial value: fr and co edges,
        # the rmw pair, and the data dependency must all be drawn.
        assert "label=fr" in dot and "label=co" in dot
        assert "label=rmw" in dot and "label=data" in dot

    def test_rf_edges_drawn(self):
        dot = to_dot(figures.fig2(), "fig2")
        assert "label=rf" in dot

    def test_atomic_txn_has_bold_box(self):
        from repro.events import ExecutionBuilder, NA

        b = ExecutionBuilder()
        t0 = b.thread()
        with t0.transaction(atomic=True):
            t0.write("x", tags={NA})
        dot = to_dot(b.build())
        assert "style=bold" in dot

    def test_co_shows_immediate_edges_only(self):
        from repro.events import ExecutionBuilder

        b = ExecutionBuilder()
        t0 = b.thread()
        w1 = t0.write("x")
        w2 = t0.write("x")
        w3 = t0.write("x")
        b.co(w1, w2, w3)
        dot = to_dot(b.build())
        # 2 immediate co edges, not the transitive 3rd.
        assert dot.count("label=co") == 2

    def test_edge_summary(self):
        summary = edge_summary(figures.fig2())
        assert "rf:" in summary and "co:" in summary
        assert edge_summary(classics.sb()) != ""


class TestRandomisedRunner:
    def test_sb_observed_by_sampling(self):
        test = execution_to_litmus(classics.sb(), "sb")
        runner = RandomisedRunner(test.program, seed=42)
        result = runner.sample(runs=400, intended_co=test.intended_co)
        assert result.observed, "SB should show up within 400 runs"
        assert 0 < result.rate <= 1

    def test_forbidden_never_observed(self):
        test = execution_to_litmus(figures.fig2(), "fig2")
        runner = RandomisedRunner(test.program, seed=7)
        result = runner.sample(runs=300, intended_co=test.intended_co)
        assert not result.observed

    def test_sampling_agrees_with_exhaustive_positively(self):
        """Anything sampling observes, the exhaustive machine confirms
        (the converse needs enough runs, which §4.2 warns about)."""
        for factory in (classics.sb, figures.fig1):
            test = execution_to_litmus(factory(), "t")
            runner = RandomisedRunner(test.program, seed=1)
            sampled = runner.sample(runs=200, intended_co=test.intended_co)
            if sampled.observed:
                assert TSOMachine(test.program).observable(test.intended_co)

    def test_stop_on_first(self):
        test = execution_to_litmus(figures.fig1(), "fig1")
        runner = RandomisedRunner(test.program, seed=3)
        result = runner.sample(runs=100000, stop_on_first=True)
        assert result.observed and result.runs < 100000

    def test_outcome_tallies(self):
        test = execution_to_litmus(classics.sb(), "sb")
        result = RandomisedRunner(test.program, seed=5).sample(runs=50)
        assert sum(result.outcomes.values()) == 50
        assert len(result.outcomes) >= 2  # SB has several outcomes


class TestExport:
    def test_export_suite(self, tmp_path):
        synthesis = synthesize("x86", 3)
        manifest = export_suite(synthesis, tmp_path)
        assert manifest["target"] == "x86"
        assert len(manifest["forbid"]) == 4
        litmus_files = list((tmp_path / "forbid").glob("*.litmus"))
        dot_files = list((tmp_path / "forbid").glob("*.dot"))
        assert len(litmus_files) == 4 and len(dot_files) == 4
        on_disk = json.loads((tmp_path / "manifest.json").read_text())
        assert on_disk["forbid"] == manifest["forbid"]

    def test_exported_files_parse_back(self, tmp_path):
        from repro.litmus import parse_litmus

        synthesis = synthesize("x86", 3)
        export_suite(synthesis, tmp_path, diagrams=False)
        for path in (tmp_path / "forbid").glob("*.litmus"):
            program = parse_litmus(path.read_text())
            assert program.threads
