"""The Memalloy-replacement enumeration engine (§4.2)."""

import pytest

from repro.api import synthesize
from repro.catalog import figures
from repro.enumeration import (
    canonical_key,
    dedup,
    enumerate_executions,
    enumerate_skeletons,
    get_config,
    interval_sets,
    is_minimal_inconsistent,
    partitions,
    restricted_growth_strings,
    weakenings,
)
from repro.events import ACQ, ExecutionBuilder
from repro.models import get_model


class TestCombinatorics:
    def test_partitions_count(self):
        # p(n): 1, 2, 3, 5, 7 for n = 1..5
        for n, count in [(1, 1), (2, 2), (3, 3), (4, 5), (5, 7)]:
            assert len(list(partitions(n))) == count

    def test_partitions_non_increasing(self):
        for p in partitions(5):
            assert list(p) == sorted(p, reverse=True)

    def test_interval_sets_counts(self):
        # F(k) = F(k-1) + Σ F(j): 1, 2, 5, 13, 34 (odd-index Fibonacci).
        for k, count in [(0, 1), (1, 2), (2, 5), (3, 13), (4, 34)]:
            assert len(list(interval_sets(k))) == count

    def test_interval_sets_disjoint(self):
        for layout in interval_sets(4):
            covered = [i for s, e in layout for i in range(s, e)]
            assert len(covered) == len(set(covered))

    def test_rgs_counts_are_bell_numbers(self):
        # B(n): 1, 2, 5, 15 for n = 1..4.
        for n, bell in [(1, 1), (2, 2), (3, 5), (4, 15)]:
            assert len(list(restricted_growth_strings(n))) == bell

    def test_rgs_canonical(self):
        for code in restricted_growth_strings(4):
            assert code[0] == 0
            for i in range(1, 4):
                assert code[i] <= max(code[:i]) + 1


class TestShapes:
    def test_no_boundary_fences(self):
        config = get_config("x86")
        for sk in enumerate_skeletons(config, 3):
            for seq in sk.threads:
                if seq:
                    assert sk.events[seq[0]].kind != "F"
                    assert sk.events[seq[-1]].kind != "F"

    def test_all_skeleton_completions_well_formed(self):
        from repro.events import is_well_formed

        config = get_config("armv8")
        count = 0
        for x in enumerate_executions(config, 2):
            count += 1
            assert is_well_formed(x), x.describe()
        assert count > 0

    def test_x86_has_no_dependencies(self):
        config = get_config("x86")
        for x in enumerate_executions(config, 3):
            assert x.deps.is_empty()

    def test_cpp_atomic_txns_all_na(self):
        from repro.events import NA

        config = get_config("cpp")
        seen_atomic = False
        for x in enumerate_executions(config, 2):
            for txn in x.atomic_txns:
                seen_atomic = True
                for eid, t in x.txn_of.items():
                    if t == txn:
                        assert NA in x.event(eid).tags
        assert seen_atomic

    def test_rmw_pairs_do_not_overlap(self):
        config = get_config("power")
        for sk in enumerate_skeletons(config, 3):
            used = [e for pair in sk.rmw for e in pair]
            assert len(used) == len(set(used))


class TestCanonical:
    def test_thread_permutation_invariance(self):
        b1 = ExecutionBuilder()
        t0, t1 = b1.thread(), b1.thread()
        w = t0.write("x")
        r = t1.read("x")
        b1.rf(w, r)
        x1 = b1.build()

        b2 = ExecutionBuilder()
        t0, t1 = b2.thread(), b2.thread()
        r = t0.read("x")
        w = t1.write("x")
        b2.rf(w, r)
        x2 = b2.build()

        assert canonical_key(x1) == canonical_key(x2)

    def test_location_renaming_invariance(self):
        def build(loc):
            b = ExecutionBuilder()
            t0 = b.thread()
            t0.write(loc)
            t0.read(loc)
            return b.build()

        assert canonical_key(build("x")) == canonical_key(build("y"))

    def test_distinguishes_tags(self):
        def build(tags):
            b = ExecutionBuilder()
            t0 = b.thread()
            t0.read("x", tags=tags)
            return b.build()

        assert canonical_key(build(set())) != canonical_key(build({ACQ}))

    def test_distinguishes_txn_structure(self):
        assert canonical_key(
            figures.monotonicity_split_rmw()
        ) != canonical_key(figures.monotonicity_joined_rmw())

    def test_dedup(self):
        xs = [figures.fig2(), figures.fig2(), figures.fig1()]
        assert len(dedup(xs)) == 2


class TestMinimality:
    def test_weakenings_include_event_removal(self):
        x = figures.fig2()
        config = get_config("x86")
        children = list(weakenings(x, config))
        sizes = {len(c) for c in children}
        assert 2 in sizes  # an event was removed

    def test_weakenings_include_detransactionalisation(self):
        x = figures.fig2()
        config = get_config("x86")
        assert any(
            len(c) == len(x) and len(c.txn_of) < len(x.txn_of)
            for c in weakenings(x, config)
        )

    def test_armv8_downgrades_acquire(self):
        b = ExecutionBuilder()
        t0 = b.thread()
        t0.read("x", tags={ACQ})
        x = b.build()
        config = get_config("armv8")
        assert any(
            0 in c.eids and not c.event(0).tags
            for c in weakenings(x, config)
        )

    def test_fig3a_is_minimal_for_x86(self):
        assert is_minimal_inconsistent(
            figures.fig3a(), get_model("x86tm"), get_config("x86")
        )

    def test_fig3c_is_not_minimal_for_x86(self):
        """Removing fig3c's external write leaves a coherence violation,
        so fig3c is inconsistent but not *minimally* so."""
        x = figures.fig3c()
        model = get_model("x86tm")
        assert not model.consistent(x)
        assert not is_minimal_inconsistent(x, model, get_config("x86"))

    def test_two_txn_split_rmw_is_not_minimal_for_power(self):
        """Detransactionalising one singleton still leaves the RMW
        crossing the *other* transaction's boundary, so the §8.1
        two-transaction execution is inconsistent but not minimal."""
        assert not is_minimal_inconsistent(
            figures.monotonicity_split_rmw(),
            get_model("powertm"),
            get_config("power"),
        )

    def test_one_txn_split_rmw_is_minimal_for_power(self):
        """The minimal TxnCancelsRMW shapes have a single transaction --
        exactly the two |E|=2 Forbid tests of Table 1."""
        b = ExecutionBuilder()
        t0 = b.thread()
        with t0.transaction():
            r = t0.read("x")
        w = t0.write("x")
        b.rmw(r, w)
        x = b.build()
        assert is_minimal_inconsistent(
            x, get_model("powertm"), get_config("power")
        )

    def test_consistent_execution_is_not_minimal_inconsistent(self):
        assert not is_minimal_inconsistent(
            figures.fig1(), get_model("x86tm"), get_config("x86")
        )


class TestSynthesis:
    """The headline quantitative reproduction: Forbid counts match the
    paper's Table 1 at the shared bounds."""

    @pytest.fixture(scope="class")
    def x86_synthesis(self):
        return synthesize("x86", 3)

    def test_x86_forbid_counts_match_paper(self, x86_synthesis):
        by_size = x86_synthesis.forbidden_by_size()
        # Table 1: x86 |E|=2 -> 0 tests, |E|=3 -> 4 tests.
        assert len(by_size.get(2, [])) == 0
        assert len(by_size.get(3, [])) == 4

    def test_power_forbid_counts_at_two_events(self):
        result = synthesize("power", 2)
        # Table 1: Power |E|=2 -> 2 tests (the split-RMW pair).
        assert len(result.forbidden) == 2
        for x in result.forbidden:
            assert x.rmw.pairs, "both 2-event tests are split RMWs"

    def test_forbidden_are_baseline_consistent(self, x86_synthesis):
        baseline = get_model("x86")
        for x in x86_synthesis.forbidden:
            assert baseline.consistent(x)

    def test_forbidden_are_tm_inconsistent_and_minimal(self, x86_synthesis):
        model = get_model("x86tm")
        config = get_config("x86")
        for x in x86_synthesis.forbidden:
            assert not model.consistent(x)
            assert is_minimal_inconsistent(x, model, config)

    def test_allowed_are_tm_consistent(self, x86_synthesis):
        model = get_model("x86tm")
        for x in x86_synthesis.allowed:
            assert model.consistent(x)

    def test_no_duplicates_up_to_isomorphism(self, x86_synthesis):
        keys = [canonical_key(x) for x in x86_synthesis.forbidden]
        assert len(keys) == len(set(keys))

    def test_discovery_times_monotone(self, x86_synthesis):
        times = x86_synthesis.discovery_times
        assert times == sorted(times)
        assert len(times) == len(x86_synthesis.forbidden)

    def test_time_budget_marks_incomplete(self):
        result = synthesize("power", 4, time_budget=0.3)
        assert not result.complete

    def test_transaction_histogram(self, x86_synthesis):
        hist = x86_synthesis.transaction_histogram()
        assert hist.get(1, 0) == 4  # all 3-event x86 tests have one txn
