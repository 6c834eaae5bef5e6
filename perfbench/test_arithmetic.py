"""Unit tests for the benchmark's own arithmetic.

    python3 -m pytest -q perfbench
"""

import pytest

import speed
import stats
from run import Outcome
from tracing import Span, self_times


def span(name, start, end, parent=-1, **attrs):
    return Span(name, start, end, parent, 0, attrs)


def test_self_time_subtracts_children_once_and_clips_them():
    spans = [span("root", 0.0, 10.0),
             span("a", 1.0, 3.0, parent=0),
             span("b", 2.0, 5.0, parent=0),     # overlaps a: [1, 5] covered
             span("c", 8.0, 12.0, parent=0),    # clipped to [8, 10]
             span("d", 8.5, 9.0, parent=3)]     # grandchild: only c loses it
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 3.5, 0.5])


def test_self_time_of_a_leaf_is_its_duration():
    assert self_times([span("x", 2.0, 2.5)]) == [0.5]


def test_percentile_interpolates_between_ranks():
    assert stats.percentile([4, 1, 3, 2], 50) == 2.5
    assert stats.percentile(range(1, 11), 90) == pytest.approx(9.1)
    assert stats.percentile([7], 90) == 7
    assert stats.percentile([1, 2, 3], 0) == 1
    assert stats.percentile([1, 2, 3], 100) == 3
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_share_of_nothing_is_zero():
    assert stats.share(3, 4) == 0.75
    assert stats.share(0, 0) == 0.0


def test_speed_scale_leaves_out_the_slowest_fifth():
    nominal = speed.REFERENCE_S
    assert speed.scale([nominal] * 4) == pytest.approx(1.0)
    assert speed.scale([2 * nominal] * 4) == pytest.approx(0.5)
    # one preempted sample of ten is dropped, and so is the next slowest
    samples = [nominal] * 8 + [1.5 * nominal, 10 * nominal]
    assert speed.scale(samples) == pytest.approx(1.0)
    assert speed.scale([nominal]) == pytest.approx(1.0)


def test_reference_task_does_the_same_work_every_time():
    assert speed.reference() == speed.reference()


def outcome(seconds, status="found", walks=1, txs=2):
    return Outcome(status=status, walks=walks, seconds=seconds,
                   txs=[{}] * (txs if status == "found" else 0))


def test_pass_shares_count_every_query_of_the_pass():
    p = [outcome(1.0, walks=10), outcome(3.0, "notfound", walks=30),
         outcome(0.5, "error", walks=0), outcome(0.5, walks=2, txs=3)]
    m = stats.pass_metrics(p)
    assert m["found_share"] == 0.5              # 2 found of 4 queries
    assert m["wall_s"] == 5.0
    assert m["checks_per_s"] == 42 / 5.0
    assert m["walks_explored"] == 42
    assert m["txs_emitted"] == 5                # found sequences only


def test_run_metrics_take_medians_over_passes_and_pool_latencies():
    passes = [[outcome(1.0), outcome(3.0)],
              [outcome(2.0), outcome(4.0)],
              [outcome(1.5), outcome(9.0)]]
    m = stats.end_to_end(passes, [0.3, 0.1, 0.2], 50.0, failed=1,
                         attempted=6)
    assert m["wall_s"] == 6.0                   # median of 4, 6, 10.5
    assert m["query_ms.p50"] == 2500.0          # all six latencies pooled
    assert m["query_ms.p90"] == pytest.approx(6500.0)
    assert m["setup_s"] == 0.2
    assert m["failed_share"] == 1 / 6           # of attempts, not queries
    assert m["peak_rss_mb"] == 50.0


def test_overhead_share_compares_median_pass_walls():
    untraced = [[outcome(1.0)], [outcome(2.0)], [outcome(3.0)]]
    traced = [[outcome(2.2)], [outcome(2.0), outcome(0.2)], [outcome(9.0)]]
    assert stats.overhead_share(untraced, traced) == pytest.approx(0.1)


def traced_query():
    """One query: search -> two checks; the first solve is decided by the
    greedy model, the second by CDCL after a failed greedy attempt."""
    return [
        span("query", 0.0, 100.0),
        span("explorer.search", 1.0, 99.0, parent=0),
        span("solver.check", 2.0, 12.0, parent=1, status="sat"),
        span("smt.parse", 2.0, 4.0, parent=2),
        span("smt.solve", 4.0, 11.0, parent=2, status="sat"),
        span("smt.greedy", 5.0, 6.0, parent=4, hit=True),
        span("solver.check", 20.0, 60.0, parent=1, status="unsat"),
        span("smt.solve", 21.0, 59.0, parent=6, status="unsat"),
        span("smt.greedy", 22.0, 23.0, parent=7, hit=False),
        span("smt.bitblast", 23.0, 30.0, parent=7, vars=100, clauses=400),
        span("smt.cdcl", 30.0, 58.0, parent=7),
    ]


def test_layer_metrics_from_spans():
    m = stats.layer_metrics(traced_query(), {0: {"smt.cdcl_conflicts": 7}},
                            missing=[])
    assert m["solver.check_ms"] == 50000.0      # inclusive: 10 + 40 s
    assert m["smt.solve_ms"] == 45000.0         # inclusive: 7 + 38 s
    assert m["smt.word_ms"] == 6000.0 + 2000.0  # solve minus its stages
    assert m["explorer.self_ms"] == 48000.0     # 98 s minus 50 s of checks
    assert m["smt.decided.greedy"] == 1
    assert m["smt.decided.bitblast"] == 1
    assert m["smt.decided.word"] == 0
    assert m["smt.greedy_hit_share"] == 0.5     # of greedy attempts
    assert m["explorer.checks"] == 2
    assert m["explorer.sat_share"] == 0.5       # of checks
    assert m["smt.cnf_vars"] == 100
    assert m["smt.cdcl_conflicts"] == 7
    assert m["explorer.tree_nodes"] == 0


def test_a_missing_hook_nulls_every_metric_that_needs_it():
    m = stats.layer_metrics(traced_query(), {}, missing=["smt.greedy"])
    assert m["smt.greedy_ms"] is None
    assert m["smt.word_ms"] is None             # would absorb greedy time
    assert m["smt.greedy_hit_share"] is None
    assert m["smt.decided.greedy"] is None
    assert m["smt.cdcl_ms"] == 28000.0


def test_every_hook_resolves_and_is_put_back():
    import workloads
    from tracing import Tracer
    workloads.import_minisol()
    from minisol import encoder, engine
    originals = (engine.encode, encoder.SolverSession.check)
    tracer = Tracer()
    with tracer.installed():
        assert tracer.missing == []
        assert engine.encode is not originals[0]
    assert (engine.encode, encoder.SolverSession.check) == originals
