"""The benchmark's arithmetic: percentiles, shares, and the metrics derived
from a pass's query outcomes or a traced pass's spans."""

import math
from collections import Counter, defaultdict

from tracing import self_times


def percentile(values, q):
    """The q-th percentile (0..100), interpolating linearly between the two
    nearest ranks."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values):
    return percentile(values, 50)


def share(part, whole):
    """part / whole, and 0 when there is nothing to take a share of."""
    return part / whole if whole else 0.0


def pass_metrics(outcomes):
    """End-to-end figures of one pass: a list of outcomes, one per query,
    each with .seconds, .status, .walks and .txs."""
    wall = sum(o.seconds for o in outcomes)
    walks = sum(o.walks for o in outcomes)
    found = [o for o in outcomes if o.status == "found"]
    return {
        "wall_s": wall,
        "checks_per_s": share(walks, wall),
        "walks_explored": walks,
        "txs_emitted": sum(len(o.txs) for o in found),
        "found_share": share(len(found), len(outcomes)),
    }


def end_to_end(passes, setup_seconds, peak_rss_mb, failed, attempted):
    """Metrics of a run: medians over its passes, latency percentiles over
    every query of every pass, and set-up as the median of its repeats."""
    per_pass = [pass_metrics(p) for p in passes]
    latencies_ms = [o.seconds * 1000.0 for p in passes for o in p]
    out = {name: median([m[name] for m in per_pass])
           for name in per_pass[0]}
    out.update({
        "setup_s": median(setup_seconds),
        "query_ms.p50": percentile(latencies_ms, 50),
        "query_ms.p90": percentile(latencies_ms, 90),
        "peak_rss_mb": peak_rss_mb,
        "failed_share": share(failed, attempted),
    })
    return out


def overhead_share(untraced, traced):
    """Tracing overhead: the median traced pass's wall time over the median
    untraced pass's, minus 1."""
    def wall(passes):
        return median([sum(o.seconds for o in p) for p in passes])
    return wall(traced) / wall(untraced) - 1.0


# Layer time metrics: (span names, inclusive?).  Self time is the default,
# so that layers add up; solver.check_ms and smt.solve_ms are the whole
# solver call and the whole in-process solve, children included.
LAYER_TIMES = {
    "frontend.ms": (["frontend.parse", "frontend.targets"], False),
    "ir.ms": (["ir.lower", "ir.inline"], False),
    "cfg.ms": (["cfg.build"], False),
    "explorer.context_ms": (["explorer.context"], False),
    "explorer.self_ms": (["explorer.search"], False),
    "encoder.ssa_ms": (["encoder.ssa"], False),
    "encoder.encode_ms": (["encoder.encode"], False),
    "solver.check_ms": (["solver.check"], True),
    "smt.parse_ms": (["smt.parse"], False),
    "smt.solve_ms": (["smt.solve"], True),
    "smt.word_ms": (["smt.solve"], False),
    "smt.greedy_ms": (["smt.greedy"], False),
    "smt.bitblast_ms": (["smt.bitblast"], False),
    "smt.cdcl_ms": (["smt.cdcl"], False),
    "encoder.parse_output_ms": (["encoder.parse_output"], False),
    "concretize.ms": (["concretize"], False),
    "oracle.replay_ms": (["oracle.replay"], False),
}

# Hooks each metric needs besides its own spans: a self time is only right
# while every child that can run under the span is recorded too.
_SOLVE_CHILDREN = ["smt.greedy", "smt.bitblast", "smt.cdcl"]
NEEDS = {
    "explorer.self_ms": ["encoder.ssa", "encoder.encode", "solver.check"],
    "smt.word_ms": _SOLVE_CHILDREN,
    "smt.decided.word": ["smt.solve"] + _SOLVE_CHILDREN,
    "smt.decided.greedy": ["smt.solve", "smt.greedy"],
    "smt.decided.bitblast": ["smt.solve", "smt.cdcl"],
    "smt.unknown": ["smt.solve"],
    "smt.greedy_hit_share": ["smt.greedy"],
    "smt.cnf_vars": ["smt.bitblast"],
    "smt.cnf_clauses": ["smt.bitblast"],
    "smt.cdcl_conflicts": ["smt.cdcl_conflicts"],
    "explorer.tree_nodes": ["explorer.tree_nodes"],
    "explorer.checks": ["solver.check"],
    "explorer.sat_share": ["solver.check"],
    "encoder.smt_bytes": ["encoder.encode"],
    "cfg.nodes": ["cfg.build"],
}


def decided_by(solve_span, child_spans):
    """Which stage decided one in-process solve: 'unknown' when it gave no
    answer, 'bitblast' when it reached CDCL, 'greedy' when the greedy model
    held, 'word' when folding and word-level reduction settled it."""
    if solve_span.attrs.get("status", "unknown") == "unknown":
        return "unknown"
    names = {c.name for c in child_spans}
    if "smt.cdcl" in names:
        return "bitblast"
    if any(c.name == "smt.greedy" and c.attrs.get("hit")
           for c in child_spans):
        return "greedy"
    return "word"


def layer_metrics(spans, counts, missing):
    """Per-layer metrics of one traced pass.

    `spans` are the pass's spans (parents index into the same list),
    `counts` its per-query counters, `missing` the hooks that could not be
    installed; a metric that needs one of those reads None."""
    selfs = self_times(spans)
    self_s = defaultdict(float)
    incl_s = defaultdict(float)
    children = defaultdict(list)
    for s, st in zip(spans, selfs):
        self_s[s.name] += st
        incl_s[s.name] += s.end - s.start
        if s.parent >= 0:
            children[s.parent].append(s)
    totals = Counter()
    for c in counts.values():
        totals.update(c)

    out = {}
    for name, (span_names, inclusive) in LAYER_TIMES.items():
        table = incl_s if inclusive else self_s
        out[name] = 1000.0 * sum(table[s] for s in span_names)

    decided = Counter(decided_by(s, children[i])
                      for i, s in enumerate(spans) if s.name == "smt.solve")
    for stage in ("word", "greedy", "bitblast"):
        out["smt.decided." + stage] = decided[stage]
    out["smt.unknown"] = decided["unknown"]
    greedy = [s for s in spans if s.name == "smt.greedy"]
    out["smt.greedy_hit_share"] = share(
        sum(1 for s in greedy if s.attrs.get("hit")), len(greedy))
    blasts = [s for s in spans if s.name == "smt.bitblast"]
    out["smt.cnf_vars"] = sum(s.attrs["vars"] for s in blasts)
    out["smt.cnf_clauses"] = sum(s.attrs["clauses"] for s in blasts)
    out["smt.cdcl_conflicts"] = totals["smt.cdcl_conflicts"]
    out["explorer.tree_nodes"] = totals["explorer.tree_nodes"]
    checks = [s for s in spans if s.name == "solver.check"]
    out["explorer.checks"] = len(checks)
    out["explorer.sat_share"] = share(
        sum(1 for s in checks if s.attrs.get("status") == "sat"), len(checks))
    out["encoder.smt_bytes"] = sum(s.attrs.get("bytes", 0) for s in spans
                                   if s.name == "encoder.encode")
    out["cfg.nodes"] = sum(s.attrs.get("nodes", 0) for s in spans
                           if s.name == "cfg.build")

    gone = set(missing)
    for name in out:
        own = LAYER_TIMES[name][0] if name in LAYER_TIMES else []
        if gone & set(own + NEEDS.get(name, [])):
            out[name] = None
    return out
