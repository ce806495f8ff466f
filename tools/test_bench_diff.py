#!/usr/bin/env python3
"""Tests for bench_diff.py — pytest-collectible, but with no pytest
dependency: ``python3 tools/test_bench_diff.py`` runs the same tests
standalone (the container image may lack pytest; CI's tools-test job uses
it when present).

Fixtures are built in-memory and written to temp dirs: classic row/column
tables (direction-aware warnings, missing bench / mismatched columns),
embedded metrics, and scaling sweeps (axes matching, the
efficiency-at-largest-P regression warning, --render mode).
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bench_diff


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def run_main(argv):
    """Runs bench_diff.main with captured stdout/stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = bench_diff.main(["bench_diff.py"] + argv)
    return rc, out.getvalue(), err.getvalue()


def write_bench(d, name, data):
    Path(d, f"BENCH_{name}.json").write_text(json.dumps(data))


def table_bench(seconds, mops=1.0, columns=("locations", "run_s", "mops")):
    return {
        "bench": "t",
        "scale": 1,
        "tables": [{
            "title": "timings",
            "columns": list(columns),
            "rows": [[1, seconds, mops]],
        }],
        "metrics": {"rmi.rmi_bytes": 1000},
    }


def sweep_point(kernel="for_each", mode="strong", steal=True, grain="auto",
                p=1, n=1000, seconds=1.0, efficiency=1.0):
    return {
        "kernel": kernel, "mode": mode,
        "steal": steal, "grain": grain, "p": p, "n": n,
        "seconds": seconds, "efficiency": efficiency,
        "metrics": {"rmi.rmis_sent": 10},
    }


def sweep_bench(points):
    return {"bench": "scaling", "scale": 1, "tables": [], "metrics": {},
            "sweeps": points}


# ---------------------------------------------------------------------------
# Classic table diffing
# ---------------------------------------------------------------------------

def test_lower_is_better_regression_warns():
    with tempfile.TemporaryDirectory() as prev, \
            tempfile.TemporaryDirectory() as cur:
        write_bench(prev, "t", table_bench(seconds=1.0))
        write_bench(cur, "t", table_bench(seconds=1.5))  # +50% run_s
        rc, out, err = run_main([prev, cur])
        assert rc == 0
        assert "::warning" in err and "run_s" in err
        assert "+50.0%" in out


def test_higher_is_better_regression_warns():
    with tempfile.TemporaryDirectory() as prev, \
            tempfile.TemporaryDirectory() as cur:
        write_bench(prev, "t", table_bench(seconds=1.0, mops=10.0))
        write_bench(cur, "t", table_bench(seconds=1.0, mops=5.0))
        rc, out, err = run_main([prev, cur])
        assert rc == 0
        assert "::warning" in err and "mops" in err


def test_improvement_does_not_warn():
    with tempfile.TemporaryDirectory() as prev, \
            tempfile.TemporaryDirectory() as cur:
        write_bench(prev, "t", table_bench(seconds=1.5, mops=5.0))
        write_bench(cur, "t", table_bench(seconds=1.0, mops=10.0))
        rc, out, err = run_main([prev, cur])
        assert rc == 0
        assert "::warning" not in err


def test_missing_bench_yields_no_diff():
    with tempfile.TemporaryDirectory() as prev, \
            tempfile.TemporaryDirectory() as cur:
        write_bench(prev, "a", table_bench(seconds=1.0))
        write_bench(cur, "b", table_bench(seconds=1.0))
        rc, out, err = run_main([prev, cur])
        assert rc == 0
        assert "No previous bench artifacts" in out
        assert "::warning" not in err


def test_mismatched_columns_skipped():
    with tempfile.TemporaryDirectory() as prev, \
            tempfile.TemporaryDirectory() as cur:
        write_bench(prev, "t", table_bench(seconds=1.0))
        changed = table_bench(seconds=9.0,
                              columns=("locations", "other_s", "mops"))
        write_bench(cur, "t", changed)
        rc, out, err = run_main([prev, cur])
        assert rc == 0
        # Tables are incomparable; only the metrics block is rendered.
        assert "timings" not in out
        assert "::warning" not in err


def test_malformed_json_skipped():
    with tempfile.TemporaryDirectory() as prev, \
            tempfile.TemporaryDirectory() as cur:
        Path(prev, "BENCH_t.json").write_text("{not json")
        write_bench(cur, "t", table_bench(seconds=1.0))
        rc, out, err = run_main([prev, cur])
        assert rc == 0


def test_metrics_direction_warning():
    with tempfile.TemporaryDirectory() as prev, \
            tempfile.TemporaryDirectory() as cur:
        a, b = table_bench(seconds=1.0), table_bench(seconds=1.0)
        a["metrics"] = {"rmi.rmi_bytes": 1000}
        b["metrics"] = {"rmi.rmi_bytes": 2000}  # bytes doubled
        write_bench(prev, "t", a)
        write_bench(cur, "t", b)
        rc, out, err = run_main([prev, cur])
        assert rc == 0
        assert "::warning" in err and "rmi.rmi_bytes" in err


# ---------------------------------------------------------------------------
# Latency quantiles
# ---------------------------------------------------------------------------

def latency_section(p99=5000, p999=20000):
    return {"rmi.sync": {"count": 1000, "sum_ns": 2_000_000, "p50_ns": 1500,
                         "p90_ns": 3000, "p99_ns": p99, "p999_ns": p999,
                         "max_ns": p999 * 2}}


def test_latency_table_renders_and_tail_regression_warns():
    with tempfile.TemporaryDirectory() as prev, \
            tempfile.TemporaryDirectory() as cur:
        a, b = table_bench(seconds=1.0), table_bench(seconds=1.0)
        a["latency"] = latency_section(p99=5000)
        b["latency"] = latency_section(p99=9000)  # +80% p99
        write_bench(prev, "lat", a)
        write_bench(cur, "lat", b)
        rc, out, err = run_main([prev, cur])
        assert rc == 0
        assert "latency quantiles" in out
        assert "rmi.sync" in out
        assert "::warning" in err and "p99_ns" in err


def test_latency_improvement_does_not_warn():
    with tempfile.TemporaryDirectory() as prev, \
            tempfile.TemporaryDirectory() as cur:
        a, b = table_bench(seconds=1.0), table_bench(seconds=1.0)
        a["latency"] = latency_section(p99=9000)
        b["latency"] = latency_section(p99=5000)  # got faster
        write_bench(prev, "lat", a)
        write_bench(cur, "lat", b)
        rc, out, err = run_main([prev, cur])
        assert rc == 0
        assert "latency quantiles" in out
        assert "p99_ns" not in err


# ---------------------------------------------------------------------------
# Curve-aware sweep diffing
# ---------------------------------------------------------------------------

def curve_fixture(eff_p4_cur):
    """prev/cur sweep pair: one for_each series over P=1,2,4; the current
    efficiency at the largest P is the knob."""
    prev = sweep_bench([
        sweep_point(p=1, seconds=1.0, efficiency=1.0),
        sweep_point(p=2, seconds=0.55, efficiency=0.91),
        sweep_point(p=4, seconds=0.30, efficiency=0.83),
    ])
    cur = sweep_bench([
        sweep_point(p=1, seconds=1.0, efficiency=1.0),
        sweep_point(p=2, seconds=0.55, efficiency=0.91),
        sweep_point(p=4, seconds=1.0 / (4 * eff_p4_cur),
                    efficiency=eff_p4_cur),
    ])
    return prev, cur


def test_curve_matching_by_axes():
    """Points match on the full axes tuple; an axes change unmatches."""
    prev_b, cur_b = curve_fixture(eff_p4_cur=0.80)
    # Give the current P=2 point a different n: no previous match.
    cur_b["sweeps"][1]["n"] = 2222
    with tempfile.TemporaryDirectory() as prev, \
            tempfile.TemporaryDirectory() as cur:
        write_bench(prev, "scaling", prev_b)
        write_bench(cur, "scaling", cur_b)
        rc, out, err = run_main([prev, cur])
        assert rc == 0
        assert "for_each scaling curves" in out
        assert "Δseconds" in out
        row = next(line for line in out.splitlines()
                   if "Δseconds" in line)
        # p=1 and p=4 matched, the n-changed p=2 point did not.
        cells = [c.strip() for c in row.strip("|").split("|")]
        assert cells[2] == "+0.0%"
        assert cells[3] == "–"
        assert cells[4] != "–"


def test_legacy_second_transport_points_ignored():
    """Older artifacts also swept a second transport; only their queue
    points match, so a slow legacy series neither warns nor shifts deltas."""
    prev_b, cur_b = curve_fixture(eff_p4_cur=0.83)
    for pt in prev_b["sweeps"]:
        pt["transport"] = "queue"
    prev_b["sweeps"] += [dict(pt, transport="direct", seconds=9.0,
                              efficiency=0.1) for pt in prev_b["sweeps"]]
    with tempfile.TemporaryDirectory() as prev, \
            tempfile.TemporaryDirectory() as cur:
        write_bench(prev, "scaling", prev_b)
        write_bench(cur, "scaling", cur_b)
        rc, out, err = run_main([prev, cur])
        assert rc == 0
        assert "::warning" not in err
        row = next(line for line in out.splitlines()
                   if "Δseconds" in line)
        cells = [c.strip() for c in row.strip("|").split("|")]
        assert cells[2:] == ["+0.0%", "+0.0%", "+0.4%"]  # vs queue points


def test_efficiency_regression_at_largest_p_warns():
    prev_b, cur_b = curve_fixture(eff_p4_cur=0.50)  # 0.83 -> 0.50: -39%
    with tempfile.TemporaryDirectory() as prev, \
            tempfile.TemporaryDirectory() as cur:
        write_bench(prev, "scaling", prev_b)
        write_bench(cur, "scaling", cur_b)
        rc, out, err = run_main([prev, cur])
        assert rc == 0
        assert "::warning" in err
        assert "efficiency" in err and "p=4" in err


def test_efficiency_within_threshold_does_not_warn():
    prev_b, cur_b = curve_fixture(eff_p4_cur=0.78)  # 0.83 -> 0.78: -6%
    with tempfile.TemporaryDirectory() as prev, \
            tempfile.TemporaryDirectory() as cur:
        write_bench(prev, "scaling", prev_b)
        write_bench(cur, "scaling", cur_b)
        rc, out, err = run_main([prev, cur])
        assert rc == 0
        assert "efficiency" not in err


def test_smaller_p_regression_does_not_warn():
    """Only the largest common P gates the curve warning."""
    prev_b, cur_b = curve_fixture(eff_p4_cur=0.83)
    cur_b["sweeps"][1]["efficiency"] = 0.40  # p=2 tanked, p=4 fine
    with tempfile.TemporaryDirectory() as prev, \
            tempfile.TemporaryDirectory() as cur:
        write_bench(prev, "scaling", prev_b)
        write_bench(cur, "scaling", cur_b)
        rc, out, err = run_main([prev, cur])
        assert rc == 0
        assert "efficiency" not in err


def test_render_mode_without_baseline():
    _, cur_b = curve_fixture(eff_p4_cur=0.83)
    with tempfile.TemporaryDirectory() as cur:
        write_bench(cur, "scaling", cur_b)
        rc, out, err = run_main(["--render", cur])
        assert rc == 0
        assert "Scaling curves" in out
        assert "for_each scaling curves" in out
        assert "p=1" in out and "p=4" in out
        assert "0.83" in out
        assert "Δseconds" not in out  # no baseline: no delta rows
        assert "::warning" not in err


def test_render_mode_empty_dir():
    with tempfile.TemporaryDirectory() as cur:
        rc, out, err = run_main(["--render", cur])
        assert rc == 0
        assert "No sweep data found" in out


def test_usage_error():
    rc, out, err = run_main([])
    assert rc == 1


# ---------------------------------------------------------------------------
# Collectives: counter directions and per-primitive latency-vs-P curves
# ---------------------------------------------------------------------------

def collectives_bench(tree_us_p8=30.0, metrics=None):
    """Minimal BENCH_collectives shape: the "<primitive>/p<P>"-keyed
    latency table (two primitives, P=2,4,8) plus the coll.* counters."""
    rows = []
    for prim in ("allreduce", "broadcast"):
        for p, flat_us in ((2, 10.0), (4, 25.0), (8, 60.0)):
            tree_us = tree_us_p8 if p == 8 else flat_us * 1.1
            rows.append([f"{prim}/p{p}", p, flat_us, tree_us,
                         flat_us / tree_us])
    return {
        "bench": "collectives",
        "scale": 1,
        "tables": [{
            "title": bench_diff.COLLECTIVE_TABLE_TITLE,
            "columns": ["point", "locations", "flat_us", "tree_us",
                        "speedup"],
            "rows": rows,
        }],
        "metrics": metrics if metrics is not None else
        {"coll.rounds": 100, "coll.agg_bytes": 5000,
         "coll.flat_fallbacks": 7, "coll.tree_depth": 3},
    }


def test_coll_counter_directions():
    assert bench_diff.column_direction("coll.rounds") == -1
    assert bench_diff.column_direction("coll.agg_bytes") == -1
    assert bench_diff.column_direction("coll.flat_fallbacks") == 0
    assert bench_diff.column_direction("coll.tree_depth") == 0
    assert bench_diff.column_direction("coll.agg_batches") == 0
    assert bench_diff.column_direction("flat_us") == -1
    assert bench_diff.column_direction("tree_us") == -1
    assert bench_diff.column_direction("speedup") == 1


def test_coll_rounds_regression_warns():
    with tempfile.TemporaryDirectory() as prev, \
            tempfile.TemporaryDirectory() as cur:
        write_bench(prev, "collectives",
                    collectives_bench(metrics={"coll.rounds": 100}))
        write_bench(cur, "collectives",
                    collectives_bench(metrics={"coll.rounds": 150}))
        rc, out, err = run_main([prev, cur])
        assert rc == 0
        assert "::warning" in err and "coll.rounds" in err


def test_coll_flat_fallbacks_is_informational():
    """flat_fallbacks tracks the auto-select threshold, not quality: a big
    swing renders in the metrics table but never warns."""
    with tempfile.TemporaryDirectory() as prev, \
            tempfile.TemporaryDirectory() as cur:
        write_bench(prev, "collectives",
                    collectives_bench(metrics={"coll.flat_fallbacks": 2}))
        write_bench(cur, "collectives",
                    collectives_bench(metrics={"coll.flat_fallbacks": 40}))
        rc, out, err = run_main([prev, cur])
        assert rc == 0
        assert "coll.flat_fallbacks" in out
        assert "::warning" not in err


def test_fault_and_robust_counter_directions():
    # fault.* describes the injected scenario: informational even for keys
    # whose suffix would otherwise be judged.
    assert bench_diff.column_direction("fault.injected") == 0
    assert bench_diff.column_direction("fault.dups") == 0
    assert bench_diff.column_direction("fault.stall_us") == 0
    # Hardening counters: escalated waits and watchdog dumps are
    # unambiguously bad; dedup/straggler bookkeeping scales with the storm.
    assert bench_diff.column_direction("robust.retries") == -1
    assert bench_diff.column_direction("robust.watchdog_dumps") == -1
    assert bench_diff.column_direction("robust.dups_suppressed") == 0
    assert bench_diff.column_direction("robust.probe_timeouts") == 0
    assert bench_diff.column_direction("robust.demotions") == 0
    assert bench_diff.column_direction("robust.repromotions") == 0


def test_robust_retries_regression_warns():
    with tempfile.TemporaryDirectory() as prev, \
            tempfile.TemporaryDirectory() as cur:
        write_bench(prev, "collectives",
                    collectives_bench(metrics={"robust.retries": 10}))
        write_bench(cur, "collectives",
                    collectives_bench(metrics={"robust.retries": 30}))
        rc, out, err = run_main([prev, cur])
        assert rc == 0
        assert "::warning" in err and "robust.retries" in err


def test_fault_counters_never_warn():
    with tempfile.TemporaryDirectory() as prev, \
            tempfile.TemporaryDirectory() as cur:
        write_bench(prev, "collectives",
                    collectives_bench(metrics={"fault.injected": 5,
                                               "robust.dups_suppressed": 3}))
        write_bench(cur, "collectives",
                    collectives_bench(metrics={"fault.injected": 500,
                                               "robust.dups_suppressed": 300}))
        rc, out, err = run_main([prev, cur])
        assert rc == 0
        assert "fault.injected" in out
        assert "::warning" not in err


def test_collective_curves_render_per_primitive():
    """The diff regroups the flat point-keyed table into one latency-vs-P
    table per primitive, cells carrying deltas vs the matched baseline."""
    with tempfile.TemporaryDirectory() as prev, \
            tempfile.TemporaryDirectory() as cur:
        write_bench(prev, "collectives", collectives_bench(tree_us_p8=30.0))
        write_bench(cur, "collectives", collectives_bench(tree_us_p8=15.0))
        rc, out, err = run_main([prev, cur])
        assert rc == 0
        assert "allreduce latency vs P (flat vs tree)" in out
        assert "broadcast latency vs P (flat vs tree)" in out
        assert "p=2" in out and "p=8" in out
        row = next(line for line in out.splitlines()
                   if line.startswith("| tree_us"))
        assert "(-50.0%)" in row  # p=8 tree halved vs baseline


def test_collective_tree_us_regression_warns_via_row_diff():
    """Row-level regression warnings come from the generic table differ
    ("_us" suffix = lower-better) — the curve renderer itself never
    warns, so exactly one warning fires per regressed point."""
    with tempfile.TemporaryDirectory() as prev, \
            tempfile.TemporaryDirectory() as cur:
        write_bench(prev, "collectives", collectives_bench(tree_us_p8=30.0))
        write_bench(cur, "collectives", collectives_bench(tree_us_p8=60.0))
        rc, out, err = run_main([prev, cur])
        assert rc == 0
        warnings = [l for l in err.splitlines()
                    if "::warning" in l and "tree_us" in l]
        assert len(warnings) == 2  # one per primitive's p=8 row
        assert any("allreduce/p8" in w for w in warnings)


def test_collective_curves_in_render_mode():
    with tempfile.TemporaryDirectory() as cur:
        write_bench(cur, "collectives", collectives_bench())
        rc, out, err = run_main(["--render", cur])
        assert rc == 0
        assert "allreduce latency vs P (flat vs tree)" in out
        assert "(-" not in out.split("allreduce latency")[1].split(
            "</details>")[0]  # no baseline: bare values, no deltas
        assert "::warning" not in err


def test_collective_curves_absent_table_is_noop():
    assert bench_diff.render_collective_curves(
        "BENCH_t", table_bench(seconds=1.0)) == []
    assert bench_diff.render_collective_curves("BENCH_t", {}) == []


if __name__ == "__main__":
    failed = 0
    for name, fn in sorted(t for t in globals().items()
                           if t[0].startswith("test_") and callable(t[1])):
        try:
            fn()
            print(f"PASS {name}")
        except AssertionError:
            import traceback
            traceback.print_exc()
            print(f"FAIL {name}")
            failed += 1
    sys.exit(1 if failed else 0)
