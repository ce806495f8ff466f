#!/usr/bin/env python3
"""Diff two directories of BENCH_*.json files (bench_common.hpp --json
output) and emit a GitHub-flavored markdown summary of per-bench deltas.

Usage: bench_diff.py PREV_DIR CUR_DIR
       bench_diff.py --render CUR_DIR

For every bench present in both directories, every table row is matched by
its first cell (the row key, e.g. the location count) and each numeric
column's relative change is reported.  Informational only — the caller
treats the output as a job-summary annotation, never as a gate.

Columns whose direction is unambiguous (``*_s``/``seconds`` are
lower-is-better; recovery/speedup/mops/efficiency are higher-is-better)
additionally emit a GitHub ``::warning`` workflow command on stderr when
they regress by more than REGRESSION_PCT — stdout stays pure markdown so
the caller can keep redirecting it into the job summary, while the runner
picks the annotations out of the log.  Still non-blocking: warnings only,
exit 0.

Benches carrying a ``"latency"`` section (per-op-family histogram
quantiles, see bench_common.hpp) get a latency table — p50/p99/p999/max
are unambiguously lower-is-better, so growth past REGRESSION_PCT warns.

Benches carrying a scaling sweep (a top-level ``"sweeps"`` array, see
bench/scaling_harness.hpp) get curve-aware treatment: points are matched
by their full axes tuple (kernel/mode/p/n), each
kernel renders a per-series scaling table (efficiency across P, seconds
delta vs previous), and a series whose efficiency at the largest common P
regressed by more than REGRESSION_PCT emits the same non-blocking
``::warning``.  ``--render CUR_DIR`` renders the curve tables of a single
run without a baseline (the scheduled scaling-full job summary).

BENCH_collectives gets its own curve treatment: the
"<primitive>/p<P>"-keyed latency table is regrouped into one
latency-vs-P table per primitive (latency_us across the swept location
counts, deltas vs the baseline when present).  Counter directions for
the collectives family: ``coll.agg_bytes`` is lower-is-better;
``coll.ops`` and ``coll.agg_batches`` are informational only.
"""

import json
import sys
from pathlib import Path

REGRESSION_PCT = 10.0

LOWER_IS_BETTER_SUFFIXES = ("_s", "_bytes", "_ns", "_us")
LOWER_IS_BETTER_NAMES = {
    "seconds", "wire_bytes", "rmi_bytes", "msg_bytes", "bytes_moved",
    "nap_us",
    # Collectives counters: "coll.agg_bytes" is lower-is-better through the
    # "_bytes" suffix.  "ops" and "agg_batches" are deliberately unlisted —
    # they track workload shape, not quality (direction 0, informational
    # only).
    # Hardening counters: escalated waits and watchdog dumps in a clean
    # bench run mean something got slower or stuck.
    "retries", "watchdog_dumps",
}
HIGHER_IS_BETTER_NAMES = {"recovery", "speedup", "mops", "reduction",
                          "efficiency"}

# Whole families that describe the injected scenario rather than the
# code's quality: "fault.*" counts what a chaos plan fired, so any growth
# is configuration, never a regression — even for keys whose suffix would
# otherwise be judged (e.g. a future fault.*_us).
INFORMATIONAL_FAMILIES = ("fault.",)
# Per-key overrides: suppressed duplicates scale with the injected storm,
# not with code quality.
INFORMATIONAL_NAMES = {"dups_suppressed"}

SWEEP_AXES = ("kernel", "mode", "p", "n")


def column_direction(name):
    """-1 = lower is better, +1 = higher is better, 0 = don't judge.

    Also applied to the embedded metrics-registry keys ("rmi.rmi_bytes",
    "idle.nap_us", ...): the family prefix is stripped first.
    """
    if name.startswith(INFORMATIONAL_FAMILIES):
        return 0
    name = name.rsplit(".", 1)[-1]
    if name in INFORMATIONAL_NAMES:
        return 0
    if name in LOWER_IS_BETTER_NAMES or name.endswith(LOWER_IS_BETTER_SUFFIXES):
        return -1
    if name in HIGHER_IS_BETTER_NAMES:
        return 1
    return 0


def warn_regression(bench, table, row_key, col, pct):
    print(
        f"::warning title=Bench regression ({bench})::"
        f"{table} — row {row_key}, {col}: {pct:+.1f}% vs previous main run "
        f"(threshold {REGRESSION_PCT:.0f}%, non-blocking)",
        file=sys.stderr,
    )


def load_benches(d):
    out = {}
    for f in sorted(Path(d).glob("BENCH_*.json")):
        try:
            out[f.stem] = json.loads(f.read_text())
        except (OSError, json.JSONDecodeError) as e:
            print(f"<!-- skipped {f}: {e} -->")
    return out


def rows_by_key(table):
    return {str(r[0]): r for r in table.get("rows", []) if r}


def fmt_delta(prev, cur):
    if not isinstance(prev, (int, float)) or not isinstance(cur, (int, float)):
        return None
    if prev == 0:
        return None
    pct = 100.0 * (cur - prev) / abs(prev)
    arrow = "+" if pct >= 0 else ""
    return f"{arrow}{pct:.1f}%"


def diff_metrics(name, prev_bench, cur_bench):
    """Diffs the embedded metrics-registry snapshot of one bench.

    Returns the markdown lines (empty when either side lacks metrics).
    Counter keys with an unambiguous direction (bytes, nap_us
    lower-better) emit the same non-blocking ::warning as table columns.
    """
    pmet, cmet = prev_bench.get("metrics"), cur_bench.get("metrics")
    if not isinstance(pmet, dict) or not isinstance(cmet, dict):
        return []
    lines = []
    for key in sorted(set(pmet) & set(cmet)):
        old, new = pmet[key], cmet[key]
        delta = fmt_delta(old, new)
        if delta is None:
            continue
        direction = column_direction(key)
        if (
            direction != 0
            and isinstance(old, (int, float))
            and isinstance(new, (int, float))
            and old != 0
        ):
            pct = 100.0 * (new - old) / abs(old)
            if pct * direction < -REGRESSION_PCT:
                warn_regression(name.removeprefix("BENCH_"), "metrics", key,
                                key, pct)
        lines.append(f"| {key} | {old} | {new} | {delta} |")
    if not lines:
        return []
    bench = name.removeprefix("BENCH_")
    return (
        [f"<details><summary><b>{bench}</b> — metrics registry</summary>", "",
         "| counter | previous | current | delta |", "|---|---|---|---|"]
        + lines + ["", "</details>", ""]
    )


LATENCY_QUANTILE_KEYS = ("p50_ns", "p90_ns", "p99_ns", "p999_ns", "max_ns")


def diff_latency(name, prev_bench, cur_bench):
    """Diffs the per-op-family latency histogram section of one bench.

    Renders one row per family present on both sides (current value with
    relative delta per quantile) and emits the non-blocking ``::warning``
    when a tail quantile regressed (grew) by more than REGRESSION_PCT —
    latency is unambiguously lower-is-better.
    """
    plat, clat = prev_bench.get("latency"), cur_bench.get("latency")
    if not isinstance(plat, dict) or not isinstance(clat, dict):
        return []
    lines = []
    for fam in sorted(set(plat) & set(clat)):
        old, new = plat[fam], clat[fam]
        if not isinstance(old, dict) or not isinstance(new, dict):
            continue
        cells = [fam, str(new.get("count", "–"))]
        for q in LATENCY_QUANTILE_KEYS:
            po, pn = old.get(q), new.get(q)
            delta = fmt_delta(po, pn)
            cells.append(f"{pn} ({delta})" if delta is not None
                         else str(pn if pn is not None else "–"))
            if (
                isinstance(po, (int, float))
                and isinstance(pn, (int, float))
                and po != 0
            ):
                pct = 100.0 * (pn - po) / abs(po)
                if pct > REGRESSION_PCT:
                    warn_regression(name.removeprefix("BENCH_"),
                                    "latency quantiles", fam, q, pct)
        lines.append("| " + " | ".join(cells) + " |")
    if not lines:
        return []
    bench = name.removeprefix("BENCH_")
    cols = ["family", "count"] + list(LATENCY_QUANTILE_KEYS)
    return (
        [f"<details><summary><b>{bench}</b> — latency quantiles (ns, "
         "current with delta vs previous)</summary>", "",
         "| " + " | ".join(cols) + " |", "|" + "---|" * len(cols)]
        + lines + ["", "</details>", ""]
    )


def sweep_points(bench):
    """The bench's "sweeps" array (scaling_harness output), or [].  Older
    artifacts also swept a second transport and a grain axis; only their
    default-transport ("queue"), default-grain ("auto") points still match
    current points.  Their "steal" field is no longer an axis, so such
    points match on the remaining axes."""
    sweeps = bench.get("sweeps") if isinstance(bench, dict) else None
    return [p for p in sweeps
            if isinstance(p, dict) and p.get("transport", "queue") == "queue"
            and p.get("grain", "auto") == "auto"] \
        if isinstance(sweeps, list) else []


def point_key(pt):
    """Full-axes identity of a sweep point — the curve-matching key."""
    return tuple(pt.get(a) for a in SWEEP_AXES)


def series_key(pt):
    """Everything but P and N: one scaling curve."""
    return tuple(pt.get(a) for a in SWEEP_AXES[:2])


def series_label(key):
    _, mode = key
    return str(mode)


def warn_efficiency_regressions(bench, kernel, skey, spts, ps, prev_pts):
    """Warns when a series' efficiency at the largest common P dropped by
    more than REGRESSION_PCT (the curve-level regression signal)."""
    for p in reversed(ps):
        pt = spts.get(p)
        old = prev_pts.get(point_key(pt)) if pt is not None else None
        if old is None:
            continue
        pe, ce = old.get("efficiency"), pt.get("efficiency")
        if isinstance(pe, (int, float)) and isinstance(ce, (int, float)) \
                and pe > 0:
            pct = 100.0 * (ce - pe) / pe
            if pct < -REGRESSION_PCT:
                warn_regression(bench, f"{kernel} curve",
                                f"{series_label(skey)} p={p}", "efficiency",
                                pct)
        return  # only the largest P present on both sides


def render_curves(name, cur_bench, prev_bench=None, warn=True):
    """Markdown curve tables for one bench's sweeps: per kernel, one row
    pair per series — current efficiency across P, and (with a baseline)
    the seconds delta against the axes-matched previous point."""
    pts = sweep_points(cur_bench)
    if not pts:
        return []
    prev_pts = {point_key(p): p
                for p in sweep_points(prev_bench if prev_bench else {})}
    bench = name.removeprefix("BENCH_")
    by_kernel = {}
    for pt in pts:
        by_kernel.setdefault(str(pt.get("kernel")), []).append(pt)

    lines = []
    for kernel in sorted(by_kernel):
        kpts = by_kernel[kernel]
        series = {}
        for pt in kpts:
            series.setdefault(series_key(pt), []).append(pt)
        ps = sorted({pt.get("p") for pt in kpts
                     if isinstance(pt.get("p"), int)})
        if not ps:
            continue
        rows = []
        for skey in sorted(series, key=str):
            spts = {pt.get("p"): pt for pt in series[skey]}
            eff_cells, dt_cells = [], []
            for p in ps:
                pt = spts.get(p)
                if pt is None:
                    eff_cells.append("–")
                    dt_cells.append("–")
                    continue
                eff = pt.get("efficiency")
                eff_cells.append(f"{eff:.2f}"
                                 if isinstance(eff, (int, float)) else "–")
                old = prev_pts.get(point_key(pt))
                delta = fmt_delta(old.get("seconds"), pt.get("seconds")) \
                    if old is not None else None
                dt_cells.append(delta if delta is not None else "–")
            label = series_label(skey)
            rows.append("| " + " | ".join([label, "efficiency"] + eff_cells)
                        + " |")
            if prev_pts:
                rows.append("| " + " | ".join([label, "Δseconds"] + dt_cells)
                            + " |")
                if warn:
                    warn_efficiency_regressions(bench, kernel, skey, spts,
                                                ps, prev_pts)
        if not rows:
            continue
        cols = ["series", "metric"] + [f"p={p}" for p in ps]
        lines += [f"<details><summary><b>{bench}</b> — {kernel} scaling "
                  f"curves</summary>", "",
                  "| " + " | ".join(cols) + " |",
                  "|" + "---|" * len(cols)]
        lines += rows
        lines += ["", "</details>", ""]
    return lines


COLLECTIVE_TABLE_TITLE = "collective latency vs P"
COLLECTIVE_METRIC = "latency_us"


def collective_rows(bench):
    """Point-keyed rows of the collectives latency table and the column
    index of its latency, or ({}, None).  Row keys are "<primitive>/p<P>"
    (bench_collectives.cpp)."""
    tables = bench.get("tables", []) if isinstance(bench, dict) else []
    for t in tables:
        if isinstance(t, dict) and t.get("title") == COLLECTIVE_TABLE_TITLE:
            cols = t.get("columns", [])
            if cols[:1] == ["point"] and COLLECTIVE_METRIC in cols:
                return rows_by_key(t), cols.index(COLLECTIVE_METRIC)
    return {}, None


def render_collective_curves(name, cur_bench, prev_bench=None):
    """Per-primitive latency-vs-P curve tables for BENCH_collectives.

    Regroups the "<primitive>/p<P>"-keyed rows into one table per
    primitive — latency_us across the swept location counts, each cell
    carrying its relative delta when the previous run measured the same
    point.  Purely presentational: regression warnings on this column
    already come from the generic row-matched table diff (lower-better via
    the "_us" suffix), so this renderer never warns.
    """
    rows, i = collective_rows(cur_bench)
    if not rows or i is None:
        return []
    prev_rows, _ = collective_rows(prev_bench if prev_bench else {})

    by_prim = {}
    for key, row in rows.items():
        prim, sep, ptag = key.rpartition("/p")
        if not sep or not ptag.isdigit():
            continue
        by_prim.setdefault(prim, {})[int(ptag)] = row

    bench = name.removeprefix("BENCH_")
    lines = []
    for prim in sorted(by_prim):
        prows = by_prim[prim]
        ps = sorted(prows)
        header = ["metric"] + [f"p={p}" for p in ps]
        cells = [COLLECTIVE_METRIC]
        for p in ps:
            row = prows[p]
            val = row[i] if i < len(row) else None
            if not isinstance(val, (int, float)):
                cells.append("–")
                continue
            old = prev_rows.get(f"{prim}/p{p}")
            delta = fmt_delta(old[i], val) \
                if old is not None and i < len(old) else None
            text = f"{val:.3g}"
            cells.append(f"{text} ({delta})" if delta is not None else text)
        lines += [f"<details><summary><b>{bench}</b> — {prim} latency vs P"
                  "</summary>", "",
                  "| " + " | ".join(header) + " |",
                  "|" + "---|" * len(header),
                  "| " + " | ".join(cells) + " |",
                  "", "</details>", ""]
    return lines


def main(argv=None):
    argv = sys.argv if argv is None else argv
    if len(argv) == 3 and argv[1] == "--render":
        benches = load_benches(argv[2])
        print("### Scaling curves")
        print()
        printed = 0
        for name in sorted(benches):
            lines = render_curves(name, benches[name], None, warn=False)
            lines += render_collective_curves(name, benches[name])
            if lines:
                print("\n".join(lines))
                printed += 1
        if printed == 0:
            print("_No sweep data found._")
        return 0
    if len(argv) != 3:
        print(__doc__)
        return 1
    prev, cur = load_benches(argv[1]), load_benches(argv[2])
    common = sorted(set(prev) & set(cur))
    if not common:
        print("_No previous bench artifacts to diff against._")
        return 0

    print("### Bench deltas vs previous main run")
    print()
    print("Relative change per numeric cell (current vs previous; sign "
          "follows the metric — lower is better for seconds columns).")
    print()
    printed = 0
    for name in common:
        ptables = {t["title"]: t for t in prev[name].get("tables", [])}
        for table in cur[name].get("tables", []):
            pt = ptables.get(table["title"])
            if pt is None or pt.get("columns") != table.get("columns"):
                continue
            cols = table["columns"]
            prow = rows_by_key(pt)
            lines = []
            for row in table.get("rows", []):
                if not row or str(row[0]) not in prow:
                    continue
                old = prow[str(row[0])]
                cells = [str(row[0])]
                for i in range(1, len(cols)):
                    delta = None
                    if i < len(row) and i < len(old):
                        delta = fmt_delta(old[i], row[i])
                        direction = column_direction(cols[i])
                        if (
                            direction != 0
                            and isinstance(old[i], (int, float))
                            and isinstance(row[i], (int, float))
                            and old[i] != 0
                        ):
                            pct = 100.0 * (row[i] - old[i]) / abs(old[i])
                            if pct * direction < -REGRESSION_PCT:
                                warn_regression(name.removeprefix("BENCH_"),
                                                table["title"], str(row[0]),
                                                cols[i], pct)
                    cells.append(delta if delta is not None else "–")
                lines.append("| " + " | ".join(cells) + " |")
            if not lines:
                continue
            bench = name.removeprefix("BENCH_")
            print(f"<details><summary><b>{bench}</b> — {table['title']}"
                  f"</summary>\n")
            print("| " + " | ".join(cols) + " |")
            print("|" + "---|" * len(cols))
            print("\n".join(lines))
            print("\n</details>\n")
            printed += 1
        metric_lines = diff_metrics(name, prev[name], cur[name])
        if metric_lines:
            print("\n".join(metric_lines))
            printed += 1
        latency_lines = diff_latency(name, prev[name], cur[name])
        if latency_lines:
            print("\n".join(latency_lines))
            printed += 1
        curve_lines = render_curves(name, cur[name], prev[name])
        if curve_lines:
            print("\n".join(curve_lines))
            printed += 1
        coll_lines = render_collective_curves(name, cur[name], prev[name])
        if coll_lines:
            print("\n".join(coll_lines))
            printed += 1
    if printed == 0:
        print("_No comparable tables found._")
    return 0


if __name__ == "__main__":
    sys.exit(main())
