#!/usr/bin/env python3
"""The perf gate over one history of uvolt-run-v1 run records.

Usage:
    scripts/check_perf.py HISTORY.jsonl [--warn-only]
    scripts/check_perf.py --selftest

HISTORY is the committed seed (bench/timeline_seed.jsonl) followed by
the records fresh runs appended (bench_all, ext_serve, ext_fleet and
ext_membackends each append one per run to the timeline; a FleetEngine
appends one per run to its ledger's runs.jsonl). Every line must be a
uvolt-run-v1 record (src/harness/run_record.hh), or the exit status is
2. The newest record of every tool goes through two checks in one pass:

  floor  Against the tool's baseline record ("baseline": true). Every
         metric the baseline record carries fails when

             newest > baseline * (1 + tolerance)

         with tolerance 0.5 (a 50 % slack for machine-to-machine
         noise; an injected 2x slowdown still trips it) unless
         DEFAULT_OVERRIDES below says otherwise. The floor applies
         whatever machine either record came from. A zero baseline is
         skipped with a warning.

  drift  Against the tool's earlier records whose machine digest
         matches the newest record's (CPU, cores, ISA, compiler, build
         flags, telemetry state). Per metric:
           step   the newest value is a robust-z outlier against its
                  history, |x - median| / (1.4826 * MAD) > 3.5, AND it
                  moved more than 5 % (so a tight series with
                  near-zero MAD can't flag a 0.1 % wiggle). Median/MAD
                  instead of mean/stddev so one historic outlier can't
                  widen the band and hide a real regression.
           creep  slow compounding drift, each run inside the step
                  band: the EWMA (alpha 0.3) of the series moved more
                  than 10 % from the median of its oldest half.
         Latency/cost metrics fail upward; metrics naming "speedup",
         "throughput" or "rps" fail downward. A metric with fewer than
         5 comparable records is warming up and not gated; a tool with
         no earlier record on its machine prints "no comparable
         history". A record without metrics (a FleetEngine's) passes.

Exit status: 0 clean, 1 regression or drift, 2 bad input. --warn-only
reports but exits 0 (sanitizer builds, whose timings mean nothing).
--selftest checks both tests on synthetic histories with known
verdicts, and that the committed seed gates the expected quantities.
"""

import argparse
import json
import os
import sys

SCHEMA = "uvolt-run-v1"
SEED = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                    "bench", "timeline_seed.jsonl")

DEFAULT_TOLERANCE = 0.5

# Per-metric floor tolerances that ship with the repo. Tail latency of
# the serving daemon is inherently noisier than a calibrated
# micro-bench minimum: the p50/p99 rows come from ONE closed-loop run
# whose tail is set by whichever characterize campaigns land in it, so
# they get a wider band than the global default. In the other
# direction, the packed fault-domain kernels (readback, device count,
# sweep inner loop) are tight single-purpose loops whose
# min-of-repeats is very stable run to run, so they get a band
# NARROWER than the global 50 %: losing even a third of the
# popcount-path win is a regression worth stopping.
DEFAULT_OVERRIDES = {
    "e2e_p50_ms": 1.5,
    "e2e_p99_ms": 1.5,
    # Fleet fan-out wall time is set by OS thread scheduling of 1-3
    # coarse iterations; the min-of-repeats still swings ~2x run to run
    # on a shared machine, so these get the tail-latency band too.
    "BM_FleetFanout0Workers.min_ns": 1.5,
    "BM_FleetFanout1Worker.min_ns": 1.5,
    "BM_FleetFanout8Workers.min_ns": 1.5,
    "BM_MnistEvalBatched8Workers.min_ns": 1.5,
    "BM_BramReadbackAtVcrash.min_ns": 0.35,
    "BM_DeviceFaultCount.min_ns": 0.35,
    "BM_SweepInnerLoopTelemetryOff.min_ns": 0.35,
}

MIN_HISTORY = 5        # comparable runs before a metric is drift-gated
Z_THRESHOLD = 3.5      # robust-z cut for a step change
MIN_STEP = 0.05        # minimum relative change for a step flag
CREEP_THRESHOLD = 0.10  # relative EWMA drift that flags creep

# Metrics where larger is better; everything else is cost-like.
GOOD_UP_TOKENS = ("speedup", "throughput", "rps")


def is_good_up(metric):
    lowered = metric.lower()
    return any(token in lowered for token in GOOD_UP_TOKENS)


def median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def quantile(values, q):
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (position - low) * (ordered[high] -
                                              ordered[low])


def robust_spread(values, center):
    """Scaled-to-sigma spread; the IQR floor keeps a bimodal history
    (e.g. a series alternating between two machine states, MAD = 0)
    from turning every new sample into an infinite-z outlier."""
    mad = median([abs(v - center) for v in values])
    return max(1.4826 * mad,
               0.7413 * (quantile(values, 0.75) -
                         quantile(values, 0.25)))


def ewma(values, alpha=0.3):
    smoothed = values[0]
    for value in values[1:]:
        smoothed = alpha * value + (1.0 - alpha) * smoothed
    return smoothed


def analyze_series(values, good_up):
    """Drift findings for one metric's chronological history."""
    findings = []
    history, latest = values[:-1], values[-1]

    # -- step: newest value vs robust statistics of its past ----------
    center = median(history)
    spread = robust_spread(history, center)
    if center != 0.0:
        relative = (latest - center) / abs(center)
        worse = relative < 0 if good_up else relative > 0
        if worse and abs(relative) > MIN_STEP:
            z = abs(latest - center) / spread if spread > 0 else float(
                "inf")
            if z > Z_THRESHOLD:
                findings.append(
                    ("step", f"latest {latest:g} vs median {center:g} "
                             f"({relative:+.1%}, robust z "
                             f"{min(z, 999.0):.1f})"))

    # -- creep: smoothed present vs the oldest half -------------------
    baseline = median(values[:max(2, len(values) // 2)])
    smoothed = ewma(values)
    if baseline != 0.0:
        drift = (smoothed - baseline) / abs(baseline)
        worse = drift < 0 if good_up else drift > 0
        if worse and abs(drift) > CREEP_THRESHOLD:
            findings.append(
                ("creep", f"EWMA {smoothed:g} vs early median "
                          f"{baseline:g} ({drift:+.1%})"))
    return findings


def bad_input(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def load_records(path):
    """Every record of a history file, oldest first."""
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as err:
        bad_input(f"cannot read '{path}': {err}")
    records = []
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as err:
            bad_input(f"{path}:{number}: {err}")
        if not isinstance(record, dict) or record.get("schema") != SCHEMA:
            bad_input(f"{path}:{number}: not a {SCHEMA} record")
        records.append(record)
    return records


def metrics_of(record):
    return {name: float(value)
            for name, value in record.get("metrics", {}).items()
            if isinstance(value, (int, float))}


def digest_of(record):
    return record.get("machine", {}).get("digest", "unknown")


def fmt(value):
    return f"{value:,.6g}"


def table_lines(rows):
    widths = [max(len(str(cell)) for cell in col) for col in zip(*rows)]
    lines = []
    for i, row in enumerate(rows):
        lines.append("  ".join(str(c).ljust(w)
                               for c, w in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("-" * (sum(widths) + 2 * (len(widths) - 1)))
    return lines


def check_floor(tool, baseline, newest, out, problems):
    """The newest record against its tool's baseline record."""
    out.append(f"# floor: {tool} run {newest.get('run_id', '?')} vs "
               f"baseline {baseline.get('git_sha', '?')}")
    base_metrics = metrics_of(baseline)
    new_metrics = metrics_of(newest)
    notes = []
    table = [("metric", "baseline", "newest", "ratio", "tolerance",
              "verdict")]
    for name, base in base_metrics.items():
        tolerance = DEFAULT_OVERRIDES.get(name, DEFAULT_TOLERANCE)
        if name not in new_metrics:
            notes.append(f"note: {tool}/{name} is missing from the "
                         f"newest record (not gated)")
            continue
        cand = new_metrics[name]
        if base <= 0.0:
            # A zero/negative baseline makes the ratio meaningless; the
            # metric is ungated until the baseline is re-measured.
            table.append((name, fmt(base), fmt(cand), "n/a",
                          f"{tolerance:.2f}", "SKIP (zero baseline)"))
            notes.append(f"warning: {tool}/{name} has a zero baseline "
                         f"and was NOT gated")
            continue
        ratio = cand / base
        ok = ratio <= 1.0 + tolerance
        table.append((name, fmt(base), fmt(cand), f"{ratio:.3f}",
                      f"{tolerance:.2f}", "ok" if ok else "REGRESSION"))
        if not ok:
            problems.append(f"REGRESSION: {tool}/{name} is {ratio:.2f}x "
                            f"the baseline (tolerance {tolerance:.2f})")
    out.extend(table_lines(table) + notes)


def check_drift(tool, earlier, newest, out, problems):
    """The newest record against the tool's same-machine history."""
    digest = digest_of(newest)
    history = [metrics_of(r) for r in earlier if digest_of(r) == digest]
    if not history:
        out.append(f"# drift: {tool}: no comparable history for "
                   f"{digest}")
        return
    out.append(f"# drift: {tool}: {len(history)} earlier run(s) on "
               f"{digest}")
    for metric, latest in metrics_of(newest).items():
        values = [past[metric] for past in history if metric in past]
        values.append(latest)
        if len(values) < MIN_HISTORY:
            out.append(f"  {tool}/{metric}: {len(values)} run(s), "
                       f"warming up (gate starts at {MIN_HISTORY})")
            continue
        findings = analyze_series(values, is_good_up(metric))
        if not findings:
            out.append(f"  {tool}/{metric}: {len(values)} runs, stable "
                       f"(median {median(values):g})")
        for kind, detail in findings:
            problems.append(f"DRIFT [{kind}] {tool}/{metric}: {detail}")


def gate(records):
    """(report lines, problems) for a whole history."""
    out, problems = [], []
    tools = list(dict.fromkeys(r.get("tool", "?") for r in records))
    for tool in tools:
        own = [r for r in records if r.get("tool", "?") == tool]
        runs = [i for i, r in enumerate(own) if not r.get("baseline")]
        if not runs:
            continue
        newest = own[runs[-1]]
        baselines = [r for r in own if r.get("baseline")]
        if baselines:
            check_floor(tool, baselines[-1], newest, out, problems)
        check_drift(tool, own[:runs[-1]], newest, out, problems)
    return out, problems


def synthetic_record(tool, metrics, digest="machine-a", baseline=False):
    return {"schema": SCHEMA, "tool": tool, "run_id": "selftest",
            "machine": {"digest": digest}, "baseline": baseline,
            "metrics": metrics}


def selftest():
    """Both checks against histories with known verdicts."""
    cases = []

    # -- drift detector on bare series --------------------------------
    flat = [100.0 + (0.5 if i % 2 else -0.5) for i in range(10)]
    step = flat[:9] + [120.0]  # the injected 20 % slowdown
    creep = [100.0 + 3.0 * i for i in range(10)]  # 3 %/run compounding
    noisy = [100.0 + (-8.0 if i % 2 else 8.0) for i in range(10)]
    speedup_drop = [4.0 + (0.02 if i % 2 else -0.02) for i in range(9)]
    speedup_drop.append(3.0)  # a speedup collapsing is DOWN-bad
    for name, metric, values, expected in [
            ("flat", "wall_ms", flat, 0),
            ("step", "wall_ms", step, 1),
            ("creep", "wall_ms", creep, 1),
            ("noisy-stable", "wall_ms", noisy, 0),
            ("speedup-drop", "speedup", speedup_drop, 1)]:
        findings = analyze_series(values, is_good_up(metric))
        detail = "; ".join(f"{k}: {d}" for k, d in findings) or "stable"
        cases.append((name, expected, 1 if findings else 0, detail))

    # -- the floor and its tolerances ---------------------------------
    def floor_case(name, tool, metric, ratio, expected):
        records = [synthetic_record(tool, {metric: 100.0}, "seed-machine",
                                    baseline=True),
                   synthetic_record(tool, {metric: 100.0 * ratio})]
        _, problems = gate(records)
        cases.append((name, expected, len(problems),
                      "; ".join(problems) or "within tolerance"))

    floor_case("floor-tight", "bench_all", "BM_DeviceFaultCount.min_ns",
               1.36, 1)
    floor_case("floor-tail", "ext_serve", "e2e_p99_ms", 2.4, 0)
    floor_case("floor-default", "bench_all", "BM_KMeansClustering.min_ns",
               1.51, 1)
    floor_case("floor-default-ok", "bench_all",
               "BM_KMeansClustering.min_ns", 1.49, 0)

    # -- drift compares only records of the same machine --------------
    history = [synthetic_record("ext_fleet", {"serial_ms": value})
               for value in flat[:9]]
    for name, digest, expected in [("step-foreign", "machine-b", 0),
                                   ("step-same", "machine-a", 1)]:
        newest = synthetic_record("ext_fleet", {"serial_ms": 120.0}, digest)
        out, problems = gate(history + [newest])
        detail = "; ".join(problems) or "clean"
        if expected == 0 and not any(
                "no comparable history for machine-b" in line
                for line in out):
            problems.append("missing 'no comparable history' line")
        cases.append((name, expected, len(problems), detail))

    # -- the committed seed gates exactly the expected quantities -----
    seed = {r["tool"]: metrics_of(r) for r in load_records(SEED)
            if r.get("baseline")}
    bench = seed.get("bench_all", {})
    serve = seed.get("ext_serve", {})
    pinned = (len(bench) == 22 and
              all(name.endswith(".min_ns") for name in bench) and
              set(serve) == {"e2e_p50_ms", "e2e_p99_ms", "req_cost_ms"} and
              set(DEFAULT_OVERRIDES) <= set(bench) | set(serve))
    cases.append(("seed-baselines", 0, 0 if pinned else 1,
                  f"{len(bench)} bench_all + {len(serve)} ext_serve "
                  f"floor metrics"))

    failures = 0
    for name, expected, got, detail in cases:
        verdict = "ok" if got == expected else "SELFTEST FAILURE"
        print(f"  {name:>16}: expect {'fail' if expected else 'pass'}, "
              f"got {'fail' if got else 'pass'} ({detail}) {verdict}")
        failures += got != expected
    if failures:
        print(f"selftest: {failures} case(s) FAILED", file=sys.stderr)
        return 1
    print("selftest: all cases behave")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("history", nargs="?",
                        help="uvolt-run-v1 JSONL history")
    parser.add_argument("--warn-only", action="store_true",
                        help="report problems but exit 0")
    parser.add_argument("--selftest", action="store_true",
                        help="verify the gate on synthetic histories "
                             "and exit")
    args = parser.parse_args()

    if args.selftest:
        return selftest()
    if not args.history:
        parser.error("a history file is required")

    records = load_records(args.history)
    if not records:
        print("empty history: nothing to gate")
        return 0
    out, problems = gate(records)
    print("\n".join(out))
    for problem in problems:
        print(problem, file=sys.stderr)
    if not problems:
        print("perf gate: clean")
        return 0
    if args.warn_only:
        print("warn-only mode: not failing the build", file=sys.stderr)
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
