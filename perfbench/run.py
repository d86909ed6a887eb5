#!/usr/bin/env python3
"""Run one benchmark workload of the fpga-uvolt reproduction.

    python3 perfbench/run.py --workload characterize --seed 5 \
        --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a source checkout. The first run configures and
builds the repository's libraries plus the benchmark driver under
perfbench/out/build (with the repository's own CMake flags) and trains
the MNIST model into perfbench/out/cache once; later runs reuse both.

Each run starts the driver three times: twice to sample set-up time
alone, once to measure. `--trace 0` reports the end-to-end metrics of
BENCHMARK.json, `--trace 1` the per-layer ones from a separate traced
run. Human-readable lines come first; the last line of stdout is one
JSON object {correct, attempted, failed, metrics}. The exit status is
nonzero when a correctness check failed or the checkout has no source.

    python3 perfbench/run.py --selftest

checks the benchmark itself (every metric emitted with its unit, call
counts that repeat for a seed, a wrong expected value that fails).
"""

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT = os.path.join(BENCH_DIR, "out")
BUILD = os.path.join(OUT, "build")
BINARY = os.path.join(BUILD, "uvolt_perfbench")
SETUP_SAMPLES = 3          # set-up time: median of this many processes
RUN_TIMEOUT_S = 170        # per driver process, well inside 180 s
BUILD_TIMEOUT_S = 840      # first run: configure + build + model training


def fail_setup(message):
    """No result line: the checkout cannot run the benchmark."""
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def child_env():
    """The environment of every child: no inherited UVOLT_* switches
    (telemetry, profiler, batch width stay at their defaults, i.e. off),
    and the model cache, ledger, timeline and temporary files all under
    perfbench/out."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("UVOLT_")}
    env["UVOLT_CACHE_DIR"] = os.path.join(OUT, "cache")
    env["UVOLT_LEDGER_DIR"] = os.path.join(OUT, "ledger")
    env["UVOLT_TIMELINE"] = os.path.join(OUT, "timeline.jsonl")
    env["TMPDIR"] = os.path.join(OUT, "tmp")
    return env


def run_child(cmd, timeout, **kwargs):
    """subprocess.run in its own process group; on timeout the whole group
    (make's compilers too) is killed and reaped before fail_setup()."""
    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)
    with subprocess.Popen(cmd, env=child_env(), cwd=ROOT, text=True,
                          start_new_session=True, **kwargs) as child:
        try:
            out, err = child.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            fail_setup("timed out after %d s: %s" % (timeout, " ".join(cmd)))
    return child.returncode, out or "", err or ""


def build():
    """Configure once, then an incremental build of the driver only."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail_setup("no repository source next to perfbench/ "
                   "(expected CMakeLists.txt and src/ in %s)" % ROOT)
    log_path = os.path.join(OUT, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", ROOT, "-B", BUILD,
                      "-DCMAKE_EXPORT_COMPILE_COMMANDS=ON",
                      "-DCMAKE_PROJECT_INCLUDE=" +
                      os.path.join(BENCH_DIR, "cmake", "attach.cmake")])
    steps.append(["cmake", "--build", BUILD, "--target", "uvolt_perfbench",
                  "-j", str(os.cpu_count() or 1)])
    os.makedirs(OUT, exist_ok=True)
    with open(log_path, "a") as log:
        for step in steps:
            code, _, _ = run_child(step, BUILD_TIMEOUT_S, stdout=log,
                                   stderr=subprocess.STDOUT)
            if code != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail_setup("build failed: " + " ".join(step))
    # Train (or just load) the cached model outside all timing.
    code, _, err = run_child([BINARY, "warm", "--out", OUT], BUILD_TIMEOUT_S,
                             stdout=subprocess.DEVNULL,
                             stderr=subprocess.PIPE)
    if code != 0:
        sys.stderr.write(err)
        fail_setup("model cache warm-up failed")


def run_driver(workload, seed, seconds, trace, extra=()):
    """One driver process; returns (exit code, stdout lines, record)."""
    cmd = [BINARY, workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out", OUT] + list(extra)
    code, out, err = run_child(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE)
    lines = out.splitlines()
    record = None
    if lines:
        try:
            record = json.loads(lines[-1])
        except json.JSONDecodeError:
            record = None
    if record is None:
        sys.stderr.write(err[-4000:])
        fail_setup("driver printed no result: " + " ".join(cmd))
    return code, lines[:-1], record


def fingerprint():
    """Which machine and build produced a result."""
    cpu = "unknown"
    flags = []
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name") and cpu == "unknown":
                    cpu = line.split(":", 1)[1].strip()
                if line.startswith("flags") and not flags:
                    flags = line.split(":", 1)[1].split()
    except OSError:
        pass
    isa = sorted(f for f in flags
                 if re.match(r"(sse4_2|avx|avx2|fma|bmi2|avx512\w*)$", f))
    cache = {}
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                m = re.match(r"(\w+):\w+=(.*)", line.strip())
                if m:
                    cache[m.group(1)] = m.group(2)
    except OSError:
        pass
    compile_flags = "unknown"
    try:
        with open(os.path.join(BUILD, "compile_commands.json")) as f:
            for entry in json.load(f):
                if entry["file"].endswith("perfbench/src/main.cc"):
                    words = entry["command"].split()
                    compile_flags = " ".join(
                        w for w in words[1:] if w.startswith(("-O", "-m",
                                                              "-f", "-D", "-g")))
    except (OSError, ValueError, KeyError):
        pass
    try:
        compiler = subprocess.run([cache.get("CMAKE_CXX_COMPILER", "c++"),
                                   "--version"], capture_output=True,
                                  text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        compiler = "unknown"
    sha = ""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                                 cwd=ROOT, capture_output=True,
                                 text=True).stdout.strip()
        except OSError:
            pass
    digest = hashlib.sha256()
    for base in ("CMakeLists.txt", "src"):
        path = os.path.join(ROOT, base)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, n) for d, _, ns in os.walk(path) for n in ns)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    telemetry = cache.get("UVOLT_TELEMETRY", "ON")
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "isa": isa,
        "compiler": compiler,
        "build_type": cache.get("CMAKE_BUILD_TYPE") or "repository default",
        "compile_flags": compile_flags,
        "uvolt_telemetry": "compiled %s, runtime off" % telemetry,
        "git_sha": sha or "unknown (not a git checkout)",
        "source_sha256": digest.hexdigest()[:16],
        "kernel": platform.release(),
    }


def measure(args):
    """The driver processes of one run, merged into one record: set-up
    time is the median over SETUP_SAMPLES processes (the measuring one
    plus --setup-only ones); everything else comes from the measuring
    process."""
    setup_samples = []
    for _ in range(SETUP_SAMPLES - 1):
        _, _, record = run_driver(args.workload, args.seed, args.seconds, 0,
                                  ["--setup-only"])
        setup_samples.append(record["setup_s"])
    code, lines, record = run_driver(args.workload, args.seed, args.seconds,
                                     args.trace)
    setup_samples.append(record["setup_s"])
    for line in lines:
        if line.startswith("#"):  # notes; metrics are printed by run()
            print(line)
    print("# setup_s samples: " + ", ".join("%.4f" % s for s in setup_samples))
    metrics = dict(record["metrics"])
    metrics["setup_s"] = {"value": statistics.median(setup_samples),
                          "unit": "s"}
    return {"correct": bool(record["correct"]) and code == 0,
            "attempted": int(record["attempted"]),
            "failed": int(record["failed"]), "metrics": metrics}


def run(args, spec):
    build()
    record = measure(args)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    measured = record["metrics"]
    metrics = {}
    for metric in declared:
        name = metric["name"]
        if name in measured:
            metrics[name] = {"value": measured[name]["value"],
                             "unit": metric["unit"]}
        elif args.trace:
            # A layer this workload never calls: a measured zero.
            metrics[name] = {"value": 0, "unit": metric["unit"]}
        else:
            fail_setup("driver did not report end-to-end metric " + name)
    stray = sorted(set(measured) - set(metrics) -
                   ({"setup_s", "peak_rss_mb"} if args.trace else set()))
    correct = record["correct"] and not stray

    fp = fingerprint()
    print("# fingerprint: " + json.dumps(fp, sort_keys=True))
    attempted = max(1, record["attempted"])
    failed = record["failed"]
    print("# fail_ratio = %.6f (%d of %d operations)" %
          (failed / attempted, failed, attempted))
    if stray:
        print("# undeclared metrics from the driver: " + ", ".join(stray))
    for name, m in metrics.items():
        print("%-44s %16.6f %s" % (name, m["value"], m["unit"]))

    results = os.path.join(OUT, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, "%s-seed%d-trace%d.json" % (
            args.workload, args.seed, args.trace)), "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "fingerprint": fp, "correct": correct,
                   "attempted": attempted, "failed": failed,
                   "metrics": metrics, "time": time.time()}, f, indent=1)

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.stdout.flush()
    return 0 if correct else 1


def selftest(spec):
    """The benchmark's checks on itself, at the smallest size."""
    build()
    problems = []
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    for workload in [w["name"] for w in spec["workloads"]]:
        calls = []
        for trace in (0, 1, 1):
            code, _, record = run_driver(workload, 7, 1, trace)
            if code != 0 or not record["correct"]:
                problems.append("%s trace %d: not correct" % (workload, trace))
            for name, m in record["metrics"].items():
                if name == "setup_s":
                    continue
                if units.get(name) != m["unit"]:
                    problems.append("%s: metric %s (%s) not declared with "
                                    "that unit" % (workload, name, m["unit"]))
            declared = spec["per_layer"] if trace else spec["end_to_end"]
            for metric in declared:
                owned = metric["name"] in record["metrics"]
                if not trace and not owned and metric["name"] != "setup_s":
                    problems.append("%s: %s missing" % (workload,
                                                        metric["name"]))
            if trace:
                calls.append({k: v["value"] for k, v in
                              record["metrics"].items()
                              if k.endswith(".calls")})
        if calls[0] != calls[1]:
            diff = sorted(k for k in calls[0] if calls[0][k] != calls[1].get(k))
            problems.append("%s: per-layer call counts differ between two "
                            "traced runs of one seed: %s" % (workload, diff))
        code, _, record = run_driver(workload, 7, 1, 0, ["--wrong-expected"])
        if code == 0 or record["correct"]:
            problems.append("%s: a wrong expected value did not fail the run"
                            % workload)
        print("selftest %s: %s" % (workload, "ok" if not problems else
                                   "problems so far: %d" % len(problems)))
    for problem in problems:
        print("selftest: " + problem)
    print("selftest: %s" % ("PASS" if not problems else "FAIL"))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--seconds", type=int,
                        help="measurement budget (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    try:
        spec = load_spec()
    except (OSError, ValueError) as error:
        fail_setup("cannot read BENCHMARK.json: %s" % error)
    if not shutil.which("cmake"):
        fail_setup("cmake not found")
    if args.selftest:
        return selftest(spec)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        # Every workload, end to end and then traced; nonzero if any
        # run failed a correctness check.
        status = 0
        for name in names:
            for trace in (0, 1):
                print("## %s --trace %d" % (name, trace))
                status |= run(argparse.Namespace(
                    **{**vars(args), "workload": name, "trace": trace}), spec)
        return status
    if args.workload not in names:
        fail_setup("--workload must be 'all' or one of " + ", ".join(names))
    return run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
