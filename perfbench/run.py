#!/usr/bin/env python3
"""Repository benchmark: builds the perfbench binary from source and runs
one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --steadiness [--runs 10] [--workloads a,b] [--seconds s]
    python3 perfbench/run.py --self-test

A run prints one JSON object as the last line of standard output:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer
ones. The command exits non-zero when any operation's result is wrong.

setup_s is measured here, from outside the binary: a set-up-only perfbench
process (input generation, serial references, warm-up, exit) is started
SETUP_SAMPLES times and the median of its CPU seconds (user + system, all
threads, from wait4) is reported. CPU time is used because wall time on
this kind of shared, preempted host swings by 2x from minute to minute.

Everything it builds or writes goes under $CARGO_TARGET_DIR (default
.bench_build) in the checkout.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 5
RUN_TIMEOUT_S = 150


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def out_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures and builds the binary; returns its path or None."""
    build_dir = out_dir()
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(build_dir, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    for cmd in (configure, ["cmake", "--build", build_dir, "-j", "4"]):
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("perfbench: build step failed: " + " ".join(cmd))
            return None
    return os.path.join(build_dir, "perfbench")


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def setup_cpu_s(binary, workload, seed):
    """CPU seconds of one set-up-only perfbench process, or None on failure."""
    proc = subprocess.Popen([binary, "--workload", workload, "--seed",
                             str(seed), "--seconds", "1", "--trace", "0",
                             "--setup-only"], stdout=subprocess.PIPE,
                            text=True, cwd=ROOT)
    timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    timer.start()
    ready = "READY" in proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if not ready or proc.returncode != 0:
        log("perfbench: set-up of %s failed (exit %d)" % (workload,
                                                          proc.returncode))
        return None
    return usage.ru_utime + usage.ru_stime


def run_binary(binary, workload, seed, seconds, trace, extra=()):
    """The set-up samples plus one measured run; returns the binary's parsed
    result with the samples attached, or None if it crashed."""
    setups = []
    for _ in range(SETUP_SAMPLES):
        cpu = setup_cpu_s(binary, workload, seed)
        if cpu is None:
            return None
        setups.append(cpu)
    args = ["--workload", workload, "--seed", str(seed), "--seconds",
            str(seconds), "--trace", str(trace)] + list(extra)
    try:
        done = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              text=True, cwd=ROOT,
                              timeout=seconds + RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run timed out")
        return None
    lines = [l for l in done.stdout.splitlines() if l.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("perfbench: run exited %d without a result" % done.returncode)
        return None
    result["exit_code"] = done.returncode
    result["setup_samples_s"] = setups
    with open(os.path.join(out_dir(), "result_%s_seed%d_trace%d.json" % (
            workload, seed, trace)), "w") as f:
        json.dump(result, f, indent=1)
    return result


def contract_result(result, spec, trace):
    """The binary's result reduced to the benchmark contract's keys."""
    metrics = dict(result["metrics"])
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    if not trace:
        metrics["setup_s"] = {
            "value": statistics.median(result["setup_samples_s"]),
            "unit": "s"}
    names = [m["name"] for m in wanted]
    missing = [n for n in names if n not in metrics]
    if missing:
        raise SystemExit("perfbench: the binary did not report " +
                         ", ".join(missing))
    return {"correct": bool(result["correct"]),
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": {n: metrics[n] for n in names}}


def print_table(out, result):
    """Human-readable report on stderr: the contract metrics, fail_ratio,
    and the binary's diagnostics that carry no bound (wall-clock figures)."""
    attempted = out["attempted"]
    log("fail_ratio = %d / %d = %.6f" % (out["failed"], attempted,
                                         out["failed"] / attempted))
    if result.get("error"):
        log("first failure: " + result["error"])
    for name, m in out["metrics"].items():
        log("  %-36s %16.6g %s" % (name, m["value"], m["unit"]))
    for name, m in result["metrics"].items():
        if name not in out["metrics"]:
            log("  %-36s %16.6g %s  (diagnostic)" % (name, m["value"],
                                                     m["unit"]))


def quartile_spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def steadiness(args, spec):
    """Runs each workload --runs times with seeds 1..runs and prints the
    median and quartile spread of every end-to-end metric next to its
    bound. The spread must stay within the bound (setup_s excepted)."""
    workloads = (args.workloads.split(",") if args.workloads else
                 [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    report = {}
    ok = True
    for w in workloads:
        values = {}
        for seed in range(1, args.runs + 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", w,
                   "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", "0"]
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  stderr=subprocess.DEVNULL, cwd=ROOT)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                log("%s seed %d: failed (exit %d)" % (w, seed, done.returncode))
                ok = False
                continue
            res = json.loads(lines[-1])
            with open(os.path.join(out_dir(), "result_%s_seed%d_trace0.json"
                                   % (w, seed))) as f:
                full = json.load(f)["metrics"]
            full.update(res["metrics"])
            for name, m in full.items():
                values.setdefault(name, []).append(m["value"])
            log("%s seed %d: %s" % (w, seed, " ".join(
                "%s=%.4g" % (k, v["value"]) for k, v in full.items())))
        report[w] = {}
        log("\n%s: %d runs of %ss" % (w, args.runs, seconds))
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        for name, vals in values.items():
            if len(vals) < 2:
                ok = False
                continue
            med, q1, q3, spread = quartile_spread(vals)
            bound = bounds.get(name)
            if bound is None:
                verdict = "(diagnostic, no bound)"
            elif name == "setup_s":
                verdict = "(spread not checked)"
            else:
                verdict = ("ok" if spread <= bound / 3 else
                           "WITHIN BOUND" if spread <= bound else "TOO WIDE")
                ok = ok and spread <= bound
            report[w][name] = {"median": med, "q1": q1, "q3": q3,
                               "iqr_over_median": spread, "bound": bound,
                               "values": vals}
            log("  %-28s median %-12.6g IQR/median %.4f  bound %-5s %s" % (
                name, med, spread, bound, verdict))
        missing = [n for n in bounds if n not in values]
        if missing:
            log("  missing metrics: " + ", ".join(missing))
            ok = False
    os.makedirs(out_dir(), exist_ok=True)
    with open(os.path.join(out_dir(), "steadiness.json"), "w") as f:
        json.dump(report, f, indent=1)
    return 0 if ok else 1


def check_span_file(path):
    """Independent re-check of the traced run's span dump: no negative
    duration and every child inside its parent and its operation."""
    with open(path) as f:
        spans = json.load(f)
    for s in spans:
        if s["end_us"] < s["start_us"]:
            return "negative duration in %s" % s["name"]
        if s["parent"] >= 0:
            p = spans[s["parent"]]
            if s["start_us"] < p["start_us"] or s["end_us"] > p["end_us"]:
                return "%s outside its parent %s" % (s["name"], p["name"])
            if s["op"] != p["op"]:
                return "%s crosses operations" % s["name"]
    if not any(s["name"] == "op.run" for s in spans):
        return "no operation spans"
    return ""


def self_test(binary, spec):
    """A planted wrong expectation must be counted as exactly one failure
    and fail the run; a clean traced run must report no negative time and
    spans that nest inside their operations."""
    ok = True
    for w in (x["name"] for x in spec["workloads"]):
        res = run_binary(binary, w, 7, 1, 1, ["--corrupt-op", "2"])
        planted = (res is not None and res["failed"] == 1 and
                   res["attempted"] >= 2 and not res["correct"] and
                   res["exit_code"] != 0)
        log("%s planted failure counted once: %s" % (
            w, "ok" if planted else "FAIL %s" % (res and {
                k: res[k] for k in ("attempted", "failed", "exit_code")})))
        spans_path = os.path.join(out_dir(), "selftest_spans_%s.json" % w)
        res = run_binary(binary, w, 7, 1, 1, ["--spans-out", spans_path])
        clean = res is not None and res["correct"] and res["failed"] == 0
        values = [m["value"] for m in (res or {}).get("metrics", {}).values()]
        non_negative = bool(values) and all(v >= 0 for v in values)
        span_problem = check_span_file(spans_path) if clean else "run failed"
        log("%s clean traced run: correct=%s non-negative=%s spans=%s" % (
            w, clean, non_negative, span_problem or "ok"))
        ok = ok and planted and clean and non_negative and not span_problem
    log("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steadiness", action="store_true")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    binary = build()
    if binary is None:
        return 1
    spec = benchmark_spec()
    if args.steadiness:
        return steadiness(args, spec)
    if args.self_test:
        return self_test(binary, spec)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        log("perfbench: --workload must be one of " + ", ".join(names))
        return 2
    seconds = args.seconds or spec["run_seconds"]
    result = run_binary(binary, args.workload, args.seed, seconds, args.trace)
    if result is None:
        return 1
    out = contract_result(result, spec, args.trace)
    print_table(out, result)
    print(json.dumps(out), flush=True)
    return 0 if out["correct"] and result["exit_code"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
