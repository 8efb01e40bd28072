#!/usr/bin/env python3
"""paintplace benchmark: one command, four workloads, seeded inputs.

    python3 perfbench/run.py --workload interactive --seed 1 --seconds 40 --trace 0

Builds perfbench_driver (and the library it links) from the sources of the
checkout it sits in, runs one workload, checks the outputs, and prints a
human-readable table followed by one JSON line:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 the
per-layer metrics, and writes the benchmark's spans and the per-layer table
to .perfbench_out/. Exits non-zero when an output check fails or the driver
cannot be built or run. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402

DRIVER_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
STEAL_SAMPLE_S = 0.1   # how often /proc/stat is read while the driver runs


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def cpu_ticks():
    """(steal, total) jiffies from /proc/stat, or None where it does not exist."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def build_driver():
    """Configures once, then incrementally builds the driver. Returns its path."""
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_root, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench_driver", "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, timeout=BUILD_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise RuntimeError("build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench_driver")


def run_driver(cmd):
    """Runs the driver while a thread reads /proc/stat every STEAL_SAMPLE_S.

    Returns (its report, the readings as (monotonic s, steal, total) jiffies).
    Steal is time the hypervisor gave this machine's CPUs to someone else;
    the driver stamps its operations with the same monotonic clock, so the
    statistics can tell which ones the host stalled."""
    readings, stop = [], threading.Event()

    def sample():
        while True:
            ticks = cpu_ticks()
            if ticks is None:
                return
            readings.append((time.monotonic(),) + ticks)
            if stop.wait(STEAL_SAMPLE_S):
                return

    sampler = threading.Thread(target=sample, daemon=True)
    sampler.start()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S, cwd=ROOT)
    finally:
        stop.set()
        sampler.join()
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"perfbench_driver exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), readings


def driver_args(workload, cfg, record, seed, seconds, trace, spans_path):
    args = ["--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
            "--trace", "1" if trace else "0", "--setups", str(cfg.get("setups", record["setups"])),
            "--heatmap-every", str(record["heatmap_every"]),
            "--tolerance", repr(record["heatmap_tolerance"])]
    if "rates_rps" in cfg:
        args += ["--cycles", str(cfg["cycles"]),
                 "--rates", ",".join(repr(float(r)) for r in cfg["rates_rps"]),
                 "--shares", ",".join(repr(float(r)) for r in cfg["rung_shares"]),
                 "--hot-fraction", repr(cfg["hot_fraction"]),
                 "--hot-set", str(cfg["hot_set"])]
    if trace:
        args += ["--spans", spans_path]
    return args


# ---- end-to-end metrics ------------------------------------------------------------


def latency_metrics(lat, cfg, end_s=(), readings=()):
    """p10_ms, p50_ms and tail_ms of one set of per-operation times, and how
    they were taken: p10_ms over the operations that ended in low-steal
    seconds, at the percentile the ten-sample rule allows; tail_ms likewise."""
    if not lat:
        raise RuntimeError("no completed operations")
    p50 = statistics.median(lat)
    quiet = stats.quiet_values(lat, end_s, readings)
    q_low, low_ms = stats.low(quiet, cfg["low_percentile"])
    if q_low is None:
        q_low, low_ms = 0.5, statistics.median(quiet)
    q_tail, tail_ms = stats.tail(lat, cfg["tail_percentile"])
    if q_tail is None:
        q_tail, tail_ms = 0.5, p50
    return {"p10_ms": low_ms, "p50_ms": p50, "tail_ms": tail_ms}, {
        "low_percentile": q_low, "tail_percentile": q_tail, "quiet": len(quiet),
        "samples": len(lat)}


def swarm_metrics(raw, cfg):
    """The ladder is played several times per run; each statistic is taken
    per cycle and the median over cycles reported, so a stall or a slow
    spell of the host during one cycle does not decide the run."""
    rungs = raw["rungs"]
    verdicts = [stats.rung_verdict(r, cfg["latency_limit_ms"], cfg["tail_percentile"])
                for r in rungs]
    per_cycle = {}
    for r, v in zip(rungs, verdicts):
        c = per_cycle.setdefault(r["cycle"], {"p50": None, "tail": None, "goodput": None,
                                              "max_rate": 0.0})
        if r["rate"] == cfg["latency_rung_rps"]:
            m, got = latency_metrics(r["lat_ms"], cfg)
            c["p10"], c["p50"], c["tail"] = m["p10_ms"], m["p50_ms"], m["tail_ms"]
            c["q_low"], c["q"], c["samples"] = (got["low_percentile"], got["tail_percentile"],
                                                got["samples"])
        if r["rate"] == cfg["overload_rung_rps"]:
            c["goodput"] = r["ok"] / r["duration_s"]
        if v["passes"]:
            # The measured offered rate (what was sent), not the ladder value.
            c["max_rate"] = max(c["max_rate"], r["sent"] / r["duration_s"])
    cycles = list(per_cycle.values())
    below = [r for r in rungs if r["rate"] != cfg["overload_rung_rps"]]
    return {
        "p10_ms": statistics.median(c["p10"] for c in cycles),
        "p50_ms": statistics.median(c["p50"] for c in cycles),
        "tail_ms": statistics.median(c["tail"] for c in cycles),
        "ops_per_s": statistics.median(c["goodput"] for c in cycles),
        "max_rate_rps": statistics.median(c["max_rate"] for c in cycles),
        "ok_frac": sum(r["ok"] for r in below) / sum(r["scheduled"] for r in below),
    }, {"low_percentile": max(c["q_low"] for c in cycles),
        "tail_percentile": min(c["q"] for c in cycles),
        "samples": f"{len(cycles)} cycles x ~{cycles[0]['samples']}",
        "quiet": "every",
        "verdicts": verdicts,
        "error_frac": 1 - sum(r["ok"] for r in rungs) / sum(r["scheduled"] for r in rungs)}


def end_to_end(report, cfg, readings):
    raw = report["raw"]
    attempted, failed = report["attempted"], report["failed"]
    workload = report["workload"]
    if workload == "swarm":
        m, info = swarm_metrics(raw, cfg)
    else:
        m, info = latency_metrics(raw["lat_ms"], cfg, raw["end_s"], readings)
        if workload == "label":
            # build_dataset's own rate: placements per second of sweep wall time.
            m["ops_per_s"] = raw["sweep_placements"] * len(raw["sweep_s"]) / sum(raw["sweep_s"])
        else:
            m["ops_per_s"] = len(raw["lat_ms"]) / raw["elapsed_s"]
        # interactive: answered OK; train: steps; label: placements routed.
        ok = len(raw["lat_ms"]) if workload == "interactive" else attempted - failed
        m["ok_frac"] = ok / attempted if attempted else 0.0
        info["error_frac"] = 1.0 - m["ok_frac"]
    m["setup_s"] = statistics.median(report["setup_s"])
    m["peak_rss_mb"] = report["peak_rss_mb"]
    return m, info


# Printed after the gated metrics of BENCHMARK.json, unless it gates them.
REPORTED = [("p50_ms", "ms", "lower"), ("tail_ms", "ms", "lower"), ("ops_per_s", "1/s", "higher"),
            ("error_frac", "ratio", "lower"), ("max_rate_rps", "1/s", "higher")]


def print_end_to_end(report, cfg, metrics, info, spec):
    print(f"== perfbench {report['workload']} seed {report['seed']} "
          f"({cfg['loop']} loop, {cfg['connections']} connection(s)) ==")
    for entry in spec["end_to_end"]:
        name = entry["name"]
        print(f"  {name:<14} {metrics[name]:>14.4f} {entry['unit']:<6} ({entry['better']} is better)")
    print("  also reported, not gated (see perfbench/README.md):")
    gated = {entry["name"] for entry in spec["end_to_end"]}
    for name, unit, better in REPORTED:
        if name in gated:
            continue
        value = info["error_frac"] if name == "error_frac" else metrics.get(name)
        if value is not None:
            print(f"  {name:<14} {value:>14.4f} {unit:<6} ({better} is better)")
    print(f"  p10_ms is p{100 * info['low_percentile']:g} of the {info['quiet']} operations "
          f"that ended in low-steal seconds; tail_ms p{100 * info['tail_percentile']:g} "
          f"of all {info['samples']}"
          + (" (medians over cycles of the latency rung)" if report["workload"] == "swarm" else ""))
    if report["raw"].get("exhausted"):
        print("  note: every distinct input was used before --seconds ran out; the run is shorter")
    if report["workload"] == "swarm":
        print(f"  latency limit {cfg['latency_limit_ms']} ms on the tail; "
              f"ladder: cycle rate sent ok shed failed p50 tail lag_p50 lag_max backlog pass")
        for r, v in zip(report["raw"]["rungs"], info["verdicts"]):
            lag = r["lag_ms"] or [0.0]
            p50 = statistics.median(r["lat_ms"]) if r["lat_ms"] else math.nan
            print(f"    {r['cycle']:>2} {r['rate']:>7g} {r['sent']:>6} {r['ok']:>6} {r['shed']:>5} {r['failed']:>4} "
                  f"{p50:>8.2f} {v['tail_ms']:>8.2f} {statistics.median(lag):>7.2f} "
                  f"{max(lag):>7.2f} {'growing' if v['growing'] else 'steady':>8} "
                  f"{'yes' if v['passes'] else 'no'}")


# ---- per-layer metrics ------------------------------------------------------------


def per_layer(report, spec):
    """Every per-layer metric of BENCHMARK.json, measured or marked."""
    table = {}
    for entry in spec["per_layer"]:
        got = report["layers"].get(entry["name"])
        if got is None:
            table[entry["name"]] = {"value": 0.0, "unit": entry["unit"], "status": "not_run",
                                    "base": "not exercised by this workload"}
        else:
            table[entry["name"]] = dict(got, unit=entry["unit"])
    return table


def print_per_layer(report, table):
    print(f"== perfbench {report['workload']} seed {report['seed']}: per-layer (traced run) ==")
    for name, m in table.items():
        if m["status"] == "not_run":
            continue
        print(f"  {name:<36} {m['value']:>12.4f} {m['unit']:<10} {m['status']:<8} {m['base']}")
    skipped = [n for n, m in table.items() if m["status"] == "not_run"]
    print(f"  not exercised by {report['workload']}: {', '.join(skipped) or 'none'}")
    if report["workload"] == "interactive" and report["raw"].get("traced_lat_ms"):
        parts = sum(table[n]["value"] for n in ("net.self_ms", "serve.queue_wait_ms",
                                                 "serve.exec_ms"))
        p50 = statistics.median(report["raw"]["traced_lat_ms"])
        print(f"  net.self + queue_wait + exec = {parts:.3f} ms vs traced p50 {p50:.3f} ms "
              f"({100 * abs(parts - p50) / p50:.1f}% apart)")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "workloads.json")) as f:
        record = json.load(f)
    if args.workload not in record["workloads"]:
        log(f"unknown workload {args.workload}; have {', '.join(record['workloads'])}")
        return 2
    cfg = record["workloads"][args.workload]

    driver = build_driver()
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}")
    cmd = [driver] + driver_args(args.workload, cfg, record, args.seed, args.seconds,
                                 args.trace == 1, stem + "-spans.json")
    report, readings = run_driver(cmd)

    for check in report["checks"]:
        print(f"  check {check['name']}: {'ok' if check['ok'] else 'FAILED'} ({check['detail']})")
    correct = bool(report["checks_ok"])
    if len(readings) >= 2 and readings[-1][2] > readings[0][2]:
        steal = (readings[-1][1] - readings[0][1]) / (readings[-1][2] - readings[0][2])
        print(f"  host CPU steal during the run: {100 * steal:.1f}%")

    if args.trace:
        table = per_layer(report, spec)
        print_per_layer(report, table)
        with open(stem + "-layers.json", "w") as f:
            json.dump(table, f, indent=1, sort_keys=True)
        metrics = {n: {"value": m["value"], "unit": m["unit"]} for n, m in table.items()}
    else:
        values, info = end_to_end(report, cfg, readings)
        print_end_to_end(report, cfg, values, info, spec)
        metrics = {e["name"]: {"value": values[e["name"]], "unit": e["unit"]}
                   for e in spec["end_to_end"]}
    print(json.dumps({"correct": correct, "attempted": int(report["attempted"]),
                      "failed": int(report["failed"]), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, subprocess.SubprocessError, ValueError, KeyError) as e:
        log(f"perfbench: {e}")
        sys.exit(1)
