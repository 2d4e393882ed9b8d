#!/usr/bin/env python3
"""The repository benchmark: builds perfbench and runs one workload.

    python3 perfbench/run.py --workload erb-clique --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The first run configures and builds the
benchmark (and the libraries under src/) into .bench_build/perfbench.

--trace 0 runs fresh-process instances of the workload until --seconds is
spent and reports the end-to-end metrics (medians over instances; latency
percentiles per instance, then their median). --trace 1 runs one untraced
and one traced instance of the same seed, checks that tracing changed no
deterministic result, and reports the per-layer metrics: registry counters,
benchmark spans at the host boundary, and isolated per-operation probes.

Human-readable lines go to stdout; the last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The exit code is non-zero when any output check fails, and a run that
cannot build or start prints no result at all. README.md in this directory
describes the workloads and the metrics.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
INSTANCE_TIMEOUT_S = 150

WORKLOADS = ("erb-clique", "erng-attack", "tcp-ack")
# Toy sizes for --selftest: same code paths and checks, a second of work.
SELFTEST_FLAGS = {
    "erb-clique": ["--n", "16"],
    "erng-attack": ["--n", "9", "--byz", "4"],
    "tcp-ack": ["--requests-a", "1000", "--requests-b", "1000"],
}


def declared_units(kind):
    """{metric name: unit} of one metric list in BENCHMARK.json, the single
    definition of the metrics run.py must print."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


# Deterministic results the traced run must reproduce exactly.
TRANSPARENT_COUNTERS = (
    "net.sends", "net.delivered", "net.dropped", "sim.events_fired",
    "sgx.ecalls", "sgx.ocalls", "channel.sealed", "channel.opened",
    "channel.mac_failed", "channel.replay_rejected", "channel.window_overflow",
)


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("repository sources (src/) not found beside perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "perfbench"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=880)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise BenchError("build failed: " + " ".join(cmd))


def child_env():
    # Defaults as users get them: no SGXP2P_* overrides reach the program.
    return {k: v for k, v in os.environ.items() if not k.startswith("SGXP2P_")}


def run_instance(workload, seed, extra):
    cmd = [BINARY, workload, "--seed", str(seed)] + extra
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              env=child_env(), timeout=INSTANCE_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} instance timed out") from exc
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    if proc.returncode not in (0, 1) or not lines:
        log(proc.stderr[-4000:])
        raise BenchError(f"{workload} instance failed (exit {proc.returncode})")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise BenchError(f"{workload} printed no result") from exc


def counters(result):
    return result["registry"]["counters"]


def gauges(result):
    return result["registry"]["gauges"]


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


class Report:
    """Collects metrics and checks, prints them, and emits the result line."""

    def __init__(self, title, units):
        self.title = title
        self.units = units
        self.metrics = {}
        self.notes = {}
        self.checks = []

    def metric(self, name, value, note=""):
        if name not in self.units:
            raise BenchError(f"metric {name} is not declared in BENCHMARK.json")
        self.metrics[name] = {"value": value, "unit": self.units[name]}
        self.notes[name] = note

    def check(self, name, ok, detail=""):
        self.checks.append((name, bool(ok), detail))

    def add_instance_checks(self, result):
        for c in result["checks"]:
            self.check(c["name"], c["ok"], c["detail"])

    @property
    def correct(self):
        return all(ok for _, ok, _ in self.checks)

    def print(self, attempted, failed, extra_lines=()):
        missing = set(self.units) - set(self.metrics)
        if missing:
            raise BenchError("metrics not computed: " + ", ".join(sorted(missing)))
        print(self.title)
        for name, m in self.metrics.items():
            print(f"  {name:<34} {m['value']:>16.6g} {m['unit']:<6} "
                  f"{self.notes[name]}")
        for line in extra_lines:
            print("  " + line)
        # Repeated instance checks collapse to one line each.
        seen = {}
        for name, ok, detail in self.checks:
            entry = seen.setdefault(name, [0, 0, detail])
            entry[0 if ok else 1] += 1
            if not ok:
                entry[2] = detail
        for name, (passed, failed_n, detail) in seen.items():
            status = "ok  " if failed_n == 0 else "FAIL"
            print(f"  check {status} {name}: {detail} "
                  f"({passed}/{passed + failed_n})")
        print(json.dumps({"correct": self.correct, "attempted": attempted,
                          "failed": failed, "metrics": self.metrics}))
        sys.stdout.flush()


# ---------------------------------------------------------------------------
# End-to-end run (--trace 0)

def end_to_end(workload, seed, seconds, extra):
    results = []
    start = time.monotonic()
    while True:
        results.append(run_instance(workload, seed, extra))
        elapsed = time.monotonic() - start
        if elapsed + elapsed / len(results) > seconds:
            break
    report = Report(f"perfbench {workload} seed={seed}: {len(results)} "
                    f"fresh-process instances in {elapsed:.1f} s",
                    declared_units("end_to_end"))
    k = len(results)
    med = f"median of {k}"
    setup = statistics.median(r["setup_s"] for r in results)
    rss = statistics.median(r["peak_rss_kb"] / 1024.0 for r in results)
    if workload == "tcp-ack":
        rate = statistics.median(2 * r["roundtrips_b"] / r["phase_b_s"]
                                 for r in results)
        samples = [sorted(r["rtt_us"]) for r in results]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        what = "phase-A request->ACK round trip"
        ops = "requests"
        p99_name = "rtt_us_p99"
        extra_lines = [
            f"roundtrips_per_s = {rate / 2:.6g} 1/s (phase B, window "
            f"{results[0]['window']}, {med})"]
    else:
        rate = statistics.median(counters(r)["net.sends"] / r["run_s"]
                                 for r in results)
        samples = [sorted(r["output_us"]) for r in results]
        attempted = sum(r["honest"] for r in results)
        failed = sum(r["failed"] for r in results)
        what = "start() to a node's output, per honest node"
        ops = "honest outputs"
        p99_name = "latency_us_p99"
        extra_lines = [
            f"run_s = {statistics.median(r['run_s'] for r in results):.6g} s "
            f"({med}); messages = {counters(results[0])['net.sends']}"]
    for r in results:
        report.add_instance_checks(r)
    if not all(samples):
        raise BenchError(f"{workload}: an instance gave no latency samples")
    # Percentiles per instance, then the median over instances: one slow
    # instance moves a pooled tail far more than it moves this.
    per_instance = min(len(s) for s in samples)

    def tail(q):
        value = statistics.median(percentile(s, q) for s in samples)
        beyond = per_instance - math.ceil(q / 100.0 * per_instance)
        return value, (f"{med} instances of n>={per_instance}, {beyond} "
                       f"samples beyond per instance")

    report.metric("setup_s", setup, med)
    report.metric("msgs_per_s", rate, med)
    report.metric("peak_rss_mb", rss, f"VmHWM, {med}")
    report.metric("latency_us_p50", tail(50)[0],
                  f"{what}; {med} instances of n>={per_instance}")
    report.metric("latency_us_p90", *tail(90))
    # p99 is printed, not a metric: on a shared 4-vCPU VM about 1% of
    # I/O-thread wake-ups are delayed by the host, so tcp-ack's p99 sits on
    # the knee of a bimodal distribution and swung 51-121 us between
    # back-to-back instances while p90 held within 7%.
    p99, p99_note = tail(99)
    extra_lines.append(f"{p99_name} = {p99:.6g} us ({p99_note})")
    fail_pct = 100.0 * failed / attempted if attempted else 100.0
    extra_lines.append(f"fail_pct = {fail_pct:.6g} % ({failed} of "
                       f"{attempted} {ops} failed)")
    report.print(attempted, failed, extra_lines)
    return report.correct


# ---------------------------------------------------------------------------
# Per-layer run (--trace 1)

def zero_layers():
    """Every per-layer metric, 0 until the workload's path sets it."""
    return dict.fromkeys(declared_units("per_layer"), 0)


def sim_layers(plain, traced, report):
    """Per-layer metrics of a simulated workload from its untraced run
    (counters, RSS, pool) and its traced run (spans, probes)."""
    c, g = counters(plain), gauges(plain)
    tc = counters(traced)
    sp, pr = traced["spans"], traced["probes"]
    values = zero_layers()

    # Transparency: tracing must not change any deterministic result.
    diffs = [k for k in TRANSPARENT_COUNTERS if c.get(k, 0) != tc.get(k, 0)]
    for key in ("rounds", "virtual_decide_ms", "failed", "halted"):
        if plain[key] != traced[key]:
            diffs.append(key)
    report.check("traced run reproduces the untraced run", not diffs,
                 "identical" if not diffs else "differs: " + ", ".join(diffs))

    # Span accounting: the rounds cover the run; self times add up.
    # Outside the rounds are only start() and the per-round output polling,
    # which take a few microseconds: the 1% bound needs a run of 10 ms or
    # more, so toy-sized runs get 100 µs of slack instead.
    round_total = sp["round_total_ns"]
    run_ns = traced["run_s"] * 1e9
    cover = round_total / run_ns
    report.check("round spans cover the run phase",
                 run_ns - round_total <= max(0.01 * run_ns, 1e5),
                 f"{100 * cover:.2f}% of {traced['run_s']:.3f} s")
    parts = sp["round_self_ns"] + sp["deliver_self_ns"] + sp["forward_total_ns"]
    report.check("round self + deliver self + forward == round total",
                 parts == round_total and sp["outside_rounds"] == 0,
                 f"{parts} vs {round_total} ns, "
                 f"{sp['outside_rounds']} spans outside rounds")

    values["net.simulator.events"] = c["sim.events_fired"]
    values["net.simulator.timers"] = c["sim.events_scheduled"] - c["sim.deliveries"]
    values["net.simulator.queue_peak"] = g["sim.queue_peak"]
    values["net.simulator.rss_per_pending_b"] = (
        plain["peak_rss_kb"] * 1024.0 / g["sim.queue_peak"])
    values["net.simulator.round_self_s"] = sp["round_self_ns"] / 1e9
    values["net.simulator.dispatch_ns"] = pr["dispatch_ns"]
    values["net.network.sends"] = c["net.sends"]
    values["net.network.delivered"] = c["net.delivered"]
    values["net.network.dropped"] = c["net.dropped"]
    values["net.network.forward_s"] = sp["forward_total_ns"] / 1e9
    values["net.network.forward_ns"] = (
        sp["forward_total_ns"] / max(1, sp["forward_count"]))
    values["net.network.fifo_pair_slots"] = g["net.fifo_pair_slots"]
    values["protocol.deliver_self_s"] = sp["deliver_self_ns"] / 1e9
    values["protocol.deliver_ns"] = (
        sp["deliver_self_ns"] / max(1, sp["deliver_count"]))
    values["sgx.ecalls"] = c["sgx.ecalls"]
    values["sgx.ocalls"] = c["sgx.ocalls"]
    values["channel.sealed"] = c.get("channel.sealed", 0)
    values["channel.opened"] = c.get("channel.opened", 0)
    values["channel.rejected"] = (c.get("channel.mac_failed", 0)
                                  + c.get("channel.replay_rejected", 0)
                                  + c.get("channel.window_overflow", 0))
    values["channel.seal_ns"] = pr["seal_ns"]
    values["channel.open_ns"] = pr["open_ns"]
    if pr["handshake_us"] > 0:
        values["channel.handshakes"] = plain["n"] * (plain["n"] - 1)
    values["channel.handshake_us"] = pr["handshake_us"]
    values["common.serde.serialize_ns"] = pr["serialize_ns"]
    values["common.serde.parse_ns"] = pr["parse_ns"]
    values["obs.pool.acquires"] = plain["pool_acquires"]
    values["obs.pool.hit_pct"] = (
        100.0 * plain["pool_hits"] / max(1, plain["pool_acquires"]))
    plain_rate = c["net.sends"] / plain["run_s"]
    traced_rate = tc["net.sends"] / traced["run_s"]
    values["trace.overhead_pct"] = 100.0 * (plain_rate / traced_rate - 1)

    lines = [
        f"tracing overhead: untraced {plain_rate:.6g} msg/s, traced "
        f"{traced_rate:.6g} msg/s",
        f"round total {round_total / 1e9:.4f} s = round self "
        f"{sp['round_self_ns'] / 1e9:.4f} + deliver self "
        f"{sp['deliver_self_ns'] / 1e9:.4f} + forward "
        f"{sp['forward_total_ns'] / 1e9:.4f} s "
        f"({sp['deliver_count']} delivers, {sp['forward_count']} forwards, "
        f"{sp['rounds']} rounds)",
        f"probe mix: {pr['mix_vals']} Vals, mean wire size "
        f"{pr['mix_mean_wire_b']:.1f} B",
        f"serialize {pr['serialize_ns']:.1f} ns x <= {c['net.sends']} sends "
        f"(a fan-out serializes once); parse {pr['parse_ns']:.1f} ns x "
        f"{values['channel.opened'] or c['net.delivered']} opened messages",
        f"seal {pr['seal_ns']:.1f} ns x {values['channel.sealed']} sealed; "
        f"open {pr['open_ns']:.1f} ns x {values['channel.opened']} opened",
        f"handshake {pr['handshake_us']:.1f} us x "
        f"{values['channel.handshakes']} handshakes",
        f"dispatch {pr['dispatch_ns']:.1f} ns/event over a "
        f"{pr['dispatch_events']}-event replay x {c['sim.events_fired']} "
        f"events in situ",
    ]
    return values, lines


def tcp_layers(plain, traced, report):
    values = zero_layers()
    a, b = plain["phase_a"], plain["phase_b"]
    ta, tb = traced["phase_a"], traced["phase_b"]
    same = all(x["sends"] == y["sends"] and x["received"] == y["received"]
               for x, y in ((a, ta), (b, tb)))
    same = same and plain["attempted"] == traced["attempted"] \
        and plain["failed"] == traced["failed"]
    report.check("traced run reproduces the untraced run", same,
                 "frames and requests identical" if same else "differs")
    values["common.serde.serialize_ns"] = traced["probes"]["serialize_ns"]
    values["common.serde.parse_ns"] = traced["probes"]["parse_ns"]
    values["net.tcp_bus.frames"] = a["sends"] + b["sends"]
    values["net.tcp_bus.writev_per_frame"] = b["writev_calls"] / max(1, b["sends"])
    values["net.tcp_bus.recv_per_frame"] = b["recv_calls"] / max(1, b["received"])
    values["net.tcp_bus.batch_mean"] = (
        b["writev_batched_frames"] / max(1, b["writev_batches"]))
    values["net.tcp_bus.send_ns"] = traced["send_ns_a"]
    values["net.tcp_bus.backpressure"] = a["backpressure"] + b["backpressure"]
    values["net.tcp_bus.send_failures"] = a["send_failures"] + b["send_failures"]
    plain_rate = plain["roundtrips_b"] / plain["phase_b_s"]
    traced_rate = traced["roundtrips_b"] / traced["phase_b_s"]
    values["trace.overhead_pct"] = 100.0 * (plain_rate / traced_rate - 1)
    lines = [
        f"tracing overhead: untraced {plain_rate:.6g} roundtrips/s, traced "
        f"{traced_rate:.6g} roundtrips/s (phase B)",
        f"phase A: {a['writev_calls'] / max(1, a['sends']):.3f} writev/frame, "
        f"{a['recv_calls'] / max(1, a['received']):.3f} recv/frame; "
        f"send {traced['send_ns_a']:.1f} ns x {a['sends'] // 2} requests",
        f"phase B: {values['net.tcp_bus.writev_per_frame']:.3f} writev/frame, "
        f"{values['net.tcp_bus.batch_mean']:.2f} frames/writev (sends "
        f"untimed)",
        f"serialize {values['common.serde.serialize_ns']:.1f} ns, parse "
        f"{values['common.serde.parse_ns']:.1f} ns x "
        f"{values['net.tcp_bus.frames']} frames (each serialized and parsed "
        f"once)",
    ]
    return values, lines


def per_layer(workload, seed, extra):
    plain = run_instance(workload, seed, extra)
    span_file = os.path.join(BUILD_DIR, "spans", f"{workload}-{seed}.json")
    os.makedirs(os.path.dirname(span_file), exist_ok=True)
    traced = run_instance(workload, seed, extra + ["--trace-out", span_file])
    report = Report(f"perfbench {workload} seed={seed}: traced run "
                    f"(per-layer metrics; one untraced and one traced "
                    f"fresh process; spans in {os.path.relpath(span_file, ROOT)})",
                    declared_units("per_layer"))
    report.add_instance_checks(plain)
    report.add_instance_checks(traced)
    if workload == "tcp-ack":
        values, lines = tcp_layers(plain, traced, report)
        attempted, failed = traced["attempted"], traced["failed"]
    else:
        values, lines = sim_layers(plain, traced, report)
        attempted, failed = traced["honest"], traced["failed"]
    for name, value in values.items():
        report.metric(name, value)
    report.print(attempted, failed, lines)
    return report.correct


# ---------------------------------------------------------------------------
# Self-test

def selftest():
    """Every workload at toy size through the same checks and traced run;
    printing a result also proves every declared metric was computed."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = [w["name"] for w in json.load(f)["workloads"]]
    ok = declared == list(WORKLOADS)
    if not ok:
        log("selftest: BENCHMARK.json workloads differ from run.py")
    for workload in WORKLOADS:
        flags = SELFTEST_FLAGS[workload]
        ok = end_to_end(workload, 7, 0, flags) and ok
        ok = per_layer(workload, 7, flags) and ok
    print("selftest " + ("passed" if ok else "FAILED"))
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    try:
        build()
        if args.selftest:
            ok = selftest()
        elif args.trace:
            ok = per_layer(args.workload, args.seed, [])
        else:
            ok = end_to_end(args.workload, args.seed, args.seconds, [])
    except (BenchError, OSError, KeyError, ValueError) as exc:
        log(f"perfbench: {exc}")
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
