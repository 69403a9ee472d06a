#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload train_sparse --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds the
benchmark binary (perfbench/CMakeLists.txt, from the sources in src/) under
$CARGO_TARGET_DIR or .bench_build; later runs rebuild only what changed.
The binary writes every raw sample to a JSON file; this script turns the
samples into the metrics named in BENCHMARK.json, prints one line per
metric with its sample count, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
The exit code is non-zero when a correctness gate fails. See
perfbench/README.md for what every metric means.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True  # leave nothing behind in the checkout
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

WORKLOADS = ("train_sparse", "serve_open")
RUN_TIMEOUT_S = 170
# Timings are pooled over the run's best windows (see perfbench/README.md):
# training keeps the better half of its 1 s windows, ranked by their step
# time p90; serving keeps the best tenth of its quarter-second windows,
# each ranked by the percentile being reported.
TRAIN_WINDOW_S, TRAIN_KEEP = 1.0, 0.5
SERVE_WINDOW_S, SERVE_KEEP = 0.25, 0.1


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def say(*parts):
    print(*parts, flush=True)


def build(build_dir):
    """Configure (once) and build the benchmark binary; returns its path."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", "perfbench", "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", jobs, "--target", "perfbench"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def source_digest():
    """sha256 over the benchmark and library sources (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


class Report:
    """Collects metric values and prints each with its sample count."""

    def __init__(self):
        self.values = {}

    def add(self, name, value, note=""):
        self.values[name] = float(value)
        say("  %-28s %14.6g   %s" % (name, value, note))

    def timing(self, name, samples, q):
        """A percentile of `samples`, printed with its sample counts."""
        value = stats.percentile(samples, q)
        beyond = stats.samples_beyond(len(samples), q)
        self.add(name, value, "n=%d, %d beyond" % (len(samples), beyond))

    def windowed(self, name, times_s, samples, q, window_s, keep_frac,
                 rank_values=None, rank_q=None):
        """The percentile over the best windows, printed with the whole
        run's percentile for reference."""
        value, kept, windows = stats.best_windows_percentile(
            times_s, samples, q, window_s, keep_frac, rank_values, rank_q)
        self.add(name, value,
                 "best %d of %d %g s windows (whole run %.4g, n=%d)"
                 % (kept, windows, window_s, stats.percentile(samples, q),
                    len(samples)))


def train_metrics(rep, raw):
    t = raw["train"]
    rep.add("samples_per_s", t["iterations"] * t["global_batch"] / t["loop_s"],
            "%d steps x %d samples in %.3f s"
            % (t["iterations"], t["global_batch"], t["loop_s"]))
    step = t["step_ms"]
    # Each iteration's start in the loop; the iterations run back to back.
    starts, elapsed = [], 0.0
    for ms in step:
        starts.append(elapsed)
        elapsed += ms * 1e-3
    # Latency sample k is the loss that iteration k produced (the last one
    # comes from the final Flush), so it shares that iteration's window.
    latency = t["sample_latency_ms"]
    latency_starts = [starts[min(k, len(starts) - 1)]
                      for k in range(len(latency))]
    latency_rank = [step[min(k, len(step) - 1)] for k in range(len(latency))]
    for name, q in (("step_ms_p50", 50), ("step_ms_p90", 90)):
        rep.windowed(name, starts, step, q, TRAIN_WINDOW_S, TRAIN_KEEP,
                     step, 90)
    rep.add("eval_ne", t["eval_ne"], "held-out set")
    for name, q in (("latency_ms_p50", 50), ("latency_ms_p99", 99)):
        rep.windowed(name, latency_starts, latency, q, TRAIN_WINDOW_S,
                     TRAIN_KEEP, latency_rank, 90)


def ok_values(phase, key):
    """`key` of every request that got a valid response."""
    return [v for v, seen in zip(phase[key], phase["seen_s"]) if seen >= 0]


def serve_metrics(rep, raw):
    s = raw["serve"]
    fixed = s["fixed"]
    lat = stats.due_latencies_ms(fixed["due_s"], fixed["seen_s"])
    rep.add("samples_per_s", stats.served_throughput(fixed["seen_s"]),
            "offered %.0f/s, %d requests" % (fixed["rate"], len(lat)))
    # A serving step is one dispatched batch: dispatch to completion.
    service = ok_values(fixed, "service_ms")
    for name, q in (("step_ms_p50", 50), ("step_ms_p90", 90)):
        rep.windowed(name, ok_values(fixed, "due_s"), service, q,
                     SERVE_WINDOW_S, SERVE_KEEP)
    rep.add("eval_ne", s["served_ne"], "scores served under load")
    for name, q in (("latency_ms_p50", 50), ("latency_ms_p99", 99)):
        rep.windowed(name, fixed["due_s"], lat, q, SERVE_WINDOW_S, SERVE_KEEP)


def train_layers(rep, raw):
    t = raw["train"]
    tr = t["trace"]
    p = tr["probes"]
    n = len(tr["step_call_ms"])
    rep.add("data.next_batch_ms", stats.mean(tr["data_ms"]), "n=%d" % n)
    step = stats.mean(tr["step_call_ms"])
    rep.add("core.step_call_ms", step, "n=%d" % n)
    for key in ("alltoall_ms", "allreduce_ms", "reducescatter_ms", "other_ms",
                "prepare_alltoall_ms", "alltoall_bytes", "allreduce_bytes",
                "calls"):
        rep.add("comm." + key, tr[key], "per traced step")
    rep.add("core.ckpt_write_ms", stats.mean(tr["ckpt_write_ms"]),
            "n=%d" % len(tr["ckpt_write_ms"]))
    rep.add("ckpt.delta_bytes", stats.mean(tr["delta_bytes"]),
            "n=%d, both ranks" % len(tr["delta_bytes"]))
    rep.add("ckpt.delta_rows", stats.mean(tr["ckpt_rows"]),
            "n=%d" % len(tr["ckpt_rows"]))
    for key in ("emb_fwd_ms", "emb_fwd_gbps", "emb_bwd_ms",
                "emb_bwd_unique_frac", "mlp_fwd_ms", "mlp_bwd_ms",
                "dense_opt_ms"):
        rep.add("ops." + key, p[key], "probe")
    rep.add("tensor.gemm_gflops", p["gemm_gflops"], "probe")
    attributed = (p["emb_fwd_ms"] + p["emb_bwd_ms"] + p["mlp_fwd_ms"]
                  + p["mlp_bwd_ms"] + p["dense_opt_ms"] + tr["alltoall_ms"]
                  + tr["allreduce_ms"] + tr["reducescatter_ms"]
                  + tr["other_ms"])
    rep.add("step.unattributed_ms", step - attributed,
            "step call minus probes and comm")
    traced = stats.median(tr["traced_block_sps"])
    untraced = stats.median(tr["untraced_block_sps"])
    rep.add("trace_overhead_frac", 1.0 - traced / untraced,
            "%d traced vs %d untraced blocks"
            % (len(tr["traced_block_sps"]), len(tr["untraced_block_sps"])))


SERVE_LAYERS = ("serve.queue_ms_p50", "serve.queue_ms_p99",
                "serve.batch_service_ms_p50", "serve.batch_size_mean",
                "serve.engine_fwd_ms", "cache.hit_rate", "loadgen.late_ms_p99",
                "loadgen.outstanding_end")


def serve_layers(rep, raw):
    s = raw.get("serve")
    if s is None:
        for name in SERVE_LAYERS:
            rep.add(name, 0.0, "no serving on this workload")
        return
    fixed = s["fixed"]
    queue = ok_values(fixed, "queue_ms")
    rep.timing("serve.queue_ms_p50", queue, 50)
    rep.timing("serve.queue_ms_p99", queue, 99)
    rep.timing("serve.batch_service_ms_p50", ok_values(fixed, "service_ms"),
               50)
    rep.add("serve.batch_size_mean", s["batch_size_mean"],
            "neo.serve.batch_size")
    rep.timing("serve.engine_fwd_ms", s["engine_fwd_ms"], 50)
    rep.add("cache.hit_rate", s["cache_hit_rate"], "engine probe")
    rep.timing("loadgen.late_ms_p99",
               stats.lateness_ms(fixed["due_s"], fixed["sent_s"]), 99)
    last_sent = max(fixed["sent_s"])
    rep.add("loadgen.outstanding_end",
            stats.outstanding_at(last_sent, fixed["sent_s"], fixed["seen_s"]),
            "after the last submit")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in ("BENCHMARK.json", "src/CMakeLists.txt",
                   "perfbench/CMakeLists.txt"):
        if not os.path.exists(needed):
            log("run.py: %s not found; run from the repository root" % needed)
            return 2
    with open("BENCHMARK.json") as f:
        spec = json.load(f)

    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    binary = build(build_dir)
    raw_path = os.path.join(build_dir, "raw-%s-%d-%d.json"
                            % (args.workload, args.seed, args.trace))
    # Two malloc arenas, and a fixed mmap threshold instead of glibc's
    # sliding one, keep peak RSS from depending on which threads happened
    # to allocate and free large buffers first.
    env = dict(os.environ, MALLOC_ARENA_MAX="2",
               MALLOC_MMAP_THRESHOLD_=str(4 << 20))
    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", repr(args.seconds), "--trace", str(args.trace),
             "--out", raw_path],
            stdout=sys.stderr, stderr=sys.stderr, env=env,
            timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run.py: perfbench did not finish in %d s" % RUN_TIMEOUT_S)
        return 1
    if proc.returncode != 0:
        log("run.py: perfbench exited with %d" % proc.returncode)
        return 1
    with open(raw_path) as f:
        raw = json.load(f)

    rep = Report()
    say("== %s seed=%d trace=%d" % (args.workload, args.seed, args.trace))
    try:
        if args.trace:
            train_layers(rep, raw)
            serve_layers(rep, raw)
            wanted = spec["per_layer"]
        else:
            if args.workload == "serve_open":
                serve_metrics(rep, raw)
            else:
                train_metrics(rep, raw)
            rep.add("setup_s", stats.median(raw["setup_s"]),
                    "median of %d set-ups" % len(raw["setup_s"]))
            rep.add("peak_rss_mb", raw["peak_rss_mb"], "VmHWM")
            wanted = spec["end_to_end"]
    except stats.InsufficientSamples as e:
        log("run.py: %s" % e)
        return 1

    attempted, failed = raw["attempted"], raw["failed"]
    gates = raw["gates"]
    correct = failed == 0 and all(gates.values())
    say("  %-28s %14.6g   %d of %d operations" % (
        "failed_frac", failed / max(1, attempted), failed, attempted))
    for name, passed in gates.items():
        say("  gate %-40s %s" % (name, "pass" if passed else "FAIL"))

    meta = dict(raw["meta"], workload=args.workload, seed=args.seed,
                trace=args.trace, git_sha=git_sha(),
                source_digest=source_digest())
    metrics = {}
    for m in wanted:
        if m["name"] not in rep.values:
            log("run.py: metric %s was not measured" % m["name"])
            return 1
        metrics[m["name"]] = {"value": rep.values[m["name"]], "unit": m["unit"]}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(os.path.join(build_dir, "result-%s-%d-%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as f:
        json.dump(dict(result, meta=meta), f, indent=1)
    print("meta " + json.dumps(meta))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
