#!/usr/bin/env python3
"""Benchmark of the Count2Multiply simulator: one command, three workloads.

    python3 perfbench/run.py --workload <serve_unique|serve_sweep|figures>
                             --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. It builds the simulator from source
(the ``perfbench`` measuring crate and the figure binaries, into
``$CARGO_TARGET_DIR``, default ``.bench_build``), runs the workload for
about ``--seconds`` seconds, checks the outputs, and prints as its last
stdout line one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the
end-to-end ones of BENCHMARK.json; with ``--trace 1`` they are the
per-layer ones, from a separate traced run that also prints the
calls x cost attribution table.

Metric names starting with ``sim_`` are simulated time or energy; every
other metric is host time or host memory. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import spans as spanlib  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"

# The 15 binaries of crates/bench/src/bin, each run once per suite.
FIGURE_BINS = (
    "backends", "fig3", "fig4", "fig8", "fig14", "fig15", "fig16", "fig17",
    "fig18", "fig19", "fig_scaling", "fig_serve", "hostpath", "mig", "table1",
)
# The binaries that take --cache-dir, run cold then warm on a fresh dir.
CACHEDIR_BINS = ("fig_serve", "fig_scaling")
SETUP_REPS = 5
BUILD_TIMEOUT_S = 840
BIN_TIMEOUT_S = 150


def declared():
    """The workloads, and each mode's metric names and units, as
    BENCHMARK.json declares them: ``(workloads, {trace: {name: unit}})``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {trace: {m["name"]: m["unit"] for m in spec[key]}
             for trace, key in ((0, "end_to_end"), (1, "per_layer"))}
    return [w["name"] for w in spec["workloads"]], units


class BenchError(Exception):
    """The benchmark could not run (build failure, missing program)."""


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def merge(self, doc_checks):
        self.attempted += doc_checks["attempted"]
        self.failed += doc_checks["failed"]
        self.failures.extend(doc_checks["failures"])


def median(values):
    return statistics.median(values) if values else 0.0


def fastest(values):
    return min(values) if values else 0.0


def ratio(num, den):
    return num / den if den else 0.0


def target_dir(env):
    return Path(env["CARGO_TARGET_DIR"]) / "release"


def build(env):
    """Builds the measuring binary and the figure binaries; a no-op when fresh."""
    manifests = [
        ["--manifest-path", str(BENCH / "Cargo.toml")],
        ["--manifest-path", str(ROOT / "Cargo.toml"), "-p", "c2m_bench", "--bins"],
    ]
    for manifest in manifests:
        if not Path(manifest[1]).is_file():
            raise BenchError(f"missing {manifest[1]}: not a checkout of the repository")
        cmd = ["cargo", "build", "--release", "--offline", *manifest]
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")


def run_child(cmd, env, timeout_s):
    """Runs `cmd` to completion: (exit code, stdout bytes, peak RSS MB).

    The child is reaped with wait4, so its own peak resident memory is
    known. A child past its timeout is killed, and still reaped.
    """
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE)
    timer = threading.Timer(timeout_s, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
    finally:
        timer.cancel()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss / 1024.0


def perfbench_doc(args, env, timeout_s):
    """Runs the Rust measuring binary and parses the document on its last line."""
    exe = target_dir(env) / "perfbench"
    code, out, rss = run_child([str(exe), *args], env, timeout_s)
    if code != 0:
        raise BenchError(f"perfbench {args[0]} exited with {code}")
    lines = out.decode().strip().splitlines()
    if not lines:
        raise BenchError(f"perfbench {args[0]} printed nothing")
    return json.loads(lines[-1]), rss


def figure_json(stdout):
    """The JSON a figure binary prints after its table: from the last
    line that is exactly ``{`` or ``[`` to the end."""
    lines = stdout.decode().split("\n")
    starts = [i for i, line in enumerate(lines) if line in ("{", "[")]
    if not starts:
        return None
    text = "\n".join(lines[starts[-1]:]).strip()
    json.loads(text)
    return text


def provenance(env):
    """The commit (when the checkout is a git repository) and a digest
    of the source files the benchmark builds."""
    commit = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True)
        if got.returncode == 0:
            commit = got.stdout.strip()
    digest = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock", BENCH / "Cargo.toml", BENCH / "Cargo.lock"]
    for top in ("crates", "vendor", "src"):
        files += sorted(p for p in (ROOT / top).rglob("*.rs") if "target" not in p.parts)
    files += sorted((BENCH / "src").rglob("*.rs")) + [BENCH / "run.py", BENCH / "spans.py"]
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    try:
        threads, _ = perfbench_doc(["env"], env, 60)
        parallelism = threads["available_parallelism"]
    except BenchError:
        parallelism = len(os.sched_getaffinity(0))
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "available_parallelism": parallelism,
        "RAYON_NUM_THREADS": env.get("RAYON_NUM_THREADS", "unset"),
    }


# ---------------------------------------------------------------- serving


def serve(workload, opts, env, out_dir):
    args = ["serve", "--workload", workload, "--seed", str(opts.seed),
            "--seconds", repr(opts.seconds), "--trace", str(opts.trace), "--out", str(out_dir)]
    doc, rss = perfbench_doc(args, env, timeout_s=3 * opts.seconds + 120)
    checks = Checks()
    checks.merge(doc["checks"])
    counters = doc["counters"]
    # Every served request counts as attempted, every lost one as failed.
    checks.attempted += int(counters.get("requests.submitted", 0))
    checks.failed += int(counters.get("requests.lost", 0))
    e2e = doc["e2e"]
    # Host times are the run's fastest iteration: on a small shared
    # machine neighbours slow whole iterations by 10-30%, and the fastest
    # iteration is the sample they move least; a slower program still
    # moves it. Set-up is the median of its repetitions.
    metrics = {
        "setup_s": median(e2e["setup_s"]),
        "wall_s": fastest(e2e["wall_s"]),
        "host_us_per_req": fastest(e2e["host_us_per_req"]),
        "cachedir_cold_s": fastest(e2e["cachedir_cold_s"]),
        "cachedir_warm_s": fastest(e2e["cachedir_warm_s"]),
        "peak_rss_mb": rss,
        "sim_p99_us": e2e["sim_p99_us"],
        "sim_uj_per_req": e2e["sim_uj_per_req"],
        "sim_kreq_per_s": e2e["sim_kreq_per_s"],
    }
    info = dict(doc["info"])
    info["sim_p99_samples"] = e2e["sim_p99_samples"]
    info["sim_p99_samples_beyond"] = e2e["sim_p99_samples"] - -(-99 * e2e["sim_p99_samples"] // 100)
    info["digest"] = doc["digest"]
    info["wall_s_per_iteration"] = [round(w, 4) for w in e2e["wall_s"]]
    return metrics, checks, doc["spans"], counters, info


def serve_layers(spans, counters):
    """Per-layer metrics and attribution rows of a traced serving run."""
    tot = spanlib.totals(spans)
    iters = counters.get("iterations", 1) or 1

    def count(name):
        return tot.get(name, (0, 0, 0))[0]

    def self_ns(name):
        return tot.get(name, (0, 0, 0))[1]

    def c(name):
        return counters.get(name, 0.0)

    m = {
        "jc.iarm.calls": count("jc.iarm") / iters,
        "jc.iarm.busy_s": self_ns("jc.iarm") / iters / 1e9,
        "jc.iarm.ns_per_value": ratio(self_ns("jc.iarm"), c("jc.iarm.values")),
        "core.engine.launch_calls": count("core.engine.launch") / iters,
        "core.engine.launch_busy_s": self_ns("core.engine.launch") / iters / 1e9,
        "core.engine.fold_self_s": self_ns("core.engine.fold") / iters / 1e9,
        "core.shard.plan_ns": ratio(self_ns("core.shard.plan"), count("core.shard.plan")),
        "core.cache.report.key_ns": ratio(self_ns("core.cache.report.key"),
                                          c("core.cache.report.key.calls")),
        "core.cache.report.hit_ns": ratio(self_ns("core.cache.report.hit"),
                                          c("core.cache.report.hit.calls")),
        "serve.governor.trials_per_batch": ratio(c("serve.batches.priced"),
                                                 c("serve.batches.committed")),
        "core.residency.touch_ns": ratio(self_ns("core.residency.touch"),
                                         count("core.residency.touch")),
        "core.residency.reloads": c("core.residency.reloads") / iters,
        "dram.request_queue.busy_s": self_ns("dram.request_queue") / iters / 1e9,
        "dram.request_queue.hit_rate": ratio(c("dram.request_queue.hits"),
                                             c("dram.request_queue.accesses")),
        "trace.sink.overhead_frac": ratio(self_ns("trace.segment.traced"),
                                          self_ns("trace.segment.plain")) - 1.0,
        "trace.sink.dropped": c("trace.sink.dropped"),
        "core.store.save_s": ratio(self_ns("core.store.save"), count("core.store.save")) / 1e9,
        "core.store.load_s": ratio(self_ns("core.store.load"), count("core.store.load")) / 1e9,
        "core.store.bytes": ratio(c("core.store.bytes"), count("core.store.save")),
    }
    for tier in ("plan", "stream", "report"):
        hits, misses = c(f"core.cache.{tier}.hits"), c(f"core.cache.{tier}.misses")
        m[f"core.cache.{tier}.hits"] = hits / iters
        m[f"core.cache.{tier}.misses"] = misses / iters
        m[f"core.cache.{tier}.hit_ratio"] = ratio(hits, hits + misses)
    hits, misses = c("serve.batch_cache.hits"), c("serve.batch_cache.misses")
    m["serve.batch_cache.hits"] = hits / iters
    m["serve.batch_cache.misses"] = misses / iters
    m["serve.batch_cache.hit_ratio"] = ratio(hits, hits + misses)
    overhead = 0.0
    for name in [n for n in tot if n.startswith("serve.sweep.")]:
        m[f"{name}.wall_s"] = self_ns(name) / iters / 1e9
        if name.endswith("-capped"):
            twin = name[: -len("capped")] + "uncapped"
            overhead += (self_ns(name) - self_ns(twin)) / iters / 1e9
    m["serve.governor.overhead_s"] = overhead

    # Calls the timed runs made into each layer (from the runs' own cache
    # tallies) times the per-call cost the replay measured.
    def per_call(name, calls_counter=None):
        calls = c(calls_counter) if calls_counter else count(name)
        return ratio(self_ns(name), calls) / 1e9

    # Stream-tier misses are new request streams (the plan pass) or the
    # K-slices a lone launch prices per shard, which are shorter.
    request_calls = c("jc.iarm.request_misses") / iters
    slice_calls = max(c("core.cache.stream.misses") / iters - request_calls, 0.0)
    slice_cost = m["jc.iarm.ns_per_value"] * c("jc.iarm.values_per_slice") / 1e9
    priced = c("serve.batches.priced") / iters
    rows = [
        ("jc.iarm (new request streams)", request_calls, per_call("jc.iarm")),
        ("jc.iarm (lone-launch shard slices)", slice_calls, slice_cost),
        ("core.engine.fold (report-tier misses)", c("core.cache.report.misses") / iters,
         per_call("core.engine.fold")),
        ("core.shard.plan (plan-tier misses)", c("core.cache.plan.misses") / iters,
         per_call("core.shard.plan")),
        ("core.cache.report.key (report misses)", c("core.cache.report.misses") / iters,
         per_call("core.cache.report.key", "core.cache.report.key.calls")),
        ("core.cache.report.hit (report hits)", c("core.cache.report.hits") / iters,
         per_call("core.cache.report.hit", "core.cache.report.hit.calls")),
        ("dram.request_queue (priced batches)", priced, per_call("dram.request_queue")),
        ("core.residency.touch (priced batches)", priced if count("core.residency.touch") else 0.0,
         per_call("core.residency.touch")),
    ]
    wall = c("serve.run.wall_ns") / iters / 1e9
    m["serve.runtime.residual_s"] = wall - sum(calls * cost for _, calls, cost in rows)
    return m, rows, wall


# ---------------------------------------------------------------- figures


def figures(opts, env, out_dir):
    release = target_dir(env)
    rec = spanlib.Recorder()
    checks = Checks()

    def setup():
        missing = [b for b in FIGURE_BINS if not (release / b).is_file()]
        if missing:
            raise BenchError(f"figure binaries not built: {missing}")
        # Reading every binary pages it in before the first timed spawn;
        # the digests say which build produced the results.
        return {b: hashlib.sha256((release / b).read_bytes()).hexdigest()[:16]
                for b in FIGURE_BINS}

    setup_s = []
    for _ in range(SETUP_REPS):
        t = time.perf_counter()
        bin_digests = setup()
        setup_s.append(time.perf_counter() - t)

    reference = {}
    peak_rss = 0.0
    cachedir = out_dir / "cachedir"

    def invoke(b, extra, parent, run, tag):
        nonlocal peak_rss
        span = rec.open(f"bench.{b}{tag}", parent, run)
        code, out, rss = run_child([str(release / b), "--json", *extra], env, BIN_TIMEOUT_S)
        rec.close(span)
        peak_rss = max(peak_rss, rss)
        checks.check(code == 0, f"{b}{tag} exited with {code}")
        try:
            text = figure_json(out)
        except ValueError:
            text = None
        checks.check(text is not None, f"{b}{tag} printed no parseable JSON")
        return text

    start = time.perf_counter()
    it = 0
    while it == 0 or (time.perf_counter() - start) * (it + 1) / it <= opts.seconds:
        suite = rec.open("figures.suite", None, it)
        for b in FIGURE_BINS:
            text = invoke(b, [], suite, it, "")
            if it == 0:
                reference[b] = text
            else:
                checks.check(text == reference[b], f"{b} output changed between suite runs")
        rec.close(suite)
        shutil.rmtree(cachedir, ignore_errors=True)
        for phase in ("cold", "warm"):
            span = rec.open(f"figures.cachedir.{phase}", None, it)
            for b in CACHEDIR_BINS:
                text = invoke(b, ["--cache-dir", str(cachedir)], span, it, f".cachedir_{phase}")
                checks.check(text == reference[b],
                             f"{b} --cache-dir ({phase}) output differs from the no-cache-dir run")
            rec.close(span)
        it += 1

    # Each binary's fastest run, summed: neighbours on a shared machine
    # slow whole binaries by 10-30%, and the fastest run is the sample
    # they move least; a slower program still moves it.
    fastest = spanlib.fastest_s(rec.spans)

    def best(bins, tag=""):
        return sum(fastest[f"bench.{b}{tag}"] for b in bins)

    wall = best(FIGURE_BINS)
    cold = best(CACHEDIR_BINS, ".cachedir_cold")
    warm = best(CACHEDIR_BINS, ".cachedir_warm")
    nocache = best(CACHEDIR_BINS)
    metrics = {
        "setup_s": median(setup_s),
        "wall_s": wall,
        # A figures "request" is one binary invocation of the suite.
        "host_us_per_req": wall * 1e6 / len(FIGURE_BINS),
        "cachedir_cold_s": cold,
        "cachedir_warm_s": warm,
        "peak_rss_mb": peak_rss,
        **sim_from_fig_serve(reference.get("fig_serve")),
    }
    digest = hashlib.sha256()
    for b in FIGURE_BINS:
        digest.update(b.encode() + b"\0" + (reference.get(b) or "").encode())
    info = {
        "workload": "figures",
        "suite": f"{len(FIGURE_BINS)} binaries with --json, then {' and '.join(CACHEDIR_BINS)}"
                 " with --cache-dir cold then warm",
        "iterations": it,
        "digest": digest.hexdigest()[:16],
        "binaries_sha256": bin_digests,
        "cachedir_s": f"cold {cold:.4f}, warm {warm:.4f}, without a cache dir {nocache:.4f}",
        "warm_cachedir_beats_no_cachedir": warm < nocache,
    }

    layers, rows, attributed = {}, [], 0.0
    if opts.trace:
        store = cachedir / "fig_serve.c2mcache.json"
        doc, _ = perfbench_doc(["probe", "--seed", str(opts.seed), "--store", str(store)], env, 120)
        checks.merge(doc["checks"])
        layers, rows, attributed = figure_layers(rec.spans, fastest, doc, ratio(warm, nocache))
    shutil.rmtree(cachedir, ignore_errors=True)
    return metrics, checks, rec.spans, layers, rows, attributed, info


def sim_from_fig_serve(text):
    """The simulated metrics of fig_serve's EDF row of its SLO sweep."""
    if text is None:
        return {"sim_p99_us": 0.0, "sim_uj_per_req": 0.0, "sim_kreq_per_s": 0.0}
    row = next(r for r in json.loads(text) if r["sweep"] == "slo" and r["policy"] == "edf")
    return {
        "sim_p99_us": row["p99_us"],
        "sim_uj_per_req": row["j_per_req"] * 1e6,
        "sim_kreq_per_s": row["throughput_rps"] / 1e3,
    }


def figure_layers(spans, fastest, probe, warm_vs_nocache):
    """Per-layer metrics and attribution rows of a traced figures run."""
    m = {f"bench.{b}.wall_s": fastest[f"bench.{b}"] for b in FIGURE_BINS}
    m["bench.cachedir.warm_vs_nocache"] = warm_vs_nocache
    ptot = spanlib.totals(probe["spans"])

    def per_call_ns(name):
        count, self_ns, _ = ptot.get(name, (0, 0, 0))
        return ratio(self_ns, count)

    m["jc.bank.accumulate_ripple_ns"] = per_call_ns("jc.bank.accumulate_ripple")
    m["baselines.rca.add_masked_ns"] = per_call_ns("baselines.rca.add_masked")
    m["core.store.load_s"] = per_call_ns("core.store.load") / 1e9
    m["core.store.save_s"] = per_call_ns("core.store.save") / 1e9
    m["core.store.bytes"] = probe["counters"].get("core.store.bytes", 0.0)
    # One suite on average: each binary's mean run; the harness time
    # between spawns is the residual.
    tot = spanlib.totals(spans)
    suites, _, suite_ns = tot["figures.suite"]
    rows = [(f"bench.{b}", 1.0, tot[f"bench.{b}"][2] / tot[f"bench.{b}"][0] / 1e9)
            for b in FIGURE_BINS]
    return m, rows, suite_ns / suites / 1e9


# ---------------------------------------------------------------- output


def print_attribution(workload, rows, wall):
    print(f"attribution of one {workload} iteration: {wall:.4f} s host wall")
    print(f"  {'layer (what counts a call)':44s} {'calls':>10s} {'s/call':>12s} {'total s':>9s} {'share':>7s}")
    attributed = 0.0
    for name, calls, cost in rows:
        total = calls * cost
        attributed += total
        print(f"  {name:44s} {calls:10.1f} {cost:12.3e} {total:9.4f} {ratio(total, wall):7.1%}")
    rest = wall - attributed
    print(f"  {'unattributed residual (derived)':44s} {'':10s} {'':12s} {rest:9.4f} {ratio(rest, wall):7.1%}")


def main(argv):
    workloads, units_by_mode = declared()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    opts = parser.parse_args(argv)
    if not opts.seconds > 0 or not 0 <= opts.seed < 2**64:
        parser.error("--seconds must be positive and --seed a u64")

    env = dict(os.environ)
    env["CARGO_TARGET_DIR"] = str(ROOT / (env.get("CARGO_TARGET_DIR") or ".bench_build"))
    # One engine thread unless the caller asks for more: on the small
    # shared machines this benchmark targets, per-launch scoped-thread
    # spawning at 2 threads spread wall_s by 10-20% between runs, and
    # ROADMAP direction 2 states its target at 1 thread.
    env.setdefault("RAYON_NUM_THREADS", "1")
    build(env)
    info = provenance(env)
    info["seed"] = opts.seed
    out_dir = BENCH / "out" / f"{opts.workload}-trace{opts.trace}-{os.getpid()}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    try:
        if opts.workload == "figures":
            metrics, checks, spans, layers, rows, wall, extra = figures(opts, env, out_dir)
        else:
            metrics, checks, spans, counters, extra = serve(opts.workload, opts, env, out_dir)
            layers, rows, wall = serve_layers(spans, counters) if opts.trace else ({}, [], 0.0)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    info.update(extra)
    metrics["ok_frac"] = 1.0 - ratio(checks.failed, checks.attempted)

    units = units_by_mode[opts.trace]
    if opts.trace:
        reported = {name: layers.get(name, 0.0) for name in units}
    else:
        reported = {name: metrics[name] for name in units}
    for key, value in info.items():
        print(f"{key}: {value}")
    for failure in checks.failures[:20]:
        print(f"FAILED: {failure}")
    if opts.trace:
        print_attribution(opts.workload, rows, wall)
    results = BENCH / "out" / f"{opts.workload}-trace{opts.trace}.json"
    results.write_text(json.dumps({"info": info, "metrics": reported, "spans": spans}))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": max(checks.attempted, 1),
        "failed": checks.failed,
        "metrics": {name: {"value": float(v), "unit": units[name]} for name, v in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(1)
