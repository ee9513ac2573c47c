"""The CI `bench` job's ratio claims, checked on this runner's
criterion-shim dumps in bench-diff/ (`pr_core.json`, `pr_serve.json`).

Run from the repository root after the job's `--save-baseline` steps:
`python3 .github/scripts/bench_claims.py`.
"""
import json

b = json.load(open("bench-diff/pr_serve.json"))["benchmarks"]
cached = b["fig_serve/steady_state_run_cached"]["median"]
uncached = b["fig_serve/steady_state_run_uncached"]["median"]
ratio = uncached / cached
assert ratio >= 5.0, (
    f"cached steady-state run only {ratio:.1f}x faster (need >= 5x)")
print(f"plan-cache speedup OK: {ratio:.1f}x (need >= 5x)")

c = json.load(open("bench-diff/pr_core.json"))["benchmarks"]
hit = c["engine/gemv_2048_report_hit"]["median"]
refold = c["engine/gemv_2048_warm_cache"]["median"]
ratio = refold / hit
assert ratio >= 5.0, (
    f"report hit only {ratio:.1f}x faster than the warm re-fold "
    f"(need >= 5x)")
print(f"report-cache speedup OK: {ratio:.1f}x (need >= 5x)")

s = json.load(open("bench-diff/pr_serve.json"))["benchmarks"]
pw = s["fig_serve/steady_state_run_persistent_warm"]["median"]
assert pw < uncached, (
    f"persistent warm start ({pw:.0f} ns) must beat the uncached "
    f"run ({uncached:.0f} ns)")
print(f"persistent warm start OK: {uncached/pw:.1f}x over uncached")
