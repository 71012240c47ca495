#!/usr/bin/env python3
"""The repository benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It builds the load generator (perfbench/perfbench.ml) with dune, then for
about S seconds starts one fresh process per rep of the workload at the
given seed.  Every rep must pass the workload's end-state checks, and all
untraced reps must agree exactly on every virtual and memory figure (the
determinism self-check).  With --trace 0 it reports the end-to-end
metrics of BENCHMARK.json; with --trace 1 it alternates untraced and
traced reps, requires the traced reps' virtual results and registry to
equal the untraced ones, and reports the per-layer metrics.

The last line of stdout is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
where attempted counts the client transactions that finished in the
measured windows and failed those that gave up after every retry.
Lines before it are a human-readable report.  Exit status is 0 when every
check passed, 1 when a check failed, 2 when the benchmark could not run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
# Traced reps write their window's spans here (the last rep's survive).
SPANS_DIR = "_perfbench"
BUILD_TIMEOUT_S = 840
REP_TIMEOUT_S = 60
# Reps are started until --seconds have passed and these minimums are
# met; no rep starts after MAX_RUN_S, which keeps a run well inside its
# time limit even when the machine is slow.
MIN_REPS = 3
MIN_TRACED_PAIRS = 2
MAX_RUN_S = 90


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build():
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            fail(f"{needed} not found: run from the root of a source checkout")
    # No shared build cache: the benchmark writes only inside the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        res = subprocess.run(
            ["dune", "build", "--root", ".", "./" + EXE],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            timeout=BUILD_TIMEOUT_S,
            env=env,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if res.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(res.stdout)
        fail("build failed")


def rep_env():
    # GC settings from the caller's environment would change what is
    # measured; every rep runs with the runtime's defaults.
    env = dict(os.environ)
    env.pop("OCAMLRUNPARAM", None)
    return env


def spans_file(workload, seed):
    return os.path.join(SPANS_DIR, f"spans-{workload}-seed{seed}.tsv")


def run_rep(workload, seed, traced):
    cmd = [EXE, "--workload", workload, "--seed", str(seed)]
    if traced:
        os.makedirs(SPANS_DIR, exist_ok=True)
        cmd += ["--trace", "--spans", spans_file(workload, seed)]
    try:
        res = subprocess.run(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=REP_TIMEOUT_S, env=rep_env(),
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"rep {' '.join(cmd)} did not finish: {e}")
    if res.returncode != 0:
        sys.stderr.write(res.stderr)
        fail(f"rep {' '.join(cmd)} exited with {res.returncode}")
    try:
        return json.loads(res.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        fail(f"rep {' '.join(cmd)} printed no result")


def run_reps(workload, seed, seconds, trace):
    """Fresh-process reps for about `seconds`: untraced only, or
    alternating untraced/traced pairs."""
    start = time.monotonic()
    plain, traced = [], []
    while True:
        elapsed = time.monotonic() - start
        enough = len(plain) >= MIN_REPS if not trace else len(traced) >= MIN_TRACED_PAIRS
        if (enough and elapsed >= seconds) or (elapsed >= MAX_RUN_S and plain):
            break
        plain.append(run_rep(workload, seed, False))
        if trace:
            traced.append(run_rep(workload, seed, True))
    return plain, traced


def check_reps(plain, traced, spec_inputs):
    """Every problem found, as human-readable lines."""
    problems = []
    for i, rep in enumerate(plain + traced):
        kind = "traced" if rep["traced"] else "untraced"
        for name, ok in rep["checks"].items():
            if not ok:
                problems.append(f"{kind} rep {i}: output check {name} failed")
        if rep["inputs"] != spec_inputs:
            problems.append(
                f"{kind} rep {i}: inputs {rep['inputs']} differ from spec.json {spec_inputs}")
    first = plain[0]
    for i, rep in enumerate(plain[1:], 1):
        for part in ("virtual", "memory"):
            if rep[part] != first[part]:
                problems.append(
                    f"not deterministic: untraced rep {i} {part} {rep[part]} != rep 0 {first[part]}")
    for i, rep in enumerate(traced):
        if rep["virtual"] != first["virtual"]:
            problems.append(
                f"tracing changed the program: traced rep {i} {rep['virtual']} != {first['virtual']}")
    return problems


def median_of(reps, key):
    return statistics.median(r[key] for r in reps)


def end_to_end(plain):
    v, m = plain[0]["virtual"], plain[0]["memory"]
    return {
        "txn_per_cpu_s": median_of(plain, "txn_per_cpu_s"),
        "alloc_words_per_txn": m["alloc_words_per_txn"],
        "peak_heap_mb": m["peak_heap_mb"],
        "sim_tps": v["sim_tps"],
        "sim_mean_ms": v["sim_mean_ms"],
        "sim_p99_ms": v["sim_p99_ms"],
        "setup_s": median_of(plain, "setup_s"),
    }


# Per-layer figures that are real times or allocations of single calls:
# medians over the traced reps.  GC figures come from the untraced reps,
# which carry no tracing allocations.  Everything else is a count that
# repeats exactly and is read from the first rep.
def per_layer(plain, traced):
    out = dict(plain[0]["layers"])
    for name in traced[0]["layers"]:
        if name.endswith((".self_us", ".words")) or name == "sim.outside_calls_share":
            out[name] = statistics.median(r["layers"][name] for r in traced)
        elif name not in out:
            out[name] = traced[0]["layers"][name]
    cpu_plain = statistics.median(r["cpu_s"] for r in plain)
    cpu_traced = statistics.median(r["cpu_s"] for r in traced)
    out["bench.tracing_overhead"] = cpu_traced / cpu_plain - 1.0
    return out


def fmt(x):
    return f"{x:.6g}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench = load_json("BENCHMARK.json")
    spec = load_json(os.path.join("perfbench", "spec.json"))
    workloads = {w["name"]: w for w in spec["workloads"]}
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload}; one of {sorted(workloads)}")
    build()

    plain, traced = run_reps(args.workload, args.seed, args.seconds, args.trace == 1)
    problems = check_reps(plain, traced, workloads[args.workload]["inputs"])

    if args.trace:
        values = per_layer(plain, traced)
        wanted = bench["per_layer"]
    else:
        values = end_to_end(plain)
        wanted = bench["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            problems.append(f"metric {m['name']} was not measured")
            continue
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    extra = set(values) - {m["name"] for m in wanted}
    if extra:
        problems.append(f"measured metrics missing from BENCHMARK.json: {sorted(extra)}")

    v = plain[0]["virtual"]
    attempted = sum(r["virtual"]["committed"] + r["virtual"]["giveups"] for r in plain + traced)
    failed = sum(r["virtual"]["giveups"] for r in plain + traced)

    print(f"workload {args.workload}  seed {args.seed}  "
          f"reps {len(plain)} untraced + {len(traced)} traced")
    for name, m in metrics.items():
        note = ""
        if name == "sim_p99_ms":
            note = f"  ({v['p99_samples']} samples)"
        print(f"  {name:36s} {fmt(m['value']):>14s} {m['unit']}{note}")
    print(f"  {'failure_rate':36s} {fmt(v['failure_rate']):>14s} ratio"
          f"  (attempts {v['attempts']}, commits {v['committed']}, failed attempts "
          f"{v['failed_attempts']}, give-ups {v['giveups']}, per rep)")
    print(f"  {'sim_p50_ms':36s} {fmt(v['sim_p50_ms']):>14s} sim-ms")
    raw_tps = statistics.median(v["committed"] / r["raw_cpu_s"] for r in plain)
    print(f"  {'raw txn per CPU second':36s} {fmt(raw_tps):>14s} txn/s  (machine speed "
          f"{fmt(statistics.median(r['speed'] for r in plain))} x reference)")
    if traced:
        print(f"  spans of the last traced rep: {spans_file(args.workload, args.seed)}")
    for p in problems:
        print(f"  CHECK FAILED: {p}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
