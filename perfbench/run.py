#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

Run from the repository root:

  python3 perfbench/run.py --workload build --seed 1 --seconds 20 --trace 0
      one measured invocation; the last stdout line is the JSON result
  python3 perfbench/run.py --all [--seed N] [--seconds S]
      every workload, end-to-end metrics as a table, fail_ratio included
  python3 perfbench/run.py --selfcheck [--seed N]
      determinism self-check: two same-seed processes per workload must
      agree exactly on the modeled and counted metrics, and the output
      checks must pass on a held-out seed

The program is built from source with dune into _build/.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["build", "shell", "web", "ipc"]
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")

# Metrics that must repeat exactly between two processes given one seed.
EXACT_E2E = ["alloc_mw", "major_mw", "peak_heap_mb", "virt_s", "virt_peak_rss_mb",
             "virt_lat_p50_us", "virt_lat_p99_us"]
EXACT_LAYER = ["sim.events", "pal.calls", "ipc.rpcs", "host.syscalls", "liblinux.syscalls",
               "refmon.checks", "ipc.oneways", "obs.spans"]


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.stderr.write("perfbench: no dune-project and lib/ here; run from the repository root\n")
        sys.exit(2)
    # dune's progress goes to stderr so stdout ends with the result line
    r = subprocess.run(["dune", "build", "--root", ".", "./perfbench/bench.exe"],
                       stdout=sys.stderr)
    if r.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        sys.exit(r.returncode)


def invoke(workload, seed, seconds, trace, echo=True):
    """Run bench.exe once; return (exit code, parsed result or None)."""
    cmd = [EXE, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if echo:
        sys.stdout.write(r.stdout)
        sys.stdout.flush()
    lines = r.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return r.returncode, result


def run_all(seed, seconds):
    ok = True
    rows = []
    for w in WORKLOADS:
        code, res = invoke(w, seed, seconds, 0, echo=False)
        if code != 0 or res is None or not res["correct"]:
            ok = False
            rows.append((w, None))
            continue
        rows.append((w, res))
    names = ["wall_s", "setup_s", "alloc_mw", "major_mw", "peak_heap_mb", "virt_s",
             "virt_peak_rss_mb", "virt_lat_p50_us", "virt_lat_p99_us", "fail_ratio"]
    print("%-24s" % "metric" + "".join("%16s" % w for w in WORKLOADS))
    for n in names:
        cells = []
        unit = ""
        for _, res in rows:
            if res is None:
                cells.append("%16s" % "FAILED")
            elif n == "fail_ratio":
                unit = "ratio"
                cells.append("%16.6g" % (res["failed"] / res["attempted"]))
            else:
                m = res["metrics"][n]
                unit = m["unit"]
                cells.append("%16.6g" % m["value"])
        print("%-24s" % ("%s (%s)" % (n, unit)) + "".join(cells))
    return ok


def selfcheck(seed, seconds):
    ok = True
    held_out = seed + 7919
    for w in WORKLOADS:
        for trace, keys in ((0, EXACT_E2E), (1, EXACT_LAYER)):
            results = [invoke(w, seed, seconds, trace, echo=False) for _ in range(2)]
            if any(code != 0 or res is None or not res["correct"] for code, res in results):
                print("%s trace %d: a run failed its checks" % (w, trace))
                ok = False
                continue
            a, b = (res["metrics"] for _, res in results)
            diff = [k for k in keys if a[k]["value"] != b[k]["value"]]
            print("%s trace %d seed %d: %s" % (w, trace, seed,
                  "identical " + ", ".join(keys) if not diff else "DIFFER " + ", ".join(diff)))
            ok = ok and not diff
        code, res = invoke(w, held_out, seconds, 0, echo=False)
        good = code == 0 and res is not None and res["correct"] and res["failed"] == 0
        print("%s held-out seed %d: %s" % (w, held_out, "checks pass" if good else "FAILED"))
        ok = ok and good
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--all", action="store_true")
    p.add_argument("--selfcheck", action="store_true")
    a = p.parse_args()
    if not (a.all or a.selfcheck or a.workload):
        p.error("give --workload, --all or --selfcheck")
    build()
    if a.all:
        sys.exit(0 if run_all(a.seed, a.seconds) else 1)
    if a.selfcheck:
        sys.exit(0 if selfcheck(a.seed, min(a.seconds, 2)) else 1)
    code, _ = invoke(a.workload, a.seed, a.seconds, a.trace)
    sys.exit(code)


if __name__ == "__main__":
    main()
