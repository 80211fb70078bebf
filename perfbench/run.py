#!/usr/bin/env python3
"""Build and run the simulator's end-to-end benchmark (see README.md).

    python3 perfbench/run.py --workload fig4-mix --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload tls-fleet --seed 1 --seconds 50 --trace 1
    python3 perfbench/run.py --smoke
    python3 perfbench/run.py --record --workload malloc-churn --seed 1 --seconds 50 --trace 0

Builds perfbench/bench.exe with dune from the source tree this script sits
in, runs it, and passes its report through. The last line of standard
output is the result object. The run's deterministic counters are
compared with perfbench/counters.json when that file records the same
workload and seed, and a run whose counters differ from the record
reports correct: false. With --trace 0, --record writes them there
instead.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RECORD = os.path.join(HERE, "counters.json")
OUT = os.path.join(HERE, "out")
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")

RUN_LIMIT_S = 170  # a run must end within 180 s, build excluded
BUILD_LIMIT_S = 850


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("no %s under %s: run from a full source tree" % (need, ROOT), 2)
    # The shared dune cache lives outside the tree; keep the build inside.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ROOT, "-j", "2", "perfbench/bench.exe"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            timeout=BUILD_LIMIT_S)
    except FileNotFoundError:
        fail("dune not found", 2)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if r.returncode != 0:
        sys.stderr.write(r.stdout.decode(errors="replace"))
        fail("build failed")


def run(args, timeout):
    os.makedirs(OUT, exist_ok=True)
    # Runtime_events places its ring file in this directory while it runs.
    env = dict(os.environ, OCAML_RUNTIME_EVENTS_DIR=OUT)
    try:
        r = subprocess.run([EXE] + args, cwd=ROOT, env=env,
                           stdout=subprocess.PIPE, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("run timed out")
    return r.returncode, r.stdout.decode(errors="replace").splitlines()


def compare_record(counters):
    """Compare a run's counters with the record for its workload and seed.
    Returns False when a recorded counter differs."""
    if not os.path.exists(RECORD):
        return True
    with open(RECORD) as f:
        rec = json.load(f)
    want = rec["records"].get(counters["workload"], {}).get(str(counters["seed"]))
    if want is None:
        print("counter record: none for this workload and seed")
        return True
    diff = [(k, want[k], v) for k, v in counters.items()
            if k in want and want[k] != v]
    if diff:
        print("counter record: DIFFERS " + ", ".join(
            "%s recorded %s now %s" % d for d in diff))
        return False
    print("counter record: matches (%d counters)" % sum(
        1 for k in counters if k in want))
    return True


def record(counters):
    with open(RECORD) as f:
        rec = json.load(f)
    w = rec["records"].setdefault(counters["workload"], {})
    w[str(counters["seed"])] = {
        k: v for k, v in counters.items() if k not in ("workload", "seed")}
    with open(RECORD, "w") as f:
        json.dump(rec, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--record", action="store_true")
    a = ap.parse_args()
    if not a.smoke and None in (a.workload, a.seed, a.seconds, a.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")

    build()
    if a.smoke:
        code, lines = run(["--smoke"], None)
        print("\n".join(lines))
        sys.exit(code)

    start = time.monotonic()
    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace)]
    if a.trace == 1:
        args += ["--trace-out", os.path.join(
            OUT, "trace-%s-%d.json" % (a.workload, a.seed))]
    code, lines = run(args, RUN_LIMIT_S)
    if code != 0 or not lines:
        print("\n".join(lines))
        fail("benchmark exited with code %d" % code)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = {}
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line")
    matches = True
    for line in lines[:-1]:
        print(line)
        if line.startswith("counters "):
            counters = json.loads(line[len("counters "):])
            if a.record and a.trace == 0:
                record(counters)
            matches = compare_record(counters) and matches
    print("run took %.1f s" % (time.monotonic() - start))
    if matches:
        print(lines[-1])
    else:
        result["correct"] = False
        print(json.dumps(result))


if __name__ == "__main__":
    main()
