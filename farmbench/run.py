#!/usr/bin/env python3
"""Farm benchmark: builds the harness from this checkout and runs one workload.

    python3 farmbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 farmbench/run.py --self-test
    python3 farmbench/run.py --record-digests SEED[,SEED...] [--workload NAME]

The harness (farmbench/*.cc) is compiled together with the repository's
src/ tree in Release into .bench_build/farmbench. The last line printed is
the result object {"correct", "attempted", "failed", "metrics"}; the line
before it carries the provenance of the run (tree, build type, host load,
tier that ran) and the harness's details. Build output goes to stderr.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "farmbench")
WORK = os.path.join(ROOT, ".bench_build", "farmbench-work")
BINARY = os.path.join(BUILD, "farmbench")
DIGESTS = os.path.join(HERE, "expected_digests.json")
RUN_TIMEOUT_S = 170

# Round sizes the self-test shrinks each workload to (--size).
TINY_SIZES = {"app-batch": 1, "monkey-session": 2, "cfbench-fig10": 1,
              "market-procs-cold": 16}


def fail(msg, code=1):
    print("farmbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("program sources (src/) not found next to farmbench/", 2)
    env = dict(os.environ)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            fail("configure failed")
    if subprocess.run(["cmake", "--build", BUILD, "-j", "2"],
                      stdout=sys.stderr, env=env).returncode != 0:
        fail("build failed")


def tree_digest():
    """sha256 over every file of the tree that is compiled (src/, farmbench/)."""
    h = hashlib.sha256()
    for top in ("src", "farmbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_describe():
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def build_type():
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def expected_digest(workload, seed, size):
    try:
        with open(DIGESTS) as f:
            table = json.load(f).get(workload, {})
    except (OSError, ValueError):
        return None
    if size is not None and size != table.get("size"):
        return None
    seeds = table.get("seeds", {})
    return seeds.get(str(seed), seeds.get("*"))


def run_harness(workload, seed, seconds, trace, size=None, expect=None):
    """Runs the harness; returns (detail, result) or exits on failure."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--work-dir", WORK]
    if size is not None:
        cmd += ["--size", str(size)]
    if expect:
        cmd += ["--expect-digest", expect]
    try:
        out = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("harness timed out")
    sys.stderr.write(out.stderr)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        fail("harness exited with %d" % out.returncode)
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def measure(args):
    build()
    nproc = len(os.sched_getaffinity(0))
    load_start = os.getloadavg()[0]
    expect = expected_digest(args.workload, args.seed, None)
    detail, result = run_harness(args.workload, args.seed, args.seconds,
                                 args.trace, expect=expect)
    load_end = os.getloadavg()[0]
    provenance = {
        "git_describe": git_describe(),
        "tree_sha256": tree_digest(),
        "build_type": build_type(),
        "nproc": nproc,
        "loadavg_start": load_start,
        "loadavg_end": load_end,
        "overloaded": max(load_start, load_end) > nproc,
        "tier_ran": detail.get("tier_ran"),
    }
    print(json.dumps({"provenance": provenance, "detail": detail}))
    print(json.dumps(result))


def self_test():
    """Each workload at a tiny size: every metric of BENCHMARK.json is printed
    with its unit, outcomes check out, and a corrupted digest fails the run."""
    build()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []
    for wl in spec["workloads"]:
        name, size = wl["name"], TINY_SIZES[wl["name"]]
        details = {}
        for trace in (0, 1):
            details[trace], res = run_harness(name, 1, 1, trace, size=size)
            got = res["metrics"]
            for m in wanted[trace]:
                if m["name"] not in got:
                    problems.append("%s trace=%d: missing %s" % (name, trace, m["name"]))
                elif got[m["name"]]["unit"] != m["unit"]:
                    problems.append("%s trace=%d: %s unit %s != %s" % (
                        name, trace, m["name"], got[m["name"]]["unit"], m["unit"]))
            extra = set(got) - {m["name"] for m in wanted[trace]}
            if extra:
                problems.append("%s trace=%d: unlisted %s" % (name, trace, sorted(extra)))
            if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
                problems.append("%s trace=%d: outcomes failed: %s" % (name, trace, res))
        good = details[0]["expected_digest"]
        bad = good[:-1] + ("0" if good[-1] != "0" else "1")
        _, res = run_harness(name, 1, 1, 0, size=size, expect=bad)
        if res["correct"] or res["failed"] != res["attempted"]:
            problems.append("%s: corrupted digest not caught: %s" % (name, res))
        print("self-test %s done" % name)
    for p in problems:
        print("FAIL " + p)
    print("self-test: %s" % ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def record_digests(seeds, only=None):
    """Writes the digest of each workload's round at its default size for
    each seed into expected_digests.json (run on a trusted tree only)."""
    build()
    try:
        with open(DIGESTS) as f:
            table = json.load(f)
    except (OSError, ValueError):
        table = {}
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        names = [w["name"] for w in json.load(f)["workloads"]
                 if only is None or w["name"] == only]
    for name in names:
        entry = table.setdefault(name, {"size": None, "seeds": {}})
        for seed in seeds:
            out = subprocess.run([BINARY, "--workload", name, "--seed", str(seed),
                                  "--digest-only"], capture_output=True, text=True,
                                 check=True)
            size_line, digest = out.stdout.split()
            entry["size"] = int(size_line)
            entry["seeds"][str(seed)] = digest
        # A workload whose seed only fixes issue order (cfbench-fig10) has one
        # digest for every seed; record it once for all seeds.
        if len(seeds) >= 10 and len(set(entry["seeds"].values())) == 1:
            entry["seeds"] = {"*": digest}
        print("recorded %s for %d seeds" % (name, len(seeds)), file=sys.stderr)
    with open(DIGESTS, "w") as f:
        json.dump(table, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--record-digests", metavar="SEEDS")
    args = ap.parse_args()
    if args.self_test:
        sys.exit(self_test())
    if args.record_digests:
        record_digests([int(s) for s in args.record_digests.split(",")],
                       args.workload)
        return
    if not args.workload:
        fail("--workload is required", 2)
    measure(args)


if __name__ == "__main__":
    main()
