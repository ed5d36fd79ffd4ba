#!/usr/bin/env python3
"""Build and run the Northup benchmark on one workload (or all four).

    python3 perfbench/run.py --workload engine-saturated --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a source checkout. The script builds the
`northup-perfbench` package (release, offline) into `$CARGO_TARGET_DIR`
(default `.bench_build`), runs it, checks that its result names exactly
the metrics `BENCHMARK.json` lists, and prints that result as the last
line of standard output. Host and build metadata are printed on the line
before it and saved, with the result, under `.bench_out/`.

Exit codes: 0 result printed and every output check passed; 1 result
printed but an output check failed; 2 the program's sources or the
build are missing or broken (no result); 3 the run crashed or timed out
(no result); 4 the result does not match BENCHMARK.json (no result).
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["engine-saturated", "admission-overload", "fleet-migrate", "real-service"]
# The program crates the benchmark builds from source.
CRATES = ["core", "sim", "hw", "exec", "apps", "sched", "fleet"]
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 165


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def sources_present():
    need = [os.path.join(ROOT, "Cargo.toml")]
    need += [os.path.join(ROOT, "crates", c, "Cargo.toml") for c in CRATES]
    return [p for p in need if not os.path.isfile(p)]


def target_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Build the benchmark binary; return its path, or None on failure."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join("perfbench", "Cargo.toml")]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                           stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: build failed: {e}")
        return None
    if r.returncode != 0:
        log(f"perfbench: build failed (cargo exit {r.returncode})")
        return None
    return os.path.join(target_dir(), "release", "northup-perfbench")


def first_line(cmd):
    try:
        return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=30).stdout.strip().splitlines()[0]
    except (OSError, IndexError, subprocess.TimeoutExpired):
        return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def filesystem(path):
    """(mount point, fs type, device) of the mount holding `path`."""
    real = os.path.realpath(path)
    best = None
    try:
        with open("/proc/mounts") as f:
            for line in f:
                dev, mnt, fstype = line.split()[:3]
                if real == mnt or real.startswith(mnt.rstrip("/") + "/"):
                    if best is None or len(mnt) > len(best[0]):
                        best = (mnt, fstype, dev)
    except OSError:
        pass
    return best or (None, None, None)


def source_sha256():
    """Hash of the sources the binary is built from: every file under
    `crates/` and `perfbench/src/`, plus the manifests and lock files."""
    h = hashlib.sha256()
    files = ["Cargo.toml", "Cargo.lock", "perfbench/Cargo.toml", "perfbench/Cargo.lock"]
    for top in ("crates", os.path.join("perfbench", "src")):
        for d, dirs, names in os.walk(os.path.join(ROOT, top)):
            dirs[:] = sorted(x for x in dirs if x != "target")
            files += [os.path.relpath(os.path.join(d, n), ROOT) for n in sorted(names)]
    for rel in files:
        p = os.path.join(ROOT, rel)
        if os.path.isfile(p):
            h.update(rel.encode() + b"\0")
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def metadata(scratch):
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        commit = first_line(["git", "rev-parse", "HEAD"])
    mnt, fstype, dev = filesystem(scratch)
    return {
        "cores": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu_model(),
        "rustc": first_line([os.environ.get("RUSTC", "rustc"), "-V"]),
        "profile": "release",
        "git_commit": commit,
        "source_sha256": source_sha256(),
        "scratch_fs": {"mount": mnt, "type": fstype, "device": dev},
    }


def validate(result, trace):
    """Problems with `result` against BENCHMARK.json (empty when fine)."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
        return problems
    want = spec()["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    if [m["name"] for m in want] != list(got):
        problems.append("metric names differ from BENCHMARK.json")
    for m in want:
        v = got.get(m["name"])
        if v is None:
            continue
        if v.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {v.get('unit')} != {m['unit']}")
        x = v.get("value")
        if not isinstance(x, (int, float)) or isinstance(x, bool) or not math.isfinite(x):
            problems.append(f"{m['name']}: value {x!r}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        problems.append("failed must be a whole number >= 0")
    return problems


def run_one(binary, workload, seed, seconds, trace, meta_base):
    """Run one workload; return (exit code, result or None)."""
    out_dir = os.path.join(ROOT, ".bench_out")
    scratch = os.path.join(out_dir, f"tmp-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    meta = dict(meta_base, **metadata(scratch))
    cmd = [binary, "--workload", workload, "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--out", out_dir]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    # Real mode's storage-node files go to the scratch directory.
    env = dict(os.environ, TMPDIR=scratch)
    t0 = time.monotonic()
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: {workload}: run failed: {e}")
        return 3, None
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    sys.stderr.write(r.stderr)
    lines = r.stdout.rstrip("\n").splitlines()
    for line in lines[:-1]:
        print(line)
    if r.returncode != 0 or not lines:
        log(f"perfbench: {workload}: exit {r.returncode}")
        return 3, None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"perfbench: {workload}: last line is not JSON: {lines[-1][:200]}")
        return 3, None
    problems = validate(result, trace)
    if problems:
        log(f"perfbench: {workload}: result does not match BENCHMARK.json: {problems}")
        return 4, None
    meta.update(workload=workload, seed=seed, seconds=seconds, trace=int(trace),
                wall_s=round(time.monotonic() - t0, 3))
    print("meta: " + json.dumps(meta, sort_keys=True))
    name = f"result-{workload}-{'default' if seed is None else seed}-trace{int(trace)}.json"
    with open(os.path.join(out_dir, name), "w") as f:
        json.dump({"meta": meta, "result": result}, f, indent=1, sort_keys=True)
    return (0 if result["correct"] else 1), result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=None,
                    help="trace seed (default: the workload's own, where pinned digests are checked)")
    ap.add_argument("--seconds", type=int, default=None,
                    help="measuring time per run (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    missing = sources_present()
    if missing:
        log("perfbench: program sources not found (need the full checkout): "
            + ", ".join(os.path.relpath(p, ROOT) for p in missing))
        sys.exit(2)
    seconds = args.seconds if args.seconds is not None else spec()["run_seconds"]
    binary = build()
    if binary is None or not os.path.isfile(binary):
        sys.exit(2)

    meta_base = {"cargo": first_line(["cargo", "-V"])}
    if args.workload != "all":
        code, result = run_one(binary, args.workload, args.seed, seconds, bool(args.trace), meta_base)
        if result is not None:
            print(json.dumps(result))
        sys.exit(code)

    # Every workload in turn; the last line aggregates them.
    worst, total = 0, {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        print(f"== {w} ==", flush=True)
        code, result = run_one(binary, w, args.seed, seconds, bool(args.trace), meta_base)
        worst = max(worst, code)
        if result is None:
            total["correct"] = False
            continue
        print(json.dumps(result), flush=True)
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            total["metrics"][f"{w}/{k}"] = v
    for k, v in total["metrics"].items():
        print(f"{k:<48} {v['value']:>18.6g} {v['unit']}")
    print(json.dumps(total))
    sys.exit(worst)


if __name__ == "__main__":
    main()
