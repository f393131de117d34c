#!/usr/bin/env python3
"""Audit benchmark for oddgraceful: end-to-end and per-layer metrics.

    python3 auditbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                              [--trace 0|1]

Run from the root of a source checkout.  The package is first built from
source with `setup.py build` into .bench_build/ (once per source digest).
Each workload then runs in fresh processes: a few that only set up, to time
set-up, and one that measures (worker.py).  For every workload the run
prints each metric with its unit, writes a record with its provenance to
.bench_results/, and ends with one JSON line
{"correct", "attempted", "failed", "metrics"}.  It exits 1 when an output
check fails, and 2 without a result when the package cannot be built or a
worker produces no record.
"""

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("audit-grid", "large-instance", "search-audit")
SETUP_RUNS = 24       # set-up only processes per run, besides the measuring one


def die(msg):
    """Stop without a result: exit 2, one line on stderr."""
    print(f"error: {msg}", file=sys.stderr)
    raise SystemExit(2)


def source_digest(root):
    """sha256 over setup.py, pyproject.toml and the files under src/."""
    h = hashlib.sha256()
    files = [root / "setup.py", root / "pyproject.toml"]
    for path in sorted((root / "src").rglob("*")):
        parts = path.relative_to(root).parts
        if path.is_file() and not any(
                p == "__pycache__" or p.endswith(".egg-info") for p in parts):
            files.append(path)
    for path in files:
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def build(root, digest):
    """Build the package from source; returns the directory to import it
    from.  Builds are kept per source digest and reused."""
    base = root / ".bench_build" / f"py-{digest[:16]}"
    if (base / "built").is_file():
        return base / "lib"
    tmp = root / ".bench_build" / f"tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    # egg_info goes to the build directory too, so src/ stays untouched
    proc = subprocess.run(
        [sys.executable, "setup.py", "-q", "egg_info", "--egg-base", str(tmp),
         "build", "--build-base", str(tmp)],
        cwd=root, capture_output=True, text=True, timeout=800)
    if proc.returncode != 0:
        shutil.rmtree(tmp, ignore_errors=True)
        sys.stderr.write(proc.stdout + proc.stderr)
        die("building the package failed")
    (tmp / "built").write_text(digest + "\n")
    shutil.rmtree(base, ignore_errors=True)
    os.replace(tmp, base)
    return base / "lib"


def git_commit(root):
    """The checkout's commit when it is a git work tree, else None."""
    # the ceiling keeps git from taking the commit of a repository above
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def machine():
    model = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"arch": platform.machine(), "cpu": model,
            "cpus": os.cpu_count(), "os": platform.system()}


def worker_timeout(seconds):
    """Seconds a worker may take before it is killed: its run plus room for
    the last pass, which may start just before the run ends."""
    return 2 * seconds + 60


def spawn(args, timeout):
    """Start a worker and wait for its "ready" line; returns the process and
    the seconds from start to ready."""
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")] + args,
                            cwd=ROOT, stdout=subprocess.PIPE, text=True)
    started, _, _ = select.select([proc.stdout], [], [], timeout)
    line = proc.stdout.readline() if started else ""
    ready = perf_counter() - t0
    if line.strip() != "ready":
        finish(proc, 0)
        die(f"worker did not start ({line.strip()!r})")
    return proc, ready


def finish(proc, timeout):
    """The rest of a worker's stdout; the worker is killed if it has not
    ended within timeout seconds, and always reaped."""
    try:
        return proc.communicate(timeout=timeout)[0]
    except subprocess.TimeoutExpired:
        return ""
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def run_workload(name, args, lib, results):
    common = ["--workload", name, "--seed", str(args.seed), "--seconds",
              str(args.seconds), "--trace", str(args.trace), "--lib", str(lib)]
    stem = f"{name}-seed{args.seed}-trace{args.trace}"
    timeout = worker_timeout(args.seconds)
    setups = []
    if not args.trace:
        for _ in range(SETUP_RUNS):
            proc, ready = spawn(common + ["--setup-only"], timeout)
            setups.append(ready)
            finish(proc, timeout)
    spans = results / f"{stem}.spans.jsonl"
    proc, ready = spawn(common + ["--spans-out", str(spans)], timeout)
    setups.append(ready)
    out = finish(proc, timeout)
    lines = out.strip().splitlines()
    if not lines:
        die(f"{name} worker printed no result (exit {proc.returncode})")
    record = json.loads(lines[-1])
    metrics = record.pop("metrics", {})
    if not args.trace and metrics:
        metrics["setup_s"] = {"value": median(setups), "unit": "s"}
        record["samples"]["setup_s"] = setups
    record.update(workload=name, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, metrics=metrics)
    return record


def report(record):
    name = record["workload"]
    failed, attempted = record["failed"], record["attempted"]
    samples = record.get("samples", {})
    passes = len(samples.get("pass_wall_s", []))
    over = f"over {samples.get('instances')} instances, {passes} passes"
    notes = {
        "wall_s": f"sum of per-instance medians {over}",
        "setup_s": f"median of {len(samples.get('setup_s', []))} processes",
        "instance_p50_ms": f"per-instance medians {over}",
        "instance_p99_ms": f"per-instance medians {over}",
    }
    print(f"# {name}: engine {record['engine']}, seed {record['seed']}, "
          f"{record['passes']} passes, trace {record['trace']}")
    for metric, m in sorted(record["metrics"].items()):
        print(f"{name:15s} {metric:28s} {m['value']:>16.6f} {m['unit']:10s} "
              f"{notes.get(metric, '')}")
    print(f"{name:15s} {'failed_frac':28s} {failed / attempted:>16.6f} "
          f"{'fraction':10s} {failed} of {attempted} operations")


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measuring time per workload; run_seconds in "
                             "BENCHMARK.json by default")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "setup.py").is_file() or not (ROOT / "src").is_dir():
        die(f"{ROOT} is not an oddgraceful source checkout")
    if args.seconds is None:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        args.seconds = spec["run_seconds"]
    digest = source_digest(ROOT)
    lib = build(ROOT, digest)
    results = ROOT / ".bench_results"
    results.mkdir(exist_ok=True)
    provenance = {
        "commit": git_commit(ROOT), "source_sha256": digest,
        "python": f"{platform.python_implementation()} "
                  f"{platform.python_version()}",
        "machine": machine(),
    }

    correct = True
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        record = run_workload(name, args, lib, results)
        record.update(provenance)
        stem = f"{name}-seed{args.seed}-trace{args.trace}"
        (results / f"{stem}.json").write_text(json.dumps(record, indent=1))
        report(record)
        ok = record["failed"] == 0 and bool(record["metrics"])
        correct = correct and ok
        print(json.dumps({"correct": ok, "attempted": record["attempted"],
                          "failed": record["failed"],
                          "metrics": record["metrics"]}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
