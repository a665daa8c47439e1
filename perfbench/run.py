"""fpsi benchmark: runs one workload in a subprocess and prints its metrics.

    python3 perfbench/run.py --workload channel16_pulse --seed 0 --seconds 15 --trace 0

Run from the root of a source checkout; fpsi is imported from its `src/`.
The workload runs in its own process (perfbench/workload.py) with BLAS
threads capped at 1: the sparse LU measured no faster with two threads on
the 2-core reference machine, and one thread leaves the second core to others.  The last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
The line before it holds the run's environment, sample counts and output
checks; the full record, spans included, goes to
`.perfbench_out/<workload>-seed<n>-trace<t>.json`.  Times are seconds at the
host's reference speed (see speed.py); raw seconds are on the info line.

Exit codes: 0 when every output check passed, 1 when a check failed or the
workload did not finish, 2 when the checkout has no fpsi sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
CHILD_TIMEOUT_S = 170
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def source_digest() -> str:
    """sha256 over src/fpsi/*.py, for checkouts that are not git repositories."""
    pkg = os.path.join(SRC, "fpsi")
    h = hashlib.sha256()
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description="fpsi benchmark")
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "fpsi", "__init__.py")):
        print("perfbench: no fpsi sources under %s" % SRC, file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    blas_threads = 1
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + HERE
    env.update({k: str(blas_threads) for k in BLAS_ENV})
    os.makedirs(OUT, exist_ok=True)
    out_path = os.path.join(OUT, "%s-seed%d-trace%d.json"
                            % (args.workload, args.seed, args.trace))
    if os.path.exists(out_path):
        os.remove(out_path)
    info = {"nproc": nproc, "blas_threads": blas_threads,
            "python": platform.python_version(), "git_commit": git_commit(),
            "src_sha256": source_digest(), "seed": args.seed,
            "workload": args.workload, "seconds": args.seconds}

    cmd = [sys.executable, os.path.join(HERE, "workload.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out_path]
    # the workload's stdout is diagnostics; keep ours for the result line
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: workload exceeded %d s" % CHILD_TIMEOUT_S, file=sys.stderr)
        return 1
    # the workload is the only child waited for besides git, so this is its peak
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    if not os.path.exists(out_path):
        print("perfbench: workload exited with %d and wrote no result" % code,
              file=sys.stderr)
        return 1
    with open(out_path) as fh:
        res = json.load(fh)
    if not res["fpsi_file"].startswith(SRC + os.sep):
        print("perfbench: fpsi was imported from %s, not from %s"
              % (res["fpsi_file"], SRC), file=sys.stderr)
        return 2

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = dict(res.get("metrics", {}))
    if not args.trace:
        metrics["peak_rss_mb"] = peak_rss_mb
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    correct = bool(res["correct"]) and code == 0 and not missing
    if missing:
        print("perfbench: metrics not produced: %s" % ", ".join(missing), file=sys.stderr)

    info.update(versions=res["versions"], inputs=res["inputs"],
                speed=res["speed"], raw=res.get("raw"),
                steps=res.get("steps"), setup_samples=res["setup_samples"],
                units=[{k: u[k] for k in ("wall_s", "setup_s", "attempted", "failed")}
                       for u in res["units"]],
                failed_checks=[c for c in res["checks"] if not c["ok"]],
                checks=len(res["checks"]))
    res.update(run_info=info, peak_rss_mb=peak_rss_mb)
    with open(out_path, "w") as fh:
        json.dump(res, fh, indent=1)

    print(json.dumps(info))
    print(json.dumps({
        "correct": correct,
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
                    for m in wanted if m["name"] in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
