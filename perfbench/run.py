"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload bs3d-sweep --seed 1 --seconds 16 --trace 0

The program is taken from src/ of the checkout that holds this file; nothing
is installed.  With --trace 0 the result's metrics are the end_to_end metrics
of BENCHMARK.json, measured untraced; with --trace 1 its per_layer metrics,
from a run that alternates untraced and traced repetitions.  Each run also
writes a record with the machine and library versions it ran on under
.perfbench_out/results/.  Exit status is 0 when a result line was printed.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import SCALES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 2       # set-up-only processes before, and as many after, the workload's own
PROBE_TIMEOUT_S = 20.0
DEADLINE_S = 170.0     # the whole run, probes included, ends before this
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def machine() -> dict:
    """What the numbers depend on: CPU model, caches and the cores this run may use."""
    info = {"platform": platform.platform(), "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": "unknown",
            "caches": [], "cgroup_cpu_max": None}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        info["caches"].append(f"L{level} {kind} {size}")
    try:
        info["cgroup_cpu_max"] = Path("/sys/fs/cgroup/cpu.max").read_text().strip()
    except OSError:
        pass
    return info


def child_env() -> dict:
    """Import the checkout's src/ only; one BLAS/OpenMP thread per process.

    The pipeline's matrix products are (paths x k) by (k x k) with k <= 25.
    With a second BLAS thread the bs3d sweep used twice the CPU and ran no
    faster, and its time depended on what else ran on the other core.
    Parallelism the program adds itself (processes) still shows.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_worker(args: list[str], env: dict, timeout: float) -> dict:
    """Start worker.py, wait for it, and return its JSON result line."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--t-spawn", repr(time.time())]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        raise BenchError(f"worker exceeded {exc.timeout:.0f}s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with status {proc.returncode}")
    return json.loads(lines[-1])


def measure(args, env: dict) -> tuple[dict, list[float]]:
    """Run the workload process between two groups of set-up-only processes.

    Set-up samples taken before and after the workload, median taken by the
    caller, so a slow period of a few seconds moves at most some of them.
    """
    start = time.monotonic()
    common = ["--workload", args.workload, "--seed", str(args.seed), "--scale", args.scale]

    def probes() -> list[float]:
        if args.trace:
            return []
        return [run_worker(common + ["--setup-only"], env, PROBE_TIMEOUT_S)["setup_s"]
                for _ in range(SETUP_PROBES)]

    before = probes()
    reserve = 0.0 if args.trace else SETUP_PROBES * PROBE_TIMEOUT_S
    res = run_worker(common + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                               "--references", str(HERE / "references.json")],
                     env, DEADLINE_S - reserve - (time.monotonic() - start))
    return res, before + [res["setup_s"]] + probes()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measured time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=SCALES, default="full",
                    help="tiny is for the self-test")
    args = ap.parse_args(argv)
    # SIGTERM becomes SystemExit, so subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "basketproj" / "__init__.py").is_file():
        print(f"error: no program at {ROOT / 'src' / 'basketproj'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    mach = machine()
    env = child_env()
    with open(OUT / "lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one workload process at a time per checkout
        try:
            res, setups = measure(args, env)
        except BenchError as exc:
            print(f"error: {args.workload}: {exc}", file=sys.stderr)
            return 1

    if args.trace:
        if "layers" not in res:
            print(f"error: {args.workload}: no traced repetition completed: {res['notes']}",
                  file=sys.stderr)
            return 1
        values = {**res["layers"], **res["quality"]}
        names = spec["per_layer"]
    else:
        values = {"wall_s": res["wall_s"], "setup_s": statistics.median(setups),
                  "peak_rss_mb": res["peak_rss_mb"]}
        names = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "scale": args.scale, "machine": mach,
              "thread_env": {v: env[v] for v in THREAD_VARS},
              "setup_samples": setups, **res, "metrics": metrics}
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = OUT / "results" / f"{stamp}-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"{args.workload} seed={args.seed} repetitions={len(res['walls'])} "
          f"failed_frac={res['failed'] / res['attempted']:.4g} "
          f"({res['failed']}/{res['attempted']}) record={path.relative_to(ROOT)}")
    for note in res["notes"]:
        print(f"  fail: {note}")
    print(f"  {mach['cpu_model']}, nproc={mach['nproc']}, {res['versions']}")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
