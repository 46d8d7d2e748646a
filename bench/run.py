"""tailquant benchmark: one closed-loop client per workload, timed end to end,
and a separate traced run for the per-layer numbers.

    python3 bench/run.py --workload estimate-files --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1

Prints the environment, one line per metric with its unit, and as its last
line a JSON object with keys correct, attempted, failed and metrics.  With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the per-layer
ones from a traced pass over the same requests as an untraced pass.
End-to-end times are scaled to a reference host speed (see pace.py); the
unscaled ones are printed on the info line.  Exits 1 when an output check
fails and 2, printing no result, when the program cannot be run.
Workloads and metrics are described in README.md.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUP_RUNS = 9
RUN_BUDGET_S = 170.0

# One client on one thread: numpy's BLAS would otherwise start a thread per
# core for long dot products, and on a shared host their start-up and
# spinning make request times swing by 2x from run to run.
CHILD_ENV = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


class CannotRun(Exception):
    """The program could not be started or a pass crashed."""


def percentile(values, q: float, min_tail: int = 10) -> float:
    """The q-quantile by linear interpolation between order statistics.

    Raises ValueError unless at least ``min_tail`` samples lie beyond it.
    """
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    tail = len(ordered) - 1 - lo
    if tail < min_tail:
        raise ValueError(f"p{100 * q:g} of {len(ordered)} samples has {tail} beyond it, need {min_tail}")
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo])


def git_commit(root: Path) -> str:
    """The checked-out commit, read from .git without leaving the checkout."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(root: Path) -> dict:
    return {
        "commit": git_commit(root),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
    }


def _child(args: list[str], deadline: float) -> str:
    try:
        proc = subprocess.run(
            [sys.executable, *args], capture_output=True, text=True,
            env={**os.environ, **CHILD_ENV}, timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise CannotRun(f"{args[0]} ran past the time budget") from None
    if proc.returncode != 0:
        raise CannotRun(f"{args[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def cold_start(root: Path, workdir: Path, deadline: float) -> tuple[float, float]:
    """Seconds of one cold start, scaled to the reference speed and unscaled."""
    scaled_s, wall_s = _child([str(HERE / "cold_start.py"), str(root), str(workdir)], deadline).split()
    return float(scaled_s), float(wall_s)


def run_pass(spec: dict, deadline: float) -> dict:
    workdir = Path(spec["workdir"])
    spec_path, out_path = workdir / "spec.json", workdir / "pass.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    _child([str(HERE / "worker.py"), str(spec_path), str(out_path)], deadline)
    return json.loads(out_path.read_text(encoding="utf-8"))


def end_to_end(result: dict, setup_s: float) -> dict[str, tuple[float, str]]:
    latencies = result["latencies"]
    attempted, busy = len(latencies), result["busy_s"]
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "ok_share": ((attempted - result["failed"]) / attempted, "share"),
        "trials_per_s": (result["trials"] / busy, "1/s"),
        "obs_per_s": (result["obs"] / busy, "1/s"),
        "latency_p50_s": (percentile(latencies, 0.5), "s"),
        "latency_p90_s": (percentile(latencies, 0.9), "s"),
    }


def run_workload(root: Path, workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Result of one workload: metrics, request counts and what was checked."""
    deadline = time.monotonic() + RUN_BUDGET_S
    workdir = root / ".bench_work" / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    spec = {
        "root": str(root), "workload": workload, "seed": seed, "seconds": seconds,
        "workdir": str(workdir), "traced": False, "requests": None,
    }
    try:
        if trace:
            base = run_pass(spec, deadline)
            shown = run_pass({**spec, "traced": True, "requests": len(base["latencies"])}, deadline)
            problems = base["problems"] + shown["problems"]
            if shown["outputs_sha256"] != base["outputs_sha256"]:
                problems.append("traced outputs differ from untraced outputs")
            if shown["self_sum_max_error"] > 1e-6:
                problems.append(f"self times miss request wall time by {shown['self_sum_max_error']:.3g}")
            metrics = dict(shown["layers"])
            metrics["trace.overhead_share"] = (shown["busy_s"] / base["busy_s"] - 1.0, "ratio")
        else:
            starts = [cold_start(root, workdir, deadline) for _ in range(SETUP_RUNS)]
            setup_s = statistics.median(scaled_s for scaled_s, _ in starts)
            shown = base = run_pass(spec, deadline)
            problems = base["problems"]
            metrics = end_to_end(base, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    info = {
        key: shown[key]
        for key in ("failures", "busy_s", "wall_busy_s", "loop_s_median", "outputs_sha256",
                    "csv_sha256", "self_sum_max_error")
        if key in shown
    }
    if trace:
        info["untraced_busy_s"] = base["busy_s"]
    else:
        info["setup_wall_s"] = statistics.median(wall_s for _, wall_s in starts)
    return {
        "workload": workload, "correct": not problems, "attempted": len(shown["latencies"]),
        "failed": shown["failed"], "metrics": metrics, "problems": problems, "info": info,
    }


def report(result: dict) -> None:
    print(f"# {result['workload']}: {result['attempted']} requests, {result['failed']} failed")
    print("info " + json.dumps(result["info"], sort_keys=True))
    for problem in result["problems"][:20]:
        print(f"check failed: {problem}")
    for name, (value, unit) in result["metrics"].items():
        samples = f" (samples={result['attempted']})" if name.startswith("latency_") else ""
        print(f"{name} = {value:.6g} {unit}{samples}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30,
                        help="busy time measured per workload, scaled to the reference speed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    root = HERE.parent
    if not (root / "src" / "tailquant" / "__init__.py").is_file():
        print(f"error: no tailquant sources under {root / 'src'}", file=sys.stderr)
        return 2
    print("env " + json.dumps(environment(root), sort_keys=True))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        try:
            results.append(run_workload(root, name, args.seed, args.seconds, bool(args.trace)))
        except CannotRun as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 2
        report(results[-1])

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{name}": m for r in results for name, m in r["metrics"].items()}
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
