"""One pass of a workload in a fresh interpreter, as one closed-loop client.

    python bench/worker.py SPEC.json RESULT.json

The spec names the repository root, the workload, its seed and either a
busy-time budget in seconds or a fixed request count, and whether to trace.
Each request calls `tailquant.cli.main` in this process and waits for it to
return before the next starts.  Input files are written and outputs read
outside the timed region; output checks run after the loop, once peak memory
has been read.  The pass starts with the program's in-process memos empty,
as each `tailquant` command does.  The workload's reference mix of `pace`
runs right before each request and once after the last, outside the timed
regions, and the latencies and busy time the pass reports are scaled by it
to the reference speed; `wall_busy_s` is the unscaled busy time.  A pass
with a time budget stops at a block boundary once its scaled busy time
reaches the budget.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from pace import REFERENCE_S, reference_loop, scaled  # noqa: E402
from tracing import Tracer  # noqa: E402

# p90 needs at least ten samples beyond it; see run.percentile.
MIN_REQUESTS = 100

# A pass ends once its busy time, scaled to the reference speed, reaches the
# budget, so it does the same work at any host speed; but it never runs past
# this many times the budget in unscaled busy time.
MAX_WALL_FACTOR = 1.25


def import_program(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    import tailquant.cli

    if not Path(tailquant.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"tailquant imported from {tailquant.__file__}, not from {src}")
    return tailquant.cli


def call(cli, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a traceback is a failed request, not a crashed benchmark
            rc = -1
            traceback.print_exc()
    return rc, out.getvalue(), err.getvalue()


def run_pass(spec: dict) -> dict:
    root = Path(spec["root"])
    cli = import_program(root)
    workload = workloads.make(spec["workload"], spec["seed"], Path(spec["workdir"]))
    tracer = Tracer() if spec["traced"] else None
    if tracer is not None:
        tracer.install()
    fixed = spec.get("requests")
    records: list[dict] = []
    loop_times: list[float] = []
    busy = scaled_busy = 0.0
    k = 0
    while True:
        if fixed is not None:
            if k >= fixed:
                break
        elif (k % workload.block == 0 and k >= MIN_REQUESTS
              and (scaled_busy >= spec["seconds"] or busy >= MAX_WALL_FACTOR * spec["seconds"])):
            break
        request = workload.prepare(k)
        scope = tracer.request() if tracer is not None else contextlib.nullcontext()
        loop_times.append(reference_loop(workload.pace_mix))
        t0 = time.perf_counter()
        with scope:
            rc, stdout, stderr = call(cli, request.argv)
        latency = time.perf_counter() - t0
        busy += latency
        scaled_busy += latency * REFERENCE_S[workload.pace_mix] / loop_times[-1]
        if tracer is not None:
            tracer.fold()
        records.append({
            "k": k, "latency": latency, "rc": rc, "obs": request.obs, "trials": request.trials,
            "stdout": stdout, "stderr": stderr, "digest": workload.collect(k, rc, stdout),
        })
        k += 1
    loop_times.append(reference_loop(workload.pace_mix))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures: dict[str, int] = {}
    for rec in records:
        if rec["rc"] != 0:
            kind = workload.failure_kind(rec["k"], rec["stderr"])
            failures[kind] = failures.get(kind, 0) + 1
            rec["failed"] = True
    problems = []
    for k, problem in workload.check(records):
        problems.append(problem)
        if not records[k].get("failed"):
            records[k]["failed"] = True
            failures["output_check"] = failures.get("output_check", 0) + 1

    latencies = scaled(workload.pace_mix, [rec["latency"] for rec in records], loop_times)
    result = {
        "latencies": latencies,
        "failed": sum(1 for rec in records if rec.get("failed")),
        "obs": sum(rec["obs"] for rec in records),
        "trials": sum(rec["trials"] for rec in records),
        "busy_s": sum(latencies),
        "wall_busy_s": busy,
        "loop_s_median": statistics.median(loop_times),
        "peak_rss_mb": peak_rss_mb,
        "failures": failures,
        "problems": problems,
        "outputs_sha256": workloads.digest(rec["digest"] for rec in records),
    }
    if getattr(workload, "first_csv", None) is not None:
        result["csv_sha256"] = hashlib.sha256(workload.first_csv).hexdigest()
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["self_sum_max_error"] = tracer.max_self_sum_error
        result["traced_requests"] = tracer.requests
    return result


def main(argv: list[str]) -> int:
    spec_path, out_path = argv
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    Path(out_path).write_text(json.dumps(run_pass(spec)), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
