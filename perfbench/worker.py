"""One benchmark process: import the program, warm up, run whole rounds.

Started by ``run.py`` in a fresh interpreter with BLAS and OpenMP pinned to
one thread. It is a single closed-loop client: a job starts only after the
previous one has finished and been checked. It prints one JSON line with its
results; ``run.py`` turns that into metrics.

With ``--probe`` it stops after the warm-up and reports only its set-up time.
With ``--trace 1`` every job runs twice on freshly prepared inputs, once
untraced and once traced, in alternating order, so the trace's per-layer
numbers come with the tracing overhead measured on the same jobs.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
import traceback

_clock = time.perf_counter


def _run_job(job, tracer=None):
    """Prepare (untimed), run (timed) and check (untimed) one job.

    Returns (seconds, failure reason or None, prepare seconds).
    """
    t0 = _clock()
    try:
        thunk = job.prepare()
    except Exception:  # e.g. verify-tower inputs read from a failed monodromy job
        return 0.0, "prepare failed: " + traceback.format_exc(limit=2), _clock() - t0
    prep = _clock() - t0
    if tracer:
        tracer.install()
        close = tracer.root_span(job.job_id, job.kind)
    start = _clock()
    try:
        output = thunk()
        reason = None
    except (Exception, SystemExit):
        output = None
        reason = "raised: " + traceback.format_exc(limit=3).strip().splitlines()[-1]
    seconds = _clock() - start
    if tracer:
        close(reason is not None)
        tracer.uninstall()
    if reason is None:
        try:
            reason = job.check(output)
        except Exception:
            reason = "check failed: " + traceback.format_exc(limit=2).strip().splitlines()[-1]
    return seconds, reason, prep


def _report_numbers(job):
    """The program's own report numbers for one finished CLI job."""
    if job.command is None:
        return None
    if not os.path.exists(job.out_path):
        return None
    with open(job.out_path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    report = doc.get("report", doc)
    out = {"command": job.command, "timings": report.get("timings", {})}
    arts = report.get("artifacts", {})
    realizations = []
    if job.command == "realize":
        realizations.append((arts, doc.get("polynomial")))
    elif job.command == "embed":
        nested = arts.get("realization", {})
        realizations.append((nested.get("artifacts", {}), doc.get("polynomial")))
    out["realizations"] = [
        {"eps_hat": a.get("eps_hat"), "exact_recovery": a.get("exact_recovery"),
         "fit_degree": max((du + dv for c in (poly or {}).get("coeffs", [])
                            for du, dv, *_ in c), default=0)}
        for a, poly in realizations]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--root", required=True)
    ap.add_argument("--spawned", type=float, required=True,
                    help="perf_counter reading just before this process started")
    args = ap.parse_args(argv)

    src = os.path.join(args.root, "src")
    import numpy  # part of set-up: the program imports it
    versions = {"python": sys.version.split()[0], "numpy": numpy.__version__}
    import splitcover.cli  # noqa: F401
    import splitcover
    if not os.path.abspath(splitcover.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"splitcover was imported from {splitcover.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import tracing
    import workloads

    work_dir = os.path.join(args.root, ".perfbench")
    os.makedirs(work_dir, exist_ok=True)
    tmp = os.path.join(work_dir, f"tmp-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    try:
        return _measure(args, versions, workloads, tracing, work_dir, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _measure(args, versions, workloads, tracing, work_dir, tmp) -> int:
    gen = 0.0
    t = _clock()
    workload = workloads.Workload(args.workload, args.seed, tmp)
    gen += _clock() - t
    warm = workload.warmup()
    _, reason, prep = _run_job(warm)
    gen += prep
    setup_s = _clock() - args.spawned - gen
    failures = [] if reason is None else [(warm.job_id, reason)]
    if args.probe:
        print(json.dumps({"setup_s": setup_s, "failures": failures}))
        return 0

    tracer = tracing.Tracer() if args.trace else None
    records = []      # (job id, kind, seconds, ok)
    traced_s = untraced_s = 0.0
    numbers = []
    attempted = 1
    rounds = 0
    loop_start = _clock()
    while rounds == 0 or _clock() - loop_start < args.seconds:
        for i, job in enumerate(workload.round(rounds)):
            if tracer is None:
                seconds, reason, _ = _run_job(job)
                attempted += 1
            else:
                order = (None, tracer) if i % 2 == 0 else (tracer, None)
                results = {}
                for tr in order:
                    results[tr is not None] = _run_job(job, tr)
                    if tr is None:
                        num = _report_numbers(job)
                        if num is not None and results[False][1] is None:
                            numbers.append(num)
                attempted += 2
                untraced_s += results[False][0]
                traced_s += results[True][0]
                seconds, reason = results[False][0], results[False][1] or results[True][1]
            records.append((job.job_id, job.kind, seconds, reason is None))
            if reason is not None:
                failures.append((job.job_id, reason))
        rounds += 1
    wall = _clock() - loop_start

    out = {
        "setup_s": setup_s,
        "rounds": rounds,
        "wall_s": wall,
        "attempted": attempted,
        "failures": failures,
        "jobs": records,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        **versions,
    }
    if tracer is not None:
        out["layers"] = tracer.layer_metrics(len(records))
        out["layers"]["bench.tracing_overhead_ratio"] = (
            traced_s / untraced_s if untraced_s else 0.0)
        out["sampling_traced_s"] = tracer.sampling_per_realization()
        out["missing_targets"] = tracer.missing
        out["numbers"] = numbers
        out["job_counts"] = {k: dict(v) for k, v in tracer.job_counts.items()
                             if k is not None}
        stem = os.path.join(work_dir, f"{args.workload}-seed{args.seed}")
        tracer.write(stem + ".spans.jsonl")
        out["spans_file"] = stem + ".spans.jsonl"
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
