"""The splitcover benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from a checkout; it imports the program from ``src/`` of the checkout
that holds this file and writes only under ``.perfbench/`` there.

Workloads (see ``workloads.py`` for the inputs and output checks):

- ``realize-embed``: ``realize`` on Z2, Z3, Z4, V4, S3, Z2^3 and Z12, ``embed``
  of Z4 and V4 over the realized Z2, and ``realize`` of the unsupported D4,
  which must be rejected with a documented exit code. The grid stages
  (exact sampling, root solves, fit) do most of the work.
- ``track-verify``: ``monodromy`` and ``verify-tower`` on closed-form radical
  families z^n - c * prod (w - x_i)^k_i, whose monodromy is known exactly.
  Float evaluation and loop tracking do most of the work.
- ``tower-sweep``: tower theorem checks, one per class of subgroups, and
  embedding solves, one per order of kernel, from the library over the
  groups of order at most 12. Only permutation code runs.

Each run is one closed-loop client in one process, with BLAS and OpenMP
pinned to one thread. It runs whole rounds until ``--seconds`` have passed,
always at least one round, so every run does the same mix of jobs. A job's
time covers the program's work only: input preparation and output checks
are not timed.

With ``--trace 0`` the last line of output holds the end-to-end metrics:
``jobs_per_s`` (jobs over the summed job time), ``job_s_p50``,
``job_s_tail`` (the highest of p50, p75, p90, p95, p99, p99.9 and p99.99
with at least ten jobs above it, or the maximum when none has), ``setup_s`` (median of
five fresh interpreters, from start to the first timed job, covering the
imports and one warm-up job but not input generation) and ``peak_rss_mb``.
The failure ratio is printed above it and carried by ``failed`` and
``attempted``; as a metric it would be zero.

With ``--trace 1`` it prints the per-layer metrics instead, from a run in
which every job runs once untraced and once traced (see ``worker.py`` and
``tracing.py``). The spans go to ``.perfbench/<workload>-seed<n>.spans.jsonl``
and the call counts of every job to ``.perfbench/<workload>-seed<n>.counts.json``.
When that counts file is already there, the run compares its counts with it,
job by job, and reports every difference as a determinism defect.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 4  # with the measured worker, setup_s is a median of five
RUN_TIMEOUT_S = 170.0

# The counts compared between two traced runs with the same seed.
DETERMINISM_COUNTS = ("wpoly.roots_at", "wpoly.eval_exact", "monodromy.track_loop",
                      "wpoly.eval_complex", "permgroup.compose",
                      "freecover.deck_group")
TAIL_PERCENTILES = (99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _pinned_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _spawn(args, probe: bool, deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", ROOT]
    if probe:
        cmd.append("--probe")
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(cmd + ["--spawned", repr(spawned)], env=_pinned_env(),
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        raise SystemExit(f"benchmark worker did not finish within {RUN_TIMEOUT_S:g} s")
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _tail(durations):
    """The highest standard percentile with at least ten jobs above it, or
    the maximum when no percentile has that many.

    A fixed ladder keeps the percentile the same from run to run even when
    the number of jobs varies a little; the 11th-largest job of thousands
    would be set by a few stalls of the machine.
    """
    ordered = sorted(durations)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        if n * (1 - p / 100) >= 10:
            rank = math.ceil(p / 100 * n)  # nearest rank
            return ordered[rank - 1], f"p{p:g} of {n} jobs, {n - rank} above it"
    return ordered[-1], f"maximum of {n} jobs (no percentile has 10 above it)"


def _end_to_end(result, setups):
    durations = [s for _, _, s, _ in result["jobs"]]
    ok = sum(1 for *_, good in result["jobs"] if good)
    busy = sum(durations)
    tail, tail_note = _tail(durations)
    metrics = {
        "jobs_per_s": ok / busy if busy else 0.0,
        "job_s_p50": statistics.median(durations),
        "job_s_tail": tail,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }
    print(f"job_s_tail is the {tail_note}")
    print(f"setup_s runs: {', '.join(f'{s:.4f}' for s in setups)}")
    return metrics


def _pipeline_numbers(numbers) -> dict:
    """The program's own report numbers, read without tracing."""
    stages = {
        "realize": ("synthesis", "sampling", "fit", "tracking", "verification"),
        "embed": ("base_monodromy", "embedding_solve", "realize", "tower_verification"),
        "verify_tower": ("monodromy", "verification"),
    }
    per_command = {}
    for num in numbers:
        timings = num["timings"]
        command = num["command"].replace("-", "_")
        per_command.setdefault(command, []).append(timings)
        if command == "embed":  # the nested realization reports its own stages
            per_command.setdefault("realize", []).append(
                {k[len("realize."):]: v for k, v in timings.items()
                 if k.startswith("realize.")})
    out = {}
    for command, names in stages.items():
        rows = per_command.get(command, [])
        for name in names:
            out[f"pipeline.{command}.{name}_s"] = (
                statistics.fmean(r.get(name, 0.0) for r in rows) if rows else 0.0)
    rows = per_command.get("monodromy", [])
    out["pipeline.monodromy_s"] = (
        statistics.fmean(r.get("monodromy", 0.0) for r in rows) if rows else 0.0)

    realized = [r for num in numbers for r in num.get("realizations", [])]
    recovered = [r["exact_recovery"] for r in realized if r["exact_recovery"] is not None]
    eps = [r["eps_hat"] for r in realized if r["eps_hat"] is not None]
    out["approx.fit_degree_max"] = max((r["fit_degree"] for r in realized), default=0)
    out["approx.exact_recovery_ratio"] = (
        sum(map(bool, recovered)) / len(recovered) if recovered else 0.0)
    out["approx.eps_hat_min"] = min(eps, default=0.0)
    return out


def _src_lines() -> int:
    total = 0
    for base, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(base, name), "r", encoding="utf-8") as handle:
                    total += sum(1 for _ in handle)
    return total


def _determinism(args, job_counts) -> int:
    """Compare this run's call counts with an earlier traced run, job by job."""
    path = os.path.join(ROOT, ".perfbench",
                        f"{args.workload}-seed{args.seed}.counts.json")
    mine = {job: {k: counts.get(k, 0) for k in DETERMINISM_COUNTS}
            for job, counts in job_counts.items()}
    if not os.path.exists(path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(mine, handle)
        print(f"determinism: no earlier traced run with seed {args.seed}; "
              f"counts saved for the next one")
        return 0
    with open(path, "r", encoding="utf-8") as handle:
        earlier = json.load(handle)
    shared = sorted(set(earlier) & set(mine))
    mismatches = 0
    for job in shared:
        for key in DETERMINISM_COUNTS:
            if earlier[job].get(key, 0) != mine[job][key]:
                mismatches += 1
                print(f"DEFECT determinism: job {job} {key} "
                      f"{earlier[job].get(key, 0)} != {mine[job][key]}")
    print(f"determinism: {len(shared)} jobs compared with an earlier traced run, "
          f"{mismatches} counts differ")
    return mismatches


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        spec = json.load(handle)  # the metric names and units to print
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "splitcover", "__init__.py")):
        print(f"no splitcover sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)

    deadline = time.monotonic() + RUN_TIMEOUT_S
    setups = []
    failures = []
    attempted = 0
    if not args.trace:
        for _ in range(SETUP_PROBES):
            probe = _spawn(args, True, deadline)
            setups.append(probe["setup_s"])
            failures += probe["failures"]
            attempted += 1
    result = _spawn(args, False, deadline)
    setups.append(result["setup_s"])
    failures += result["failures"]
    attempted += result["attempted"]

    print(f"environment: nproc={os.cpu_count()}, python={result['python']}, "
          f"numpy={result['numpy']}, BLAS and OpenMP threads pinned to 1, "
          f"seed={args.seed}")
    kinds = {}
    for _, kind, seconds, _ in result["jobs"]:
        kinds.setdefault(kind, []).append(seconds)
    print(f"workload {args.workload}, seed {args.seed}: {len(result['jobs'])} jobs "
          f"in {result['rounds']} rounds, {result['wall_s']:.2f} s")
    for kind, times in kinds.items():
        print(f"  {kind:32s} {len(times):5d} jobs, median {statistics.median(times):.4f} s")
    for job_id, reason in failures:
        print(f"FAILED {job_id}: {reason}")
    print(f"failed_ratio = {len(failures) / attempted:.6f} "
          f"({len(failures)} of {attempted} jobs)")

    if args.trace:
        metrics = dict(result["layers"])
        metrics.update(_pipeline_numbers(result["numbers"]))
        metrics["repo.src_lines"] = _src_lines()
        metrics["bench.count_mismatches"] = _determinism(args, result["job_counts"])
        if metrics["pipeline.realize.sampling_s"]:
            print(f"cross-check: pipeline.realize.sampling_s = "
                  f"{metrics['pipeline.realize.sampling_s']:.4f} s untraced; "
                  f"estimate_eps + grid evaluation = "
                  f"{result['sampling_traced_s']:.4f} s traced, per realization")
        if result["missing_targets"]:
            print("not traced (missing): " + ", ".join(result["missing_targets"]))
        print(f"spans written to {os.path.relpath(result['spans_file'], ROOT)}")
    else:
        metrics = _end_to_end(result, setups)
    listed = spec["per_layer" if args.trace else "end_to_end"]
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed}
    for name, item in out.items():
        print(f"  {name} = {item['value']:.6g} {item['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
