"""finitefreq benchmark: certify, enlarge and validate workloads.

Run from the repository root:

    python3 benches/run.py --workload certify --seed 1 --seconds 30 --trace 0

and its own tests with ``python3 -m pytest benches -q``.

Every workload is a closed loop with one client: jobs run one at a time in
this single-threaded process (BLAS and OpenMP pinned to one thread), each as
the ``finitefreq`` CLI runs it, through ``finitefreq.cli.main`` in-process.
A run generates seeded batches of jobs (``inputs.py``) and runs whole
batches, each with fresh inputs, while the next one is expected to finish
within ``--seconds`` of measured time; at least one batch always runs.  Every
job's output is checked after the timed region (``checks.py``).

``--trace 0`` prints the end-to-end metrics:

* ``setup_s``: median over SETUP_REPS fresh interpreters, after one discarded
  warm-up, of importing ``finitefreq.cli`` and loading the batch's systems;
* ``wall_s``: median wall time of a batch;
* ``job_p50_s``: median wall time of a job, over all batches;
* ``peak_rss_mb``: peak resident memory of this process after the batches;
* ``answer_over_ref``: mean over checked jobs of the answer over its
  independent reference (see ``checks.py``).

``--trace 1`` runs batch 0 with spans recorded around the package's public
functions (``tracing.py``), removes the wrappers, runs the same batch again
untraced, and prints the per-layer metrics with the tracing overhead (traced
minus untraced batch wall time).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Job outputs, spans
and the recorded environment go to ``.bench_out/`` under the repository root.
The run exits 2 without a result when the package or its example system
cannot be found.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
EXAMPLE = ROOT / "data" / "example1.json"
WORK = ROOT / ".bench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 3
SETUP_CODE = ("import sys, finitefreq.cli; from finitefreq.model import load_system; "
              "[load_system(f) for f in sys.argv[1:]]")

# span name -> fields reported for it; the metric name drops the leading underscore
LAYER_FIELDS = {
    "sdp.solve_feasibility": ("calls", "s", "self_s", "iterations"),
    "sdp.minimize": ("nfev", "nit"),
    "lmi.min_gamma": ("calls", "s", "self_s", "probes"),
    "lmi.build_problem": ("calls", "s"),
    "lmi.verify_on_grid": ("calls", "s", "violations"),
    "lmi.uas_certificate": ("calls", "s", "self_s"),
    "gramians.gramian_lpv_shifted": ("calls", "s", "self_s", "node_steps"),
    "gramians.gramian_lpv_frozen": ("calls", "s"),
    "gramians.gramian_lpv_weighted": ("calls", "s"),
    "gramians.state_transition": ("calls", "s"),
    "gramians.shifted_trace_bound": ("calls", "s"),
    "_rk4.step_matrices": ("s", "steps"),
    "_rk4.step_offsets": ("s", "steps"),
    "_rk4.propagate_vector": ("s", "steps"),
    "_rk4.propagate_matrix": ("s", "steps"),
    "simulation.simulate": ("calls", "s", "self_s"),
    "simulation.iqc_value": ("s",),
    "simulation.performance_ratio": ("s",),
    "simulation.spectrum_fraction": ("s",),
    "enlargement.recommend_range": ("calls", "s", "self_s"),
    "enlargement.gap": ("s",),
    "enlargement.uniform_spectral_radius": ("s",),
    "model.load_system": ("calls", "s"),
    "cli.main": ("calls", "s", "self_s"),
    "cli.write_json": ("s",),
}
UNITS = {"s": "s", "self_s": "s"}
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "job_p50_s": "s", "peak_rss_mb": "MB",
             "answer_over_ref": "ratio"}


def pin_threads():
    """One BLAS/OpenMP thread: must run before numpy is first imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def environment(seed) -> dict:
    import numpy
    import scipy

    def blas(mod):
        b = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{b['name']} {b['version']}"

    return {"seed": seed, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "numpy_blas": blas(numpy), "scipy_blas": blas(scipy),
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def measure_setup(system_files) -> float:
    cmd = [sys.executable, "-c", SETUP_CODE, *system_files]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPS + 1):
        t = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t)
    return statistics.median(times[1:])


def run_batch(cli, jobs, out_dir: Path):
    """Run jobs back to back; returns (batch wall s, [(job, dir, wall s, exit code, error)])."""
    records = []
    start = time.perf_counter()
    for i, job in enumerate(jobs):
        d = out_dir / f"job{i}"
        code, error = None, None
        t = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["--out", str(d), *job.argv])
        except Exception:  # a job that raises is a failed job, not a failed run
            error = traceback.format_exc()
        records.append((job, d, time.perf_counter() - t, code, error))
    return time.perf_counter() - start, records


def check_all(records):
    """(failed count, mean answer_over_ref) over records; failures are printed."""
    from checks import check_job

    failed, ratios = 0, []
    for job, d, _, code, error in records:
        res = check_job(job, d, code, error)
        if res.ok:
            ratios.append(res.answer_over_ref)
        else:
            failed += 1
            print(f"FAIL {d.relative_to(ROOT)} {job.name}: {res.reason}")
    ratios = [r for r in ratios if not math.isnan(r)]  # gramians jobs have no reference
    return failed, (statistics.fmean(ratios) if ratios else float("nan"))


def timed_run(cli, args, work: Path) -> dict:
    from inputs import make_batch

    batches, measured, k = [], 0.0, 0
    jobs = make_batch(args.workload, args.seed, 0, EXAMPLE, work / "batch0")
    setup_s = measure_setup(sorted({j.system for j in jobs}))
    while True:
        if k:
            jobs = make_batch(args.workload, args.seed, k, EXAMPLE, work / f"batch{k}")
        wall, records = run_batch(cli, jobs, work / f"batch{k}")
        batches.append((wall, records))
        measured += wall
        k += 1
        if measured + wall > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    records = [r for _, recs in batches for r in recs]
    failed, answer = check_all(records)
    job_walls = [r[2] for r in records]
    print(f"batches={len(batches)} jobs={len(records)} "
          f"batch_walls={[round(w, 3) for w, _ in batches]}")
    values = {"setup_s": setup_s, "wall_s": statistics.median(w for w, _ in batches),
              "job_p50_s": statistics.median(job_walls), "peak_rss_mb": peak_rss_mb,
              "answer_over_ref": answer}
    return {"attempted": len(records), "failed": failed,
            "metrics": {k: (values[k], u) for k, u in E2E_UNITS.items()}}


def per_job_counters(spans) -> list:
    """Counters summed under each root span (one ``cli.main`` call per job)."""
    roots = []
    owner = []
    for s in spans:
        if s.parent < 0:
            roots.append({"s": s.end - s.start})
            owner.append(len(roots) - 1)
        else:
            owner.append(owner[s.parent])
        for key, v in s.counts.items():
            roots[owner[-1]][key] = roots[owner[-1]].get(key, 0) + v
    return roots


def layer_metrics(spans, traced_wall, untraced_wall) -> dict:
    from tracing import aggregate, share

    agg = aggregate(spans)
    m = {}
    for name, fields in LAYER_FIELDS.items():
        for f in fields:
            m[f"{name.lstrip('_')}.{f}"] = (agg.get(name, {}).get(f, 0), UNITS.get(f, "count"))
    sf, mn = agg.get("sdp.solve_feasibility", {}), agg.get("sdp.minimize", {})
    m["sdp.solve_feasibility.feasible_ratio"] = (
        sf.get("feasible", 0) / sf["calls"] if sf else 0.0, "ratio")
    m["sdp.objective_eval_us"] = (1e6 * mn["s"] / mn["nfev"] if mn.get("nfev") else 0.0, "us")
    m["sdp.solve_feasibility.share"] = (sf.get("s", 0.0) / traced_wall, "ratio")
    m["gramians_rk4.share"] = (share(spans, ("gramians.", "_rk4."), traced_wall), "ratio")
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    return m


def traced_run(cli, args, work: Path) -> dict:
    from inputs import make_batch
    from tracing import Tracer

    jobs = make_batch(args.workload, args.seed, 0, EXAMPLE, work / "batch0")
    tracer = Tracer()
    with tracer:
        traced_wall, traced = run_batch(cli, jobs, work / "traced")
    untraced_wall, untraced = run_batch(cli, jobs, work / "untraced")
    counters = {job.name: c for job, c in zip(jobs, per_job_counters(tracer.spans))}
    (work / "spans.json").write_text(json.dumps({"spans": tracer.dump(), "jobs": counters}))
    for name, c in counters.items():
        print(f"job {name}: " + json.dumps(c, sort_keys=True))
    failed, _ = check_all(traced + untraced)
    return {"attempted": len(traced) + len(untraced), "failed": failed,
            "metrics": layer_metrics(tracer.spans, traced_wall, untraced_wall)}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("certify", "enlarge", "validate"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_threads()
    sys.path.insert(0, str(SRC))
    try:
        from finitefreq import cli
    except ImportError as exc:
        print(f"error: cannot import finitefreq from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: finitefreq was imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if not EXAMPLE.is_file():
        print(f"error: example system {EXAMPLE} not found", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = environment(args.seed)
    (work / "env.json").write_text(json.dumps(env, sort_keys=True, indent=1) + "\n")
    print("env " + json.dumps(env, sort_keys=True))

    out = (traced_run if args.trace else timed_run)(cli, args, work)
    for sub in work.iterdir():  # job outputs are large; keep the record files only
        if sub.is_dir():
            shutil.rmtree(sub)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in out["metrics"].items()}
    print(json.dumps({"correct": out["failed"] == 0, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
