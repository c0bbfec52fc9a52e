"""Seeded input generator for the finitefreq benchmark.

Every batch of jobs is a pure function of (workload, seed, batch index): the
system files and CLI argument lists it writes are byte-identical for the same
triple.  The generator reads the shipped example system with plain ``json``
and never imports the package under test, so the program only ever sees the
files written here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("certify", "enlarge", "validate")

ENLARGE_JOBS = 4
SIMULATE_JOBS = 20
GRAMIAN_JOBS = 2
PERTURBATION = 0.05  # relative half-width of the enlarge coefficient draws
SIM_T_END = 60.0
SIM_STEP = 1e-3
GRAMIAN_T = 20.0


@dataclass
class Job:
    """One CLI invocation: ``argv`` goes to ``finitefreq.cli.main`` after ``--out``."""

    name: str
    kind: str  # 'analyze' | 'enlarge' | 'simulate' | 'gramians'
    argv: list
    system: str  # path of the system file the job reads
    meta: dict = field(default_factory=dict)


def _rng(workload: str, seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([WORKLOADS.index(workload), int(seed), int(index)])


def _num(x: float) -> str:
    """Fixed six-decimal text for CLI specs, so the spec parses to the stored value."""
    return f"{x:.6f}"


def write_system(obj: dict, path: Path) -> str:
    path.write_text(json.dumps(obj, sort_keys=True, indent=1) + "\n")
    return str(path)


def affine(obj: dict, key: str, p) -> np.ndarray:
    """M(p) = M0 + sum_i p_i M_i from a system dict, e.g. key 'A'."""
    M = np.array(obj[key + "0"], dtype=float)
    for pi, Mi in zip(np.atleast_1d(p), obj[key]):
        M = M + pi * np.array(Mi, dtype=float)
    return M


def p_grid(obj: dict, density: int = 11) -> list:
    """The CLI's parameter grid: ``density`` points per non-degenerate axis (2: the corners)."""
    lo, hi = np.array(obj["p_lower"], float), np.array(obj["p_upper"], float)
    if lo.size == 0:
        return [np.zeros(0)]
    axes = [np.linspace(a, b, density) if b > a else np.array([a]) for a, b in zip(lo, hi)]
    grids = np.meshgrid(*axes, indexing="ij")
    return [np.array(c) for c in np.stack([g.ravel() for g in grids], axis=1)]


def hurwitz_at_corners(obj: dict) -> bool:
    return all(np.linalg.eigvals(affine(obj, "A", p)).real.max() < 0.0 for p in p_grid(obj, 2))


def _perturbed(example: dict, rng: np.random.Generator) -> dict:
    """Example with every coefficient entry scaled by 1 + U(-PERTURBATION, PERTURBATION)."""
    while True:
        obj = dict(example)
        for key in ("A", "B", "C", "D"):
            for k in (key + "0", key):
                arr = np.array(example[k], dtype=float)
                arr = arr * (1.0 + rng.uniform(-PERTURBATION, PERTURBATION, arr.shape))
                obj[k] = np.round(arr, 6).tolist()
        if hurwitz_at_corners(obj):
            return obj


def _schedule(example: dict, rng: np.random.Generator):
    """An in-box sinusoid schedule: spec ``sin:c:a:rate:phase`` and its values."""
    lo, hi = float(example["p_lower"][0]), float(example["p_upper"][0])
    c = rng.uniform(lo + 0.2 * (hi - lo), hi - 0.2 * (hi - lo))
    a = rng.uniform(0.3, 0.9) * min(c - lo, hi - c)
    vals = [float(_num(v)) for v in (c, a, rng.uniform(1.0, 6.0), rng.uniform(0.0, 2.0 * np.pi))]
    return "sin:" + ":".join(_num(v) for v in vals), vals


def _signal(rng: np.random.Generator):
    """1-3 cosines: spec ``cos:amp:phase@freq,...`` and (amp, phase, freq) triples."""
    terms = [[float(_num(v)) for v in (rng.uniform(0.5, 1.5), rng.uniform(0.0, 2.0 * np.pi),
                                       rng.uniform(0.2, 2.0))]
             for _ in range(int(rng.integers(1, 4)))]
    return ",".join(f"cos:{_num(a)}:{_num(ph)}@{_num(w)}" for a, ph, w in terms), terms


def certify_batch(example: dict, rng, out: Path) -> list:
    f = write_system(example, out / "example.json")
    w1, w2 = rng.uniform(0.49, 0.51), rng.uniform(1.49, 1.51)
    specs = [("lpv_ef", "low:1"), ("lpv_ff", "low:1"), ("lpv_ff", f"mid:{_num(w1)}:{_num(w2)}")]
    return [Job(f"analyze-{mode}-{rng_spec}", "analyze",
                ["analyze", "--system", f, "--range", rng_spec, "--mode", mode,
                 "--bisect-tol", "1e-3"], f, {"mode": mode, "range": rng_spec})
            for mode, rng_spec in specs]


def enlarge_batch(example: dict, rng, out: Path) -> list:
    jobs = []
    for j in range(ENLARGE_JOBS):
        obj = _perturbed(example, rng)
        # sigma_max(A(p)) > 10 on every perturbed box, so w <= 3 leaves a positive gap
        w = rng.uniform(1.0, 3.0)
        f = write_system(obj, out / f"enlarge{j}.json")
        jobs.append(Job(f"enlarge-{j}", "enlarge",
                        ["enlarge", "--system", f, "--range", f"low:{_num(w)}"], f,
                        {"edge": float(_num(w))}))
    return jobs


def validate_batch(example: dict, rng, out: Path) -> list:
    f = write_system(example, out / "example.json")
    jobs = []
    for j in range(SIMULATE_JOBS):
        signal, sig_vals = _signal(rng)
        sched, sched_vals = _schedule(example, rng)
        w1, w2 = rng.uniform(0.3, 0.8), rng.uniform(1.2, 2.0)
        jobs.append(Job(f"simulate-{j}", "simulate",
                        ["simulate", "--system", f, "--signal", signal, "--schedule", sched,
                         "--range", "low:1", "--range", f"mid:{_num(w1)}:{_num(w2)}",
                         "--t-end", repr(SIM_T_END), "--step", repr(SIM_STEP)], f,
                        {"schedule": sched_vals, "signal": sig_vals}))
    for j in range(GRAMIAN_JOBS):
        w = rng.uniform(0.8, 1.5)
        jobs.append(Job(f"gramians-{j}", "gramians",
                        ["gramians", "--system", f, "--range", f"low:{_num(w)}",
                         "--schedule", _schedule(example, rng)[0], "--t", repr(GRAMIAN_T)], f))
    return jobs


BATCHES = {"certify": certify_batch, "enlarge": enlarge_batch, "validate": validate_batch}


def make_batch(workload: str, seed: int, index: int, example_path, out_dir) -> list:
    """Write batch ``index`` of a workload's inputs into ``out_dir`` and return its jobs.

    Besides the system files, ``jobs.json`` lists every job's CLI arguments
    with file paths relative to ``out_dir``.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    example = json.loads(Path(example_path).read_text())
    jobs = BATCHES[workload](example, _rng(workload, seed, index), out)
    prefix = str(out) + "/"
    specs = [{"name": j.name, "kind": j.kind, "meta": j.meta,
              "argv": [a.removeprefix(prefix) for a in j.argv]} for j in jobs]
    (out / "jobs.json").write_text(json.dumps(specs, sort_keys=True, indent=1) + "\n")
    return jobs
