"""Output checks for the benchmark's jobs.

Each check reads a job's output files after the timed region and returns a
``Check``: whether the output is correct, why not, and the job's answer over
an independent reference (``answer_over_ref``, at least 1, lower is better):

* analyze: certified level (bracket hi) over the frozen in-band peak gain,
  max sigma_max(G(jw, p)) over the parameter grid, which lower-bounds it;
* enlarge: 1 + relative deviation of the reported gap^2 from a recomputation;
* simulate: 1 + deviation of the CSV states from a ``solve_ivp`` rerun over
  the first ``IVP_WINDOW`` seconds, relative to the state's peak there.

The references use numpy and scipy on the system file directly.  Only the
certificate re-verification calls the package (``build_problem`` and
``max_eig_neg``), with a fresh eigensolve at the certified level.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp

from finitefreq.cli import parse_range
from finitefreq.lmi import build_problem
from finitefreq.model import load_system
from finitefreq.sdp import max_eig_neg
from inputs import affine, p_grid

IVP_WINDOW = 2.0
IVP_MATCH = 1e-6  # CSV carries 9 significant digits and RK4 at h=1e-3 is ~1e-8 accurate here
GAP_MATCH = 1e-9
EIG_TOL = 1e-9
PEAK_GRID = 401


@dataclass
class Check:
    ok: bool
    reason: str = ""
    answer_over_ref: float = float("nan")


def parse_band(spec: str):
    """'low:w' | 'mid:w1:w2' | 'entire' -> (lo, hi) edges on the positive axis."""
    parts = spec.split(":")
    if parts[0] == "low":
        return 0.0, float(parts[1])
    if parts[0] == "mid":
        return float(parts[1]), float(parts[2])
    if parts[0] == "entire":
        return 0.0, math.inf
    raise ValueError(f"unsupported band {spec!r}")


def frozen_peak(obj: dict, band) -> float:
    """max over the parameter grid and a frequency grid of sigma_max(G(jw, p))."""
    lo, hi = band
    if math.isinf(hi):
        w = np.concatenate([np.linspace(lo, 10.0, PEAK_GRID), np.geomspace(10.0, 1e4, PEAK_GRID)])
    else:
        w = np.linspace(lo, hi, PEAK_GRID)
    peak = 0.0
    for p in p_grid(obj):
        A, B, C, D = (affine(obj, k, p) for k in "ABCD")
        M = 1j * w[:, None, None] * np.eye(A.shape[0]) - A
        G = C @ np.linalg.solve(M, np.broadcast_to(B, (w.size,) + B.shape)) + D
        peak = max(peak, float(np.linalg.svd(G, compute_uv=False)[:, 0].max()))
    return peak


def decision_vector(certificate: dict) -> np.ndarray:
    """Pack P0.., Q0.. back into the solver's vector: upper triangles, row by row."""
    keys = sorted(certificate, key=lambda k: (k[0], int(k[1:])))
    out = []
    for k in keys:
        M = np.array(certificate[k], dtype=float)
        out.extend(M[i, j] for i in range(M.shape[0]) for j in range(i, M.shape[0]))
    return np.array(out)


def check_analyze(job, out_dir: Path) -> Check:
    cert = json.loads((out_dir / "certificate.json").read_text())
    hi = float(cert["bracket"][1])
    obj = json.loads(Path(job.system).read_text())
    band = (0.0, math.inf) if job.meta["mode"] in ("kyp", "lpv_ef") else parse_band(job.meta["range"])
    lb = frozen_peak(obj, band)
    if not (math.isfinite(hi) and hi >= lb):
        return Check(False, f"certified level {hi} below the frozen lower bound {lb}", hi / lb)
    prob = build_problem(load_system(job.system), parse_range(job.meta["range"]),
                         job.meta["mode"], hi)
    lam = max_eig_neg(prob.form, decision_vector(cert["certificate"]))
    if not lam <= -prob.margin / 2:
        return Check(False, f"certificate fails re-verification: {lam} > {-prob.margin / 2}",
                     hi / lb)
    return Check(True, "", hi / lb)


def check_enlarge(job, out_dir: Path) -> Check:
    res = json.loads((out_dir / "enlarge.json").read_text())
    nums = {k: v for k, v in res.items() if isinstance(v, (int, float))}
    bad = sorted(k for k, v in nums.items() if not math.isfinite(v))
    if bad:
        return Check(False, f"non-finite outputs: {bad}")
    obj = json.loads(Path(job.system).read_text())
    w = job.meta["edge"]
    gap = max(max(0.0, float(np.linalg.norm(affine(obj, "A", p), 2)) ** 2 - w * w)
              for p in p_grid(obj))
    dev = abs(res["gap_squared"] - gap) / max(gap, 1.0)
    if dev > GAP_MATCH:
        return Check(False, f"gap^2 {res['gap_squared']} != recomputed {gap}", 1.0 + dev)
    edge = parse_band(res["enlarged_range"])[1]
    if not edge >= parse_band(res["original_range"])[1]:
        return Check(False, f"enlarged edge {edge} below the original {w}", 1.0 + dev)
    return Check(True, "", 1.0 + dev)


def check_simulate(job, out_dir: Path) -> Check:
    summary = json.loads((out_dir / "simulate.json").read_text())
    fracs = summary["band_energy_fraction"].values()
    if not all(0.0 <= f <= 1.0 for f in fracs):
        return Check(False, f"spectrum fraction outside [0, 1]: {list(fracs)}")
    if not math.isfinite(summary["final_gamma_R"]):
        return Check(False, "non-finite realized gain")
    with open(out_dir / "simulate.csv", newline="") as fh:
        rows = csv.reader(fh)
        head = next(rows)
        data = [list(map(float, r)) for r in rows if float(r[0]) <= IVP_WINDOW + 1e-9]
    data = np.array(data)
    cols = [head.index(c) for c in head if c.startswith("x") and not c.startswith("xdot")]
    t, x_csv = data[:, 0], data[:, cols]

    obj = json.loads(Path(job.system).read_text())
    sched, signal = job.meta["schedule"], job.meta["signal"]

    def rhs(s, x):
        p = sched[0] + sched[1] * math.sin(sched[2] * s + sched[3])
        u = sum(a * math.cos(w * s + ph) for a, ph, w in signal)
        return affine(obj, "A", p) @ x + affine(obj, "B", p)[:, 0] * u

    ivp = solve_ivp(rhs, (0.0, t[-1]), np.zeros(len(cols)), method="DOP853",
                    t_eval=t, rtol=1e-9, atol=1e-12)
    if not ivp.success:
        return Check(False, f"reference integration failed: {ivp.message}")
    dev = float(np.abs(x_csv - ivp.y.T).max() / max(np.abs(ivp.y).max(), 1e-300))
    if not dev <= IVP_MATCH:
        return Check(False, f"states deviate from solve_ivp by {dev:.3g} (relative)", 1.0 + dev)
    return Check(True, "", 1.0 + dev)


def check_gramians(job, out_dir: Path) -> Check:
    rep = json.loads((out_dir / "gramians.json").read_text())
    for name, eigs in rep["eigenvalues"].items():
        eigs = np.array(eigs, dtype=float)
        if not np.all(np.isfinite(eigs)):
            return Check(False, f"non-finite eigenvalues of {name}")
        if eigs.min() < -EIG_TOL * np.abs(eigs).max():
            return Check(False, f"{name} has a negative eigenvalue {eigs.min()}")
    if not all(math.isfinite(v) for v in rep["traces"].values()):
        return Check(False, "non-finite traces")
    return Check(True)


CHECKS = {"analyze": check_analyze, "enlarge": check_enlarge,
          "simulate": check_simulate, "gramians": check_gramians}


def check_job(job, out_dir: Path, exit_code, error) -> Check:
    """A job passes when it raised nothing, exited 0 and its outputs check out."""
    if error is not None:
        return Check(False, f"raised: {error.strip().splitlines()[-1]}")
    if exit_code != 0:
        return Check(False, f"exit code {exit_code}")
    try:
        return CHECKS[job.kind](job, Path(out_dir))
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return Check(False, f"unreadable output: {exc!r}")
