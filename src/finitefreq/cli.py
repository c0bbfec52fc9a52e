"""Command-line front end: analyze, enlarge, simulate, gramians, certify-uas, reproduce.

Exit codes, set in ``main`` alone: 0 success; 1 for a ValueError (a bad
option, spec, system file or input), printed as ``error: ...`` on stderr;
2 for a RuntimeError (no certificate found, a diverged run), printed as
``infeasible: ...`` on stdout, and for a reproduction with a failed row.
All JSON output is deterministic (sorted keys, no timestamps).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import reference
from .enlargement import (delta_squared, enlarge_range, gap, recommend_range,
                          uniform_spectral_radius)
from .gramians import gramian_lpv_frozen, gramian_set, shifted_trace_bound
from .lmi import MODES, min_gamma, uas_certificate
from .model import FrequencyRange, load_system
from .simulation import (BandLimitedSignal, ScheduleTrajectory, iqc_value,
                         performance_ratio, simulate, spectrum_fraction)


_CSV_CHUNK = 256  # simulate.csv rows formatted per write
_GRAMIAN_T = 20.0  # gramians --t when a schedule is given


class UsageError(ValueError):
    pass


def parse_range(spec: str) -> FrequencyRange:
    """Range mini-grammar: low:<w>, mid:<w1>:<w2>, high:<w>, entire."""
    parts = spec.split(":")
    try:
        if parts[0] == "low" and len(parts) == 2:
            return FrequencyRange.low(float(parts[1]))
        if parts[0] == "mid" and len(parts) == 3:
            return FrequencyRange.middle(float(parts[1]), float(parts[2]))
        if parts[0] == "high" and len(parts) == 2:
            return FrequencyRange.high(float(parts[1]))
        if parts[0] == "entire" and len(parts) == 1:
            return FrequencyRange.entire()
    except ValueError as exc:
        raise UsageError(f"bad range spec {spec!r}: {exc}") from exc
    raise UsageError(f"bad range spec {spec!r}")


def parse_signal(spec: str) -> BandLimitedSignal:
    """Signal mini-grammar: comma-separated cos:<amp>:<phase>[@<freq>] terms.

    The frequency defaults to 1 rad/s.
    """
    comps = []
    for term in spec.split(","):
        term = term.strip()
        if not term.startswith("cos:"):
            raise UsageError(f"bad signal term {term!r}")
        body, at, fs = term[len("cos:"):].partition("@")
        fields = body.split(":")
        if len(fields) != 2:
            raise UsageError(f"bad signal term {term!r}")
        try:
            comps.append((float(fields[0]), float(fs) if at else 1.0, float(fields[1])))
        except ValueError as exc:
            raise UsageError(f"bad signal term {term!r}: {exc}") from exc
    try:
        return BandLimitedSignal(tuple(comps))
    except ValueError as exc:
        raise UsageError(f"bad signal spec {spec!r}: {exc}") from exc


def parse_schedule(spec: str, box=None) -> ScheduleTrajectory:
    """Schedule mini-grammar: const:<p0>[,..] or sin:<center>:<amp>:<rate>[:<phase>]."""
    parts = spec.split(":")
    try:
        if parts[0] == "const" and len(parts) == 2:
            return ScheduleTrajectory.constant([float(v) for v in parts[1].split(",")], box=box)
        if parts[0] == "sin" and len(parts) in (4, 5):
            phase = float(parts[4]) if len(parts) == 5 else 0.0
            return ScheduleTrajectory.sinusoid(
                [float(v) for v in parts[1].split(",")],
                [float(v) for v in parts[2].split(",")], float(parts[3]), phase, box=box)
    except ValueError as exc:
        raise UsageError(f"bad schedule spec {spec!r}: {exc}") from exc
    raise UsageError(f"bad schedule spec {spec!r}")


def parse_p(spec: str) -> list:
    """Parameter mini-grammar: comma-separated finite numbers <p1>[,<p2>..]."""
    try:
        p = [float(v) for v in spec.split(",")]
        if not np.isfinite(p).all():
            raise ValueError("values must be finite")
    except ValueError as exc:
        raise UsageError(f"bad --p spec {spec!r}: {exc}") from exc
    return p


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, FrequencyRange):
        return obj.describe()
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def write_json(path, obj):
    # strict JSON: a NaN or infinity raises ValueError before the file is opened
    text = json.dumps(_jsonable(obj), sort_keys=True, indent=1, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _write(args, name, report):
    """Write report as JSON to name in the output directory, and say where."""
    path = os.path.join(args.out, name)
    write_json(path, report)
    print(f"wrote {path}")


def _load(args):
    try:
        return load_system(args.system)
    except (OSError, ValueError) as exc:  # unreadable, not JSON, or not a system description
        raise UsageError(f"bad system file {args.system}: {exc}") from exc


def cmd_analyze(args):
    system = _load(args)
    rng = parse_range(args.range)
    res = min_gamma(system, rng, args.mode, bisect_tol=args.bisect_tol)
    label = " (conditional on in-band state behavior)" if args.mode == "lpv_ff" else ""
    print(f"mode={args.mode} range={rng} gamma*={res.gamma_star:.6g}{label}")
    print(f"relaxation_gap_flag={res.relaxation_gap_flag} "
          f"bracket=({res.bracket[0]:.6g}, {res.bracket[1]:.6g}) lo_certified={res.lo_certified}")
    _write(args, "certificate.json", {
        "mode": res.mode, "range": rng, "gamma_star": res.gamma_star,
        "certificate": res.certificate, "bisection_trace": res.bisection_trace,
        "relaxation_gap_flag": res.relaxation_gap_flag,
        "grid_violations": [(p, r, lam) for p, r, lam in res.violations],
        "margin": res.margin, "bracket": list(res.bracket), "lo_certified": res.lo_certified,
    })
    return 0


def cmd_enlarge(args):
    system = _load(args)
    rng = parse_range(args.range)
    res = recommend_range(system, rng, args.c3, args.c1, args.c2)
    print(f"gap^2 = {res.gap_squared:.6g}")
    print(f"rho_unif = {res.rho_unif:.6g}")
    print("traces: none (gap is zero)" if res.trace_W_p_min is None else
          f"traces: W_p_min={res.trace_W_p_min:.6g} W_dot_p={res.trace_W_dot_p:.6g}")
    print(f"delta^2 = {res.delta_squared:.6g}")
    print(f"range: {res.original} -> {res.enlarged}")
    _write(args, "enlarge.json", {
        "gap_squared": res.gap_squared, "delta_squared": res.delta_squared,
        "rho_unif": res.rho_unif,
        "trace_W_p_min": res.trace_W_p_min, "trace_W_dot_p": res.trace_W_dot_p,
        "original_range": res.original, "enlarged_range": res.enlarged,
    })
    return 0


def cmd_simulate(args):
    if not args.csv_stride > 0:
        raise UsageError("--csv-stride must be a positive integer")
    system = _load(args)
    signal = parse_signal(args.signal)
    schedule = parse_schedule(args.schedule, box=system.box) if args.schedule is not None \
        else reference.example_schedule()
    ranges = [parse_range(s) for s in (args.range or ["low:1"])]
    result = simulate(system, schedule, signal, args.t_end, args.step)
    gamma_r = performance_ratio(result)
    reports = [iqc_value(result, r) for r in ranges]
    fractions = [spectrum_fraction(result, r) for r in ranges]
    # x, x_dot and y are finite, but their integrals can overflow: fail before any output
    bad = [name for name, v in [("final gamma_R", gamma_r[-1])] +
           [(f"IQC on {r}", rep.final_value) for r, rep in zip(ranges, reports)] +
           [(f"band energy fraction on {r}", f) for r, f in zip(ranges, fractions)]
           if not np.isfinite(v)]
    if bad:
        raise RuntimeError(f"not finite: {', '.join(bad)}")
    summary = {
        "final_gamma_R": float(gamma_r[-1]),
        "t_end": args.t_end, "step": result.step,  # t_end / N, the step taken
        "iqc": {r.describe(): {"final": rep.final_value, "verdict": rep.sign_verdict}
                for r, rep in zip(ranges, reports)},
        "band_energy_fraction": {r.describe(): f for r, f in zip(ranges, fractions)},
    }

    csv_path = os.path.join(args.out, "simulate.csv")
    states = [f"{v}{i+1}" for v in ("x", "xdot") for i in range(system.n)]
    head = ["t", "u"] + states + ["y", "gamma_R"] + [f"S[{r.describe()}]" for r in ranges]
    stride = args.csv_stride
    table = np.column_stack(
        [result.times[::stride], result.u[::stride, 0], result.x[::stride],
         result.x_dot[::stride], result.y[::stride, 0], gamma_r[::stride]] +
        [rep.s_curve[::stride] for rep in reports])
    # CSV rows of f"{v:.9g}" cells, \r\n-terminated; no header cell needs quoting
    row_fmt = ",".join(["%.9g"] * len(head)) + "\r\n"
    with open(csv_path, "w", newline="") as fh:
        fh.write(",".join(head) + "\r\n")
        for k in range(0, len(table), _CSV_CHUNK):  # a chunk of rows per write
            chunk = table[k:k + _CSV_CHUNK]
            fh.write((row_fmt * len(chunk)) % tuple(chunk.ravel().tolist()))
    print(f"final gamma_R = {gamma_r[-1]:.6g}")
    for r, rep in zip(ranges, reports):
        print(f"IQC on {r}: final={rep.final_value:.6g} verdict={rep.sign_verdict}")
    print(f"wrote {csv_path}")
    _write(args, "simulate.json", summary)
    return 0


def cmd_gramians(args):
    if not args.quad_nodes > 0:
        raise UsageError("--quad-nodes must be a positive integer")
    system = _load(args)
    rng = parse_range(args.range)
    if args.schedule is not None:
        schedule = parse_schedule(args.schedule, box=system.box)
        t = _GRAMIAN_T if args.t is None else args.t
        gramians = gramian_set(system, schedule, t, rng, args.quad_nodes, classical=args.classical)
        report = {"time": t}
    elif args.t is not None:
        raise UsageError("--t needs --schedule: a frozen Gramian has no time")
    else:
        p = parse_p(args.p) if args.p is not None else system.box.midpoint()
        gramians = {"W_p": gramian_lpv_frozen(system, p, rng, args.quad_nodes, args.classical)}
        report = {"p": list(np.atleast_1d(p))}
    report.update({"traces": {k: float(np.trace(W)) for k, W in gramians.items()},
                   "eigenvalues": {k: np.linalg.eigvalsh(W) for k, W in gramians.items()},
                   "range": rng, "quad_nodes": args.quad_nodes,
                   "classical_normalization": bool(args.classical)})
    print(json.dumps(_jsonable(report["traces"]), sort_keys=True))
    _write(args, "gramians.json", report)
    return 0


def cmd_certify_uas(args):
    cert = uas_certificate(_load(args), args.c3, args.c1, args.c2)
    print(f"c1={cert.c1:.6g} c2={cert.c2:.6g} c3={cert.c3:.6g}")
    print(f"alpha={cert.alpha:.6g} beta={cert.beta:.6g}")
    _write(args, "uas.json", {"c1": cert.c1, "c2": cert.c2, "c3": cert.c3,
                              "alpha": cert.alpha, "beta": cert.beta,
                              "P": [M for M in cert.P]})
    return 0


def _band_row(rows, name, computed):
    ref, band, ok = reference.check_band(name, computed)
    rows.append({"name": name, "computed": computed, "reference": ref,
                 "band": band, "pass": ok})


def cmd_reproduce(args):
    system = reference.example_system()
    rng = reference.example_band()
    schedule = reference.example_schedule()
    signal = reference.example_signal()
    rows = []

    if args.which == "example1":
        g_ff = min_gamma(system, rng, "lpv_ff", bisect_tol=1e-3)
        _band_row(rows, "gamma_lpv_ff_low1", g_ff.gamma_star)
        g_ef = min_gamma(system, rng, "lpv_ef", bisect_tol=1e-3)
        _band_row(rows, "gamma_lpv_ef", g_ef.gamma_star)
        result = simulate(system, schedule, signal, 60.0, 1e-3)
        rep = iqc_value(result, rng)
        gamma_r = float(performance_ratio(result)[-1])
        rows.append({"name": "iqc_sign_on_band", "computed": rep.sign_verdict,
                     "reference": "negative", "band": None,
                     "pass": rep.sign_verdict == "negative"})
        g_min = min(g_ff.gamma_star, g_ef.gamma_star)
        rows.append({"name": "gamma_R_below_certificates", "computed": gamma_r,
                     "reference": f"<= {g_min:.4f}", "band": None, "pass": gamma_r <= g_min})
    else:  # example2
        _band_row(rows, "gap_squared", gap(system, rng))
        _band_row(rows, "rho_unif", uniform_spectral_radius(system))
        _band_row(rows, "trace_w_p", float(np.trace(gramian_lpv_frozen(system, [0.15], rng))))
        (c1, c2, c3), _ = reference.REFERENCE["uas_c"]
        cert = uas_certificate(system, c3, c1, c2)
        bound = shifted_trace_bound(system, rng, cert)
        _band_row(rows, "trace_bound_1", bound.bound_1)
        _band_row(rows, "trace_bound_2", bound.bound_2)
        # widening arithmetic on the reference ingredient values
        ref_d2 = delta_squared(reference.REFERENCE["gap_squared"][0],
                               reference.REFERENCE["trace_w_p"][0],
                               reference.REFERENCE["trace_bound_1"][0]
                               + reference.REFERENCE["trace_bound_2"][0])
        _band_row(rows, "delta_squared", ref_d2)
        _band_row(rows, "enlarged_edge", enlarge_range(rng, ref_d2).hi)
        enlarged = FrequencyRange.low(reference.REFERENCE["enlarged_edge"][0])
        g2 = min_gamma(system, enlarged, "theorem2", bisect_tol=1e-3)
        _band_row(rows, "gamma_theorem2_enlarged", g2.gamma_star)
        result = simulate(system, schedule, signal, 60.0, 1e-3)
        rep = iqc_value(result, enlarged)
        rows.append({"name": "iqc_sign_on_enlarged_band", "computed": rep.sign_verdict,
                     "reference": "nonnegative", "band": None,
                     "pass": rep.sign_verdict == "nonnegative"})

    width = max(len(r["name"]) for r in rows)
    for r in rows:
        flag = {True: "PASS", False: "FAIL", None: "info"}[r["pass"]]
        band = f" (band {r['band']:.1%})" if r["band"] else ""
        comp = f"{r['computed']:.6g}" if isinstance(r["computed"], float) else r["computed"]
        print(f"{r['name']:<{width}}  computed={comp}  reference={r['reference']}"
              f"{band}  [{flag}]")
    _write(args, f"reproduce_{args.which}.json", {"rows": rows, "target": args.which})
    failed = [r["name"] for r in rows if r["pass"] is False]
    if failed:
        print(f"failed bands: {', '.join(failed)}")
        return 2
    return 0


@functools.cache
def build_parser():
    ap = argparse.ArgumentParser(prog="finitefreq",
                                 description="Finite-frequency analysis of LTI/LPV systems")
    ap.add_argument("--out", default=".", help="output directory")
    sub = ap.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="minimal certified gain: one barrier run over gamma^2")
    pa.add_argument("--system", required=True)
    pa.add_argument("--range", default="entire")
    pa.add_argument("--mode", default="lpv_ff", choices=MODES)
    pa.add_argument("--bisect-tol", type=float, default=1e-3,
                    help="largest width of the reported gain bracket")
    pa.set_defaults(func=cmd_analyze)

    pe = sub.add_parser("enlarge", help="gap, traces, and recommended band widening")
    pe.add_argument("--system", required=True)
    pe.add_argument("--range", required=True)
    pe.add_argument("--c1", type=float)
    pe.add_argument("--c2", type=float)
    pe.add_argument("--c3", type=float, default=1.0)
    pe.set_defaults(func=cmd_enlarge)

    ps = sub.add_parser("simulate", help="time-domain run with realized gain and IQC")
    ps.add_argument("--system", required=True)
    ps.add_argument("--signal", required=True)
    ps.add_argument("--schedule", default=None)
    ps.add_argument("--range", action="append")
    ps.add_argument("--t-end", type=float, default=60.0)
    ps.add_argument("--step", type=float, default=1e-3)
    ps.add_argument("--csv-stride", type=int, default=10)
    ps.set_defaults(func=cmd_simulate)

    pg = sub.add_parser("gramians", help="band-restricted controllability Gramians")
    pg.add_argument("--system", required=True)
    pg.add_argument("--range", required=True)
    pg.add_argument("--p", default=None)
    pg.add_argument("--schedule", default=None)
    pg.add_argument("--t", type=float, default=None,
                    help=f"time along the schedule (default {_GRAMIAN_T:g}); needs --schedule")
    pg.add_argument("--quad-nodes", type=int, default=201)
    pg.add_argument("--classical", action="store_true")
    pg.set_defaults(func=cmd_gramians)

    pu = sub.add_parser("certify-uas", help="exponential-decay certificate")
    pu.add_argument("--system", required=True)
    pu.add_argument("--c3", type=float, required=True)
    pu.add_argument("--c1", type=float)
    pu.add_argument("--c2", type=float)
    pu.set_defaults(func=cmd_certify_uas)

    pr = sub.add_parser("reproduce", help="one-command benchmark reproduction")
    pr.add_argument("which", choices=["example1", "example2"])
    pr.set_defaults(func=cmd_reproduce)
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    os.makedirs(args.out, exist_ok=True)
    try:
        return args.func(args)
    except ValueError as exc:  # UsageError, DimensionError, LinAlgError, JSONDecodeError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"infeasible: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
