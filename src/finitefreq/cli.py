"""Command-line front end: analyze, enlarge, simulate, gramians, certify-uas, reproduce.

Exit codes: 0 success, 1 usage error, 2 infeasible / failed reproduction.
All JSON output is deterministic (sorted keys, no timestamps).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys

import numpy as np

from . import reference
from .enlargement import recommend_range
from .gramians import gramian_lpv_frozen, gramian_set
from .lmi import MODES, check_decay_scalars, min_gamma, uas_certificate
from .model import FrequencyRange, load_system
from .simulation import (BandLimitedSignal, ScheduleTrajectory, iqc_value,
                         performance_ratio, simulate, spectrum_fraction)


_CSV_CHUNK = 256  # simulate.csv rows formatted per write


class UsageError(Exception):
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
        body = term[len("cos:"):]
        freq = 1.0
        if "@" in body:
            body, fs = body.split("@", 1)
            freq = float(fs)
        fields = body.split(":")
        if len(fields) != 2:
            raise UsageError(f"bad signal term {term!r}")
        comps.append((float(fields[0]), freq, float(fields[1])))
    if not comps:
        raise UsageError("empty signal spec")
    return BandLimitedSignal(tuple(comps))


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
    with open(path, "w") as fh:
        json.dump(_jsonable(obj), fh, sort_keys=True, indent=1)
        fh.write("\n")


def _load(args):
    try:
        return load_system(args.system)
    except FileNotFoundError as exc:
        raise UsageError(f"system file not found: {args.system}") from exc
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        raise UsageError(f"bad system file: {exc}") from exc


def _uas_scalars(args):
    """(c1, c2) from the command line, checked with --c3 before any solve."""
    try:
        check_decay_scalars(args.c1, args.c2, args.c3)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return args.c1, args.c2


def cmd_analyze(args):
    system = _load(args)
    rng = parse_range(args.range)
    try:
        res = min_gamma(system, rng, args.mode, bisect_tol=args.bisect_tol)
    except RuntimeError as exc:
        print(f"infeasible: {exc}")
        return 2
    label = " (conditional on in-band state behavior)" if args.mode == "lpv_ff" else ""
    print(f"mode={args.mode} range={rng} gamma*={res.gamma_star:.6g}{label}")
    print(f"relaxation_gap_flag={res.relaxation_gap_flag} "
          f"bracket=({res.bracket[0]:.6g}, {res.bracket[1]:.6g})")
    out = os.path.join(args.out, "certificate.json")
    write_json(out, {
        "mode": res.mode, "range": rng, "gamma_star": res.gamma_star,
        "certificate": res.certificate, "bisection_trace": res.bisection_trace,
        "relaxation_gap_flag": res.relaxation_gap_flag,
        "grid_violations": [(p, r, lam) for p, r, lam in res.violations],
        "margin": res.margin, "bracket": list(res.bracket),
    })
    print(f"wrote {out}")
    return 0


def cmd_enlarge(args):
    system = _load(args)
    rng = parse_range(args.range)
    c1, c2 = _uas_scalars(args)
    uas = uas_certificate(system, args.c3, c1, c2) if c1 is not None else None
    res = recommend_range(system, rng, uas=uas, c3_target=args.c3)
    print(f"gap^2 = {res.gap_squared:.6g}")
    print(f"rho_unif = {res.rho_unif:.6g}")
    print(f"traces: W_p_min={res.trace_W_p_min:.6g} W_hat_p={res.trace_W_hat_p:.6g} "
          f"W_dot_p={res.trace_W_dot_p:.6g} ({res.trace_provenance})")
    print(f"delta^2 = {res.delta_squared:.6g}")
    print(f"range: {res.original} -> {res.enlarged}")
    out = os.path.join(args.out, "enlarge.json")
    write_json(out, {
        "gap_squared": res.gap_squared, "delta_squared": res.delta_squared,
        "mode": res.mode, "rho_unif": res.rho_unif,
        "trace_W_p_min": res.trace_W_p_min, "trace_W_hat_p": res.trace_W_hat_p,
        "trace_W_dot_p": res.trace_W_dot_p, "trace_provenance": res.trace_provenance,
        "original_range": res.original, "enlarged_range": res.enlarged,
    })
    print(f"wrote {out}")
    return 0


def cmd_simulate(args):
    system = _load(args)
    signal = parse_signal(args.signal)
    schedule = parse_schedule(args.schedule, box=system.box) if args.schedule \
        else reference.example_schedule()
    result = simulate(system, schedule, signal, args.t_end, args.step)
    gamma_r = performance_ratio(result)
    ranges = [parse_range(s) for s in (args.range or ["low:1"])]
    reports = [iqc_value(result, r) for r in ranges]

    csv_path = os.path.join(args.out, "simulate.csv")
    n = system.n
    with open(csv_path, "w", newline="") as fh:
        wr = csv.writer(fh)
        head = (["t", "u"] + [f"x{i+1}" for i in range(n)] +
                [f"xdot{i+1}" for i in range(n)] + ["y", "gamma_R"] +
                [f"S[{r.describe()}]" for r in ranges])
        wr.writerow(head)
        stride = max(1, int(round(args.csv_stride)))
        table = np.column_stack(
            [result.times[::stride], result.u[::stride, 0], result.x[::stride],
             result.x_dot[::stride], result.y[::stride, 0], gamma_r[::stride]] +
            [rep.s_curve[::stride] for rep in reports])
        # the rows csv.writer would give for f"{v:.9g}" cells, a chunk of rows per write
        row_fmt = ",".join(["%.9g"] * len(head)) + wr.dialect.lineterminator
        for k in range(0, len(table), _CSV_CHUNK):
            chunk = table[k:k + _CSV_CHUNK]
            fh.write((row_fmt * len(chunk)) % tuple(chunk.ravel().tolist()))
    summary = {
        "final_gamma_R": float(gamma_r[-1]),
        "t_end": args.t_end, "step": args.step,
        "iqc": {r.describe(): {"final": rep.final_value, "verdict": rep.sign_verdict}
                for r, rep in zip(ranges, reports)},
        "band_energy_fraction": {r.describe(): spectrum_fraction(result, r) for r in ranges},
    }
    js_path = os.path.join(args.out, "simulate.json")
    write_json(js_path, summary)
    print(f"final gamma_R = {gamma_r[-1]:.6g}")
    for r, rep in zip(ranges, reports):
        print(f"IQC on {r}: final={rep.final_value:.6g} verdict={rep.sign_verdict}")
    print(f"wrote {csv_path} and {js_path}")
    return 0


def cmd_gramians(args):
    system = _load(args)
    rng = parse_range(args.range)
    if args.schedule:
        schedule = parse_schedule(args.schedule, box=system.box)
        gs = gramian_set(system, schedule, args.t, rng, args.quad_nodes,
                         classical=args.classical)
        report = {
            "traces": gs.traces,
            "eigenvalues": {
                "W_p": np.linalg.eigvalsh(gs.W_p),
                "W_hat_p": np.linalg.eigvalsh(gs.W_hat_p),
                "W_dot_p_1": np.linalg.eigvalsh(gs.W_dot_p_1),
                "W_dot_p_2": np.linalg.eigvalsh(gs.W_dot_p_2),
            },
            "time": args.t,
        }
    else:
        p = [float(v) for v in args.p.split(",")] if args.p else system.box.midpoint()
        W = gramian_lpv_frozen(system, p, rng, args.quad_nodes, args.classical)
        report = {
            "traces": {"W_p": float(np.trace(W))},
            "eigenvalues": {"W_p": np.linalg.eigvalsh(W)},
            "p": list(np.atleast_1d(p)),
        }
    report.update({"range": rng, "quad_nodes": args.quad_nodes,
                   "classical_normalization": bool(args.classical)})
    out = os.path.join(args.out, "gramians.json")
    write_json(out, report)
    print(json.dumps(_jsonable(report["traces"]), sort_keys=True))
    print(f"wrote {out}")
    return 0


def cmd_certify_uas(args):
    system = _load(args)
    try:
        cert = uas_certificate(system, args.c3, *_uas_scalars(args))
    except RuntimeError as exc:
        print(f"infeasible: {exc}")
        return 2
    print(f"c1={cert.c1:.6g} c2={cert.c2:.6g} c3={cert.c3:.6g}")
    print(f"alpha={cert.alpha:.6g} beta={cert.beta:.6g}")
    out = os.path.join(args.out, "uas.json")
    write_json(out, {"c1": cert.c1, "c2": cert.c2, "c3": cert.c3,
                     "alpha": cert.alpha, "beta": cert.beta,
                     "P": [M for M in cert.P]})
    print(f"wrote {out}")
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
        rows.append({"name": "gamma_R_below_certificates",
                     "computed": gamma_r,
                     "reference": f"<= {min(g_ff.gamma_star, g_ef.gamma_star):.4f}",
                     "band": None,
                     "pass": gamma_r <= min(g_ff.gamma_star, g_ef.gamma_star)})
    elif args.which == "example2":
        from .enlargement import (delta_squared, enlarge_range, gap,
                                  uniform_spectral_radius)
        from .gramians import shifted_trace_bound

        _band_row(rows, "gap_squared", gap(system, rng))
        _band_row(rows, "rho_unif", uniform_spectral_radius(system))
        tr_w_p = float(np.trace(gramian_lpv_frozen(system, [0.15], rng)))
        rows.append({"name": "trace_w_p", "computed": tr_w_p,
                     "reference": reference.REFERENCE["trace_w_p"][0],
                     "band": None, "pass": None})
        (c1, c2, c3), _ = reference.REFERENCE["uas_c"]
        cert = uas_certificate(system, c3, c1, c2)
        bound = shifted_trace_bound(system, rng, cert)
        _band_row(rows, "trace_bound_1", bound.bound_1)
        _band_row(rows, "trace_bound_2", bound.bound_2)
        # widening arithmetic on the reference ingredient values
        ref_d2 = delta_squared(
            reference.REFERENCE["gap_squared"][0],
            {"tr_w_p_min": reference.REFERENCE["trace_w_p"][0],
             "tr_w_dot_p": reference.REFERENCE["trace_bound_1"][0]
                           + reference.REFERENCE["trace_bound_2"][0]},
            "UAS")
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
    else:
        raise UsageError(f"unknown reproduction target {args.which!r}")

    width = max(len(r["name"]) for r in rows)
    for r in rows:
        flag = {True: "PASS", False: "FAIL", None: "info"}[r["pass"]]
        band = f" (band {r['band']:.1%})" if r["band"] else ""
        comp = f"{r['computed']:.6g}" if isinstance(r["computed"], float) else r["computed"]
        print(f"{r['name']:<{width}}  computed={comp}  reference={r['reference']}"
              f"{band}  [{flag}]")
    out = os.path.join(args.out, f"reproduce_{args.which}.json")
    write_json(out, {"rows": rows, "target": args.which})
    print(f"wrote {out}")
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

    pa = sub.add_parser("analyze", help="minimal certified gain by bisection")
    pa.add_argument("--system", required=True)
    pa.add_argument("--range", default="entire")
    pa.add_argument("--mode", default="lpv_ff", choices=MODES)
    pa.add_argument("--bisect-tol", type=float, default=1e-3)
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
    ps.add_argument("--csv-stride", type=float, default=10)
    ps.set_defaults(func=cmd_simulate)

    pg = sub.add_parser("gramians", help="band-restricted controllability Gramians")
    pg.add_argument("--system", required=True)
    pg.add_argument("--range", required=True)
    pg.add_argument("--p", default=None)
    pg.add_argument("--schedule", default=None)
    pg.add_argument("--t", type=float, default=20.0)
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
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
