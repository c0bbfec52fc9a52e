import csv
import io
import json
from pathlib import Path

import numpy as np
import pytest

import finitefreq as ff
from finitefreq import cli, lmi

EXAMPLE = Path(__file__).resolve().parents[1] / "data" / "example1.json"


@pytest.mark.parametrize("stride", [7, 10])
def test_simulate_csv_matches_csv_writer_rendering(tmp_path, stride):
    signal = "cos:1.0:0.3@0.8,cos:0.5:1.0@1.7"
    schedule = "sin:0.15:0.04:3.0:0.5"
    ranges = ["low:1", "mid:0.5:1.5"]
    argv = ["--out", str(tmp_path), "simulate", "--system", str(EXAMPLE), "--signal", signal,
            "--schedule", schedule, "--t-end", "2.5", "--step", "1e-3",
            "--csv-stride", str(stride)]
    for r in ranges:
        argv += ["--range", r]
    assert cli.main(argv) == 0

    system = ff.load_system(EXAMPLE)
    res = ff.simulate(system, cli.parse_schedule(schedule, box=system.box),
                      cli.parse_signal(signal), 2.5, 1e-3)
    gamma_r = ff.performance_ratio(res)
    curves = [ff.iqc_value(res, cli.parse_range(r)).s_curve for r in ranges]
    want = io.StringIO(newline="")
    wr = csv.writer(want)
    wr.writerow(["t", "u", "x1", "x2", "xdot1", "xdot2", "y", "gamma_R", "S[low:1]",
                 "S[mid:0.5:1.5]"])
    for k in range(0, len(res.times), stride):
        row = ([res.times[k], res.u[k, 0]] + list(res.x[k]) + list(res.x_dot[k]) +
               [res.y[k, 0], gamma_r[k]] + [s[k] for s in curves])
        wr.writerow([f"{v:.9g}" for v in row])
    got = (tmp_path / "simulate.csv").read_bytes()
    assert got == want.getvalue().encode()
    assert got.count(b"\r\n") == 1 + len(range(0, len(res.times), stride))


@pytest.mark.parametrize("kind", ["low", "middle", "high", "entire"])
def test_spectrum_fraction_mask_matches_contains_with_edges_on_bins(kind):
    step = 0.01
    u = np.random.default_rng(5).normal(size=3001)
    freqs = 2.0 * np.pi * np.fft.rfftfreq(u.size, d=step)
    rng = {"low": lambda: ff.FrequencyRange.low(freqs[40]),
           "middle": lambda: ff.FrequencyRange.middle(freqs[25], freqs[300]),
           "high": lambda: ff.FrequencyRange.high(freqs[700]),
           "entire": ff.FrequencyRange.entire}[kind]()
    energy = np.abs(np.fft.rfft(u * np.hanning(u.size))) ** 2
    mask = np.array([rng.contains(f) for f in freqs])
    assert ff.spectrum_fraction(u, rng, step) == float(energy[mask].sum() / energy.sum())
    if kind != "entire":  # the edge bins are inside the band
        edges = [f for f in freqs if f in (rng.lo, rng.hi)]
        assert edges and all(rng.contains(f) for f in edges)


def test_json_flag_is_gone(tmp_path):
    argv = ["--out", str(tmp_path), "--json", "gramians", "--system", str(EXAMPLE),
            "--range", "low:1"]
    assert cli.main(argv) == 1
    assert cli.main(argv[:2] + argv[3:]) == 0


@pytest.mark.parametrize("argv", [
    ["enlarge", "--system", str(EXAMPLE), "--range", "low:1", "--mode", "BIBS"],
    ["enlarge", "--system", str(EXAMPLE), "--range", "low:1", "--c1", "0.5"],
    ["enlarge", "--system", str(EXAMPLE), "--range", "low:1", "--c2", "0.6"],
    ["certify-uas", "--system", str(EXAMPLE), "--c3", "1.0", "--c1", "0.5"],
    ["certify-uas", "--system", str(EXAMPLE), "--c3", "1.0", "--c2", "0.6"],
    ["certify-uas", "--system", str(EXAMPLE), "--c3", "1.0", "--c1", "0", "--c2", "1"],
    ["certify-uas", "--system", str(EXAMPLE), "--c3", "-1"],
    ["enlarge", "--system", str(EXAMPLE), "--range", "low:1", "--c3", "0"],
    ["certify-uas", "--system", str(EXAMPLE), "--c3", "1.0", "--c1", "0.6", "--c2", "0.5"],
], ids=["enlarge-mode", "enlarge-c1", "enlarge-c2", "certify-uas-c1", "certify-uas-c2",
        "certify-uas-c1-zero", "certify-uas-c3-negative", "enlarge-c3-zero", "certify-uas-c1-above-c2"])
def test_usage_errors_exit_1_without_output(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.setattr(lmi, "solve_feasibility", None)  # no solve may start
    assert cli.main(["--out", str(tmp_path), *argv]) == 1
    assert list(tmp_path.iterdir()) == []
    err = capsys.readouterr().err
    assert "Traceback" not in err and ("error:" in err or "usage:" in err)


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_certify_uas_with_both_scalars(tmp_path):
    argv = ["--out", str(tmp_path), "certify-uas", "--system", str(EXAMPLE), "--c3", "7.4",
            "--c1", "0.5", "--c2", "0.6"]
    assert cli.main(argv) == 0
    assert json.loads((tmp_path / "uas.json").read_text())["alpha"] == pytest.approx(1.2)


def _decision_vector(certificate):
    """P0.., Q0.. packed back into the solver's vector: upper triangles, row by row."""
    out = []
    for k in sorted(certificate, key=lambda k: (k[0], int(k[1:]))):
        M = certificate[k]
        out.extend(M[i][j] for i in range(len(M)) for j in range(i, len(M)))
    return np.array(out)


@pytest.mark.parametrize("mode", lmi.MODES)
def test_analyze_certificate_reverifies_from_its_json(tmp_path, mode):
    argv = ["--out", str(tmp_path), "analyze", "--system", str(EXAMPLE), "--range", "low:1",
            "--mode", mode, "--bisect-tol", "1e-2"]
    assert cli.main(argv) == 0
    cert = json.loads((tmp_path / "certificate.json").read_text())
    hi = cert["bracket"][1]
    prob = ff.build_problem(ff.load_system(EXAMPLE), ff.FrequencyRange.low(1.0), mode, hi)
    x = _decision_vector(cert["certificate"])
    assert x.size == prob.layout.nvar
    assert ff.max_eig_neg(prob.form, x) <= -prob.margin / 2
