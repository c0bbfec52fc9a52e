import csv
import io
from pathlib import Path

import numpy as np
import pytest

import finitefreq as ff
from finitefreq import cli

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
