import csv
import io
import json
from pathlib import Path

import numpy as np
import pytest

import finitefreq as ff
from finitefreq import cli, lmi
from conftest import input_result

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
    # the symmetric window's last weight is 0: a periodic window over the first 3000 samples
    freqs = 2.0 * np.pi * np.fft.rfftfreq(u.size - 1, d=step)
    rng = {"low": lambda: ff.FrequencyRange.low(freqs[40]),
           "middle": lambda: ff.FrequencyRange.middle(freqs[25], freqs[300]),
           "high": lambda: ff.FrequencyRange.high(freqs[700]),
           "entire": ff.FrequencyRange.entire}[kind]()
    assert np.hanning(u.size)[-1] == 0.0
    energy = np.abs(np.fft.rfft(u[:-1] * np.hanning(u.size)[:-1])) ** 2
    mask = np.array([rng.contains(f) for f in freqs])
    got = ff.spectrum_fraction(input_result(u, step), rng)
    assert got == float(energy[mask].sum() / energy.sum())
    if kind != "entire":  # the edge bins are inside the band
        edges = [f for f in freqs if f in (rng.lo, rng.hi)]
        assert edges and all(rng.contains(f) for f in edges)


def test_json_flag_is_gone(tmp_path):
    argv = ["--out", str(tmp_path), "--json", "gramians", "--system", str(EXAMPLE),
            "--range", "low:1"]
    assert cli.main(argv) == 1
    assert cli.main(argv[:2] + argv[3:]) == 0


@pytest.mark.parametrize("args,message", [
    (["--p", "0.15,0.1"], "p has 2 values, the system has 1 parameter"),
    (["--t", "nan"], "--t needs --schedule"),
    (["--p", "nan"], "error: bad --p spec 'nan': values must be finite"),
    (["--p", "inf"], "error: bad --p spec 'inf': values must be finite"),
    (["--p", "0.15,inf"], "error: bad --p spec '0.15,inf': values must be finite"),
    (["--p", "abc"], "error: bad --p spec 'abc': could not convert string to float: 'abc'"),
    (["--quad-nodes", "0"], "error: --quad-nodes must be a positive integer"),
    (["--quad-nodes", "-3"], "error: --quad-nodes must be a positive integer"),
    (["--quad-nodes", "0", "--schedule", "const:0.15"],
     "error: --quad-nodes must be a positive integer"),
    (["--quad-nodes", "-3", "--schedule", "const:0.15"],
     "error: --quad-nodes must be a positive integer"),
])
def test_gramians_usage_errors_name_the_problem(tmp_path, capsys, args, message):
    argv = ["--out", str(tmp_path), "gramians", "--system", str(EXAMPLE), "--range", "low:1"]
    assert cli.main(argv + args) == 1
    assert message in capsys.readouterr().err


def test_gramians_time_defaults_to_20_with_a_schedule(tmp_path):
    argv = ["gramians", "--system", str(EXAMPLE), "--range", "low:1", "--schedule", "const:0.15"]
    assert cli.main(["--out", str(tmp_path / "a"), *argv]) == 0
    assert cli.main(["--out", str(tmp_path / "b"), *argv, "--t", "20"]) == 0
    a, b = ((tmp_path / d / "gramians.json").read_text() for d in "ab")
    assert a == b and json.loads(a)["time"] == 20.0


def test_gramians_broadcast_a_sinusoid_amplitude_over_two_parameters(tmp_path):
    obj = json.loads(EXAMPLE.read_text())  # the example, every coefficient and bound twice
    obj.update({k: obj[k] * 2 for k in ("A", "B", "C", "D", "p_lower", "p_upper",
                                        "rate_lower", "rate_upper")}, params=2)
    system = tmp_path / "two.json"
    system.write_text(json.dumps(obj))
    argv = ["--out", str(tmp_path / "out"), "gramians", "--system", str(system),
            "--range", "low:1", "--schedule", "sin:0.15,0.12:0.03:2"]
    with pytest.warns(UserWarning, match="parameter box"):  # 0.12 - 0.03 < 0.1
        assert cli.main(argv) == 0
    traces = json.loads((tmp_path / "out" / "gramians.json").read_text())["traces"]
    assert traces["W_dot_p_2"] > 0  # the input drift sees pdot in both parameters


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
    ["enlarge", "--system", str(EXAMPLE), "--range", "low:20", "--c1", "0.6", "--c2", "0.5"],
    ["analyze", "--system", str(EXAMPLE), "--range", "low:1", "--bisect-tol", "nan"],
    ["analyze", "--system", "NOT_AN_OBJECT", "--range", "low:1"],
    ["certify-uas", "--system", str(EXAMPLE.parent), "--c3", "1.0"],
    ["gramians", "--system", str(EXAMPLE), "--range", "low:1", "--schedule", "const:0.15",
     "--t", "-1"],
    ["gramians", "--system", str(EXAMPLE), "--range", "low:1", "--schedule", "const:0.15",
     "--t", "nan"],
    ["gramians", "--system", str(EXAMPLE), "--range", "low:1", "--schedule",
     "sin:0.15,0.1:0.01,0.01:1"],
    ["gramians", "--system", str(EXAMPLE), "--range", "low:1", "--p", "0.15,0.1"],
    ["gramians", "--system", str(EXAMPLE), "--range", "low:1", "--p", "nan"],
    ["gramians", "--system", str(EXAMPLE), "--range", "low:1", "--quad-nodes", "0"],
    ["gramians", "--system", str(EXAMPLE), "--range", "low:1", "--t", "nan"],
    ["gramians", "--system", str(EXAMPLE), "--range", "low:1", "--t", "20"],
    ["certify-uas", "--system", "N_IS_A_LIST", "--c3", "1"],
    ["certify-uas", "--system", "A0_IS_AN_OBJECT", "--c3", "1"],
    ["simulate", "--system", str(EXAMPLE), "--signal", "cos:1:0", "--range", "low:x"],
    ["simulate", "--system", str(EXAMPLE), "--signal", "cos:1:0", "--csv-stride", "inf"],
    ["simulate", "--system", str(EXAMPLE), "--signal", "cos:1:0", "--csv-stride", "0"],
    ["simulate", "--system", str(EXAMPLE), "--signal", "cos:1:0", "--csv-stride", "-3"],
    ["reproduce", "example3"],
], ids=["enlarge-mode", "enlarge-c1", "enlarge-c2", "certify-uas-c1", "certify-uas-c2",
        "certify-uas-c1-zero", "certify-uas-c3-negative", "enlarge-c3-zero",
        "certify-uas-c1-above-c2", "enlarge-c1-above-c2-zero-gap",
        "analyze-bisect-tol-nan", "analyze-system-not-an-object",
        "certify-uas-system-is-a-directory", "gramians-t-negative", "gramians-t-nan", "gramians-schedule-two-params", "gramians-p-two-params",
        "gramians-p-nan", "gramians-quad-nodes-zero",
        "gramians-t-nan-without-schedule", "gramians-t-without-schedule",
        "certify-uas-n-is-a-list", "certify-uas-A0-is-an-object",
        "simulate-range", "simulate-csv-stride", "simulate-csv-stride-zero",
        "simulate-csv-stride-negative", "reproduce-target"])
def test_usage_errors_exit_1_without_output(tmp_path, tmp_path_factory, capsys, monkeypatch,
                                           argv):
    systems = tmp_path_factory.mktemp("systems")
    files = {"NOT_AN_OBJECT": 5, "N_IS_A_LIST": {"n": [1]}, "A0_IS_AN_OBJECT": {"A0": {"a": 1}}}
    for name, change in files.items():
        obj = change if isinstance(change, int) else {**json.loads(EXAMPLE.read_text()), **change}
        (systems / f"{name}.json").write_text(json.dumps(obj))
    argv = [str(systems / f"{a}.json") if a in files else a for a in argv]
    monkeypatch.setattr(lmi, "solve_feasibility", None)  # no solve may start
    assert cli.main(["--out", str(tmp_path), *argv]) == 1
    assert list(tmp_path.iterdir()) == []
    err = capsys.readouterr().err
    assert "Traceback" not in err and "error:" in err


@pytest.mark.parametrize("argv, message", [
    (["gramians", "--system", str(EXAMPLE), "--range", "low:1", "--p="], "bad --p spec ''"),
    (["gramians", "--system", str(EXAMPLE), "--range", "low:1", "--schedule="],
     "bad schedule spec ''"),
    (["simulate", "--system", str(EXAMPLE), "--signal", "cos:1:0", "--t-end", "1",
      "--schedule="], "bad schedule spec ''"),
], ids=["gramians-p", "gramians-schedule", "simulate-schedule"])
def test_an_empty_spec_is_an_error_not_the_default(tmp_path, capsys, argv, message):
    assert cli.main(["--out", str(tmp_path), *argv]) == 1
    assert list(tmp_path.iterdir()) == []
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and "Traceback" not in err


def test_csv_stride_message(tmp_path, capsys):
    argv = ["--out", str(tmp_path), "simulate", "--system", str(EXAMPLE), "--signal", "cos:1:0",
            "--csv-stride", "0"]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == "error: --csv-stride must be a positive integer\n"


def _strict_json(path):
    def reject(name):
        raise ValueError(f"{path.name} holds {name}")
    return json.loads(path.read_text(), parse_constant=reject)


def test_zero_gap_enlarge_writes_strict_json(tmp_path, capsys):
    # sigma_max(A(p)) is at most 12.83 on the box, so a low:20 band has no gap
    argv = ["--out", str(tmp_path), "enlarge", "--system", str(EXAMPLE), "--range", "low:20"]
    assert cli.main(argv) == 0
    assert "traces: none (gap is zero)" in capsys.readouterr().out.splitlines()
    res = _strict_json(tmp_path / "enlarge.json")
    assert res["gap_squared"] == 0.0 and res["delta_squared"] == 0.0
    assert res["trace_W_p_min"] is None and res["trace_W_dot_p"] is None
    assert res["enlarged_range"] == res["original_range"] == "low:20"


def test_enlarge_json_keys(tmp_path):
    argv = ["--out", str(tmp_path), "enlarge", "--system", str(EXAMPLE), "--range", "low:1",
            "--c1", "0.5", "--c2", "0.6", "--c3", "7.4"]
    assert cli.main(argv) == 0
    res = _strict_json(tmp_path / "enlarge.json")
    assert sorted(res) == ["delta_squared", "enlarged_range", "gap_squared", "original_range",
                           "rho_unif", "trace_W_dot_p", "trace_W_p_min"]
    assert res["gap_squared"] == pytest.approx(163.6236, rel=1e-4)
    assert res["delta_squared"] == pytest.approx(
        res["gap_squared"] * res["trace_W_dot_p"] / res["trace_W_p_min"], rel=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_write_json_rejects_non_finite_before_opening(tmp_path, bad):
    path = tmp_path / "out.json"
    with pytest.raises(ValueError):
        cli.write_json(path, {"ok": 1.0, "nested": [np.float64(bad)]})
    assert not path.exists()


@pytest.fixture
def unstable_system(tmp_path_factory):
    """data/example1.json with A0 = 5 I: no gain bound, no decay certificate, a diverging run."""
    obj = json.loads(EXAMPLE.read_text())
    obj["A0"] = (5.0 * np.eye(2)).tolist()
    path = tmp_path_factory.mktemp("systems") / "unstable.json"
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.mark.parametrize("argv", [
    ["analyze", "--mode", "lpv_ef"],
    ["certify-uas", "--c3", "1"],
    ["enlarge", "--range", "low:1"],
    ["simulate", "--signal", "cos:1:0", "--t-end", "200", "--step", "0.01"],
], ids=["analyze", "certify-uas", "enlarge", "simulate"])
def test_infeasible_runs_exit_2_without_output(tmp_path, capsys, unstable_system, argv):
    assert cli.main(["--out", str(tmp_path), *argv, "--system", unstable_system]) == 2
    assert list(tmp_path.iterdir()) == []
    out, err = capsys.readouterr()
    assert out.startswith("infeasible:") and "Traceback" not in out + err


def test_simulate_whose_summary_overflows_exits_2_without_output(tmp_path, capsys):
    obj = json.loads(EXAMPLE.read_text())
    obj["C0"] = [[1e306, 1e306]]  # y stays finite, but its energy integral overflows
    system = tmp_path / "big.json"
    system.write_text(json.dumps(obj))
    out_dir = tmp_path / "out"
    argv = ["--out", str(out_dir), "simulate", "--system", str(system),
            "--signal", "cos:1:0", "--t-end", "10"]
    assert cli.main(argv) == 2
    assert list(out_dir.iterdir()) == []
    out, err = capsys.readouterr()
    assert out == "infeasible: not finite: final gamma_R\n" and err == ""


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
    assert cert["bracket"][0] <= hi <= cert["bracket"][0] + 1e-2
    assert isinstance(cert["lo_certified"], bool)


@pytest.mark.parametrize("extra, message", [
    (["--t-end", "0.0001"], "shorter than one step"),
    (["--step", "0"], "positive and finite"),
    (["--t-end", "-1"], "positive and finite"),
    (["--step", "nan"], "positive and finite"),
    (["--signal", "cos:1:0@nan"], "component 0 frequency must be finite"),
    (["--signal", "cos:1:0.2,cos:nan:0"], "component 1 amplitude must be finite"),
    (["--signal", "cos:1:inf@0.5"], "component 0 phase must be finite"),
    (["--signal", "cos:1:0@"], "bad signal term"),
    (["--schedule", "sin:0.15:nan:2.0"], "amplitude must be finite"),
    (["--schedule", "sin:0.15:0.01:inf"], "rate must be finite"),
    (["--schedule", "const:nan"], "center must be finite"),
    (["--schedule", "const:0.15,0.1"], "schedule has 2 parameters, the box has 1"),
], ids=["t-end-below-step", "step-zero", "t-end-negative", "step-nan", "frequency-nan",
        "amplitude-nan", "phase-inf", "frequency-empty", "schedule-amplitude-nan",
        "schedule-rate-inf", "schedule-const-nan", "schedule-two-params"])
def test_bad_simulate_inputs_exit_1_without_output(tmp_path, capsys, extra, message):
    argv = ["--out", str(tmp_path), "simulate", "--system", str(EXAMPLE),
            "--signal", "cos:1:0", "--t-end", "1.0", *extra]
    assert cli.main(argv) == 1
    assert list(tmp_path.iterdir()) == []
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err and "Traceback" not in err


def test_simulate_runs_of_one_step_succeed(tmp_path):
    argv = ["--out", str(tmp_path), "simulate", "--system", str(EXAMPLE),
            "--signal", "cos:1:0", "--t-end", "0.001"]
    assert cli.main(argv) == 0
    rows = (tmp_path / "simulate.csv").read_text().splitlines()
    assert len(rows) == 2 and rows[1].startswith("0,1,0,0,")
    # the Hann window vanishes on both samples: no energy, vacuously in band
    summary = json.loads((tmp_path / "simulate.json").read_text())
    assert summary["band_energy_fraction"] == {"low:1": 1.0}


def test_simulate_ends_at_t_end_and_reports_the_step_taken(tmp_path):
    argv = ["--out", str(tmp_path), "simulate", "--system", str(EXAMPLE),
            "--signal", "cos:1:0", "--t-end", "0.0015", "--step", "0.001", "--csv-stride", "1"]
    assert cli.main(argv) == 0
    rows = (tmp_path / "simulate.csv").read_text().splitlines()
    assert [r.split(",")[0] for r in rows[1:]] == ["0", "0.00075", "0.0015"]
    summary = json.loads((tmp_path / "simulate.json").read_text())
    assert summary["t_end"] == 0.0015 and summary["step"] == 0.00075
