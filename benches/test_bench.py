"""Tests of the benchmark itself: python3 -m pytest benches -q (from the repository root)."""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benches")]

import finitefreq.cli  # noqa: E402
from checks import check_analyze, check_enlarge, check_job  # noqa: E402
from inputs import WORKLOADS, hurwitz_at_corners, make_batch  # noqa: E402
from tracing import TARGETS, Span, Tracer, aggregate, self_times  # noqa: E402

EXAMPLE = ROOT / "data" / "example1.json"


def _files(d: Path) -> dict:
    return {p.relative_to(d): p.read_bytes() for p in sorted(d.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic(workload, tmp_path):
    a = make_batch(workload, 7, 2, EXAMPLE, tmp_path / "a")
    b = make_batch(workload, 7, 2, EXAMPLE, tmp_path / "b")
    make_batch(workload, 8, 2, EXAMPLE, tmp_path / "c")
    assert [j.name for j in a] == [j.name for j in b]
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


def test_generator_rejects_non_hurwitz_corners():
    obj = json.loads(EXAMPLE.read_text())
    assert hurwitz_at_corners(obj)
    # A(0.1) stays Hurwitz; A(0.2) has det < 0, so one eigenvalue is positive
    obj["A"] = [[[50.0, 0.0], [0.0, 0.0]]]
    assert not hurwitz_at_corners(obj)


def _analyze(tmp_path):
    job = make_batch("certify", 1, 0, EXAMPLE, tmp_path / "in")[0]
    assert job.meta == {"mode": "lpv_ef", "range": "low:1"}
    out = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        assert finitefreq.cli.main(["--out", str(out), *job.argv]) == 0
    return job, out


def test_certificate_check_rejects_negated_certificate(tmp_path):
    job, out = _analyze(tmp_path)
    good = check_analyze(job, out)
    assert good.ok and 1.0 <= good.answer_over_ref < 1.01
    path = out / "certificate.json"
    cert = json.loads(path.read_text())
    cert["certificate"] = {k: [[-v for v in row] for row in M]
                           for k, M in cert["certificate"].items()}
    path.write_text(json.dumps(cert))
    bad = check_job(job, out, 0, None)
    assert not bad.ok and "re-verification" in bad.reason


def test_nan_output_counts_as_failed(tmp_path):
    job = make_batch("enlarge", 1, 0, EXAMPLE, tmp_path / "in")[0]
    out = tmp_path / "out"
    out.mkdir()
    (out / "enlarge.json").write_text(json.dumps({
        "gap_squared": float("nan"), "delta_squared": 1.0, "rho_unif": 12.0,
        "trace_W_p_min": 1.0, "trace_W_hat_p": 0.0, "trace_W_dot_p": 1.0,
        "original_range": "low:2", "enlarged_range": "low:2.2", "mode": "UAS",
        "trace_provenance": "lyapunov_lmi"}))
    res = check_job(job, out, 0, None)
    assert not res.ok and "gap_squared" in res.reason
    assert not check_enlarge(job, out).ok
    assert not check_job(job, out, 1, None).ok
    assert not check_job(job, out, None, "Traceback\nRuntimeError: boom\n").ok


def test_self_time_on_synthetic_span_tree():
    spans = [Span("a.root", 0.0, 10.0, -1),
             Span("b.child", 1.0, 4.0, 0, {"n": 2}),
             Span("c.grandchild", 2.0, 3.0, 1),
             Span("b.child", 5.0, 8.0, 0, {"n": 3}),
             Span("b.child", 6.0, 7.0, 3)]  # nested call of the same function
    assert self_times(spans) == pytest.approx([4.0, 2.0, 1.0, 2.0, 1.0])
    agg = aggregate(spans)
    assert agg["b.child"]["calls"] == 3
    assert agg["b.child"]["s"] == pytest.approx(6.0)  # outermost spans only
    assert agg["b.child"]["self_s"] == pytest.approx(5.0)
    assert agg["b.child"]["n"] == 5
    assert agg["a.root"]["self_s"] == pytest.approx(4.0)


def _bindings():
    mods = {n: m for n, m in sys.modules.items() if n.split(".")[0] == "finitefreq"}
    return {(n, f): getattr(m, f) for n, m in mods.items()
            for funcs in TARGETS.values() for f in funcs if hasattr(m, f)}


def test_wrappers_are_removed_after_the_traced_run():
    before = _bindings()
    tracer = Tracer()
    with tracer:
        assert finitefreq.lmi.solve_feasibility is finitefreq.sdp.solve_feasibility
        assert finitefreq.sdp.solve_feasibility is not before[("finitefreq.sdp", "solve_feasibility")]
        finitefreq.cli.load_system(EXAMPLE)
    assert [s.name for s in tracer.spans] == ["model.load_system"]
    assert _bindings() == before
    finitefreq.cli.load_system(EXAMPLE)
    assert len(tracer.spans) == 1
    assert not math.isnan(tracer.spans[0].end)


def test_benchmark_json_lists_the_metrics_the_runs_print():
    import run

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert bench["paths"] == ["benches"]
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.E2E_UNITS.items())
    layer = run.layer_metrics([], 1.0, 1.0)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == \
        [(name, unit) for name, (_, unit) in layer.items()]
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
