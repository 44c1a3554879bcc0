"""Tests of the benchmark itself: metric names, the exact-output gate and the trace."""

import contextlib
import io
import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import pace  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from bhkovacic import auxode, elimination, evidence  # noqa: E402
from bhkovacic.algebra import Poly  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
EXPECTED = json.loads((HERE / "expected.json").read_text())


def _names(section):
    return {m["name"] for m in BENCHMARK[section]}


def _main(work_dir, trace):
    """Run the benchmark once on verify_all; its printed lines and the final JSON."""
    buffer = io.StringIO()
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(buffer):
        patch.setattr(run, "WORK_DIR", work_dir)
        patch.delenv("BHK_THREADS", raising=False)
        code = run.main(
            ["--workload", "verify_all", "--seed", "0", "--seconds", "0", "--trace", str(trace)]
        )
    assert code == 0
    lines = buffer.getvalue().splitlines()
    return lines, json.loads(lines[-1])


@pytest.fixture(scope="module")
def traced_result(tmp_path_factory):
    return _main(tmp_path_factory.mktemp("trace"), trace=1)


def test_workloads_match_benchmark_json():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert names == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert set(EXPECTED) == set(names)


def test_end_to_end_run_emits_benchmark_metrics(tmp_path):
    out, result = _main(tmp_path, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == _names("end_to_end")
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] == 16
    assert "  fail_ratio = 0.0 ratio (0 failed of 16 verdicts)" in out
    assert any(line.startswith("  output_mismatch = 0 flag") for line in out)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_emits_per_layer_metrics(traced_result):
    out, result = traced_result
    assert set(result["metrics"]) == _names("per_layer")
    assert result["correct"] is True


def test_traced_counts_are_exact(traced_result):
    metrics = traced_result[1]["metrics"]
    assert metrics["reporting.json_bytes"]["value"] == 3006
    assert metrics["evidence.cells"]["value"] == 1717
    assert metrics["evidence.max_D_bits"]["value"] == 8310
    assert metrics["algebra.closed_form_max_bits"]["value"] == 11588
    assert metrics["cli.run_verify_all.calls"]["value"] == 1


def test_traced_self_time_never_exceeds_span(traced_result):
    metrics = traced_result[1]["metrics"]
    for name in spans.SPAN_NAMES:
        assert 0 <= metrics[f"{name}.self_s"]["value"] <= metrics[f"{name}.s"]["value"]


def test_tracer_reaches_imported_bindings_and_restores_them():
    original = elimination.bareiss_determinant
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert evidence.bareiss_determinant is not original
        evidence.cross_check_cell("G3", 2, 4)
    finally:
        tracer.restore()
    assert evidence.bareiss_determinant is original
    assert elimination.bareiss_determinant is original
    names = [s.name for s in tracer.spans]
    assert names[0] == "evidence.cross_check_cell"
    assert "elimination.bareiss_determinant" in names
    assert "elimination.nullspace" in names  # via auxode's own binding
    selfs = tracer.self_times()
    top = tracer.spans[0]
    children = [s for s in tracer.spans if s.parent == 0]
    assert selfs[0] == pytest.approx(
        top.end - top.start - sum(c.end - c.start for c in children), abs=1e-9
    )
    assert all(0 <= own <= s.end - s.start for own, s in zip(selfs, tracer.spans))


def test_pacer_cuts_at_public_calls_and_restores_them(monkeypatch):
    original = evidence.cross_check_cell
    monkeypatch.setattr(pace, "SPACING", 0.0)
    pacer = pace.Pacer()
    t0 = time.perf_counter()
    report = pacer.run(lambda: evidence.scan(l_max=3, d_max=20))
    elapsed = time.perf_counter() - t0
    assert evidence.cross_check_cell is original
    assert report.cells > 0 and len(report.cross_checks) > 1
    # a cut on entry and on exit of every cross-check, and one at the end
    assert len(pacer.segments) >= 2 * len(report.cross_checks) + 1
    assert 0 < pacer.wall_s < elapsed
    assert len(pacer.reference_s) == len(pacer.segments) + 1


def test_wall_at_ref_divides_out_the_reference_speed(monkeypatch):
    pacer = pace.Pacer()
    monkeypatch.setattr(pace, "time_reference", lambda: pace.REF_SECONDS)
    pacer.run(lambda: evidence.scan(l_max=3, d_max=20))
    assert pacer.wall_at_ref_s == pytest.approx(pacer.wall_s)
    monkeypatch.setattr(pace, "time_reference", lambda: 2 * pace.REF_SECONDS)
    pacer.run(lambda: evidence.scan(l_max=3, d_max=20))
    assert pacer.wall_at_ref_s == pytest.approx(pacer.wall_s / 2)


def test_planted_fault_gives_nonzero_fail_ratio():
    good = auxode.chandrasekhar_coeffs(2)
    planted = good + Poly([1])
    records = [auxode.chandrasekhar_checks(2), auxode.chandrasekhar_checks(2, P_w=planted)]
    outcome = workloads.closed_form_check((records, []))
    assert (outcome.attempted, outcome.failed) == (2, 1)
    verdict = workloads.gate([outcome], {}, EXPECTED["closed_form"])
    assert verdict["fail_ratio"] == 0.5
    assert verdict["correct"] is False


def _pinned_outcome(workload):
    pinned = EXPECTED[workload]
    return workloads.Outcome(
        attempted=1, failed=0, work=dict(pinned["work"]), digests=dict(pinned["digests"])
    )


def test_gate_passes_pinned_outputs_and_flags_a_wrong_digest():
    outcome = _pinned_outcome("scan")
    verdict = workloads.gate([outcome], {}, EXPECTED["scan"])
    assert verdict["correct"] and verdict["output_mismatch"] == 0
    wrong = json.loads(json.dumps(EXPECTED["scan"]))
    wrong["digests"]["scan_report"] = "0" * 64
    verdict = workloads.gate([outcome], {}, wrong)
    assert verdict["output_mismatch"] == 1 and not verdict["correct"]


def test_gate_fails_a_run_that_examined_less_work():
    outcome = _pinned_outcome("scan")
    outcome.work["cells"] = 0
    verdict = workloads.gate([outcome], {}, EXPECTED["scan"])
    assert verdict["failed"] == 0 and not verdict["work_ok"] and not verdict["correct"]
    assert not workloads.gate([], {}, EXPECTED["scan"])["correct"]


def test_canonical_form_is_exact_for_big_integers():
    big = 2**80 + 1
    assert workloads.canon([big, -big]) == [str(big), str(-big)]
    assert workloads.digest([big]) != workloads.digest([big - 1])
