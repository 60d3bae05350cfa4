"""Tests for the performance harness (repro.perf) and its CLI surface."""

import json

import pytest

from repro.perf import (
    BENCH_FILENAME,
    DEFAULT_GATES,
    SCHEMA,
    SUITE,
    BenchSpec,
    compare_reports,
    format_comparisons,
    has_gated_regression,
    load_report,
    run_suite,
    write_report,
)
from repro.perf import harness, micro


# --------------------------------------------------------------------------- #
# Harness mechanics (no real timing — tiny synthetic benches)
# --------------------------------------------------------------------------- #
#: The real reference loop, kept before the fixture below pins it.
REAL_REFERENCE = harness.reference_ns_per_step


@pytest.fixture(autouse=True)
def reference_speed(monkeypatch):
    """Pin the reference loop at the reference step time (speed 1.0), so
    toy rates are recorded as they are; a test may set ``ns`` to time the
    loop at another speed."""
    pinned = {"ns": harness.REFERENCE_NS_PER_STEP}
    monkeypatch.setattr(harness, "reference_ns_per_step", lambda: pinned["ns"])
    return pinned


def _toy_suite(value=100.0):
    return [
        BenchSpec(name="toy_rate", fn=lambda scale=1.0: value * scale,
                  unit="1/s", params={"scale": 1.0}, repeats=3, quick_repeats=1),
        BenchSpec(name="toy_flat", fn=lambda: 2.0, unit="1/s",
                  repeats=2, quick_repeats=1),
    ]


def test_run_suite_schema_and_modes():
    report = run_suite(_toy_suite(), quick=False)
    assert report["schema"] == SCHEMA == "duet-repro/bench-kernel/v2"
    assert report["mode"] == "full"
    names = [bench["name"] for bench in report["benchmarks"]]
    assert names == ["toy_rate", "toy_flat"]
    rate = report["benchmarks"][0]
    assert rate["value"] == 100.0
    assert rate["repeats"] == 3 and len(rate["samples"]) == 3
    assert rate["params"] == {"scale": 1.0}

    quick = run_suite(_toy_suite(), quick=True)
    assert quick["mode"] == "quick"
    assert quick["benchmarks"][0]["repeats"] == 1


def test_quick_mode_keeps_the_params():
    """Quick mode only drops repeats: the workload is the full-mode one, so
    a quick run compares against a full-mode baseline."""
    spec = BenchSpec(name="b", fn=lambda n=1: float(n), unit="x",
                     params={"n": 10}, repeats=3, quick_repeats=1)
    full, quick = spec.run(quick=False), spec.run(quick=True)
    assert full["value"] == quick["value"] == 10.0
    assert full["params"] == quick["params"] == {"n": 10}
    assert (full["repeats"], quick["repeats"]) == (3, 1)


def test_report_roundtrip_and_schema_check(tmp_path):
    report = run_suite(_toy_suite(), quick=True)
    path = tmp_path / BENCH_FILENAME
    write_report(report, str(path))
    loaded = load_report(str(path))
    assert loaded == report

    bad = dict(report, schema="other/v9")
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(bad))
    with pytest.raises(ValueError):
        load_report(str(bad_path))


def test_load_report_rejects_a_v1_report(tmp_path):
    """v1 values were raw and divided by a suite-wide calibration when
    compared; v2 values are reference-scaled, so the two never mix."""
    v1 = tmp_path / "v1.json"
    v1.write_text(json.dumps({
        "schema": "duet-repro/bench-kernel/v1",
        "benchmarks": [{"name": "kernel_events_per_sec", "value": 1.38e6,
                        "params": {"iterations": 30_000}}]}))
    with pytest.raises(ValueError, match="bench-kernel/v1"):
        load_report(str(v1))


def test_compare_reports_directions_and_gating():
    baseline = run_suite(_toy_suite(value=100.0), quick=True)
    # Throughput halves (bad), the flat rate is unchanged.
    current = run_suite(_toy_suite(value=50.0), quick=True)
    comparisons = compare_reports(current, baseline, tolerance=0.2,
                                  gates=("toy_rate",))
    by_name = {c.name: c for c in comparisons}
    assert by_name["toy_rate"].ratio == pytest.approx(0.5)
    assert by_name["toy_rate"].regressed and by_name["toy_rate"].gated
    assert by_name["toy_flat"].ratio == pytest.approx(1.0)
    assert not by_name["toy_flat"].regressed
    assert has_gated_regression(comparisons)
    assert "REGRESSED" in format_comparisons(comparisons)

    # The other way round the same pair is a 2x improvement.
    improved = {c.name: c for c in compare_reports(baseline, current)}
    assert improved["toy_rate"].ratio == pytest.approx(2.0)
    assert "improved" in format_comparisons(list(improved.values()))

    # Same numbers -> no regression.
    same = compare_reports(baseline, baseline, gates=("toy_rate",))
    assert not has_gated_regression(same)


def test_reference_loop_scales_each_sample(reference_speed):
    """A sample is scaled by the reference loop timed around it: a host
    twice as fast as the reference halves a fixed raw rate, one half as
    fast doubles it, and a workload whose raw rate follows the host speed
    records the same value on both."""
    def constant():
        return 100.0

    def follows_host():
        return 100.0 * harness.REFERENCE_NS_PER_STEP / reference_speed["ns"]

    spec = BenchSpec(name="b", fn=constant, unit="1/s", repeats=1)
    tracking = BenchSpec(name="t", fn=follows_host, unit="1/s", repeats=1)

    reference_speed["ns"] = harness.REFERENCE_NS_PER_STEP / 2   # fast host
    fast = spec.run()
    assert fast["speeds"] == [pytest.approx(2.0)]
    assert fast["raw_samples"] == [100.0]
    assert fast["value"] == pytest.approx(50.0)
    fast_tracking = tracking.run()["value"]

    reference_speed["ns"] = harness.REFERENCE_NS_PER_STEP * 2   # slow host
    assert spec.run()["value"] == pytest.approx(200.0)
    assert tracking.run()["value"] == pytest.approx(fast_tracking) \
        == pytest.approx(100.0)


def test_speed_is_timed_before_and_after_each_sample(monkeypatch):
    """The loop runs once before and once after every sample, and the
    speed uses the mean of the two timings."""
    timings = iter([50.0, 150.0, 200.0, 200.0])
    calls = []
    monkeypatch.setattr(harness, "reference_ns_per_step",
                        lambda: next(timings))
    spec = BenchSpec(name="b", fn=lambda: calls.append(1) or 10.0,
                     unit="1/s", repeats=2)
    bench = spec.run()
    assert len(calls) == 2
    assert bench["speeds"] == [pytest.approx(1.0), pytest.approx(0.5)]
    assert bench["samples"] == [pytest.approx(10.0), pytest.approx(20.0)]
    assert bench["value"] == pytest.approx(20.0)


def test_reference_loop_times_a_positive_step():
    assert REAL_REFERENCE() > 0


def test_reports_record_the_interpreter():
    report = run_suite(_toy_suite(), quick=True)
    interp = report["interpreter"]
    assert interp["implementation"] in ("cpython", "pypy")
    assert interp["version"] == report["python"]
    # On this (CPython) test run the PyPy probe must be off.
    assert harness.IS_PYPY == (interp["implementation"] == "pypy")


def test_pypy_samples_stay_unscaled(monkeypatch):
    """Under PyPy the CPython-specific reference loop is not run: samples
    are recorded raw with a null speed, and the trend marks them."""
    from repro.perf.trend import format_trend, trend_report

    monkeypatch.setattr(harness, "reference_ns_per_step",
                        lambda: pytest.fail("reference loop ran on PyPy"))
    monkeypatch.setattr(harness, "IS_PYPY", True)
    report = run_suite(_toy_suite(value=100.0), quick=True)
    rate = report["benchmarks"][0]
    assert rate["speeds"] == [None]
    assert rate["samples"] == rate["raw_samples"] == [100.0]
    assert rate["value"] == 100.0

    monkeypatch.setattr(harness, "IS_PYPY", False)
    monkeypatch.setattr(harness, "reference_ns_per_step",
                        lambda: harness.REFERENCE_NS_PER_STEP)
    baseline = run_suite(_toy_suite(value=100.0), quick=True)
    comparisons = compare_reports(report, baseline, gates=("toy_rate",))
    assert {c.name: c.ratio for c in comparisons}["toy_rate"] == 1.0

    trend = trend_report([("cpython.json", baseline), ("pypy.json", report)])
    points = trend["benchmarks"]["toy_rate"]["points"]
    assert [point["scaled"] for point in points] == [True, False]
    assert "unscaled" in format_trend(trend)


def test_cli_perf_warns_on_cross_interpreter_comparison(tmp_path, monkeypatch, capsys):
    from repro.api import cli
    from repro import perf

    monkeypatch.setattr(perf, "SUITE", _toy_suite())
    baseline_path = tmp_path / "baseline.json"
    assert cli.main(["perf", "--quick", "--out", str(baseline_path)]) == 0
    baseline = json.loads(baseline_path.read_text())
    baseline["interpreter"] = {"implementation": "pypy", "version": "3.10.14"}
    baseline_path.write_text(json.dumps(baseline))
    capsys.readouterr()
    out = tmp_path / "current.json"
    assert cli.main(["perf", "--quick", "--out", str(out),
                     "--baseline", str(baseline_path), "--gate", "toy_rate"]) == 0
    assert "ratios across interpreters are not comparable" in capsys.readouterr().err


def test_unknown_baseline_benchmarks_are_skipped():
    baseline = run_suite(_toy_suite(), quick=True)
    current = run_suite([BenchSpec(name="brand_new", fn=lambda: 1.0,
                                   unit="x", repeats=1)], quick=True)
    assert compare_reports(current, baseline) == []


# --------------------------------------------------------------------------- #
# The real microbenchmarks (smallest sizes — correctness, not speed)
# --------------------------------------------------------------------------- #
def test_kernel_microbenchmarks_return_positive_rates():
    assert micro.kernel_throughput(iterations=200) > 0
    assert micro.kernel_zero_delay_throughput(iterations=200) > 0
    assert micro.channel_handoff(items=100) > 0
    assert micro.noc_message_throughput(messages=20) > 0


def test_power_microbenchmarks_return_positive_rates():
    assert micro.noc_message_throughput(messages=20, power_hooks=True) > 0
    assert micro.energy_sample_rate(samples=200) > 0


def test_serve_microbenchmark_returns_positive_rate():
    assert micro.serve_request_throughput(duration_us=300.0) > 0


def test_paper_cell_microbenchmark_returns_positive_rate():
    assert micro.paper_cell_throughput(fig9_mechanisms=("shadow_reg",),
                                       fig9_mhz=(100.0,),
                                       fig11_processors=(1,),
                                       fig11_accesses=4) > 0


def test_default_suite_is_well_formed():
    names = [spec.name for spec in SUITE]
    assert "kernel_events_per_sec" in names
    # The energy-accounting overhead twins ship in the default suite (the
    # hooks-on NoC bench is CI-gated; see docs/power.md).
    assert "noc_messages_per_sec_hooks_on" in names
    assert "energy_samples_per_sec" in names
    # The serving subsystem's end-to-end rate ships and is CI-gated
    # (see docs/serving.md).
    assert "serve_requests_per_sec" in names
    assert "serve_requests_per_sec" in DEFAULT_GATES
    # The paper layer has its own (ungated) rate row.
    assert "paper_cells_per_sec" in names
    assert "paper_cells_per_sec" not in DEFAULT_GATES
    assert len(names) == len(set(names))
    assert set(DEFAULT_GATES) <= set(names)


# --------------------------------------------------------------------------- #
# CLI surface
# --------------------------------------------------------------------------- #
def test_cli_perf_writes_report_and_gates(tmp_path, monkeypatch, capsys):
    from repro.api import cli
    from repro import perf

    # Substitute a fast suite so the CLI path stays quick under test.
    monkeypatch.setattr(perf, "SUITE", _toy_suite())
    out = tmp_path / "BENCH_kernel.json"
    assert cli.main(["perf", "--quick", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["schema"] == SCHEMA
    capsys.readouterr()

    # Gate against a baseline demanding double the throughput -> exit 1.
    inflated = json.loads(out.read_text())
    for bench in inflated["benchmarks"]:
        if bench["name"] == "toy_rate":
            bench["value"] *= 2
    baseline_path = tmp_path / "baseline.json"
    baseline_path.write_text(json.dumps(inflated))
    code = cli.main(["perf", "--quick", "--out", str(out),
                     "--baseline", str(baseline_path), "--gate", "toy_rate"])
    assert code == 1
    captured = capsys.readouterr()
    assert "REGRESSED" in captured.out


def test_cli_perf_refuses_to_overwrite_its_own_baseline(tmp_path, monkeypatch, capsys):
    from repro.api import cli
    from repro import perf

    monkeypatch.setattr(perf, "SUITE", _toy_suite())
    baseline_path = tmp_path / "BENCH_kernel.json"
    assert cli.main(["perf", "--quick", "--out", str(baseline_path)]) == 0
    before = baseline_path.read_text()
    capsys.readouterr()
    # Same file as --out (explicitly or via the default filename) -> refuse.
    code = cli.main(["perf", "--quick", "--out", str(baseline_path),
                     "--baseline", str(baseline_path)])
    assert code == 2
    assert baseline_path.read_text() == before
    assert "refusing to overwrite" in capsys.readouterr().err


def test_cli_perf_fails_when_gated_benchmark_is_not_comparable(tmp_path, monkeypatch, capsys):
    """A gate that silently vanishes from the comparison must fail the run,
    not pass vacuously."""
    from repro.api import cli
    from repro import perf

    monkeypatch.setattr(perf, "SUITE", _toy_suite())
    baseline_path = tmp_path / "baseline.json"
    out = tmp_path / "current.json"
    assert cli.main(["perf", "--quick", "--out", str(baseline_path)]) == 0
    capsys.readouterr()
    code = cli.main(["perf", "--quick", "--out", str(out),
                     "--baseline", str(baseline_path),
                     "--gate", "renamed_bench"])
    assert code == 1
    assert "missing from the comparison" in capsys.readouterr().err
