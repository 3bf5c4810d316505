"""Tests for the base-vs-head perf gate's comparison (benchmarks/perf_gate.py)."""

import json

import pytest

from benchmarks import perf_gate

END_TO_END = [
    {"name": "unit_s.p50", "unit": "s", "better": "lower", "bound": 0.24},
    {"name": "work_per_s", "unit": "work/s", "better": "higher", "bound": 0.24},
]


def summary(unit_s=1.0, work_per_s=30.0, failed=0, **extra):
    metrics = {"unit_s.p50": {"value": unit_s, "unit": "s"},
               "work_per_s": {"value": work_per_s, "unit": "work/s"}}
    metrics.update({k: {"value": v, "unit": "MB"} for k, v in extra.items()})
    return {"correct": failed == 0, "attempted": 9, "failed": failed,
            "metrics": metrics}


def test_lower_is_better_metric_thirty_percent_worse_fails():
    base = [summary(unit_s=1.0), summary(unit_s=1.1), summary(unit_s=0.9)]
    head = [summary(unit_s=1.3), summary(unit_s=1.43), summary(unit_s=1.17)]
    regressions, _ = perf_gate.compare("steady-sweep", END_TO_END, base, head)
    assert len(regressions) == 1
    assert "steady-sweep unit_s.p50: median head/base 1.300" in regressions[0]
    assert "REGRESSION" in regressions[0]


def test_change_inside_the_bound_passes():
    base = [summary(unit_s=1.0, work_per_s=30.0)] * 3
    head = [summary(unit_s=1.2, work_per_s=25.0)] * 3
    regressions, lines = perf_gate.compare("w", END_TO_END, base, head)
    assert regressions == []
    assert all(line.endswith("ok") for line in lines[:2])


def test_median_ratio_ignores_one_outlying_pair():
    base = [summary(unit_s=1.0)] * 3
    head = [summary(unit_s=1.0), summary(unit_s=3.0), summary(unit_s=1.05)]
    assert perf_gate.compare("w", END_TO_END, base, head)[0] == []


def test_higher_is_better_metric_regresses_downward():
    base = [summary(work_per_s=30.0)] * 3
    faster = [summary(work_per_s=45.0)] * 3
    slower = [summary(work_per_s=21.0)] * 3
    assert perf_gate.compare("w", END_TO_END, base, faster)[0] == []
    regressions, _ = perf_gate.compare("w", END_TO_END, base, slower)
    assert len(regressions) == 1 and "w work_per_s" in regressions[0]


def test_more_failed_units_fails():
    base = [summary(failed=1), summary(), summary()]
    head = [summary(failed=1), summary(failed=1), summary()]
    regressions, _ = perf_gate.compare("w", END_TO_END, base, head)
    assert regressions == ["w failed units: base 1, head 2"]
    assert perf_gate.compare("w", END_TO_END, head, base)[0] == []


def test_metric_missing_from_base_is_skipped_and_reported():
    bounds = END_TO_END + [
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1}]
    base = [summary()] * 3
    head = [summary(peak_rss_mb=500.0)] * 3
    regressions, lines = perf_gate.compare("w", bounds, base, head)
    assert regressions == []
    assert "w peak_rss_mb: skipped, not reported by base" in lines


def _fake_tree(root, unit_s, exit_code=0):
    """A checkout whose perfbench/run.py prints a fixed summary."""
    (root / "perfbench").mkdir(parents=True)
    (root / "BENCHMARK.json").write_text(json.dumps({"end_to_end": END_TO_END}, sort_keys=True))
    line = json.dumps(summary(unit_s=unit_s), sort_keys=True)
    (root / "perfbench" / "run.py").write_text(
        f"import sys\nprint('noise')\nprint({line!r})\nsys.exit({exit_code})\n")
    return str(root)


@pytest.mark.parametrize("head_unit_s, head_exit, expected", [
    (1.05, 0, 0),  # a no-op change passes
    (1.40, 0, 1),  # a 40% slow-down fails
    (1.00, 2, 2),  # run.py could not run: no verdict
])
def test_main_exit_codes(tmp_path, capsys, head_unit_s, head_exit, expected):
    base = _fake_tree(tmp_path / "base", 1.0)
    head = _fake_tree(tmp_path / "head", head_unit_s, head_exit)
    code = perf_gate.main([base, head, "--workload", "steady-sweep",
                           "--pairs", "2", "--seconds", "1"])
    assert code == expected
    out = capsys.readouterr()
    if expected == 2:
        assert "benchmark could not run" in out.err
    else:  # the second pair ran head first
        assert "pair 2/2 done (head first)" in out.out
    assert ("FAIL steady-sweep unit_s.p50" in out.err) == (expected == 1)
