"""tools/bench_pairs.py: the pair summary and the gain rule, on synthetic
runs; no benchmark is run."""

import importlib.util
import json
from argparse import Namespace
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _measured(monkeypatch, parent, change, metric="op_best_ms"):
    """``measure`` over ten pairs whose ``metric`` runs are ``parent``
    and ``change`` (each a number, or a dict of metrics), in pair
    order."""
    runs = {"parent": iter(parent), "change": iter(change)}

    def run_once(checkout, workload, seed, seconds):
        value = next(runs[checkout])
        return (value if isinstance(value, dict) else {metric: value}), \
            4, 1, {}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    args = Namespace(parent="parent", change="change", pairs=len(parent),
                     seconds=1.0)
    return bench_pairs.measure(args, "vqe_hea", 2, {})


def test_summary_reads_median_and_inclusive_quartiles():
    assert bench_pairs.summary([4.0, 1.0, 3.0, 2.0, 5.0]) == {
        "runs": [4.0, 1.0, 3.0, 2.0, 5.0], "median": 3.0, "q1": 2.0,
        "q3": 4.0, "min": 1.0, "max": 5.0}


def test_a_change_lower_in_every_pair_beyond_the_iqr_holds(monkeypatch):
    parent = [10.0 + 0.1 * i for i in range(10)]
    result = _measured(monkeypatch, parent, [p - 2.0 for p in parent])
    assert result["change_lower_in_pairs"] == {"op_best_ms": 10}
    assert result["parent"]["attempted_ops"] == 40
    assert result["parent"]["failed_ops"] == 10
    verdict = bench_pairs.claim(result, "vqe_hea", "op_best_ms")
    assert verdict["parent_iqr"] == pytest.approx(0.45)
    assert verdict["median_difference"] == pytest.approx(2.0)
    assert verdict["holds"]


def test_a_change_median_above_the_parent_q3_is_flagged(monkeypatch):
    # op_best_ms falls; peak_rss_mb rises by 0.2 MB, beyond the parent's
    # upper quartile, and setup_s by less than the parent's spread
    parent = [{"op_best_ms": 10.0 + 0.1 * i, "peak_rss_mb": 40.0 + 0.01 * i,
               "setup_s": 0.16 + 0.01 * i} for i in range(10)]
    change = [{"op_best_ms": run["op_best_ms"] - 2.0,
               "peak_rss_mb": run["peak_rss_mb"] + 0.2,
               "setup_s": run["setup_s"] + 0.01} for run in parent]
    result = _measured(monkeypatch, parent, change)
    assert result["parent"]["peak_rss_mb"]["q3"] == pytest.approx(40.0675)
    assert result["change"]["peak_rss_mb"]["median"] == \
        pytest.approx(40.245)
    assert result["change_median_above_parent_q3"] == {
        "op_best_ms": False, "peak_rss_mb": True, "setup_s": False}


def test_a_change_median_beyond_its_bound_is_flagged(monkeypatch):
    # peak_rss_mb rises above the parent's q3 but by 0.5%, inside its 10%
    # bound; setup_s rises by 40%, beyond its 25%; op_best_ms falls
    parent = [{"op_best_ms": 10.0 + 0.1 * i, "peak_rss_mb": 40.0 + 0.01 * i,
               "setup_s": 0.20 + 0.001 * i} for i in range(10)]
    change = [{"op_best_ms": run["op_best_ms"] - 2.0,
               "peak_rss_mb": run["peak_rss_mb"] + 0.2,
               "setup_s": run["setup_s"] * 1.4} for run in parent]
    result = _measured(monkeypatch, parent, change)
    assert result["change_median_above_parent_q3"] == {
        "op_best_ms": False, "peak_rss_mb": True, "setup_s": True}
    assert result["change_median_beyond_bound"] == {
        "op_best_ms": False, "peak_rss_mb": False, "setup_s": True}


def test_workloads_and_bounds_come_from_the_benchmark_file():
    benchmark = json.loads((_PATH.parent.parent / "BENCHMARK.json")
                           .read_text())
    assert bench_pairs.WORKLOADS == tuple(
        workload["name"] for workload in benchmark["workloads"])
    assert bench_pairs.END_TO_END["peak_rss_mb"]["bound"] == 0.1
    assert {name: (metric["better"], metric["bound"])
            for name, metric in bench_pairs.END_TO_END.items()} == {
        metric["name"]: (metric["better"], metric["bound"])
        for metric in benchmark["end_to_end"]}
    # a metric that must not fall is worse when it does
    higher = {"better": "higher", "bound": 0.1}
    assert bench_pairs.beyond_bound(10.0, 8.9, higher)
    assert not bench_pairs.beyond_bound(10.0, 9.1, higher)


def test_nine_pairs_of_ten_are_enough(monkeypatch):
    parent = [10.0 + 0.1 * i for i in range(10)]
    change = [p - 2.0 for p in parent]
    change[3] = 20.0
    verdict = bench_pairs.claim(_measured(monkeypatch, parent, change),
                                "vqe_hea", "op_best_ms")
    assert verdict["change_lower_in_pairs"] == 9
    assert verdict["holds"]


def test_eight_pairs_of_ten_fail_the_rule(monkeypatch):
    parent = [10.0 + 0.1 * i for i in range(10)]
    change = [p - 2.0 for p in parent]
    change[3] = change[7] = 20.0
    verdict = bench_pairs.claim(_measured(monkeypatch, parent, change),
                                "vqe_hea", "op_best_ms")
    assert verdict["change_lower_in_pairs"] == 8
    assert verdict["median_difference"] > verdict["parent_iqr"]
    assert not verdict["holds"]


def test_medians_within_the_parent_iqr_fail_the_rule(monkeypatch):
    parent = [10.0 + i for i in range(10)]  # IQR 4.5
    verdict = bench_pairs.claim(
        _measured(monkeypatch, parent, [p - 1.0 for p in parent]),
        "vqe_hea", "op_best_ms")
    assert verdict["change_lower_in_pairs"] == 10
    assert verdict["median_difference"] < verdict["parent_iqr"]
    assert not verdict["holds"]


@pytest.mark.parametrize("pairs", ["1", "0"])
def test_fewer_than_two_pairs_are_refused_before_any_run(
        monkeypatch, tmp_path, capsys, pairs):
    monkeypatch.setattr(bench_pairs, "run_once", pytest.fail)
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as info:
        bench_pairs.main(["--parent", ".", "--change", ".", "--label", "x",
                          "--out", str(out), "--pairs", pairs])
    assert info.value.code == 2
    assert f"--pairs must be at least 2, got {pairs}" \
        in capsys.readouterr().err
    assert not out.exists()


def test_a_claim_outside_the_chosen_workloads_is_refused_before_any_run(
        monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(bench_pairs, "run_once", pytest.fail)
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as info:
        bench_pairs.main(["--parent", ".", "--change", ".", "--label", "x",
                          "--out", str(out), "--workload", "grover16",
                          "--claim", "order_qpe"])
    assert info.value.code == 2
    assert "--claim order_qpe is not among the --workload choices" \
        in capsys.readouterr().err
    assert not out.exists()
