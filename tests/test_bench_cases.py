"""tools/bench_cases.py: the alternation, the pair summary and the
environments, with a stubbed child runner; each case once in process."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_cases.py"
_SPEC = importlib.util.spec_from_file_location("bench_cases", _PATH)
bench_cases = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_cases)

TUNED = "GLIBC_TUNABLES=glibc.malloc.mmap_threshold=33554432"


def _stub(monkeypatch, values):
    """A ``run_child`` that answers each (tree, case) from ``values``, a
    callable of (tree, case, call number), and logs every call."""
    calls = []

    def run_child(tree, name, repeats, env):
        calls.append((str(tree), name, repeats, env))
        first, replay = values(str(tree), name, len(calls))
        return {"first_ms": first, "replay_ms": replay}

    monkeypatch.setattr(bench_cases, "run_child", run_child)
    return calls


def test_pairs_alternate_and_every_case_runs_in_every_environment(
        monkeypatch, tmp_path):
    calls = _stub(monkeypatch, lambda tree, name, i: (
        (2.0, 1.0) if tree == "parent" else (3.0, 1.0 - 0.01 * i)))
    out = tmp_path / "bench.json"
    bench_cases.main(["--parent", "parent", "--change", "change",
                      "--label", "x", "--out", str(out), "--pairs", "3",
                      "--repeats", "4", "--case", "chain_n16",
                      "--case", "hea_L4_n12", "--variant", TUNED])
    # per environment and case: parent first in odd pairs, change first in
    # even ones; the variant's variable set on both sides
    tuned = {"GLIBC_TUNABLES": "glibc.malloc.mmap_threshold=33554432"}
    sides = ["parent", "change", "change", "parent", "parent", "change"]
    assert calls == [(tree, name, 4, env)
                     for env in ({}, tuned)
                     for name in ("chain_n16", "hea_L4_n12")
                     for tree in sides]
    record = json.loads(out.read_text())
    assert sorted(record["environments"]) == [TUNED, "default"]
    assert (record["pairs"], record["repeats"]) == (3, 4)
    result = record["environments"]["default"]["chain_n16"]
    assert result["change_lower_in_pairs"] == {"first_ms": 0,
                                               "replay_ms": 3}
    assert result["parent"]["first_ms"]["median"] == 2.0
    assert result["change"]["first_ms"]["median"] == 3.0
    assert result["change_median_above_parent_q3"] == {
        "first_ms": True, "replay_ms": False}
    # call numbers 2, 3 and 6 were the change's
    assert result["change"]["replay_ms"]["runs"] == pytest.approx(
        [0.98, 0.97, 0.94])


def test_a_malformed_variant_or_too_few_pairs_is_refused_before_any_run(
        monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(bench_cases, "run_child", pytest.fail)
    out = tmp_path / "bench.json"
    base = ["--parent", ".", "--change", ".", "--label", "x", "--out",
            str(out)]
    for extra, message in ((["--variant", "GLIBC_TUNABLES"],
                            "--variant must be NAME=VALUE"),
                           (["--pairs", "1"], "--pairs must be at least 2"),
                           (["--repeats", "0"],
                            "--repeats must be at least 1")):
        with pytest.raises(SystemExit) as info:
            bench_cases.main(base + extra)
        assert info.value.code == 2
        assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name", list(bench_cases.CASES))
def test_every_case_builds_and_times_a_run(name):
    timed = bench_cases.time_case(name, 1)
    assert set(timed) == set(bench_cases.METRICS)
    assert all(value > 0 for value in timed.values())
