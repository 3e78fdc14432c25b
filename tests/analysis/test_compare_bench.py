"""Tests for the CI benchmark-regression comparator."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "compare_bench",
    Path(__file__).resolve().parents[2] / "benchmarks" / "compare_bench.py",
)
compare_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_bench)


def _snapshot(entries):
    return {
        "schema": "repro-perfbench-v2",
        "benchmarks": [
            {"name": name, "units": units, "after_s": after}
            for name, units, after in entries
        ],
    }


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


class TestExtractMetric:
    def test_throughput_is_units_over_after(self):
        payload = _snapshot([("w", 10.0, 2.0)])
        assert compare_bench.extract_metric(payload, "throughput") == {"w": pytest.approx(5.0)}

    def test_entries_without_units_are_skipped(self):
        payload = _snapshot([("w", 10.0, 2.0)])
        payload["benchmarks"].append({"name": "old", "after_s": 1.0})
        assert set(compare_bench.extract_metric(payload, "throughput")) == {"w"}

    def test_speedup_metric(self):
        payload = {"benchmarks": [{"name": "w", "speedup": 2.5}, {"name": "z"}]}
        assert compare_bench.extract_metric(payload, "speedup") == {"w": pytest.approx(2.5)}


class TestCompare:
    def test_within_tolerance_passes(self):
        lines, failures = compare_bench.compare(
            {"w": 8.0}, {"w": 10.0}, tolerance=0.25
        )
        assert not failures
        assert any("w" in line for line in lines)

    def test_regression_beyond_tolerance_fails(self):
        _, failures = compare_bench.compare({"w": 7.0}, {"w": 10.0}, tolerance=0.25)
        assert len(failures) == 1
        assert "w" in failures[0]

    def test_improvement_passes(self):
        _, failures = compare_bench.compare({"w": 30.0}, {"w": 10.0}, tolerance=0.25)
        assert not failures

    def test_missing_workload_reported_but_not_failed(self):
        lines, failures = compare_bench.compare({}, {"w": 10.0}, tolerance=0.25)
        assert not failures
        assert any("absent" in line for line in lines)

    def test_fresh_only_workload_listed(self):
        lines, failures = compare_bench.compare(
            {"new": 5.0, "w": 10.0}, {"w": 10.0}, tolerance=0.25
        )
        assert not failures
        assert any("fresh-only" in line for line in lines)


class TestMain:
    def test_exit_codes(self, tmp_path, monkeypatch, capsys):
        baseline = _write(tmp_path, "base.json", _snapshot([("w", 10.0, 1.0)]))
        good = _write(tmp_path, "good.json", _snapshot([("w", 10.0, 1.1)]))
        bad = _write(tmp_path, "bad.json", _snapshot([("w", 10.0, 2.0)]))
        monkeypatch.setattr(
            "sys.argv", ["compare_bench.py", str(good), str(baseline)]
        )
        assert compare_bench.main() == 0
        monkeypatch.setattr(
            "sys.argv", ["compare_bench.py", str(bad), str(baseline)]
        )
        assert compare_bench.main() == 1
        assert "regression" in capsys.readouterr().err

    def test_equivalence_gate_set_mismatch_fails(self, tmp_path, monkeypatch, capsys):
        """A gate dropped from (or added to) the fresh run is an error even
        when every workload's throughput holds."""
        baseline = _snapshot([("w", 10.0, 1.0)])
        baseline["equivalence"] = {"a": True, "b": True}
        base_path = _write(tmp_path, "base.json", baseline)
        for gates, expected in (
            ({"a": True, "b": True}, 0),
            ({"a": True}, 1),
            ({"a": True, "b": True, "c": True}, 1),
        ):
            fresh = _snapshot([("w", 10.0, 1.0)])
            fresh["equivalence"] = gates
            fresh_path = _write(tmp_path, "fresh.json", fresh)
            monkeypatch.setattr(
                "sys.argv", ["compare_bench.py", str(fresh_path), str(base_path)]
            )
            assert compare_bench.main() == expected, gates
        assert "c: not in the baseline" in capsys.readouterr().err

    def test_old_schema_baseline_skips(self, tmp_path, monkeypatch, capsys):
        baseline = _write(
            tmp_path, "base.json", {"benchmarks": [{"name": "w", "after_s": 1.0}]}
        )
        fresh = _write(tmp_path, "fresh.json", _snapshot([("w", 10.0, 1.0)]))
        monkeypatch.setattr(
            "sys.argv", ["compare_bench.py", str(fresh), str(baseline)]
        )
        assert compare_bench.main() == 0
        assert "skipping" in capsys.readouterr().out

    def test_host_mismatch_compares_speedups(self, tmp_path, monkeypatch, capsys):
        """A CI runner differing from the baseline host must not be judged
        on absolute wall seconds: speedups are compared instead."""
        baseline = _snapshot([("w", 10.0, 1.0)])
        baseline["host"] = {"cpu_count": 1, "platform": "baseline-box"}
        baseline["benchmarks"][0]["speedup"] = 3.0
        # Same speedup but 4x slower wall clock: passes on a foreign host...
        fresh = _snapshot([("w", 10.0, 4.0)])
        fresh["host"] = {"cpu_count": 8, "platform": "ci-runner"}
        fresh["benchmarks"][0]["speedup"] = 2.9
        base_path = _write(tmp_path, "base.json", baseline)
        fresh_path = _write(tmp_path, "fresh.json", fresh)
        monkeypatch.setattr("sys.argv", ["compare_bench.py", str(fresh_path), str(base_path)])
        assert compare_bench.main() == 0
        assert "speedup" in capsys.readouterr().out
        # ...but a collapsed speedup still fails there.
        fresh["benchmarks"][0]["speedup"] = 1.2
        fresh_path = _write(tmp_path, "fresh2.json", fresh)
        monkeypatch.setattr("sys.argv", ["compare_bench.py", str(fresh_path), str(base_path)])
        assert compare_bench.main() == 1
