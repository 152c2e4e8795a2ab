"""Tests for the CI perf gate over perfbench results (scripts/perf_check.py)."""

import importlib.util
import json
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), "..", "scripts", "perf_check.py")
_SPEC = importlib.util.spec_from_file_location("perf_check", _PATH)
perf_check = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(perf_check)

RECORDED = 28.65
FLOOR = 21.49


def untraced(kloc, correct=True):
    return {
        "correct": correct,
        "attempted": 120,
        "failed": 0 if correct else 1,
        "metrics": {
            "kloc_per_s": {"value": kloc, "unit": "kLOC/s"},
            "ops_per_s": {"value": 20.0, "unit": "1/s"},
        },
    }


def traced(correct=True):
    return {
        "correct": correct,
        "attempted": 70,
        "failed": 0,
        "metrics": {
            "lexer.self_s": {"value": 0.64, "unit": "s"},
            "trace.coverage": {"value": 0.996, "unit": "ratio"},
        },
    }


class TestCheck:
    @pytest.mark.parametrize("kloc", [FLOOR, RECORDED, 30.0])
    def test_correct_result_at_or_above_floor_passes(self, kloc):
        assert perf_check.check(untraced(kloc), FLOOR) == []

    def test_incorrect_result_fails(self):
        (failure,) = perf_check.check(untraced(RECORDED, correct=False), FLOOR)
        assert "not correct" in failure

    def test_kloc_below_floor_fails(self):
        (failure,) = perf_check.check(untraced(12.98), FLOOR)
        assert "12.98" in failure and "21.49" in failure

    def test_traced_result_only_has_to_be_correct(self):
        assert perf_check.check(traced(), FLOOR) == []
        assert perf_check.check(traced(correct=False), FLOOR) != []

    def test_untraced_result_without_kloc_fails(self):
        result = untraced(22.0)
        del result["metrics"]["kloc_per_s"]
        assert perf_check.check(result, FLOOR) == [
            "an untraced result must carry kloc_per_s"
        ]


class TestFloorAndInput:
    def test_floor_is_recorded_median_less_benchmark_bound(self):
        assert perf_check.kloc_floor() == pytest.approx(RECORDED * 0.75)
        assert round(perf_check.kloc_floor(), 2) == FLOOR

    def test_floor_follows_the_benchmark_file(self, tmp_path):
        path = tmp_path / "BENCHMARK.json"
        path.write_text(json.dumps({"end_to_end": [
            {"name": "setup_s", "bound": 0.5},
            {"name": "kloc_per_s", "bound": 0.1},
        ]}))
        assert perf_check.kloc_floor(str(path)) == pytest.approx(RECORDED * 0.9)

    def test_reads_the_last_line_of_a_run(self):
        text = "# cold-corpus seed=1 trace=0\n#   kloc_per_s 20.0\n" + json.dumps(
            untraced(20.0)
        ) + "\n\n"
        assert perf_check.result_line(text) == untraced(20.0)

    def test_main_exit_codes(self, tmp_path, capsys):
        good = tmp_path / "good.txt"
        good.write_text("# header\n" + json.dumps(untraced(RECORDED)) + "\n")
        slow = tmp_path / "slow.txt"
        slow.write_text(json.dumps(untraced(12.98)) + "\n")
        assert perf_check.main([str(good)]) == 0
        assert perf_check.main([str(slow)]) == 1
        assert "below the floor" in capsys.readouterr().err
