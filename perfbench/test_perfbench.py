"""Self-tests of the benchmark.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import hostclock  # noqa: E402
import oracle  # noqa: E402
import run as bench  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)


# -- self-time arithmetic ---------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    synthetic = [
        ("op", 0.0, 10.0, -1, 0),
        ("Lexer.tokenize", 1.0, 4.0, 0, 1),
        ("Parser.parse_file", 3.0, 6.0, 0, 1),  # overlaps its sibling
        ("ModelCache.lookup", 2.0, 3.0, 1, 1),
        ("IRTaintEngine.run", 8.0, 12.0, 0, 2),  # runs past its parent
    ]
    assert spans.self_times(synthetic) == pytest.approx([3.0, 2.0, 3.0, 1.0, 4.0])


def test_layer_self_times_partition_a_nested_trace():
    nested = [
        ("op", 0.0, 10.0, -1, 1),
        ("PhpSafe.analyze", 0.5, 9.5, 0, 1),
        ("PluginModel.build", 1.0, 5.0, 1, 1),
        ("Lexer.tokenize", 1.0, 2.0, 2, 1),
        ("Parser.parse_file", 2.0, 4.5, 2, 1),
        ("IRTaintEngine.run", 5.0, 9.0, 1, 1),
        ("ModelCache.lookup_ir", 5.5, 6.0, 5, 1),
    ]
    layers = spans.layer_self_times(nested)
    assert sum(layers.values()) == pytest.approx(10.0)
    assert layers["lexer"] == pytest.approx(1.0)
    assert layers["parser"] == pytest.approx(2.5)
    assert layers["model"] == pytest.approx(0.5)
    assert layers["taint"] == pytest.approx(3.5)
    assert layers["cache"] == pytest.approx(0.5)
    assert layers["finalize"] == pytest.approx(1.0)
    assert layers["harness"] == pytest.approx(1.0)


class _Base:
    def inherited(self, value):
        return value + 1


class _Target(_Base):
    def own(self, value):
        return value * 2

    @classmethod
    def build(cls, value):
        return (cls, value)


def test_recorder_wraps_and_restores_entry_points():
    recorder = spans.SpanRecorder()
    originals = dict(vars(_Target))
    recorder.wrap(_Target, "own", "own")
    recorder.wrap(_Target, "inherited", "inherited")
    recorder.wrap(_Target, "build", "build", lambda rec, result: rec.count("built"))
    with recorder.span("op"):
        assert _Target().own(3) == 6
        assert _Target().inherited(3) == 4
        assert _Target.build(5) == (_Target, 5)
    recorder.uninstall()
    assert dict(vars(_Target)) == originals
    names = [span[0] for span in recorder.finished()]
    assert names == ["op", "own", "inherited", "build"]
    assert [span[3] for span in recorder.finished()] == [-1, 0, 0, 0]
    assert recorder.counts == {"built": 1}


def test_best_of_sessions_keeps_each_repeated_operation_once():
    latencies = [0.3, 0.1, 0.2, 0.5, 0.4]
    keys = ["a", "b", None, "a", "b"]
    assert sorted(bench.best_of_sessions(latencies, keys)) == [0.1, 0.2, 0.3]


def test_slowdown_averages_the_bursts_in_and_around_an_interval():
    clock = hostclock.HostClock(enabled=False)
    nominal = hostclock.NOMINAL_S
    # bursts at t = 0..9; the first half ran at nominal speed, the second
    # half took twice as long
    clock.samples = [(float(t), nominal * (1 if t < 5 else 2)) for t in range(10)]
    assert clock.slowdown(0.0, 4.0) == pytest.approx(7 / 6)  # widened to t = 5
    assert clock.slowdown(5.0, 9.0) == pytest.approx(11 / 6)  # widened to t = 4
    assert clock.slowdown(0.0, 9.0) == pytest.approx(1.5)
    # no burst inside: the six nearest, three on each side
    assert clock.slowdown(4.4, 4.6) == pytest.approx(1.5)
    assert clock.correct(3.0, 0.0, 9.0) == pytest.approx(2.0)


def test_host_probe_answers_bursts_and_stops():
    clock = hostclock.HostClock(every_s=0.0)
    try:
        clock.sample(2)
        clock.maybe_sample()
    finally:
        clock.close()
    assert len(clock.samples) == 3
    assert all(seconds > 0 for _t, seconds in clock.samples)
    assert clock.spent > 0


def test_span_cost_is_a_small_positive_time():
    cost = spans.span_cost(calls=2000, rounds=3)
    assert 0.0 < cost < 1e-3


# -- oracles ------------------------------------------------------------------


def test_oracle_reports_a_dropped_finding():
    expected = oracle.load_expected("2014")
    slug, signatures = next(iter(sorted(expected.items())))
    dropped = set(sorted(signatures)[1:])
    assert oracle.compare(set(signatures), signatures) is None
    assert "1 missing" in oracle.compare(dropped, signatures)


def test_committed_oracle_matches_the_paper_counts():
    from repro.corpus import build_corpus

    for version in oracle.VERSIONS:
        truth = build_corpus(version, oracle.SCALE).truth
        assert oracle.cross_check(version, oracle.load_expected(version), truth) is None


def test_cold_corpus_counts_a_dropped_finding_as_failed(tmp_path):
    from repro.corpus import build_corpus

    plugin = build_corpus("2012", oracle.SCALE).plugins[0]
    expected = oracle.load_expected("2012")
    tampered = dict(expected)
    tampered[plugin.slug] = set(sorted(expected[plugin.slug])[1:])
    run = workloads.Run(
        {"workload": "cold-corpus", "seed": 1, "seconds": 1, "passes": 1,
         "workdir": str(tmp_path)}
    )
    workloads.cold_measure(run, ([plugin], tampered))
    assert len(run.intervals) == 1
    assert run.failed / len(run.intervals) > 0
    assert "unexpected" in run.errors[0]


# -- tiny end-to-end smoke runs ----------------------------------------------


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_prints_every_metric(workload, trace):
    done = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", trace, "--size", "tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stderr
    assert result["attempted"] >= 1 and result["failed"] == 0
    section = "per_layer" if trace == "1" else "end_to_end"
    wanted = {metric["name"]: metric["unit"] for metric in BENCHMARK[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    elif workload == "cold-corpus":
        assert result["metrics"]["cache.reads"]["value"] == 0
    elif workload == "edit-rescan":
        assert result["metrics"]["incremental.fallbacks"]["value"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = _bench("--workload", "cold-corpus", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=str(tmp_path))
    assert done.returncode != 0
    assert done.stdout.strip() == ""
