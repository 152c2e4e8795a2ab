"""Tests for the lowered taint IR: pickle-safe round-trips through the
disk cache (including corrupt-entry quarantine), hash-seed-independent
lowering, and the process-wide L1 artifact cache the IR tier ships
with.  What the IR executor finds is pinned by ``tests/test_golden.py``."""

import hashlib
import os
import pickle
import subprocess
import sys

from repro.batch import DiskModelCache
from repro.core import ModelCache, PhpSafe
from repro.core.ir import IR_VERSION, IRProgram, describe_program
from repro.core.phpsafe import process_cache
from repro.core.results import finding_signatures
from repro.plugin import Plugin
from tests.helpers import corrupt_cache_rows

# one source exercising the constructs whose lowering is subtle:
# interpolation, reference groups, ``global``/``static`` write-through,
# null coalescing, sanitizers, OOP property flow
SOURCE = """<?php
function render($x) { echo "<b>$x</b>"; }
$a = $_GET['q'];
$b =& $a;
echo $b;
echo htmlentities($_GET['w']);
$c = $_POST['p'] ?? 'default';
mysql_query("SELECT * FROM t WHERE x = $c");
render($_GET['r']);
class Box {
    public $v;
    function set($x) { $this->v = $x; }
    function show() { echo $this->v; }
}
$box = new Box();
$box->set($_GET['z']);
$box->show();
function accumulate() {
    static $s = '';
    $s = $s . $_GET['acc'];
    echo $s;
}
accumulate();
accumulate();
"""


def _plugin(name: str = "irp") -> Plugin:
    return Plugin(name=name, files={"a.php": SOURCE})


def _signatures(tool: PhpSafe) -> frozenset:
    return frozenset(finding_signatures([tool.analyze(_plugin())]))


def _ir_programs(cache: ModelCache):
    return [
        slot[0]
        for key, slot in sorted(cache._slots.items())
        if key.startswith("ir1!")
    ]


class TestIRDiskCache:
    def test_ir_survives_disk_cache(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        first = PhpSafe(cache_dir=cache_dir)
        cold = _signatures(first)
        assert first.cache.ir_stats.stores >= 1

        # a fresh tool over the same directory starts with an empty
        # memory tier, so the lowered programs must come back off disk
        second = PhpSafe(cache_dir=cache_dir)
        warm = _signatures(second)
        assert warm == cold
        assert second.cache.ir_stats.disk_hits >= 1
        assert second.cache.ir_stats.hits >= 1

    def test_ir_program_pickle_roundtrip(self):
        cache = ModelCache()
        PhpSafe(cache=cache).analyze(_plugin())
        programs = _ir_programs(cache)
        assert programs, "analysis stored no lowered IR"
        for program in programs:
            clone = pickle.loads(
                pickle.dumps(program, protocol=pickle.HIGHEST_PROTOCOL)
            )
            assert isinstance(clone, IRProgram)
            assert clone.version == IR_VERSION
            assert describe_program(clone) == describe_program(program)

    def test_corrupt_ir_entry_quarantined(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        first = PhpSafe(cache_dir=cache_dir)
        expected = _signatures(first)

        ir_keys = [
            key for key in first.cache._slots if key.startswith("ir1!")
        ]
        assert ir_keys
        assert corrupt_cache_rows(cache_dir, ir_keys) == len(ir_keys)

        second = PhpSafe(cache_dir=cache_dir)
        assert _signatures(second) == expected
        assert second.cache.stats.corrupt >= len(ir_keys)
        # the quarantine deleted the rotten rows and the re-analysis
        # rewrote clean ones: a third tool reads them back fine
        third = PhpSafe(cache_dir=cache_dir)
        assert _signatures(third) == expected
        assert third.cache.stats.corrupt == 0
        assert third.cache.ir_stats.disk_hits >= 1


class TestIRLoweringDeterminism:
    def test_lowering_is_hash_seed_independent(self):
        """Two lowerings of the same source under different
        ``PYTHONHASHSEED`` values must describe identically — cached IR
        is shared across processes through the disk tier."""
        code = (
            "import hashlib\n"
            "from repro.core import ModelCache, PhpSafe\n"
            "from repro.core.ir import describe_program\n"
            "from repro.plugin import Plugin\n"
            f"source = {SOURCE!r}\n"
            "cache = ModelCache()\n"
            "tool = PhpSafe(cache=cache)\n"
            "tool.analyze(Plugin(name='d', files={'a.php': source}))\n"
            "programs = [slot[0] for key, slot in sorted(cache._slots.items())"
            " if key.startswith('ir1!')]\n"
            "assert programs\n"
            "text = '\\n'.join(describe_program(p) for p in programs)\n"
            "print(hashlib.sha256(text.encode('utf-8')).hexdigest())\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        runs = set()
        for seed in ("0", "1", "random"):
            env = dict(os.environ)
            env["PYTHONPATH"] = src + (
                os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
            )
            env["PYTHONHASHSEED"] = seed
            out = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            runs.add(out.stdout.strip())
        assert len(runs) == 1, runs


class TestProcessCache:
    def test_default_tools_share_the_process_cache(self):
        shared = process_cache()
        assert PhpSafe().cache is shared
        assert PhpSafe().cache is shared

    def test_explicit_cache_wins(self):
        cache = ModelCache()
        assert PhpSafe(cache=cache).cache is cache

    def test_opt_out_disables_caching(self):
        assert PhpSafe(use_process_cache=False).cache is None

    def test_opt_out_parity(self):
        cached = _signatures(PhpSafe())
        uncached = _signatures(PhpSafe(use_process_cache=False))
        assert cached == uncached

    def test_second_tool_hits_shared_artifacts(self):
        # a unique source so other tests can't have warmed these slots
        source = SOURCE + "\n<?php echo $_GET['process_cache_probe'];\n"
        plugin = Plugin(name="pc", files={"probe.php": source})
        shared = process_cache()
        PhpSafe().analyze(plugin)
        hits_before = shared.stats.hits
        ir_hits_before = shared.ir_stats.hits
        PhpSafe().analyze(plugin)
        assert shared.stats.hits > hits_before
        assert shared.ir_stats.hits > ir_hits_before
