"""Million-LOC stress tiers: the scale ceiling of the reproduction.

The paper-shaped corpus (:mod:`repro.corpus.generator`) tops out around
67k LOC at scale 0.25 — enough for Table I–III fidelity, far short of
the ROADMAP's "fast as the hardware allows" claim.  This module
synthesizes multi-million-LOC plugin sets with the three pathological
shapes that stress a scanner's memory behaviour differently:

- **thousands of tiny plugins** — report-accumulation overhead
  dominates; per-plugin fixed costs are the bottleneck;
- **deep call/include chains** — one tainted value threaded through a
  ``chain_depth``-file function chain, forcing transitive summaries far
  past the inline include-execution depth limit;
- **single huge files** — individual FileModels of several MB each,
  exactly the entries an entry-bounded LRU mistakes for cheap.

Generation is deterministic and **lazy**: :func:`iter_stress_plugins`
yields one :class:`~repro.plugin.Plugin` at a time, so the streaming
scanner never holds a tier's corpus in memory (materializing the 1M-LOC
tier as a list is itself a memory bug).  A ``seed`` parameter perturbs
only the noise payloads — seeded vulnerable flows are seed-invariant,
so expected-finding counts hold for any seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator

from ..plugin import Plugin
from . import snippets
from .generator import FileBuilder, _noise_text


@dataclass(frozen=True)
class StressTier:
    """One point on the scale axis: shape counts plus the RSS contract.

    ``streaming_rss_mb`` is the tier's memory ceiling for streaming
    mode — the bound the ``scale-smoke`` CI job asserts and
    ``BENCH_scale.json`` records.  It is a *contract*, not a
    measurement: streaming evaluation must hold peak RSS under it at
    this tier regardless of corpus size, which accumulating mode cannot
    promise.  The catalog pins the same 176 MB budget on every tier
    deliberately — flat memory across a 16x corpus-size range is the
    streaming claim, and the entry-bounded accumulating path breaks
    the shared budget once the corpus crosses a million LOC.  The
    budget keeps about 80 MB of headroom over the largest streaming
    peak, so a change that grows every peak trips it.
    """

    name: str
    #: tiny-plugin shape: many plugins, trivial size
    tiny_plugins: int
    tiny_loc: int
    #: chain shape: files per chain and LOC per chain file
    chain_plugins: int
    chain_depth: int
    chain_loc: int
    #: huge-file shape: one multi-thousand-LOC file per plugin
    huge_plugins: int
    huge_loc: int
    #: streaming-mode peak-RSS ceiling, in MB
    streaming_rss_mb: int

    @property
    def plugin_count(self) -> int:
        return self.tiny_plugins + self.chain_plugins + self.huge_plugins

    @property
    def target_loc(self) -> int:
        """Nominal tier size (generated LOC lands within a few % of it)."""
        return (
            self.tiny_plugins * self.tiny_loc
            + self.chain_plugins * self.chain_depth * self.chain_loc
            + self.huge_plugins * self.huge_loc
        )

    @property
    def expected_findings(self) -> int:
        """Seeded vulnerable flows the analyzer must report under
        :func:`stress_options`: one XSS per tiny plugin, two per chain
        plugin (the sink in the deepest step file plus the main file
        echoing the chain's tainted return), three per huge plugin
        (start / middle / end of the file)."""
        return self.tiny_plugins + 2 * self.chain_plugins + 3 * self.huge_plugins


#: The scale axis.  ``scale-smoke`` is CI-sized (~1 minute on one
#: core); ``scale-quarter`` matches the paper corpus's 0.25-scale LOC
#: volume in stress shapes; ``scale-1m`` crosses a million LOC.
TIERS: Dict[str, StressTier] = {
    tier.name: tier
    for tier in (
        StressTier(
            name="scale-smoke",
            tiny_plugins=220,
            tiny_loc=100,
            chain_plugins=4,
            chain_depth=32,
            chain_loc=50,
            huge_plugins=4,
            huge_loc=9000,
            streaming_rss_mb=176,
        ),
        StressTier(
            name="scale-quarter",
            tiny_plugins=800,
            tiny_loc=100,
            chain_plugins=8,
            chain_depth=48,
            chain_loc=50,
            huge_plugins=18,
            huge_loc=9000,
            streaming_rss_mb=176,
        ),
        StressTier(
            name="scale-1m",
            tiny_plugins=3000,
            tiny_loc=100,
            chain_plugins=16,
            chain_depth=64,
            chain_loc=50,
            huge_plugins=60,
            huge_loc=12000,
            streaming_rss_mb=176,
        ),
    )
}


def get_tier(name: str) -> StressTier:
    try:
        return TIERS[name]
    except KeyError:
        known = ", ".join(sorted(TIERS))
        raise KeyError(f"unknown stress tier {name!r} (known: {known})")


#: per-file analysis budget for stress scans, in source bytes — the
#: default 120KB budget reproduces the paper's memory-exhaustion
#: failures by *skipping* oversized closures, which would turn every
#: huge-file plugin into a coverage hole instead of a memory stressor
STRESS_INCLUDE_BUDGET = 4_000_000


def stress_options():
    """Analyzer options for stress-tier scans.

    Identical to the defaults except the per-file analysis budget is
    raised so multi-hundred-KB single files are analyzed rather than
    skipped.  Both evaluation modes of the scale bench must
    use these options — the comparison is streaming-vs-accumulating,
    not budget-vs-budget.
    """
    from ..core.phpsafe import PhpSafeOptions

    return PhpSafeOptions(include_budget=STRESS_INCLUDE_BUDGET)


def _uid(tier: StressTier, seed: int, *parts: object) -> str:
    """Deterministic identifier fragment for generated code entities."""
    tag = "_".join(str(part) for part in parts)
    return f"{tier.name.replace('-', '_')}_{seed}_{tag}"


def _pad_file(builder: FileBuilder, target_loc: int, uid: str) -> None:
    """Append noise fragments until the file holds ``target_loc``
    effective lines (same nonblank-line accounting as the paper
    corpus's padding pass)."""
    current = sum(1 for line in builder.lines if line.strip())
    index = 0
    while current < target_loc:
        choice = index % 3
        noise_uid = f"{uid}_{index}"
        if choice == 0:
            fragment = snippets.noise_helper_function(noise_uid)
        elif choice == 1:
            fragment = snippets.noise_loop_block(noise_uid)
        else:
            fragment = snippets.noise_sanitized_echo(noise_uid)
        builder.add(fragment)
        current += sum(1 for line in fragment.lines if line.strip())
        index += 1


def _tiny_plugin(tier: StressTier, seed: int, index: int) -> Plugin:
    """~``tiny_loc`` lines, one seeded XSS, one file."""
    uid = _uid(tier, seed, "tiny", index)
    name = f"stress-tiny-{index:05d}"
    builder = FileBuilder(f"{name}.php")
    # seed-invariant vulnerable flow: uid excludes the seed on purpose
    builder.add(
        snippets.direct_echo_main(
            f"tiny_{tier.name.replace('-', '_')}_{index}", _vector(index)
        )
    )
    _pad_file(builder, tier.tiny_loc, uid)
    plugin = Plugin(name=name, version="1.0")
    plugin.add_file(builder.path, builder.source())
    return plugin


def _vector(index: int):
    from ..config.vulnerability import InputVector

    cycle = (InputVector.GET, InputVector.POST, InputVector.COOKIE)
    return cycle[index % len(cycle)]


def _chain_plugin(tier: StressTier, seed: int, index: int) -> Plugin:
    """A ``chain_depth``-file call chain carrying one tainted value.

    File ``k`` defines ``step_k`` which returns ``step_{k+1}``'s result;
    the deepest file echoes its argument.  The main file feeds
    ``$_GET`` into ``step_0``, so the single seeded finding requires a
    transitive summary across every file of the chain.  ``require_once``
    links between neighbours give the chain its pathological *include*
    shape too — deeper than the engine's inline include-execution limit,
    which cross-file function resolution must not depend on.
    """
    base = f"chain_{tier.name.replace('-', '_')}_{index}"
    name = f"stress-chain-{index:03d}"
    plugin = Plugin(name=name, version="1.0")

    main = FileBuilder(f"{name}.php")
    main.lines.extend(
        [
            "require_once(dirname(__FILE__) . '/steps/step-0.php');",
            f"echo step_{base}_0($_GET['payload_{base}']);",
            "",
        ]
    )
    _pad_file(main, tier.chain_loc, _uid(tier, seed, "chainmain", index))
    plugin.add_file(main.path, main.source())

    for depth in range(tier.chain_depth):
        step = FileBuilder(f"steps/step-{depth}.php")
        if depth + 1 < tier.chain_depth:
            step.lines.append(
                f"require_once(dirname(__FILE__) . '/step-{depth + 1}.php');"
            )
            step.lines.extend(
                [
                    f"function step_{base}_{depth}($value) {{",
                    f"    return step_{base}_{depth + 1}($value);",
                    "}",
                    "",
                ]
            )
        else:
            step.lines.extend(
                [
                    f"function step_{base}_{depth}($value) {{",
                    "    echo $value;",
                    "    return $value;",
                    "}",
                    "",
                ]
            )
        _pad_file(step, tier.chain_loc, _uid(tier, seed, "chain", index, depth))
        plugin.add_file(step.path, step.source())
    return plugin


def _huge_plugin(tier: StressTier, seed: int, index: int) -> Plugin:
    """One file of ``huge_loc`` lines: a FileModel several MB deep.

    Three seeded flows sit at the start, middle and end so a scanner
    that truncates or windows the file loses findings detectably.
    Byte-heavy string constants (via :func:`_noise_text`) push the
    source-size-to-LOC ratio up, the shape that breaks entry-bounded
    caches.
    """
    base = f"huge_{tier.name.replace('-', '_')}_{index}"
    name = f"stress-huge-{index:03d}"
    builder = FileBuilder(f"{name}.php")

    third = tier.huge_loc // 3
    for section in range(3):
        builder.add(snippets.direct_echo_main(f"{base}_s{section}", _vector(index + section)))
        section_target = third * (section + 1) if section < 2 else tier.huge_loc
        # byte-heavy padding: every 6th fragment is a fat string constant
        current = sum(1 for line in builder.lines if line.strip())
        fragment_index = 0
        while current < section_target:
            uid = _uid(tier, seed, "huge", index, section, fragment_index)
            if fragment_index % 6 == 0:
                payload = _noise_text(uid, 400)
                fragment = snippets.biglib_function(base, section * 100_000 + fragment_index, payload)
            elif fragment_index % 3 == 0:
                fragment = snippets.noise_loop_block(uid)
            else:
                fragment = snippets.noise_helper_function(uid)
            builder.add(fragment)
            current += sum(1 for line in fragment.lines if line.strip())
            fragment_index += 1

    plugin = Plugin(name=name, version="1.0")
    plugin.add_file(builder.path, builder.source())
    return plugin


def iter_stress_plugins(tier: StressTier, seed: int = 0) -> Iterator[Plugin]:
    """Lazily yield every plugin of ``tier``, in deterministic order.

    The iterator owns no state beyond the next index — consuming it
    plugin-by-plugin (the streaming scanner's pattern) keeps at most one
    generated plugin alive at a time.
    """
    for index in range(tier.tiny_plugins):
        yield _tiny_plugin(tier, seed, index)
    for index in range(tier.chain_plugins):
        yield _chain_plugin(tier, seed, index)
    for index in range(tier.huge_plugins):
        yield _huge_plugin(tier, seed, index)


def tier_summary(tier: StressTier, seed: int = 0) -> Dict[str, int]:
    """Generated (not nominal) size of a tier: plugins/files/LOC.

    Walks the generator once; used by tests and perfbench's
    ``stress-stream`` workload to report true LOC/s denominators.
    """
    plugins = files = loc = 0
    for plugin in iter_stress_plugins(tier, seed):
        plugins += 1
        files += plugin.file_count
        loc += plugin.loc
    return {"plugins": plugins, "files": files, "loc": loc}
