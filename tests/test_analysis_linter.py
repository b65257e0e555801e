"""Tests for the static analyzer (:mod:`repro.analysis`).

Each DET/UNIT rule gets a violating/clean fixture pair via ``lint_source``;
the cross-layer WIRE rules get mini-project fixtures under ``tmp_path``
driven through ``lint_paths``; the two suppression channels (inline ignores
and the baseline file) round-trip; stale baseline entries are detected and
pruned; the rule registry mirrors the policy registry's invariants; and —
the CI contract — the shipped ``src/repro`` tree lints clean against the
checked-in baseline under the full ``DET,UNIT,WIRE`` selection.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import (
    Baseline,
    Rule,
    all_rules,
    get_rule,
    lint_paths,
    lint_source,
    load_baseline,
    register_rule,
    save_baseline,
)
from repro.analysis.rules import expand_selectors, unregister_rule

REPO_ROOT = Path(__file__).resolve().parent.parent


def codes_of(report):
    return sorted({finding.code for finding in report.findings})


# --------------------------------------------------------------- rule fixtures
class TestDET001WallClock:
    def test_flags_wall_clock_and_entropy_calls(self):
        source = (
            "import time\n"
            "import os\n"
            "import uuid\n"
            "def stamp():\n"
            "    return time.time(), os.urandom(8), uuid.uuid4()\n"
        )
        report = lint_source(source, path="src/repro/example.py")
        assert codes_of(report) == ["DET001"]
        assert len(report.findings) == 3

    def test_clean_simulated_time_passes(self):
        source = (
            "def stamp(clock):\n"
            "    return clock.now()\n"
        )
        report = lint_source(source, path="src/repro/example.py")
        assert report.findings == []

    def test_resolves_import_aliases(self):
        source = (
            "from time import perf_counter as pc\n"
            "def measure():\n"
            "    return pc()\n"
        )
        report = lint_source(source, path="src/repro/example.py")
        assert codes_of(report) == ["DET001"]

    def test_counter_clocks_are_flagged_in_every_module(self):
        source = (
            "import time\n"
            "def measure():\n"
            "    return time.perf_counter(), time.monotonic()\n"
        )
        paths = {
            path.relative_to(REPO_ROOT).as_posix()
            for path in (REPO_ROOT / "src" / "repro").rglob("*.py")
        }
        paths.add("src/repro/perf.py")  # the module the rule once exempted
        for path in sorted(paths):
            report = lint_source(source, path=path)
            assert [f.code for f in report.findings] == ["DET001", "DET001"], path

    def test_lookalike_method_on_local_object_is_not_flagged(self):
        source = (
            "def use(clock):\n"
            "    return clock.time()\n"
        )
        assert lint_source(source, path="src/repro/example.py").findings == []


class TestDET002UnseededRNG:
    def test_flags_unseeded_constructors_and_ambient_calls(self):
        source = (
            "import random\n"
            "import numpy as np\n"
            "a = random.Random()\n"
            "b = np.random.default_rng()\n"
            "c = random.randint(0, 9)\n"
            "d = np.random.normal()\n"
        )
        report = lint_source(source, path="src/repro/example.py")
        assert codes_of(report) == ["DET002"]
        assert len(report.findings) == 4

    def test_seeded_constructors_pass(self):
        source = (
            "import random\n"
            "import numpy as np\n"
            "a = random.Random(7)\n"
            "b = np.random.default_rng(7)\n"
            "c = np.random.default_rng(seed=7)\n"
            "d = b.normal()\n"
        )
        assert lint_source(source, path="src/repro/example.py").findings == []

    def test_system_random_is_flagged_even_with_arguments(self):
        source = "import random\nr = random.SystemRandom()\n"
        assert codes_of(lint_source(source, path="src/repro/x.py")) == ["DET002"]


class TestDET003OrderDependence:
    def test_flags_set_iteration_and_aggregation(self):
        source = (
            "def f(names):\n"
            "    total = 0.0\n"
            "    for name in set(names):\n"
            "        total += len(name)\n"
            "    return total + sum({1.0, 2.0}) + max(frozenset(names))\n"
        )
        report = lint_source(source, path="src/repro/example.py")
        assert codes_of(report) == ["DET003"]
        assert len(report.findings) == 3

    def test_flags_sum_over_dict_views(self):
        source = (
            "def f(table):\n"
            "    return sum(table.values()) + sum(v for v in table.values())\n"
        )
        report = lint_source(source, path="src/repro/example.py")
        assert codes_of(report) == ["DET003"]
        assert len(report.findings) == 2

    def test_sorted_aggregation_passes(self):
        source = (
            "def f(names, table):\n"
            "    for name in sorted(set(names)):\n"
            "        pass\n"
            "    return sum(v for _, v in sorted(table.items()))\n"
        )
        assert lint_source(source, path="src/repro/example.py").findings == []

    def test_plain_dict_iteration_is_not_flagged(self):
        # dict views are insertion-ordered; only float accumulation via
        # sum() makes the order an implicit invariant worth flagging.
        source = (
            "def f(table):\n"
            "    for key in table.keys():\n"
            "        pass\n"
            "    return max(table.values())\n"
        )
        assert lint_source(source, path="src/repro/example.py").findings == []


class TestDET004ModeComparison:
    def test_flags_mode_ladders(self):
        source = (
            "def dispatch(config):\n"
            "    if config.mode == 'sync':\n"
            "        return 1\n"
            "    if mode in ('async', 'semi'):\n"
            "        return 2\n"
        )
        report = lint_source(source, path="src/repro/core/runner.py")
        assert codes_of(report) == ["DET004"]
        assert len(report.findings) == 2

    def test_registry_module_is_exempt(self):
        source = "def check(mode):\n    return mode == 'sync'\n"
        assert lint_source(source, path="src/repro/sched/registry.py").findings == []
        assert codes_of(lint_source(source, path="src/repro/core/cli.py")) == ["DET004"]

    def test_registry_lookup_passes(self):
        source = (
            "def dispatch(registry, config):\n"
            "    return registry.get_policy(config.mode).factory(config)\n"
        )
        assert lint_source(source, path="src/repro/core/runner.py").findings == []


class TestDET005MutableDefaults:
    def test_flags_mutable_defaults(self):
        source = (
            "def collect(into=[], table={}, seen=set()):\n"
            "    return into, table, seen\n"
        )
        report = lint_source(source, path="src/repro/example.py")
        assert codes_of(report) == ["DET005"]
        assert len(report.findings) == 3

    def test_none_default_passes(self):
        source = (
            "def collect(into=None, count=0, name=''):\n"
            "    return into if into is not None else []\n"
        )
        assert lint_source(source, path="src/repro/example.py").findings == []


class TestUNIT001UnitMixing:
    def test_flags_mixed_add_and_compare(self):
        source = (
            "def f(latency_s, payload_bytes, budget_mb):\n"
            "    total = latency_s + payload_bytes\n"
            "    return payload_bytes > budget_mb\n"
        )
        report = lint_source(source, path="src/repro/example.py")
        assert codes_of(report) == ["UNIT001"]
        assert len(report.findings) == 2

    def test_flags_bytes_over_megabyte_bandwidth(self):
        # The historical transfer_time bug: dividing bytes by a MB/s
        # bandwidth yields a time that is off by a factor of a million.
        source = (
            "def transfer(num_bytes, bandwidth_mbytes_per_s):\n"
            "    return num_bytes / bandwidth_mbytes_per_s\n"
        )
        report = lint_source(source, path="src/repro/example.py")
        assert codes_of(report) == ["UNIT001"]
        assert "bytes_over_bandwidth" in report.findings[0].message

    def test_same_dimension_arithmetic_passes(self):
        source = (
            "def f(latency_s, queue_s, upload_bytes, download_bytes):\n"
            "    wait_s = latency_s + queue_s\n"
            "    total_bytes = upload_bytes + download_bytes\n"
            "    return wait_s, total_bytes\n"
        )
        assert lint_source(source, path="src/repro/example.py").findings == []

    def test_explicit_conversion_call_silences_the_rule(self):
        # A call has unknown dimension, so routing one side through a
        # units helper is exactly how a conversion opts out.
        source = (
            "from repro.simnet.units import bytes_over_bandwidth\n"
            "def f(latency_s, num_bytes, bw_mbytes_per_s):\n"
            "    return latency_s + bytes_over_bandwidth(num_bytes, bw_mbytes_per_s)\n"
        )
        assert lint_source(source, path="src/repro/example.py").findings == []

    def test_unsuffixed_names_are_not_inferred(self):
        source = "def f(latency_s, fudge):\n    return latency_s + fudge\n"
        assert lint_source(source, path="src/repro/example.py").findings == []


class TestUNIT002ConversionLiterals:
    def test_flags_magic_constants_in_arithmetic(self):
        source = (
            "def f(bw, size):\n"
            "    a = bw * 1e6\n"
            "    b = size / 4e6\n"
            "    c = bw * 1_000_000\n"
            "    return a, b, c\n"
        )
        report = lint_source(source, path="src/repro/example.py")
        assert codes_of(report) == ["UNIT002"]
        assert len(report.findings) == 3

    def test_bare_defaults_that_collide_numerically_pass(self):
        # A gas limit of 1_000_000 is a count, not a conversion; only
        # arithmetic *uses* of the constant are conversions.
        source = (
            "GAS_LIMIT = 1_000_000\n"
            "def f(limit=1_000_000, balance=1_000_000.0):\n"
            "    return limit, balance\n"
        )
        assert lint_source(source, path="src/repro/example.py").findings == []

    def test_units_module_is_exempt(self):
        source = "MB = 1_000_000\ndef f(bw):\n    return bw * 1e6\n"
        assert lint_source(source, path="src/repro/simnet/units.py").findings == []
        assert codes_of(lint_source(source, path="src/repro/other.py")) == ["UNIT002"]


class TestUNIT004SuffixAssignment:
    def test_flags_unsuffixed_and_cross_unit_sources(self):
        source = (
            "def f(raw, duration_s):\n"
            "    latency_s = raw\n"
            "    payload_bytes = duration_s\n"
        )
        report = lint_source(source, path="src/repro/example.py")
        assert codes_of(report) == ["UNIT004"]
        assert len(report.findings) == 2
        assert "without a conversion" in report.findings[1].message

    def test_flags_keyword_arguments(self):
        source = (
            "def f(latency, bandwidth):\n"
            "    return NetworkLink(latency_s=latency, bandwidth_bytes_per_s=bandwidth)\n"
        )
        report = lint_source(source, path="src/repro/example.py")
        assert codes_of(report) == ["UNIT004"]
        assert len(report.findings) == 2

    def test_matching_suffixes_and_conversions_pass(self):
        source = (
            "from repro.simnet.units import mbytes_per_s_to_bytes_per_s\n"
            "def f(wan_latency_s, bw_mbytes_per_s):\n"
            "    latency_s = wan_latency_s\n"
            "    bandwidth_bytes_per_s = mbytes_per_s_to_bytes_per_s(bw_mbytes_per_s)\n"
            "    return NetworkLink(latency_s=latency_s, bandwidth_bytes_per_s=bandwidth_bytes_per_s)\n"
        )
        assert lint_source(source, path="src/repro/example.py").findings == []

    def test_unsuffixed_targets_are_not_inferred(self):
        source = "def f(duration_s):\n    total = duration_s\n    return total\n"
        assert lint_source(source, path="src/repro/example.py").findings == []


# ---------------------------------------------------------------- suppressions
class TestSuppressions:
    VIOLATING = "import time\nstamp = time.time()  # detlint: ignore[DET001]\n"

    def test_inline_ignore_suppresses_the_named_code(self):
        report = lint_source(self.VIOLATING, path="src/repro/x.py")
        assert report.findings == []
        assert report.suppressed == 1

    def test_inline_ignore_is_per_line_and_per_code(self):
        source = (
            "import time\n"
            "a = time.time()  # detlint: ignore[DET002]\n"  # wrong code
            "b = time.time()\n"  # no marker
        )
        report = lint_source(source, path="src/repro/x.py")
        assert len(report.findings) == 2
        assert report.suppressed == 0

    def test_ignore_accepts_multiple_codes(self):
        source = (
            "import time, random\n"
            "x = sum({random.random(), time.time()})  # detlint: ignore[DET001,DET002,DET003]\n"
        )
        report = lint_source(source, path="src/repro/x.py")
        assert report.findings == []
        assert report.suppressed == 3

    def test_skip_file_suppresses_the_whole_module(self):
        source = "# detlint: skip-file\nimport time\nstamp = time.time()\n"
        report = lint_source(source, path="src/repro/x.py")
        assert report.findings == []

    def test_code_filter_restricts_the_run(self):
        source = "import time\nstamp = time.time()\ndef f(x=[]):\n    return x\n"
        only_005 = lint_source(source, path="src/repro/x.py", codes=("DET005",))
        assert codes_of(only_005) == ["DET005"]
        with pytest.raises(ValueError, match="unknown rule"):
            lint_source(source, path="src/repro/x.py", codes=("DET999",))


# -------------------------------------------------- cross-layer WIRE fixtures
CONFIG_MODULE = """\
from dataclasses import dataclass


@dataclass
class ExperimentConfig:
    rounds: int = 3
    block_period: float = 2.0
    orphan_knob: float = 1.0

    def __post_init__(self):
        if self.block_period <= 0:
            raise ValueError("block_period must be positive")
"""

CLI_MODULE = """\
import argparse

from config import ExperimentConfig


def build_parser():
    parser = argparse.ArgumentParser()
    parser.add_argument("--rounds", type=int, default=3)
    return parser


def build(argv=None):
    args = build_parser().parse_args(argv)
    return ExperimentConfig(rounds=args.rounds)
"""


def write_project(tmp_path, **modules):
    for name, source in modules.items():
        (tmp_path / f"{name}.py").write_text(source)
    return str(tmp_path)


class TestWIRE001ConfigCliWiring:
    def test_orphan_config_field_fires(self, tmp_path):
        # The acceptance-criterion fixture: ``orphan_knob`` has no CLI flag
        # and no __post_init__ validation, so the cross-layer pass flags it.
        root = write_project(tmp_path, config=CONFIG_MODULE, cli=CLI_MODULE)
        report = lint_paths([root], codes=("WIRE001",))
        assert codes_of(report) == ["WIRE001"]
        assert len(report.findings) == 1
        assert "orphan_knob" in report.findings[0].message
        assert report.findings[0].path.endswith("config.py")

    def test_validated_or_wired_fields_pass(self, tmp_path):
        # ``rounds`` is passed through the CLI construction and
        # ``block_period`` is validated in __post_init__ — neither fires.
        clean_config = CONFIG_MODULE.replace("    orphan_knob: float = 1.0\n", "")
        root = write_project(tmp_path, config=clean_config, cli=CLI_MODULE)
        assert lint_paths([root], codes=("WIRE001",)).findings == []

    def test_dead_wiring_fires_on_undefined_dest(self, tmp_path):
        dead_cli = CLI_MODULE.replace(
            "ExperimentConfig(rounds=args.rounds)",
            "ExperimentConfig(rounds=args.round_count)",
        )
        root = write_project(tmp_path, config=CONFIG_MODULE, cli=dead_cli)
        report = lint_paths([root], codes=("WIRE001",))
        messages = [finding.message for finding in report.findings]
        assert any("args.round_count" in message for message in messages)

    def test_config_without_cli_module_asserts_nothing(self, tmp_path):
        # Cross-layer by definition: a lone config fixture with no argparse
        # module in the scan must not condemn every field.
        root = write_project(tmp_path, config=CONFIG_MODULE)
        assert lint_paths([root], codes=("WIRE001",)).findings == []

    def test_inline_ignore_suppresses_project_findings(self, tmp_path):
        suppressed = CONFIG_MODULE.replace(
            "    orphan_knob: float = 1.0",
            "    orphan_knob: float = 1.0  # detlint: ignore[WIRE001]",
        )
        root = write_project(tmp_path, config=suppressed, cli=CLI_MODULE)
        report = lint_paths([root], codes=("WIRE001",))
        assert report.findings == []
        assert report.suppressed == 1


class TestWIRE003RegistryBackedChoices:
    def test_literal_choices_fire(self, tmp_path):
        source = (
            "import argparse\n"
            "parser = argparse.ArgumentParser()\n"
            "parser.add_argument('--replication-mode', choices=['eager', 'lazy'])\n"
        )
        root = write_project(tmp_path, cli=source)
        report = lint_paths([root], codes=("WIRE003",))
        assert codes_of(report) == ["WIRE003"]
        assert "REPLICATION_MODES" in report.findings[0].message

    def test_missing_choices_fire(self, tmp_path):
        source = (
            "import argparse\n"
            "parser = argparse.ArgumentParser()\n"
            "parser.add_argument('--mode')\n"
        )
        root = write_project(tmp_path, cli=source)
        report = lint_paths([root], codes=("WIRE003",))
        assert codes_of(report) == ["WIRE003"]
        assert "no choices=" in report.findings[0].message

    def test_registry_derived_choices_pass(self, tmp_path):
        source = (
            "import argparse\n"
            "from repro.simnet.replication import REPLICATION_MODES\n"
            "from repro.sched.registry import registered_modes\n"
            "parser = argparse.ArgumentParser()\n"
            "parser.add_argument('--mode', choices=registered_modes())\n"
            "parser.add_argument('--replication-mode', choices=list(REPLICATION_MODES))\n"
            "parser.add_argument('--other', choices=['a', 'b'])\n"
        )
        root = write_project(tmp_path, cli=source)
        assert lint_paths([root], codes=("WIRE003",)).findings == []


# -------------------------------------------------------------------- baseline
class TestBaseline:
    def test_round_trip_and_filtering(self, tmp_path):
        module = tmp_path / "mod.py"
        module.write_text("import time\nstamp = time.time()\n")
        report = lint_paths([str(module)])
        assert len(report.findings) == 1

        baseline = Baseline()
        baseline.add(report.findings[0], note="fixture: intentionally nondeterministic")
        baseline_path = tmp_path / "baseline.json"
        save_baseline(baseline, baseline_path)
        reloaded = load_baseline(baseline_path)
        assert len(reloaded) == 1

        filtered = lint_paths([str(module)], baseline=reloaded)
        assert filtered.findings == []
        assert filtered.baselined == 1

    def test_fingerprint_survives_line_churn(self, tmp_path):
        module = tmp_path / "mod.py"
        module.write_text("import time\nstamp = time.time()\n")
        baseline = Baseline()
        baseline.add(lint_paths([str(module)]).findings[0], note="pinned")
        # Push the offending line down: the (path, code, snippet) fingerprint
        # still matches even though the line number moved.
        module.write_text("import time\n\n\n# padding\nstamp = time.time()\n")
        filtered = lint_paths([str(module)], baseline=baseline)
        assert filtered.findings == []
        assert filtered.baselined == 1

    def test_note_is_mandatory(self):
        baseline = Baseline()
        with pytest.raises(ValueError, match="justification"):
            baseline.add(
                lint_source("import time\nt = time.time()\n", path="x.py").findings[0],
                note="   ",
            )

    def test_missing_file_loads_empty(self, tmp_path):
        assert len(load_baseline(tmp_path / "absent.json")) == 0

    def test_unsupported_version_raises(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text('{"version": 99, "entries": []}')
        with pytest.raises(ValueError, match="version"):
            load_baseline(path)


# ---------------------------------------------------------- baseline staleness
class TestBaselineStaleness:
    def make_baseline(self, tmp_path):
        module = tmp_path / "mod.py"
        module.write_text("import time\nstamp = time.time()\n")
        baseline = Baseline()
        baseline.add(lint_paths([str(module)]).findings[0], note="fixture justification")
        return module, baseline

    def test_fixed_violation_turns_the_entry_stale(self, tmp_path):
        module, baseline = self.make_baseline(tmp_path)
        assert baseline.stale_entries([str(module)]) == []
        module.write_text("stamp = None\n")  # the violation is gone
        stale = baseline.stale_entries([str(module)])
        assert len(stale) == 1
        assert stale[0]["code"] == "DET001"
        assert stale[0]["note"] == "fixture justification"

    def test_deleted_file_under_a_scanned_dir_is_stale(self, tmp_path):
        module, baseline = self.make_baseline(tmp_path)
        module.unlink()
        (tmp_path / "other.py").write_text("x = 1\n")
        assert len(baseline.stale_entries([str(tmp_path)])) == 1

    def test_entries_outside_the_scan_are_never_judged(self, tmp_path):
        _, baseline = self.make_baseline(tmp_path)
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        (elsewhere / "clean.py").write_text("x = 1\n")
        assert baseline.stale_entries([str(elsewhere)]) == []

    def test_staleness_is_independent_of_rule_selection(self, tmp_path):
        # A UNIT-only run must not condemn a DET baseline entry that is
        # still live: staleness is line-presence, not finding-presence.
        module, baseline = self.make_baseline(tmp_path)
        assert baseline.stale_entries([str(module)]) == []
        report = lint_paths([str(module)], codes=("UNIT",), baseline=baseline)
        assert report.findings == []

    def test_cli_exits_1_and_lists_stale_entries(self, tmp_path, capsys):
        from repro.cli import main

        module, baseline = self.make_baseline(tmp_path)
        baseline_path = tmp_path / "baseline.json"
        save_baseline(baseline, baseline_path)
        module.write_text("stamp = None\n")
        assert main(["lint", str(module), "--baseline", str(baseline_path)]) == 1
        out = capsys.readouterr().out
        assert "stale baseline entry" in out
        assert "DET001" in out

    def test_cli_update_baseline_prunes_stale_and_preserves_notes(self, tmp_path, capsys):
        from repro.cli import main

        # Two violations, baselined with distinct notes.
        keep = tmp_path / "keep.py"
        keep.write_text("import time\nstamp = time.time()\n")
        fix = tmp_path / "fix.py"
        fix.write_text("import os\ntoken = os.urandom(8)\n")
        baseline = Baseline()
        baseline.add(lint_paths([str(keep)]).findings[0], note="keep: justified forever")
        baseline.add(lint_paths([str(fix)]).findings[0], note="fix: temporary")
        baseline_path = tmp_path / "baseline.json"
        save_baseline(baseline, baseline_path)

        fix.write_text("token = None\n")  # the second violation is fixed
        assert (
            main(
                [
                    "lint",
                    str(tmp_path),
                    "--baseline",
                    str(baseline_path),
                    "--update-baseline",
                    "NOTE",
                ]
            )
            == 0
        )
        assert "1 stale pruned" in capsys.readouterr().out
        updated = load_baseline(baseline_path)
        assert len(updated) == 1
        ((entry, note),) = updated.entries.items()
        assert entry[0].endswith("keep.py")
        assert note == "keep: justified forever"  # not clobbered by NOTE
        assert main(["lint", str(tmp_path), "--baseline", str(baseline_path)]) == 0


# --------------------------------------------------------------- rule registry
class TestRuleRegistry:
    def test_builtin_rules_are_registered_in_order(self):
        assert [rule.code for rule in all_rules()] == [
            "DET001",
            "DET002",
            "DET003",
            "DET004",
            "DET005",
            "UNIT001",
            "UNIT002",
            "UNIT004",
            "WIRE001",
            "WIRE003",
        ]

    def test_wire_rules_are_project_scoped(self):
        assert get_rule("WIRE001").scope == "project"
        assert get_rule("UNIT001").scope == "module"

    def test_every_rule_ships_an_explanation(self):
        for rule in all_rules():
            assert rule.explain.strip(), f"{rule.code} has no --explain text"

    def test_family_selectors_expand_to_registered_codes(self):
        assert expand_selectors(["UNIT"]) == [
            "UNIT001",
            "UNIT002",
            "UNIT004",
        ]
        assert expand_selectors(["WIRE", "DET001"]) == [
            "WIRE001",
            "WIRE003",
            "DET001",
        ]
        with pytest.raises(ValueError, match="unknown rule or family"):
            expand_selectors(["NOPE"])

    def test_duplicate_registration_raises(self):
        with pytest.raises(ValueError, match="already registered"):
            register_rule(Rule(code="DET001", name="dup", summary="", check=lambda ctx: []))

    def test_unknown_rule_lists_registered_codes(self):
        with pytest.raises(ValueError, match="DET001") as excinfo:
            get_rule("DET999")
        assert "registered rules" in str(excinfo.value)

    def test_custom_rule_registers_and_unregisters(self):
        rule = Rule(code="DET900", name="test-only", summary="", check=lambda ctx: [])
        register_rule(rule)
        try:
            assert get_rule("DET900") is rule
        finally:
            unregister_rule("DET900")
        with pytest.raises(ValueError):
            get_rule("DET900")


# ------------------------------------------------------------ the CI contract
class TestShippedTreeLintsClean:
    def test_src_repro_is_clean_against_the_checked_in_baseline(self):
        baseline = load_baseline(REPO_ROOT / "detlint.baseline.json")
        report = lint_paths([str(REPO_ROOT / "src" / "repro")], baseline=baseline)
        assert report.parse_errors == []
        assert report.findings == [], "\n".join(f.render() for f in report.findings)

    def test_cli_lint_subcommand_exits_clean(self, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.chdir(REPO_ROOT)
        assert main(["lint", "src/repro"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_cli_lint_reports_violations_with_exit_1(self, tmp_path, capsys):
        from repro.cli import main

        module = tmp_path / "bad.py"
        module.write_text("import time\nstamp = time.time()\n")
        assert main(["lint", str(module), "--no-baseline"]) == 1
        assert "DET001" in capsys.readouterr().out

    def test_cli_update_baseline_round_trips(self, tmp_path, capsys):
        from repro.cli import main

        module = tmp_path / "bad.py"
        module.write_text("import time\nstamp = time.time()\n")
        baseline_path = tmp_path / "baseline.json"
        assert (
            main(
                [
                    "lint",
                    str(module),
                    "--baseline",
                    str(baseline_path),
                    "--update-baseline",
                    "fixture entry",
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["lint", str(module), "--baseline", str(baseline_path)]) == 0
        assert "1 baselined" in capsys.readouterr().out

    def test_cli_list_rules(self, capsys):
        from repro.cli import main

        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in all_rules():
            assert rule.code in out

    def test_cli_select_family_restricts_the_run(self, tmp_path, capsys):
        from repro.cli import main

        module = tmp_path / "mixed.py"
        module.write_text(
            "import time\n"
            "stamp = time.time()\n"
            "def f(bw):\n"
            "    return bw * 1e6\n"
        )
        assert main(["lint", str(module), "--select", "UNIT", "--no-baseline"]) == 1
        out = capsys.readouterr().out
        assert "UNIT002" in out
        assert "DET001" not in out

    def test_cli_select_unknown_family_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        module = tmp_path / "ok.py"
        module.write_text("x = 1\n")
        assert main(["lint", str(module), "--select", "NOPE"]) == 2
        assert "unknown rule" in capsys.readouterr().out

    def test_cli_explain_known_code(self, capsys):
        from repro.cli import main

        assert main(["lint", "--explain", "WIRE001"]) == 0
        out = capsys.readouterr().out
        assert "WIRE001" in out
        assert "config-cli-wiring" in out
        assert "__post_init__" in out

    def test_cli_explain_unknown_code_exits_2(self, capsys):
        from repro.cli import main

        assert main(["lint", "--explain", "NOPE"]) == 2
        assert "unknown rule" in capsys.readouterr().out
