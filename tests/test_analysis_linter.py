"""Tests for the static analyzer (:mod:`repro.analysis`).

Each DET/UNIT rule gets a violating/clean fixture pair via ``lint_source``;
inline ignores, the one suppression channel, are per line and per code;
unreadable paths are parse errors; the rule registry mirrors the policy
registry's invariants; and — the CI contract — the shipped ``src/repro``
tree lints clean under the full ``DET,UNIT`` selection, with the same
verdict from any working directory.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import (
    Rule,
    all_rules,
    get_rule,
    lint_paths,
    lint_source,
    register_rule,
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

    def test_marker_on_the_line_above_suppresses_nothing(self):
        source = "import time\n# detlint: ignore[DET001]\nstamp = time.time()\n"
        report = lint_source(source, path="src/repro/x.py")
        assert [(f.line, f.code) for f in report.findings] == [(3, "DET001")]
        assert report.suppressed == 0

    def test_marker_tolerates_whitespace_around_codes(self):
        source = "import time\nstamp = time.time()  #detlint:ignore[ DET002 , DET001 ]\n"
        report = lint_source(source, path="src/repro/x.py")
        assert report.findings == []
        assert report.suppressed == 1

    def test_lowercase_codes_suppress_nothing(self):
        source = "import time\nstamp = time.time()  # detlint: ignore[det001]\n"
        report = lint_source(source, path="src/repro/x.py")
        assert codes_of(report) == ["DET001"]
        assert report.suppressed == 0

    def test_skip_file_marker_suppresses_nothing(self):
        source = "# detlint: skip-file\nimport time\nstamp = time.time()\n"
        report = lint_source(source, path="src/repro/x.py")
        assert codes_of(report) == ["DET001"]
        assert report.suppressed == 0

    def test_code_filter_restricts_the_run(self):
        source = "import time\nstamp = time.time()\ndef f(x=[]):\n    return x\n"
        only_005 = lint_source(source, path="src/repro/x.py", codes=("DET005",))
        assert codes_of(only_005) == ["DET005"]
        with pytest.raises(ValueError, match="unknown rule"):
            lint_source(source, path="src/repro/x.py", codes=("DET999",))


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
        ]

    def test_every_rule_ships_an_explanation(self):
        for rule in all_rules():
            assert rule.explain.strip(), f"{rule.code} has no --explain text"

    def test_family_selectors_expand_to_registered_codes(self):
        assert expand_selectors(["UNIT"]) == [
            "UNIT001",
            "UNIT002",
            "UNIT004",
        ]
        assert expand_selectors(["UNIT", "DET001"]) == [
            "UNIT001",
            "UNIT002",
            "UNIT004",
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
    def test_src_repro_is_clean_with_inline_suppressions_only(self):
        report = lint_paths([str(REPO_ROOT / "src" / "repro")])
        assert report.parse_errors == []
        assert report.findings == [], "\n".join(f.render() for f in report.findings)
        assert report.suppressed == 5

    def test_verdict_does_not_depend_on_the_working_directory(self, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.chdir(REPO_ROOT / "src")
        assert main(["lint", "repro", "--select", "DET,UNIT"]) == 0
        assert "0 finding(s), 5 suppressed inline" in capsys.readouterr().out

    def test_baseline_flag_is_an_argparse_error(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["lint", "src/repro", "--baseline", "detlint.baseline.json"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --baseline" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--no-baseline", "--update-baseline"])
    def test_other_baseline_flags_are_argparse_errors(self, flag, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["lint", "src/repro", flag])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_entropy_path_is_the_one_suppression_in_chain_crypto(self):
        crypto = REPO_ROOT / "src" / "repro" / "chain" / "crypto.py"
        report = lint_paths([str(crypto)], codes=["DET"])
        assert report.findings == []
        assert report.suppressed == 1
        # The marker excuses exactly its own line: strip it and DET001 fires there.
        source = crypto.read_text(encoding="utf-8")
        marked = [n for n, line in enumerate(source.splitlines(), 1) if "detlint: ignore" in line]
        assert len(marked) == 1
        assert "secrets.token_hex(32)" in source.splitlines()[marked[0] - 1]
        stripped = source.replace("  # detlint: ignore[DET001]", "")
        unmarked = lint_source(stripped, path=str(crypto), codes=["DET"])
        assert [(f.line, f.code) for f in unmarked.findings] == [(marked[0], "DET001")]

    def test_cli_json_report_has_no_baseline_keys(self, tmp_path, capsys):
        from repro.cli import main

        module = tmp_path / "excused.py"
        module.write_text("import time\nstamp = time.time()  # detlint: ignore[DET001]\n")
        assert main(["lint", str(module), "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert set(document) == {"findings", "files_scanned", "suppressed", "parse_errors"}
        assert document["suppressed"] == 1
        assert document["findings"] == []

    def test_cli_json_parse_error_names_the_path(self, tmp_path, capsys):
        from repro.cli import main

        missing = tmp_path / "gone.py"
        assert main(["lint", str(missing), "--format", "json"]) == 2
        document = json.loads(capsys.readouterr().out)
        assert document["parse_errors"] == [f"{missing}: No such file or directory"]

    def test_unreadable_file_does_not_stop_the_scan(self, tmp_path):
        (tmp_path / "a_latin1.py").write_bytes(b"name = '\xe9t\xe9'\n")
        (tmp_path / "b_bad.py").write_text("import time\nstamp = time.time()\n")
        report = lint_paths([str(tmp_path)])
        assert len(report.parse_errors) == 1
        assert report.parse_errors[0].startswith(f"{tmp_path / 'a_latin1.py'}: not UTF-8")
        assert [(Path(f.path).name, f.code) for f in report.findings] == [("b_bad.py", "DET001")]
        assert report.files_scanned == 1
        assert not report.ok

    def test_cli_lint_subcommand_exits_clean(self, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.chdir(REPO_ROOT)
        assert main(["lint", "src/repro"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_cli_lint_reports_violations_with_exit_1(self, tmp_path, capsys):
        from repro.cli import main

        module = tmp_path / "bad.py"
        module.write_text("import time\nstamp = time.time()\n")
        assert main(["lint", str(module)]) == 1
        assert "DET001" in capsys.readouterr().out

    def test_cli_missing_path_is_a_parse_error_exit_2(self, tmp_path, capsys):
        from repro.cli import main

        missing = tmp_path / "does" / "not" / "exist"
        assert main(["lint", str(missing)]) == 2
        assert f"parse error: {missing}: No such file or directory" in capsys.readouterr().out

    def test_cli_non_utf8_file_is_a_parse_error_exit_2(self, tmp_path, capsys):
        from repro.cli import main

        module = tmp_path / "latin1.py"
        module.write_bytes(b"name = '\xe9t\xe9'\n")
        assert main(["lint", str(module)]) == 2
        out = capsys.readouterr().out
        assert f"parse error: {module}: not UTF-8" in out

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
        assert main(["lint", str(module), "--select", "UNIT"]) == 1
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

        assert main(["lint", "--explain", "UNIT001"]) == 0
        out = capsys.readouterr().out
        assert "UNIT001" in out
        assert "mixed-unit-arithmetic" in out
        assert "repro.simnet.units" in out

    def test_cli_explain_unknown_code_exits_2(self, capsys):
        from repro.cli import main

        assert main(["lint", "--explain", "NOPE"]) == 2
        assert "unknown rule" in capsys.readouterr().out
