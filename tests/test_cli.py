import argparse
import ast
import contextlib
import errno
import gc
import io
import json
import os
import re
import signal
import subprocess
import sys
import time
import weakref
from collections import Counter
from pathlib import Path
from typing import Callable

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import arbmigrate
from arbmigrate import __version__, cli, rules
from arbmigrate._record import Record
from arbmigrate.aliasing import Address
from arbmigrate.chainmodel import MAX_TABLE_ROWS
from arbmigrate.cli import (
    _cmd_alias, _cmd_analyze, _cmd_checklist, _cmd_gas_calc, _cmd_gas_table, _cmd_rules, _cmd_scenario_list,
    _cmd_scenario_run, _cmd_sim, main,
)
from arbmigrate.rules import RuleConfig, rule_catalog
from arbmigrate.scenarios import list_scenarios

CORPUS = Path(__file__).parent / "corpus"
README = Path(__file__).parents[1] / "README.md"
PYPROJECT = Path(__file__).parents[1] / "pyproject.toml"
DECLARED = {spec.id: spec.params for spec in list_scenarios()}


def _just_outside(declared) -> list[str]:
    """--param values just outside a declared domain."""
    domain = declared.domain
    if domain is bool:
        return ["yes", "1"]
    if domain is Address:
        return ["0x12", "0x" + "g" * 40, declared.default + "0"]
    if isinstance(domain, tuple):
        return ["eoa", domain[0].upper()]
    return [str(domain.start - 1), str(domain.stop), "1.5"]


# every declared parameter of every scenario, one step outside its domain
_DOMAIN_CASES = [(sid, f"{key}={value}") for sid, params in DECLARED.items()
                 for key, declared in params.items() for value in _just_outside(declared)]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_text_output_and_exit_zero(self, capsys):
        code, out, _ = run(capsys, "analyze", str(CORPUS / "alias_permission_dirty.sol"))
        assert code == 0
        assert "ARB-ALIAS-001" in out
        assert "2 finding(s) in 1 file(s)" in out

    def test_a_repeated_path_is_analyzed_once(self, capsys):
        path = str(CORPUS / "alias_permission_dirty.sol")
        once = run(capsys, "analyze", "--format", "json", path)
        assert run(capsys, "analyze", "--format", "json", path, path) == once
        code, out, _ = run(capsys, "analyze", path, path)
        assert code == 0 and out.endswith("\n2 finding(s) in 1 file(s)\n")

    def test_check_mode_exit_one_on_findings(self, capsys):
        code, _, _ = run(capsys, "analyze", "--check", str(CORPUS / "dos_loop_dirty.sol"))
        assert code == 1

    def test_check_mode_exit_zero_on_clean_file(self, capsys):
        code, _, _ = run(capsys, "analyze", "--check", str(CORPUS / "dos_loop_clean.sol"))
        assert code == 0

    def test_json_output_is_schema_shaped_and_deterministic(self, capsys):
        args = ("analyze", "--format", "json", str(CORPUS / "seq_oracle_dirty.sol"))
        code, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code == code2 == 0
        assert out1 == out2
        doc = json.loads(out1)
        assert doc["version"] == "1"
        assert [f["rule_id"] for f in doc["findings"]] == ["ARB-SEQ-001", "ARB-SEQ-001"]

    def test_json_output_adds_no_sort_to_the_documents_own(self, capsys, monkeypatch):
        from arbmigrate.minisol import parse_source
        from arbmigrate.rules import Finding, analyze, findings_to_json

        paths = [str(CORPUS / "time_equality_dirty.sol"), str(CORPUS / "dos_loop_dirty.sol")]
        keyed = []
        sort_key = Finding.sort_key
        monkeypatch.setattr(Finding, "sort_key", lambda f: keyed.append(f) or sort_key(f))
        code, out, _ = run(capsys, "analyze", "--format", "json", *paths)
        by_command = len(keyed)
        keyed.clear()
        findings = [f for p in paths for f in analyze(parse_source(Path(p).read_text(), path=p))]
        assert findings_to_json(findings, paths) == out
        assert (code, by_command) == (0, len(keyed))

    def test_text_output_is_sorted_across_files(self, capsys):
        paths = [str(CORPUS / "time_equality_dirty.sol"), str(CORPUS / "dos_loop_dirty.sol")]
        code, out, _ = run(capsys, "analyze", *paths)
        heads = [line.split(": ")[0] for line in out.splitlines()[:-1] if not line.startswith(" ")]
        keys = [(file, int(line), int(column)) for file, line, column in (h.rsplit(":", 2) for h in heads)]
        assert code == 0 and keys == sorted(keys)
        assert {file for file, _, _ in keys} == set(paths)

    def test_rules_filter(self, capsys):
        path = str(CORPUS / "time_equality_dirty.sol")
        code, out, _ = run(capsys, "analyze", "--rules", "ARB-DOS-001", path)
        assert code == 0
        assert "0 finding(s)" in out

    @pytest.mark.parametrize("rules", ["", ",", " , "])
    def test_rules_naming_no_rule_is_usage_error(self, capsys, rules):
        # it once enabled no rule, so a dirty file passed --check with 0 findings
        code, out, err = run(capsys, "analyze", "--check", "--rules", rules, str(CORPUS / "dos_loop_dirty.sol"))
        assert (code, out) == (2, "")
        assert err == f"error: --rules names no rule id: {rules!r}\n"

    def test_unknown_rule_id_is_usage_error(self, capsys):
        code, _, err = run(capsys, "analyze", "--rules", "ARB-NOPE-1", str(CORPUS / "dos_loop_clean.sol"))
        assert code == 2
        assert "unknown rule id" in err

    def test_config_file(self, tmp_path, capsys):
        config = tmp_path / "rules.json"
        config.write_text(json.dumps({"enabled": ["ARB-TIME-003"]}))
        code, out, _ = run(
            capsys, "analyze", "--config", str(config), str(CORPUS / "time_interval_dirty.sol")
        )
        assert code == 0
        assert out.count("ARB-TIME-003") == 2

    def test_rules_the_config_cannot_serve_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "rules.json"
        config.write_text(json.dumps({"enabled": ["ARB-TIME-003"], "oracle_patterns": []}))
        code, _, err = run(
            capsys, "analyze", "--config", str(config), "--rules", "ARB-SEQ-001",
            str(CORPUS / "seq_oracle_dirty.sol"),
        )
        assert code == 2
        assert "oracle_patterns must be nonempty" in err

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"timestamp_threshold_s": None}, "'timestamp_threshold_s' expects an integer, got None"),
            ({"oracle_patterns": 5}, "'oracle_patterns' expects a list of strings, got 5"),
        ],
    )
    def test_config_value_of_the_wrong_type_is_usage_error(self, tmp_path, capsys, config, message):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps(config))
        code, out, err = run(capsys, "analyze", "--config", str(path), str(CORPUS / "dos_loop_clean.sol"))
        assert code == 2
        assert out == ""
        assert message in err

    def test_unparseable_file_exits_two_with_diagnostics(self, tmp_path, capsys):
        bad = tmp_path / "bad.sol"
        bad.write_text("contract C { function f() public { uint256 x = ; } }")
        code, _, err = run(capsys, "analyze", str(bad))
        assert code == 2
        assert "bad.sol:1:" in err

    @pytest.mark.parametrize("first, second", [("address", "uint256"), ("uint256", "address")])
    def test_duplicate_declaration_exits_two(self, tmp_path, capsys, first, second):
        dup = tmp_path / "dup.sol"
        dup.write_text(f"contract C {{ {first} owner; {second} owner; function f() public {{"
                       " require(msg.sender == owner); } }")
        code, out, err = run(capsys, "analyze", str(dup))
        assert code == 2
        assert out == ""
        assert "dup.sol:1:29: error: duplicate declaration of 'owner'" in err

    def test_duplicate_contract_exits_two(self, tmp_path, capsys):
        dup = tmp_path / "dup.sol"
        dup.write_text("contract A { uint256 x; }\ncontract A { function f() public {} }\n")
        code, out, err = run(capsys, "analyze", str(dup))
        assert code == 2
        assert out == ""
        assert "dup.sol:2:1: error: duplicate declaration of 'A'" in err

    def test_missing_file_is_usage_error(self, capsys):
        code, _, err = run(capsys, "analyze", "no_such_file.sol")
        assert code == 2
        assert "cannot read" in err

    def test_non_utf8_file_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "latin1.sol"
        bad.write_bytes("contract C {} // caf\u00e9".encode("latin-1"))
        code, _, err = run(capsys, "analyze", str(bad))
        assert code == 2
        assert f"cannot read {bad}:" in err
        assert "Traceback" not in err

    def test_superscript_digit_is_a_diagnostic(self, tmp_path, capsys):
        bad = tmp_path / "sup.sol"
        bad.write_text("contract C { function f() public { uint256 x = \u00b2; } }", encoding="utf-8")
        code, _, err = run(capsys, "analyze", str(bad))
        assert code == 2
        assert "sup.sol:1:48: error: illegal character '\u00b2'" in err
        assert "Traceback" not in err

    def test_a_leading_byte_order_mark_is_dropped(self, tmp_path, capsys):
        for path in sorted(CORPUS.glob("*.sol")):
            marked = tmp_path / path.name
            marked.write_text("\ufeff" + path.read_text(encoding="utf-8"), encoding="utf-8")
            for form in ("text", "json"):
                code, out, err = run(capsys, "analyze", "--check", "--format", form, str(marked))
                assert (code, out.replace(str(tmp_path), str(CORPUS)), err) == run(
                    capsys, "analyze", "--check", "--format", form, str(path)), (path.name, form)
        # one mark is dropped: a second one, or one anywhere else, is an illegal character
        for text, at in [("\ufeff\ufeffcontract C {}", "1:1"), ("\ufeffcontract C {\n\ufeff}", "2:1")]:
            marked.write_text(text, encoding="utf-8")
            assert run(capsys, "analyze", str(marked)) == (
                2, "", f"{marked}:{at}: error: illegal character '\\ufeff'\n")

    @pytest.mark.parametrize(
        "body, code",
        [
            ("x = " + " + ".join(["x"] * 5000) + ";", 0),
            ("x = a" + "[0]" * 3000 + ";", 0),
            ("a" + ".b" * 3000 + "();", 0),
            ("x = " + "!" * 3000 + "x;", 2),
            ("x = " + "(" * 2000 + "x" + ")" * 2000 + ";", 2),
            ("if (x) { " * 600 + "x = 1;" + " }" * 600, 2),
        ],
        ids=["plus-chain", "index-chain", "member-chain", "not-run", "parens", "nested-ifs"],
    )
    def test_deep_input_exits_cleanly(self, tmp_path, capsys, body, code):
        path = tmp_path / "deep.sol"
        path.write_text(f"contract C {{ function f(uint256 x) public {{ {body} }} }}")
        got, _, err = run(capsys, "analyze", str(path))
        assert got == code
        assert "Traceback" not in err
        assert ("nesting deeper than 64 levels" in err) == (code == 2)

    def test_every_bad_file_is_reported_before_exit_two(self, tmp_path, capsys):
        missing = tmp_path / "missing.sol"
        bad = tmp_path / "bad.sol"
        bad.write_text("contract C { function f() public { uint256 x = ; } }")
        code, out, err = run(
            capsys, "analyze", str(CORPUS / "dos_loop_dirty.sol"), str(missing), str(bad)
        )
        assert code == 2
        assert out == ""
        assert f"cannot read {missing}:" in err
        assert "bad.sol:1:" in err

    def test_multiple_files_sorted_output(self, capsys):
        code, out, _ = run(
            capsys,
            "analyze",
            "--format",
            "json",
            str(CORPUS / "time_equality_dirty.sol"),
            str(CORPUS / "alias_permission_dirty.sol"),
        )
        doc = json.loads(out)
        files = [f["file"] for f in doc["findings"]]
        assert files == sorted(files)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The pids os.fork returns in this process, one per worker the parent starts."""
    pids = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


# Each case maps the 70 corpus copies and the odd files to an argv; a worker's
# slice holds paths 24 and beyond when three workers share 70 or so paths.
_FAN_OUT_CASES = {
    "corpus-json": lambda f, odd: ["--format", "json", *f],
    "corpus-text": lambda f, odd: ["--format", "text", *f],
    "check": lambda f, odd: ["--check", "--format", "json", *f],
    "rules": lambda f, odd: ["--rules", "ARB-TIME-001,ARB-DOS-001", "--format", "text", *f],
    "repeated-path": lambda f, odd: [*f[:40], f[2], f[55], *f[40:], f[60], f[60]],
    "unreadable": lambda f, odd: [*f[:30], odd["missing"], *f[30:50], odd["folder"], *f[50:]],
    "non-utf8": lambda f, odd: [*f[:50], odd["latin1"], *f[50:]],
    "syntax-error": lambda f, odd: [*f[:30], odd["bad"], *f[30:]],
}


class TestAnalyzeFanOut:
    """analyze split across forked workers prints what the one-process loop prints."""

    @pytest.fixture
    def tree(self, tmp_path):
        files = []
        for copy in range(5):  # the corpus five times over, under distinct paths
            folder = tmp_path / f"copy{copy}"
            folder.mkdir()
            for source in sorted(CORPUS.glob("*.sol")):
                (folder / source.name).write_bytes(source.read_bytes())
                files.append(str(folder / source.name))
        odd = {"missing": tmp_path / "missing.sol", "folder": tmp_path / "copy0",
               "latin1": tmp_path / "latin1.sol", "bad": tmp_path / "bad.sol"}
        odd["latin1"].write_bytes("contract C {} // caf\u00e9".encode("latin-1"))
        odd["bad"].write_text("contract C { function f() public { uint256 x = ; } }")
        return files, {name: str(path) for name, path in odd.items()}

    @pytest.mark.parametrize("case", _FAN_OUT_CASES)
    def test_forked_run_prints_what_the_serial_run_prints(self, tree, case, capsys, monkeypatch, forks):
        argv = ["analyze", *_FAN_OUT_CASES[case](*tree)]
        monkeypatch.setattr(cli, "_WORKERS", 1)
        serial = run(capsys, *argv)
        assert forks == []
        monkeypatch.setattr(cli, "_WORKERS", 3)
        monkeypatch.setattr(cli, "_PER_WORKER", 2)
        assert run(capsys, *argv) == serial
        assert len(forks) == 2
        _no_child_left()

    # files[60] comes after the missing file in the last slice; files[45] comes before it, in
    # the same 32-file batch of a serial run but in the middle slice of a forked one
    @pytest.mark.parametrize("phase", ["parse_source", "analyze"])
    @pytest.mark.parametrize("failing", [60, 45])
    def test_an_error_in_a_workers_slice_surfaces_from_the_parent(self, tree, capsys, monkeypatch, forks,
                                                                  phase, failing):
        files, odd = tree
        module = arbmigrate.minisol if phase == "parse_source" else rules
        real = getattr(module, phase)

        def failing_phase(first, *args, **kwargs):
            path = kwargs.get("path") if phase == "parse_source" else first.path
            if path == files[failing]:
                raise RuntimeError(f"{phase} failed on {path}")
            return real(first, *args, **kwargs)

        monkeypatch.setattr(module, phase, failing_phase)
        monkeypatch.setattr(cli, "_PER_WORKER", 2)
        argv = ["analyze", *files[:10], odd["bad"], *files[10:50], odd["missing"], *files[50:]]
        seen = []
        for workers in (1, 3):
            monkeypatch.setattr(cli, "_WORKERS", workers)
            with pytest.raises(RuntimeError) as err:
                main(argv)
            seen.append((str(err.value), capsys.readouterr()))
            _no_child_left()
        assert len(forks) == 2
        assert seen[0] == seen[1]
        message, (out, err) = seen[0]
        assert message == f"{phase} failed on {files[failing]}" and out == ""
        lines = err.splitlines()  # every file's lines up to the failing one, none after it
        assert lines[0] == f"{odd['bad']}:1:48: error: expected expression, found ';'"
        assert len(lines) == (2 if failing == 60 else 1)
        assert failing == 45 or lines[1].startswith(f"error: cannot read {odd['missing']}: ")

    def test_an_error_in_the_parents_slice_leaves_no_worker_blocked(self, tmp_path, monkeypatch, forks):
        # the worker's outcomes outgrow a pipe's buffer, so its write blocks until the
        # parent reads them or closes the read end; the parent raises before reading
        big = tmp_path / "big.sol"
        big.write_text("contract Big { function f(uint256 n) public {\n"
                       + "        require(block.number != n);\n" * 3000 + "} }\n")
        first = str(CORPUS / "dos_loop_dirty.sol")
        real = rules.analyze

        def analyze(unit, config=None):
            if unit.path == first:
                raise RuntimeError(f"analyze failed on {unit.path}")
            return real(unit, config)

        monkeypatch.setattr(cli, "_WORKERS", 2)
        monkeypatch.setattr(cli, "_PER_WORKER", 1)

        def hung(signum, frame):
            raise TimeoutError("the parent waited on a blocked worker")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.setitimer(signal.ITIMER_REAL, 10)
        try:
            monkeypatch.setattr(rules, "analyze", analyze)
            with pytest.raises(RuntimeError, match="dos_loop_dirty"):
                main(["analyze", first, str(big)])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert len(forks) == 1
        _no_child_left()

    def test_no_unit_outlives_its_outcome(self, tree, monkeypatch):
        # unbound once analyzed, a unit holds no reference cycle, so reference counting frees
        # it before its outcome is yielded: without the collector, too
        files, odd = tree
        paths = [*files[:40], odd["bad"], *files[40:]]
        real, parsed = arbmigrate.minisol.parse_source, []

        def parse_source(source, path="<source>"):
            unit = real(source, path=path)
            parsed.append((paths.index(path), weakref.ref(unit)))
            return unit

        monkeypatch.setattr(arbmigrate.minisol, "parse_source", parse_source)
        monkeypatch.setattr(cli, "_WORKERS", 1)
        enabled = gc.isenabled()
        gc.disable()
        try:
            for at, (lines, found) in enumerate(cli._outcomes(paths, RuleConfig())):
                assert (found is None) == (paths[at] == odd["bad"])
                assert [place for place, unit in parsed if place <= at and unit() is not None] == []
        finally:
            if enabled:
                gc.enable()
        assert len(parsed) == len(files)

    def test_a_slice_runs_in_batches_phase_by_phase(self, tree, monkeypatch):
        # every file of a _BATCH-file batch is parsed before any of them is analyzed; the
        # outcomes are those of a file-by-file run, in path order
        files, _ = tree
        calls = []
        for module, name in [(arbmigrate.minisol, "parse_source"), (rules, "analyze")]:
            def spy(first, *args, real=getattr(module, name), name=name, **kwargs):
                calls.append(name)
                return real(first, *args, **kwargs)

            monkeypatch.setattr(module, name, spy)
        monkeypatch.setattr(cli, "_WORKERS", 1)
        batched = list(cli._outcomes(files, RuleConfig()))
        sizes = [len(files[first:first + cli._BATCH]) for first in range(0, len(files), cli._BATCH)]
        assert sizes == [32, 32, 6]
        assert calls == [name for size in sizes for name in ("parse_source", "analyze") for _ in range(size)]
        monkeypatch.setattr(cli, "_BATCH", 1)
        calls.clear()
        assert list(cli._outcomes(files, RuleConfig())) == batched
        assert calls == ["parse_source", "analyze"] * len(files)

    @pytest.mark.parametrize("count, workers", [(30, 0), (63, 0), (64, 1)])
    def test_the_default_floor_forks_only_for_32_files_a_worker(self, tree, count, workers, capsys,
                                                                  monkeypatch, forks):
        monkeypatch.setattr(cli, "_WORKERS", 2)
        if not workers:
            monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
        code, out, _ = run(capsys, "analyze", "--format", "json", *tree[0][:count])
        assert code == 0 and len(json.loads(out)["files"]) == count
        assert len(forks) == workers
        _no_child_left()


_OUT_OF_RANGE = [
    ("S1", "positions=-1"),
    ("S1", "downtime_s=-1"),
    ("S1", "down_start_s=-600"),
    ("S1", "volatility_bp=-200"),
    ("S1", "horizon_s=99999999999999999999"),
    ("S1", "positions=99999999999"),
    ("S1", "positions=1000001"),
    ("S1", "horizon_s=600000000"),
    ("S2", "horizon_s=0"),
    ("S3", "l1_sender=0x12"),
    ("S3", "sender_kind=robot"),
    ("S4", "l2_gas_price_wei=0"),
    ("S5", "submission_fee=-5"),
    ("S5", "auto_fail_gas_required=1"),
    # before the domains were declared, the first two overflowed a float (a
    # traceback, exit 1), the next four ran, and eoa exited 2 with the enum's text
    ("S1", "start_price_cents=1" + "0" * 309),
    ("S1", "volatility_bp=1" + "0" * 35 + " horizon_s=60000"),
    ("S4", "l1_gas_price_wei=-5"),
    ("S4", "base_gas=-5000"),
    ("S4", "block_gas_limit=-1"),
    ("S5", "l1_direct_fee=-1"),
    ("S3", "sender_kind=eoa"),
    # products and sums of 4,000-digit inputs passed the 4,300-digit
    # limit of int-to-text conversion in the report (exit 1)
    ("S4", f"block_gas_limit={'9' * 4000} l1_gas_price_wei={'9' * 4000}"),
    ("S5", f"callvalue={'9' * 4300} submission_fee={'9' * 4300}"),
]
# the cases rejected by a rule that relates two parameters
_CROSS_RULE_CASES = {("S1", "horizon_s=600000000"), ("S5", "auto_fail_gas_required=1")}


class TestScenarioCommands:
    def test_list_shows_all_five(self, capsys):
        code, out, _ = run(capsys, "scenario", "list")
        assert code == 0
        for sid in ("S1", "S2", "S3", "S4", "S5"):
            assert sid in out

    def test_run_writes_json_to_stdout(self, capsys):
        code, out, _ = run(capsys, "scenario", "run", "S2")
        assert code == 0
        assert json.loads(out)["l2_outcome"]["observable_fraction"] == 0.25

    def test_run_with_params_and_out_file(self, tmp_path, capsys):
        out_file = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "scenario", "run", "S4", "--param", "per_iteration_gas=7000",
            "--param", "base_gas=0", "--out", str(out_file),
        )
        assert code == 0
        assert out == ""
        doc = json.loads(out_file.read_text())
        assert doc["l2_outcome"]["first_failing_n"] == 30_000_000 // 7000 + 1

    def test_unwritable_out_file_is_usage_error(self, tmp_path, capsys):
        out_file = tmp_path / "missing" / "report.json"
        code, out, err = run(capsys, "scenario", "run", "S1", "--out", str(out_file))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write {out_file}: ")
        assert not out_file.parent.exists()

    def test_empty_out_path_is_usage_error(self, capsys):
        # an empty path is a path that cannot be written, not a request for stdout
        code, out, err = run(capsys, "scenario", "run", "S3", "--out", "")
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot write : ") and err.count("\n") == 1, err

    def test_unknown_scenario_is_usage_error(self, capsys):
        code, _, err = run(capsys, "scenario", "run", "S8")
        assert code == 2
        assert "valid ids" in err

    def test_bad_param_shape_is_usage_error(self, capsys):
        code, _, err = run(capsys, "scenario", "run", "S1", "--param", "downtime")
        assert code == 2
        assert "key=value" in err

    @pytest.mark.parametrize(
        "sid, param", [*_OUT_OF_RANGE, *[case for case in _DOMAIN_CASES if case not in _OUT_OF_RANGE]],
        ids=lambda value: value if len(value) <= 60 else f"{value.split('=')[0]}=({len(value)} chars)",
    )
    def test_out_of_range_param_is_usage_error(self, capsys, sid, param):
        argv = ["scenario", "run", sid]
        for item in param.split():
            argv += ["--param", item]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: scenario {sid}: ")
        if (sid, param) not in _CROSS_RULE_CASES:  # the first value given is outside its domain
            key = param.split("=")[0]
            domain = re.escape(DECLARED[sid][key].describe())
            assert re.fullmatch(f"error: scenario {sid}: parameter '{key}' must be {domain}, got .+\n", err)

    @pytest.mark.parametrize(
        "sid, params, budget_s",
        [
            ("S4", ["block_gas_limit=1000000000000000000", "per_iteration_gas=1"], 2),
            ("S2", ["horizon_s=1000000000000"], 2),
            # 60,000 one-second steps, 40,000 of them down: linear work takes
            # about 0.5 s on a 2-CPU machine, a rescan of the inbox per down
            # tick takes minutes
            ("S1", ["horizon_s=60000", "downtime_s=40000", "update_interval_s=1"], 10),
            # 120,000 one-second steps, all down, 33,600 of them past the
            # force-inclusion delay: popping what is due takes about 1.5 s,
            # a rescan of the inbox per tick past the delay takes minutes
            ("S1", ["horizon_s=120000", "downtime_s=120000", "down_start_s=0",
                    "update_interval_s=1"], 10),
        ],
        ids=["S4-gas-limit-1e18", "S2-horizon-1e12", "S1-long-outage", "S1-outage-past-delay"],
    )
    def test_large_params_run_within_budget(self, capsys, sid, params, budget_s):
        argv = ["scenario", "run", sid]
        for param in params:
            argv += ["--param", param]
        start = time.perf_counter()
        code, out, _ = run(capsys, *argv)
        elapsed = time.perf_counter() - start
        assert code == 0
        assert json.loads(out)["scenario_id"] == sid
        assert elapsed < budget_s, f"{sid} took {elapsed:.2f}s"

    def test_check_mode_flags_divergence(self, capsys):
        code, _, _ = run(capsys, "scenario", "run", "S3", "--check")
        assert code == 1
        code, _, _ = run(capsys, "scenario", "run", "S1", "--param", "downtime_s=0", "--check")
        assert code == 0

    def test_seed_changes_s1_report(self, capsys):
        _, out_a, _ = run(capsys, "scenario", "run", "S1", "--seed", "1")
        _, out_b, _ = run(capsys, "scenario", "run", "S1", "--seed", "2")
        assert out_a != out_b


class TestGasCommands:
    def test_calc(self, capsys):
        code, out, _ = run(
            capsys, "gas", "calc", "--gas-used-l2", "100000", "--calldata-price-l1", "16",
            "--calldata-size-l1", "500", "--gas-price-l2", "1",
        )
        assert code == 0
        assert "gas_limit: 108000" in out
        assert "gas_fees: 108000" in out

    def test_calc_zero_price_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "gas", "calc", "--gas-used-l2", "1", "--calldata-price-l1", "1",
            "--calldata-size-l1", "1", "--gas-price-l2", "0",
        )
        assert code == 2
        assert "gas_price_l2" in err

    def test_calc_of_huge_arguments_is_usage_error(self, capsys):
        # a 4,000-digit price times a 4,000-digit size made a gas limit too long to print (exit 1)
        huge = "9" * 4000
        code, out, err = run(
            capsys, "gas", "calc", "--gas-used-l2", "1", "--calldata-price-l1", huge,
            "--calldata-size-l1", huge, "--gas-price-l2", "1",
        )
        assert (code, out, err) == (2, "", "error: gas parameters must be below 2**256\n")

    def test_table_prints_six_rows_and_mean(self, capsys):
        code, out, _ = run(capsys, "gas", "table")
        assert code == 0
        for label in ("Aave Deposit", "EOA Transfer", "Yearn Deposit"):
            assert label in out
        assert "mean saving: 95.3%" in out


class TestAliasCommands:
    def test_apply_and_undo_round_trip(self, capsys):
        source = "0x00000000000000000000000000000000deadbeef"
        code, aliased, _ = run(capsys, "alias", "apply", source)
        assert code == 0
        code, back, _ = run(capsys, "alias", "undo", aliased.strip())
        assert code == 0
        assert back.strip().lower() == source

    def test_output_is_checksummed(self, capsys):
        _, out, _ = run(capsys, "alias", "apply", "0x" + "0" * 40)
        assert out.strip() == "0x1111000000000000000000000000000000001111"

    def test_malformed_address_is_usage_error(self, capsys):
        code, _, err = run(capsys, "alias", "apply", "0x123")
        assert code == 2
        assert "40-hex-digit" in err

    def test_custom_offset(self, capsys):
        _, out, _ = run(
            capsys, "alias", "apply", "0x" + "0" * 40, "--offset", "0x" + "0" * 39 + "5"
        )
        assert out.strip().lower() == "0x" + "0" * 39 + "5"

    def test_address_with_a_trailing_newline_is_usage_error(self, capsys):
        sender = "0x00000000000000000000000000000000deadbeef\n"
        for argv in (["alias", "apply", sender], ["scenario", "run", "S3", "--param", f"l1_sender={sender}"]):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, "")
            assert err.startswith("error: ") and err.count("error:") == 1 and "40-hex-digit" in err


class TestChecklistCommand:
    def test_checklist_from_findings_file(self, tmp_path, capsys):
        findings_file = tmp_path / "findings.json"
        code, out, _ = run(
            capsys, "analyze", "--format", "json", str(CORPUS / "alias_permission_dirty.sol")
        )
        findings_file.write_text(out)
        code, out, _ = run(capsys, "checklist", str(findings_file))
        assert code == 0
        assert "1. Pause the source contract" in out
        assert "aliased address" in out
        assert "ARB-ALIAS-001" in out

    def test_empty_findings_gives_base_steps_only(self, tmp_path, capsys):
        findings_file = tmp_path / "findings.json"
        findings_file.write_text(json.dumps({"version": "1", "files": [], "findings": []}))
        code, out, _ = run(capsys, "checklist", str(findings_file))
        assert code == 0
        assert "related rules" not in out

    def test_garbage_file_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        path.write_text("{}")
        code, _, err = run(capsys, "checklist", str(path))
        assert code == 2
        assert "cannot load findings" in err

    @pytest.mark.parametrize("doc, reason", [
        ({"findings": {}}, "not a findings document: 'findings' is not a list"),
        ({"findings": [1]}, "finding 0 is malformed: not an object"),
    ])
    def test_findings_not_a_list_of_objects_is_usage_error(self, tmp_path, capsys, doc, reason):
        path = tmp_path / "findings.json"
        path.write_text(json.dumps(doc))
        assert run(capsys, "checklist", str(path)) == (2, "", f"error: cannot load findings: {reason}\n")

    def test_a_note_lists_three_locations_and_elides_the_rest(self, tmp_path, capsys):
        path = tmp_path / "findings.json"
        path.write_text(json.dumps({"findings": [
            {"rule_id": "ARB-SEQ-001", "file": "a.sol", "line": line, "column": 1} for line in (4, 1, 3, 2)]}))
        code, out, _ = run(capsys, "checklist", str(path))
        assert code == 0 and "(4 finding(s): a.sol:1, a.sol:2, a.sol:3, ...)\n" in out


    @pytest.mark.parametrize("command", ["checklist", "analyze --config"])
    def test_deeply_nested_json_is_usage_error(self, tmp_path, capsys, command):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        argv = {"checklist": ["checklist", str(path)],
                "analyze --config": ["analyze", "--config", str(path), str(CORPUS / "dos_loop_dirty.sol")]}
        code, out, err = run(capsys, *argv[command])
        assert (code, out) == (2, "")
        assert "recursion" in err

    @pytest.mark.parametrize(
        "finding, key",
        [
            ({"rule_id": "ARB-SEQ-001", "line": 1, "column": 1}, "'file'"),
            ({"rule_id": "ARB-SEQ-001", "file": "a.sol", "column": 1}, "'line'"),
            ({"rule_id": "ARB-SEQ-001", "file": "a.sol", "line": 1}, "'column'"),
            ({"file": "a.sol", "line": 1, "column": 1}, "'rule_id'"),
        ],
    )
    def test_finding_missing_a_key_is_usage_error(self, tmp_path, capsys, finding, key):
        path = tmp_path / "findings.json"
        path.write_text(json.dumps({"findings": [finding]}))
        code, _, err = run(capsys, "checklist", str(path))
        assert code == 2
        assert key in err

    @pytest.mark.parametrize(
        "key, value, expected",
        [
            ("line", "1e400", "an integer, got inf"),
            ("line", '"7"', "an integer, got '7'"),
            ("line", "1.9", "an integer, got 1.9"),
            ("line", "true", "an integer, got True"),
            ("column", "-1e400", "an integer, got -inf"),
            ("column", "null", "an integer, got None"),
            ("file", "5", "a string, got 5"),
            ("rule_id", '["ARB-SEQ-001"]', "a string, got ['ARB-SEQ-001']"),
            ("excerpt", "7", "a string, got 7"),
            ("message", "null", "a string, got None"),
        ],
    )
    def test_finding_field_of_the_wrong_type_is_usage_error(self, tmp_path, capsys, key, value, expected):
        fields = {"rule_id": '"ARB-SEQ-001"', "file": '"a.sol"', "line": "1", "column": "1", key: value}
        good = '{"rule_id": "ARB-SEQ-001", "file": "b.sol", "line": 2, "column": 3}'
        bad = ", ".join(f'"{k}": {v}' for k, v in fields.items())
        path = tmp_path / "findings.json"
        path.write_text(f'{{"findings": [{good}, {{{bad}}}]}}')  # raw text: json.dumps cannot write 1e400
        code, out, err = run(capsys, "checklist", str(path))
        assert (code, out) == (2, "")
        assert f"finding 1: field '{key}' expects {expected}" in err


class TestSimCommand:
    def test_default_table_matches_lagged_view(self, capsys):
        code, out, _ = run(capsys, "sim")
        assert code == 0
        lines = out.strip().splitlines()
        rows = [tuple(int(x) for x in line.split()) for line in lines[1:]]
        assert rows == [
            (0, 1000, 1000),
            (15, 1001, 1000),
            (30, 1002, 1000),
            (45, 1003, 1000),
            (60, 1004, 1004),
            (75, 1005, 1004),
        ]

    def test_bad_sync_period_is_usage_error(self, capsys):
        code, _, err = run(capsys, "sim", "--sync-period", "50")
        assert code == 2
        assert "multiple" in err

    def test_negative_horizon_is_usage_error(self, capsys):
        code, out, err = run(capsys, "sim", "--horizon", "-5")
        assert (code, out, err) == (2, "", "error: horizon must be non-negative\n")

    def test_zero_step_is_usage_error(self, capsys):
        assert run(capsys, "sim", "--step", "0") == (2, "", "error: step must be positive\n")

    def test_table_over_the_row_limit_is_usage_error(self, capsys):
        code, out, err = run(capsys, "sim", "--horizon", str(MAX_TABLE_ROWS), "--step", "1")
        assert (code, out) == (2, "")
        assert f"{MAX_TABLE_ROWS + 1:,} rows" in err
        code, out, _ = run(capsys, "sim", "--horizon", str(MAX_TABLE_ROWS - 1), "--step", "1")
        assert code == 0 and len(out.splitlines()) == MAX_TABLE_ROWS + 1  # rows plus the header


def test_rules_catalog_command(capsys):
    code, out, _ = run(capsys, "rules")
    assert code == 0
    assert "ARB-SEQ-001" in out and "ARB-DOS-002" in out


def test_usage_error_exit_code(capsys):
    assert main(["gas"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")


def _modules_after(code):
    """The modules loaded once code has run in a fresh interpreter."""
    script = f"{code}\nimport sys\nprint(*sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(arbmigrate.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    return set(result.stdout.splitlines()[-1].split())


_SIMULATORS = {"scenarios", "sequencer", "retryable", "chainmodel", "gasmodel", "aliasing"}


# the command line is read without argparse, and so without gettext and locale
_ARGPARSE = {"argparse", "gettext", "locale"}


@pytest.mark.parametrize(
    "code, loaded, absent, absent_stdlib",
    [
        (f"from arbmigrate import cli; cli.main(['analyze', {str(CORPUS / 'dos_loop_dirty.sol')!r}])",
         {"minisol", "rules"}, _SIMULATORS | {"minisol.printer"}, _ARGPARSE | {"json"}),
        (f"from arbmigrate import cli; cli.main(['analyze', '--format', 'json', {str(CORPUS / 'dos_loop_dirty.sol')!r}])",
         {"minisol", "rules"}, _SIMULATORS | {"minisol.printer"}, _ARGPARSE | {"json"}),
        ("from arbmigrate import cli; cli.main(['scenario', 'run', 'S3'])",
         {"scenarios", "aliasing"}, {"minisol", "rules", "_keccak"}, _ARGPARSE | {"json"}),
        ("from arbmigrate import cli; assert cli.main(['--version']) == 0",
         {"cli"}, _SIMULATORS | {"minisol", "rules"}, _ARGPARSE),
        ("from arbmigrate import scenarios", {"scenarios"}, {"minisol", "rules"}, set()),
        ("import arbmigrate; arbmigrate.rules.analyze", {"rules"}, _SIMULATORS, set()),
    ],
    ids=["analyze", "analyze-json", "scenario-run", "version", "import-scenarios", "package-attribute"],
)
def test_entry_point_loads_only_its_layers(code, loaded, absent, absent_stdlib):
    modules = _modules_after(code)
    assert {f"arbmigrate.{name}" for name in loaded} <= modules
    assert not modules & ({f"arbmigrate.{name}" for name in absent} | absent_stdlib)


def test_a_bare_interpreter_loads_no_argparse():
    # so the absent_stdlib sets above are not met by every process
    assert not _modules_after("pass") & _ARGPARSE


def test_a_bare_interpreter_loads_no_json():
    # so json in the absent_stdlib sets above is not met by every process
    assert "json" not in _modules_after("pass")


@pytest.mark.parametrize("command", ["checklist", "analyze-config"])
def test_the_two_json_readers_load_json(tmp_path, command):
    # analyze and scenario run write JSON without json; reading a findings file or a rule config needs it
    findings, config = tmp_path / "findings.json", tmp_path / "rules.json"
    findings.write_text(json.dumps({"findings": []}))
    config.write_text(json.dumps({"timestamp_threshold_s": 90}))
    argv = {"checklist": ["checklist", str(findings)],
            "analyze-config": ["analyze", "--config", str(config), str(CORPUS / "dos_loop_dirty.sol")]}[command]
    assert "json" in _modules_after(f"from arbmigrate import cli; assert cli.main({argv!r}) == 0")


# one valid argv per command; the last two are answered while the command line is read
_UNWRITABLE = {
    "analyze-check": ["analyze", "--check", str(CORPUS / "dos_loop_dirty.sol")],
    "scenario-list": ["scenario", "list"],
    "scenario-run": ["scenario", "run", "S3"],
    "gas-calc": ["gas", "calc", "--gas-used-l2", "100000", "--calldata-price-l1", "16",
                 "--calldata-size-l1", "200", "--gas-price-l2", "10"],
    "gas-table": ["gas", "table"],
    "alias": ["alias", "apply", "0x" + "de" * 20],
    "checklist": ["checklist", str(Path(__file__).parent / "golden" / "analyze_corpus.json")],
    "sim": ["sim"],
    "rules": ["rules"],
    "version": ["--version"],
    "help": ["scenario", "-h"],
}
_UNWRITABLE_IDS = list(_UNWRITABLE)
_S3 = _UNWRITABLE["scenario-run"]


def _program_env() -> dict:
    """The environment of a fresh interpreter that imports this arbmigrate, with stdout and
    stderr buffered as they are by default, so output a flush sends shows up only if flushed."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    return {**env, "PYTHONPATH": str(Path(arbmigrate.__file__).parents[1])}


def _run_into(stdout, argv: list[str], closing: str = "", stderr=subprocess.PIPE) -> subprocess.CompletedProcess:
    """The arbmigrate program, run in a fresh interpreter, writing its stdout to stdout and its stderr
    to stderr; a shell starts it with closing as its redirection, so ">&-" starts it with stdout closed."""
    command = [sys.executable, "-m", "arbmigrate.cli", *argv]
    if closing:
        command = ["sh", "-c", f'exec "$@" {closing}', "sh", *command]
    return subprocess.run(command, stdout=stdout, stderr=stderr, text=True, env=_program_env(), timeout=60)


def test_the_unwritable_table_runs_every_command():
    assert {tuple(argv[:len(words)]) for argv in _UNWRITABLE.values() for words in cli._COMMANDS} >= set(cli._COMMANDS)


@pytest.mark.parametrize("argv", _UNWRITABLE.values(), ids=_UNWRITABLE_IDS)
def test_a_closed_stdout_is_an_error_not_a_finding(argv):
    # started with stdout closed, the program has no sys.stdout: nothing it prints can be written
    result = _run_into(None, argv, closing=">&-")
    assert result.returncode == 2
    assert result.stderr == f"error: [Errno {errno.EBADF}] {os.strerror(errno.EBADF)}\n"


@pytest.mark.parametrize("argv", _UNWRITABLE.values(), ids=_UNWRITABLE_IDS)
def test_a_closed_stdout_pipe_is_an_error_not_a_finding(argv):
    # 1 means findings or divergence; output that cannot be written is exit 2 with one error line
    read, write = os.pipe()
    os.close(read)
    try:
        result = _run_into(write, argv)
    finally:
        os.close(write)
    assert result.returncode == 2
    assert result.stderr == f"error: [Errno {errno.EPIPE}] {os.strerror(errno.EPIPE)}\n"


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full on this platform")
@pytest.mark.parametrize("argv", _UNWRITABLE.values(), ids=_UNWRITABLE_IDS)
def test_a_full_device_on_stdout_is_an_error_not_a_finding(argv):
    with open("/dev/full", "w") as full:
        result = _run_into(full, argv)
    assert result.returncode == 2
    assert result.stderr == f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"


@pytest.mark.parametrize("argv, code", [
    (["bogus"], 2), (["scenario", "run", "S9"], 2), (["analyze", "--format", "xml", "x.sol"], 2),
    (["analyze", str(CORPUS / "no_such_file.sol")], 2), (["rules"], 0),
], ids=["unknown-command", "unknown-scenario", "bad-format", "unreadable-file", "rules"])
@pytest.mark.parametrize("state", ["closed", "pipe"])
def test_a_closed_stderr_loses_the_line_not_the_exit_code(argv, code, state, capsys):
    # a usage error must not read as findings (exit 1) because its line could not be written
    if state == "closed":
        result = _run_into(subprocess.PIPE, argv, closing="2>&-")
    else:  # a pipe whose read end is closed
        read, write = os.pipe()
        os.close(read)
        try:
            result = _run_into(subprocess.PIPE, argv, stderr=write)
        finally:
            os.close(write)
    assert (result.returncode, result.stderr) == (code, None if state == "pipe" else "")
    assert result.stdout == run(capsys, *argv)[1]


def _names(node: ast.AST) -> set[str]:
    """The dotted names (sys.stdout, print, Path.write_text as .write_text) that node's code uses."""
    names = set()
    for inner in ast.walk(node):
        if isinstance(inner, ast.Name):
            names.add(inner.id)
        elif isinstance(inner, ast.Attribute):
            names.add(f"{inner.value.id}.{inner.attr}" if isinstance(inner.value, ast.Name) else f".{inner.attr}")
    return names


def test_main_alone_writes_stdout_and_say_alone_stderr():
    # one writer: a handler returns its text, main writes it, and stderr lines go through _say,
    # so a new output (a side channel, a report file) extends main instead of each handler
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    functions = {node.name: _names(node) for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert {"main", "_say", "_parse", "_cmd_analyze", "_cmd_rules"} <= set(functions)
    assert not _names(tree) & {"print", ".write_text"}  # in no function, nor the module's own code
    assert [name for name, used in functions.items() if "sys.stdout" in used] == ["main"]
    assert sorted(name for name, used in functions.items() if "sys.stderr" in used) == ["_say", "main"]


def test_a_closed_stdout_is_no_error_when_out_takes_the_report(tmp_path, capsys):
    report = tmp_path / "report.json"
    result = _run_into(None, [*_S3, "--out", str(report)], closing=">&-")
    assert (result.returncode, result.stderr) == (0, "")
    assert report.read_text(encoding="utf-8") == run(capsys, *_S3)[1]


def _corpus_copies(tmp_path) -> list[str]:
    """70 distinct paths, the corpus five times over: two workers of at least 32 files each."""
    paths = []
    for copy in range(5):
        for source in sorted(CORPUS.glob("*.sol")):
            paths.append(tmp_path / f"{copy}-{source.name}")
            paths[-1].write_bytes(source.read_bytes())
    return [str(path) for path in paths]


def test_a_forked_analyze_loads_no_process_pool(tmp_path):
    # the workers are os.fork children that send marshal data through pipes; importing
    # a process pool costs an analyze job 19-39 ms, about half of what the fan-out saves
    paths = _corpus_copies(tmp_path)
    code = f"""import os
from arbmigrate import cli
fork, forked = os.fork, []
def counted():
    forked.append(fork())
    return forked[-1]
os.fork, cli._WORKERS = counted, 2
assert cli.main({["analyze", "--format", "json", *paths]!r}) == 0 and len(forked) == 1
"""
    modules = _modules_after(code)
    assert "arbmigrate.rules" in modules
    assert not modules & {"multiprocessing", "concurrent.futures", "pickle"}


@pytest.mark.parametrize("command", ["analyze", "checklist"])
def test_analyzer_side_defines_its_classes_without_code_generation(tmp_path, command):
    # every analyze job is a fresh process: importing dataclasses (and inspect) and generating
    # methods for each class would be paid again per job
    config = tmp_path / "rules.json"
    config.write_text(json.dumps({"timestamp_threshold_s": 90}))
    findings = tmp_path / "findings.json"
    source = str(CORPUS / "time_interval_dirty.sol")
    argv = {
        "analyze": ["analyze", "--check", "--format", "json", "--config", str(config), source],
        "checklist": ["checklist", str(findings)],
    }[command]
    findings.write_text(json.dumps({"findings": [
        {"rule_id": "ARB-TIME-003", "file": "a.sol", "line": 3, "column": 9},
    ]}))
    modules = _modules_after(f"from arbmigrate import cli; cli.main({argv!r})")
    assert {"arbmigrate.minisol.nodes", "arbmigrate.rules"} & modules
    assert not modules & {"dataclasses", "inspect"}


def _as_program(argv: list[str], workers: int = 1) -> tuple[int, str, str, str]:
    """Exit code, stdout and stderr of a fresh interpreter that runs argv as the arbmigrate
    program does, through main() with no argv, and the number of workers it forked.  An exit
    function registered before main() writes that number at the end of stderr; a module-level
    object writes "finalized" to stderr if interpreter finalization frees it."""
    script = f"""import atexit, os, sys
from arbmigrate import cli
fork, forked = os.fork, []
def counted():
    forked.append(fork())
    return forked[-1]
class Finalized:
    def __del__(self, write=os.write):  # bound here: finalization may clear the globals first
        write(2, b"finalized\\n")
witness = Finalized()
atexit.register(lambda: sys.stderr.write(str(len(forked))))  # no newline: only a flush sends it
os.fork, cli._WORKERS, sys.argv = counted, {workers}, ["arbmigrate", *{argv!r}]
cli.main()
print("main returned", file=sys.stderr)
"""
    result = subprocess.run(
        [sys.executable, "-c", script], env=_program_env(), capture_output=True, text=True, timeout=60
    )
    head, newline, forked = result.stderr.rpartition("\n")
    return result.returncode, result.stdout, head + newline, forked


@pytest.mark.parametrize("case", ["scenario", "usage-error", "forked-analyze"])
def test_the_program_runs_exit_functions_and_skips_finalization(tmp_path, case):
    # main() ends the process with os._exit once the exit functions have run and stdout and
    # stderr are flushed: it never returns, and finalization frees nothing
    argv, workers = {"scenario": (_S3, 1), "usage-error": (["analyze", "--format", "xml"], 1),
                     "forked-analyze": (["analyze", "--format", "json", *_corpus_copies(tmp_path)], 2)}[case]
    code, out, err, forked = _as_program(argv, workers)
    # the worker count arrives only from the exit function, and only if the last flush sent it
    assert (code, forked) == {"scenario": (0, "0"), "usage-error": (2, "0"), "forked-analyze": (0, "1")}[case]
    assert "finalized" not in err and "main returned" not in err
    if case == "forked-analyze":  # more than one buffer's worth, all of it written before the exit
        assert len(out.encode()) > io.DEFAULT_BUFFER_SIZE
        assert len(json.loads(out)["files"]) == 70


@pytest.mark.parametrize("argv", [["--version"], _S3, ["analyze", str(CORPUS / "dos_loop_dirty.sol")]])
def test_the_program_runs_without_the_cyclic_collector(argv):
    # run as the program, main() turns the collector off before it reads argv, as an exit
    # function registered before main() sees
    script = f"""import atexit, gc, sys
from arbmigrate import cli
atexit.register(lambda: sys.stderr.write(f"collector on: {{gc.isenabled()}}"))
sys.argv = ["arbmigrate", *{argv!r}]
cli.main()
"""
    result = subprocess.run(
        [sys.executable, "-c", script], env=_program_env(), capture_output=True, text=True, timeout=60
    )
    assert (result.returncode, result.stderr) == (0, "collector on: False")


@pytest.mark.parametrize("argv", [
    ["analyze", "--check", str(CORPUS / "dos_loop_dirty.sol")], [*_S3, "--check"], ["rules"], ["--version"],
    ["scenario", "run", "S9"],
])
def test_a_library_call_leaves_the_collector_as_it_was(argv, capsys):
    before = gc.get_freeze_count(), gc.isenabled()
    main(argv)
    capsys.readouterr()
    assert (gc.get_freeze_count(), gc.isenabled()) == before


def test_importing_the_cli_freezes_nothing():
    _modules_after("import gc, arbmigrate.cli\nassert gc.get_freeze_count() == 0")  # else it exits 1


@pytest.mark.parametrize("argv, workers", [
    *[(["analyze", "--format", form], workers) for form in ("json", "text") for workers in (1, 2)],
    *[(["scenario", "run", spec.id, "--check"], 1) for spec in list_scenarios()],
])
def test_the_program_prints_what_a_library_call_prints(tmp_path, argv, workers, capsys, monkeypatch):
    if argv[0] == "analyze":  # two workers fork over the corpus copies, one reads the corpus
        paths = _corpus_copies(tmp_path) if workers > 1 else sorted(map(str, CORPUS.glob("*.sol")))
        argv = [*argv, *paths]
    monkeypatch.setattr(cli, "_WORKERS", workers)
    assert _as_program(argv, workers) == (*run(capsys, *argv), str(workers - 1))


_BENCH = Path(__file__).parents[1] / "bench"


def _traced(*argv: str) -> dict:
    """The document bench/tracer.py prints for one job run with argv."""
    env = {**os.environ, "PYTHONPATH": str(Path(arbmigrate.__file__).parents[1])}
    traced = subprocess.run([sys.executable, str(_BENCH / "tracer.py"), *argv],
                            env=env, capture_output=True, text=True, timeout=60)
    assert traced.returncode == 0, traced.stderr
    return json.loads(traced.stdout)


def test_bench_tracer_sees_the_untraced_output_and_every_token(capsys):
    # the benchmark's per-layer view wraps lexer.tokenize through parse_source's
    # module global and counts tokens as len() of what tokenize returns
    from arbmigrate.minisol import tokenize

    files = [str(path) for path in sorted(CORPUS.glob("*_dirty.sol"))]
    files.append(str(CORPUS / "alias_permission_clean.sol"))
    argv = ["analyze", "--format", "json", *files]
    doc = _traced("cli", *argv)
    code, out, _ = run(capsys, *argv)
    assert doc["exit"] == code == 0
    assert doc["stdout"] == out
    tokens = sum(len(tokenize(Path(path).read_text(encoding="utf-8"))) for path in files)
    assert doc["counters"]["lexer.tokens"] == tokens > 0
    # its per-layer view times each analyzer stage by name: a renamed or fused
    # stage would read zero calls, not an error.  The parser binds as it parses, so
    # parsed input never calls annotate_bindings, and parser.bind has no span
    calls = {name: total[0] for name, total in doc["totals"].items()}
    for name in ("parser.parse", "rules.analyze"):
        assert calls.get(name) == len(files), name
    assert "parser.bind" not in calls
    assert calls.get("rules.serialize") == 1
    # its per-rule view runs analyze with one rule enabled: each counts what analyze reports
    counted = {rule.id: doc["counters"][f"rules.{rule.id}.findings"] for rule in rule_catalog()}
    found = Counter(finding["rule_id"] for finding in json.loads(out)["findings"])
    assert counted == dict(found) and all(counted.values())


_BENCH_KEYS = ("workload", "what", "command", "seed", "seed_note", "parent_commit", "change_commit",
               "method", "machine", "failed", "metrics", "claim")


@pytest.mark.parametrize("path", sorted(Path(__file__).parents[1].glob("BENCH_*.json")), ids=lambda p: p.name)
def test_bench_record_names_a_declared_workload_and_metric(path):
    # every committed BENCH_*.json leads with the shared keys, and its claim is on one of
    # the workloads and end-to-end metrics that BENCHMARK.json declares
    declared = json.loads((path.parent / "BENCHMARK.json").read_text())
    record = json.loads(path.read_text())
    assert tuple(record)[:len(_BENCH_KEYS)] == _BENCH_KEYS
    assert record["workload"] in {workload["name"] for workload in declared["workloads"]}
    assert record["claim"]["metric"] in {metric["name"] for metric in declared["end_to_end"]}


def test_bench_tracer_sees_the_untraced_replay_and_every_layer_call():
    # the per-layer view of a replay job wraps Sequencer's methods on the class and
    # retryable's functions through module globals; a call that bypassed either
    # would read zero calls for its layer, not fail
    import runpy

    doc = _traced("replay", str(_REPLAY_SCRIPT))
    assert doc["exit"] == 0
    assert doc["stdout"] == runpy.run_path(str(_BENCH / "replay_driver.py"))["run"](str(_REPLAY_SCRIPT))
    actions = Counter(event["action"] for event in json.loads(_REPLAY_SCRIPT.read_text()))
    calls = {name: total[0] for name, total in doc["totals"].items()}
    assert calls.get("scenarios.replay") == 1
    assert calls.get("sequencer.submit") == actions["submit_tx"] > 0
    assert calls.get("sequencer.tick") == actions["tick"] > 0
    assert calls.get("retryable.create") == actions["create_ticket"] > 0
    assert calls.get("retryable.expire") == actions["expire_tickets"] > 0


_REPLAY_SCRIPT = Path(__file__).parent / "golden" / "replay_script.json"
_GAS_CALC = ["gas", "calc", "--gas-used-l2", "100000", "--calldata-price-l1", "16",
             "--calldata-size-l1", "200", "--gas-price-l2", "10"]
_SIMULATOR_ENTRY_POINTS = {  # id -> (code run in a fresh interpreter, module it must load)
    **{f"scenario-run-{sid}": (["scenario", "run", sid], "scenarios")
       for sid in ("S1", "S2", "S3", "S4", "S5")},
    "replay": (f"import json, pathlib; from arbmigrate import scenarios\n"
               f"scenarios.replay_events(json.loads(pathlib.Path({str(_REPLAY_SCRIPT)!r}).read_text()))",
               "scenarios"),
    "gas-calc": (_GAS_CALC, "gasmodel"),
    "alias": (["alias", "apply", "0x" + "de" * 20], "aliasing"),
    "sim": (["sim"], "chainmodel"),
}


@pytest.mark.parametrize("entry", _SIMULATOR_ENTRY_POINTS)
def test_simulator_side_defines_its_classes_without_code_generation(entry):
    # scenario and replay jobs are fresh processes too, and they build the simulator records
    code, layer = _SIMULATOR_ENTRY_POINTS[entry]
    if isinstance(code, list):
        code = f"from arbmigrate import cli; cli.main({code!r})"
    modules = _modules_after(code)
    assert f"arbmigrate.{layer}" in modules
    assert not modules & {"dataclasses", "inspect"}


def test_readme_library_imports_run():
    block = README.read_text().split("## Library use", 1)[1].split("```", 2)[1]
    imports = [line for line in block.splitlines() if line.startswith(("from ", "import "))]
    assert len(imports) >= 5
    assert "arbmigrate.rules" in _modules_after("\n".join(imports))


def test_readme_findings_json_example_is_what_analyze_writes(tmp_path, monkeypatch, capsys):
    section = README.read_text(encoding="utf-8").split("## Findings JSON", 1)[1]
    _, source, _, document, _ = section.split("```", 4)
    (tmp_path / "Vault.sol").write_text(source.removeprefix("solidity\n"), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert run(capsys, "analyze", "--format", "json", "Vault.sol") == (0, document.removeprefix("json\n"), "")


def test_unknown_package_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        arbmigrate.nope


# --- generated argv: every run exits 0, 1 or 2 -------------------------------

_RULE_IDS = [rule.id for rule in rule_catalog()]
_PARAMS = {spec.id: [*spec.params, "nope"] for spec in list_scenarios()}
_ADDRESSES = ["0x00000000000000000000000000000000deadbeef", "0x1111000000000000000000000000000000001111"]
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**70), 2**70) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)  # json.dumps writes infinite floats as Infinity, which json.loads reads back as inf
_NUMBER = st.integers(-5, 5000).map(str) | st.sampled_from(
    ["", "x", "1.5", "1e400", "-inf", "nan", "0x10", "true", str(2**70), str(-(2**70))]
)
_SMALL = st.integers(-5, 5000).map(str)
# sizes far past the S1 and sim limits, which must exit 2; the sizes in between
# are accepted and take seconds each, so they are left to the unit tests
_SIZE = _SMALL | st.integers(10**11, 99999999999999999999).map(str)


_SOURCE = st.one_of(
    st.builds(lambda src, cut: src[:cut], st.sampled_from([p.read_bytes() for p in sorted(CORPUS.glob("*.sol"))]),
              st.integers(0, 2000)),
    st.binary(max_size=20),
    st.text(max_size=20).map(lambda text: text.encode("utf-8", "surrogatepass")),
)
_CONFIG = st.one_of(
    st.fixed_dictionaries({}, optional={
        "enabled": st.lists(st.sampled_from(_RULE_IDS), max_size=3),
        "timestamp_threshold_s": st.integers(1, 200),
        "oracle_patterns": st.lists(st.sampled_from(["getPrice", "latestRoundData", ""]), max_size=2),
    }).map(json.dumps),
    st.dictionaries(
        st.sampled_from([*RuleConfig._fields, "nope"]),
        _JSON | st.integers(-3, 200) | st.lists(st.sampled_from([*_RULE_IDS, "ARB-NOPE", ""]), max_size=3),
        max_size=3,
    ).map(json.dumps),
    _JSON.map(json.dumps),
    st.text(max_size=10),
)
_GOOD_FINDING = st.fixed_dictionaries(
    {"rule_id": st.sampled_from(_RULE_IDS), "file": st.text(max_size=5),
     "line": st.integers(0, 99), "column": st.integers(0, 99)},
    optional={"excerpt": st.text(max_size=5), "message": st.text(max_size=5)},
)
_BAD_FINDING = st.builds(  # a good finding with a field dropped or overwritten by any JSON value
    lambda good, drop, bad: {**{k: v for k, v in good.items() if k != drop}, **bad},
    _GOOD_FINDING,
    st.sampled_from(["rule_id", "file", "line", "column", "none"]),
    st.dictionaries(st.sampled_from(["rule_id", "file", "line", "column", "excerpt", "message"]), _JSON,
                    max_size=1),
)
_FINDINGS = st.one_of(
    st.lists(_GOOD_FINDING, max_size=3).map(lambda items: json.dumps({"findings": items})),
    st.lists(_GOOD_FINDING | _BAD_FINDING | _JSON, max_size=3).map(lambda items: json.dumps({"findings": items})),
    _JSON.map(json.dumps),
    st.text(max_size=10),
)


def _draw_argv(data, tmp: Path) -> list[str]:
    def file(content: str | bytes) -> str:
        path = tmp / f"input{len(written)}"
        path.write_bytes(content.encode() if isinstance(content, str) else content)
        written.append(path)
        return str(path)

    def options(choices: dict) -> list[str]:
        flags = data.draw(st.lists(st.sampled_from(sorted(choices)), max_size=len(choices), unique=True))
        return [arg for flag in flags for arg in (flag, data.draw(choices[flag]))]

    written: list[Path] = []
    command = data.draw(st.sampled_from(["analyze", "checklist", "scenario", "gas", "alias", "sim", "other"]))
    if command == "analyze":
        paths = [file(source) for source in data.draw(st.lists(_SOURCE, min_size=1, max_size=2))]
        paths += data.draw(st.sampled_from([[], [], [str(tmp / "missing.sol")]]))
        rules = st.lists(st.sampled_from([*_RULE_IDS, "ARB-NOPE", " ", ""]), max_size=3).map(",".join)
        return ["analyze", *paths, *options({
            "--rules": rules, "--config": _CONFIG.map(file), "--format": st.sampled_from(["text", "json", "json", "xml"]),
        }), *data.draw(st.sampled_from([[], ["--check"]]))]
    if command == "checklist":
        return ["checklist", data.draw(_FINDINGS.map(file) | st.just(str(tmp / "missing.json")))]
    if command == "scenario":
        sid = data.draw(st.sampled_from([*_PARAMS, "S9"]))
        argv = ["scenario", "run", sid]
        for key in data.draw(st.lists(st.sampled_from(_PARAMS.get(sid, ["nope"])), max_size=3)):
            value = _SIZE if (sid, key) in {("S1", "horizon_s"), ("S1", "positions")} else (
                _NUMBER | st.sampled_from(["true", "false", "contract", "externally_owned", *_ADDRESSES])
                | st.text(max_size=6))
            argv += ["--param", f"{key}={data.draw(value)}"]
        if data.draw(st.booleans()):
            argv += ["--param", data.draw(st.text(max_size=6))]
        out = st.sampled_from([str(tmp / "report.json"), str(tmp)])  # a directory cannot be written
        return argv + options({"--seed": _NUMBER, "--out": out}) + data.draw(st.sampled_from([[], ["--check"]]))
    if command == "gas":
        flags = ["--gas-used-l2", "--calldata-price-l1", "--calldata-size-l1", "--gas-price-l2"]
        return ["gas", "calc", *options(dict.fromkeys(flags, _NUMBER))]
    if command == "alias":
        address = st.sampled_from(_ADDRESSES) | st.text(alphabet="0x123abcdefABCDEF", max_size=44)
        return ["alias", data.draw(st.sampled_from(["apply", "undo", "sideways"])), data.draw(address),
                *options({"--offset": address})]
    if command == "sim":
        return ["sim", *options({"--genesis": _NUMBER, "--block-interval": _NUMBER,
                                 "--sync-period": _NUMBER, "--horizon": _SIZE, "--step": _NUMBER})]
    return data.draw(st.sampled_from([["rules"], ["scenario", "list"], ["gas", "table"], ["--version"]])
                     | st.lists(st.text(max_size=6), max_size=3))


def _digits(low: int, high: int = 5000) -> st.SearchStrategy[str]:
    """Numbers of low to high digits."""
    return st.builds(lambda digit, count: digit * count, st.sampled_from("19"), st.integers(low, high))


def _huge_literals(templates: list[str], low: int) -> st.SearchStrategy[str]:
    """The templates with a literal of low digits or more, as often within the 4,300-digit
    limit of int() on decimal text as past it."""
    return st.builds(lambda template, digits: template.format(digits), st.sampled_from(templates),
                     _digits(low, 4300) | _digits(4301))


# Literals past the uint256 range: decimal from 79 digits, hex from 65. ARB-TIME-002
# prints a literal that block.number is compared with in decimal.
_HUGE_LITERAL = _huge_literals(
    ["contract C {{ uint256 x = {}; }}", "contract C {{ uint256[{}] x; }}",
     "contract C {{ function f() public {{ require(block.number > {}); }} }}"], 79,
) | _huge_literals(
    ["contract C {{ uint256 x = 0x{}; }}",
     "contract C {{ function f() public {{ uint256 start = 0x{}; require(block.number >= start); }} }}"],
    65,
)


def _draw_huge(data, tmp: Path) -> tuple[list[str], Callable[[int, str, str], None] | None]:
    """analyze over a literal past the uint256 range or sim with a value past 64 bits, with the
    check of what it printed, or gas calc with numbers of up to 5,000 digits."""
    command = data.draw(st.sampled_from(["analyze", "sim", "gas"]))
    if command == "sim":
        # within int()'s 4,300 digits, so int() reads the flag's value; a horizon reached in one step at
        # one block a second puts the table's last block number past that limit
        n = data.draw(_digits(21, 4300))
        flags = data.draw(st.sampled_from(
            [["--genesis", n], ["--block-interval", n], ["--sync-period", n], ["--step", n],
             ["--horizon", n, "--step", n, "--block-interval", "1", "--sync-period", "1"]]))

        def expect(code: int, out: str, err: str) -> None:
            assert (code, out) == (2, "")
            assert re.fullmatch(r"error: [a-z_]+ must be at most 2\*\*64 - 1\n", err), err

        return ["sim", *flags], expect
    if command == "analyze":
        path = tmp / "huge.sol"
        path.write_text(data.draw(_HUGE_LITERAL))

        def expect(code: int, out: str, err: str) -> None:
            assert (code, out) == (2, "")
            message = "error: number literal out of uint256 range"
            assert re.fullmatch(rf"{re.escape(str(path))}:1:\d+: {message}\n", err)

        return ["analyze", str(path)], expect
    # a price and a size of 2,151 digits or more: where int() takes both, their
    # product is past its 4,300-digit limit
    big = _digits(2151)
    values = {"--gas-used-l2": _SMALL | big, "--calldata-price-l1": big, "--calldata-size-l1": big,
              "--gas-price-l2": _SMALL | big}
    return ["gas", "calc", *[arg for flag in values for arg in (flag, data.draw(values[flag]))]], None


def _just_inside(declared, with_maximum: bool) -> st.SearchStrategy[str]:
    """--param values inside a declared domain: its edges and values near its minimum."""
    domain = declared.domain
    if domain is bool:
        return st.sampled_from(["true", "false", "TRUE", "False"])
    if domain is Address:
        return st.sampled_from(_ADDRESSES)
    if isinstance(domain, tuple):
        return st.sampled_from(domain)
    low, high = domain.start, domain.stop - 1
    near = st.integers(low, min(high, low + 5000))
    return (near | st.sampled_from([low, high] if with_maximum else [low])).map(str)


# The rules that relate two parameters, stated apart from the code.
_CROSS_RULES = {
    "S1": lambda p: p["horizon_s"] // p["update_interval_s"] + 1 > 10_000_000,
    "S2": lambda p: p["sync_period_s"] % p["block_interval_s"] != 0,
    "S3": lambda p: False,
    "S4": lambda p: p["base_gas"] > p["block_gas_limit"],
    "S5": lambda p: p["auto_fail_gas_required"] <= p["l2_gas_provided"],
}


def _draw_declared(data) -> tuple[list[str], Callable[[int, str, str], None]]:
    """`scenario run` with values drawn from the declarations, each inside or just outside its
    domain, and the check of what the run printed."""
    sid = data.draw(st.sampled_from(sorted(DECLARED)))
    params = DECLARED[sid]
    argv, given, outside = ["scenario", "run", sid], {}, None
    for key in data.draw(st.lists(st.sampled_from(list(params)), unique=True, max_size=3)):
        declared = params[key]
        if data.draw(st.integers(0, 3)) == 0:
            text = data.draw(st.sampled_from(_just_outside(declared)))
            outside = outside or key
        else:
            # 1,000,000 S1 positions take about a second; a unit test runs that edge
            text = data.draw(_just_inside(declared, with_maximum=(sid, key) != ("S1", "positions")))
            domain = declared.domain
            given[key] = int(text) if isinstance(domain, range) else text.lower() == "true" if domain is bool else text
        argv += ["--param", f"{key}={text}"]
    argv += data.draw(st.sampled_from([[], ["--check"]]))

    def expect(code: int, out: str, err: str) -> None:
        if outside:
            domain = re.escape(params[outside].describe())
            assert (code, out) == (2, ""), argv
            assert re.fullmatch(f"error: scenario {sid}: parameter '{outside}' must be {domain}, got .+\n", err)
        elif _CROSS_RULES[sid]({**{k: d.default for k, d in params.items()}, **given}):
            assert (code, out) == (2, "") and err.startswith(f"error: scenario {sid}: "), (argv, err)
        else:
            report = json.loads(out)
            assert code == (1 if "--check" in argv and report["divergent"] else 0), (argv, err)
            assert report["scenario_id"] == sid
            assert {k: report["params"][k] for k in given} == given
            assert all(type(report["params"][k]) is type(v) for k, v in given.items())

    return argv, expect


@settings(max_examples=160, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_generated_argv_exits_zero_one_or_two(tmp_path, data):
    # a quarter of the runs take their --param values from the declared domains, and an
    # eighth put numbers of up to 5,000 digits into an analyze source, sim or gas calc
    branch = data.draw(st.integers(0, 7))
    if branch < 2:
        argv, expect = _draw_declared(data)
    elif branch == 2:
        argv, expect = _draw_huge(data, tmp_path)
    else:
        argv, expect = _draw_argv(data, tmp_path), None
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # main returns its code and raises none; kept as a guard
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    if expect:
        expect(code, out.getvalue(), err.getvalue())


# --- the command table against the argparse parser it replaced -----------------

def _reference_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arbmigrate",
        description=(
            "Migration-safety toolkit: simulate Ethereum-vs-Arbitrum semantic "
            "differences and statically detect migration risks in contract source."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="run the rule engine over MiniSol files")
    p.add_argument("paths", nargs="+", help=".sol files (MiniSol subset)")
    p.add_argument("--rules", help="comma-separated rule ids to enable")
    p.add_argument("--config", help="rule config JSON file")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--check", action="store_true", help="exit 1 if any finding")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("scenario", help="differential L1-vs-L2 scenarios")
    scen_sub = p.add_subparsers(dest="scenario_command", required=True)
    pl = scen_sub.add_parser("list", help="list built-in scenarios")
    pl.set_defaults(func=_cmd_scenario_list)
    pr = scen_sub.add_parser("run", help="run one scenario")
    pr.add_argument("id")
    pr.add_argument("--param", action="append", metavar="K=V")
    pr.add_argument("--seed", type=int, default=0)
    pr.add_argument("--out", help="write the JSON report to a file")
    pr.add_argument("--check", action="store_true", help="exit 1 if the report diverges")
    pr.set_defaults(func=_cmd_scenario_run)

    p = sub.add_parser("gas", help="L2 gas arithmetic")
    gas_sub = p.add_subparsers(dest="gas_command", required=True)
    pc = gas_sub.add_parser("calc", help="quote gas limit and fees")
    pc.add_argument("--gas-used-l2", type=int, required=True)
    pc.add_argument("--calldata-price-l1", type=int, required=True)
    pc.add_argument("--calldata-size-l1", type=int, required=True)
    pc.add_argument("--gas-price-l2", type=int, required=True)
    pc.set_defaults(func=_cmd_gas_calc)
    pt = gas_sub.add_parser("table", help="print the bundled cost comparison")
    pt.set_defaults(func=_cmd_gas_table)

    p = sub.add_parser("alias", help="L1-to-L2 address alias transforms")
    p.add_argument("direction", choices=("apply", "undo"))
    p.add_argument("address", help="0x-prefixed 40-hex-digit address")
    p.add_argument("--offset", help="override the alias offset")
    p.set_defaults(func=_cmd_alias)

    p = sub.add_parser("checklist", help="migration checklist from a findings file")
    p.add_argument("findings", help="findings JSON produced by `analyze --format json`")
    p.set_defaults(func=_cmd_checklist)

    p = sub.add_parser("sim", help="block-number comparison table (L1 vs L2 view)")
    p.add_argument("--genesis", type=int, default=1000)
    p.add_argument("--block-interval", type=int, default=15)
    p.add_argument("--sync-period", type=int, default=60)
    p.add_argument("--horizon", type=int, default=75)
    p.add_argument("--step", type=int, default=15)
    p.set_defaults(func=_cmd_sim)

    p = sub.add_parser("rules", help="print the rule catalog")
    p.set_defaults(func=_cmd_rules)

    return parser



_REFERENCE = _reference_parser()
_HELP_FLAGS = {"-h", "--help", "--version"}
_TABLE_FLAGS = {option[0] for _, _, options in cli._COMMANDS.values() for option in options}
_VALUE_FLAGS = {option[0] for _, _, options in cli._COMMANDS.values() for option in options if option[1] != "switch"}


def _quietly(parse, argv: list[str]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return parse(argv)
        except SystemExit as exc:
            return exc.code


def _reference_outcome(argv: list[str]):
    """The argparse parser's exit code for argv, or the handler and the values it would get."""
    parsed = _quietly(_REFERENCE.parse_args, argv)
    if isinstance(parsed, int):
        return parsed
    values = {k: v for k, v in vars(parsed).items() if k not in ("command", "scenario_command", "gas_command")}
    return values.pop("func"), values


def _table_outcome(argv: list[str]):
    parsed = _quietly(cli._parse, argv)
    if isinstance(parsed, tuple) and isinstance(parsed[1], str):  # -h or --version: exit 0 and its text
        return parsed[0]
    return parsed if isinstance(parsed, int) else (parsed[0], vars(parsed[1]))


def _respell(data, argv: list[str]) -> list[str]:
    """argv with up to three words respelled: a flag and its value joined as --opt=value, a flag
    abbreviated, a `--` put in, or a word moved elsewhere."""
    argv = list(argv)
    for _ in range(data.draw(st.integers(0, 3))):
        k = data.draw(st.integers(0, max(0, len(argv) - 1)))
        how = data.draw(st.sampled_from(["join", "abbreviate", "dashes", "move"]))
        if how == "join" and argv[k:k + 1] and argv[k] in _VALUE_FLAGS and k + 1 < len(argv):
            argv[k:k + 2] = [f"{argv[k]}={argv[k + 1]}"]
        elif how == "abbreviate" and argv[k:k + 1] and argv[k].startswith("--") and len(argv[k]) > 3:
            argv[k] = argv[k][:data.draw(st.integers(3, len(argv[k]) - 1))]
        elif how == "dashes":
            argv.insert(k, "--")
        elif how == "move" and argv:
            argv.insert(data.draw(st.integers(0, len(argv) - 1)), argv.pop(k))
    return argv


# The two deliberate differences from the argparse parser, each with one example.
# 1. No flag may be abbreviated: argparse read the start of a long flag (`--form`) as that
#    flag, and a short flag with more after it (`-hh`) as that flag and the rest; the table
#    reads either as an unknown flag, so it never runs the command.
_ABBREVIATED = ["analyze", "--form", "json", str(CORPUS / "dos_loop_dirty.sol")]
# 2. `analyze` takes paths after options: argparse rejected a second run of paths, and the
#    table gives the handler every path, as argparse's intermixed parsing does.
_PATHS_AFTER_OPTIONS = ["analyze", str(CORPUS / "dos_loop_dirty.sol"), "--check", str(CORPUS / "dos_loop_clean.sol")]


def _abbreviated(argv: list[str]) -> bool:
    """Whether a word before any `--` is one that argparse took for a flag the table does not know."""
    flags = _HELP_FLAGS | _TABLE_FLAGS
    for word in argv[:argv.index("--")] if "--" in argv else argv:
        head = word.partition("=")[0]
        if head not in flags and (word.startswith("-h") or head.startswith("--") and any(
                flag.startswith(head) for flag in flags)):
            return True
    return False


def _intermixed(argv: list[str]):
    """What argparse's intermixed parsing of analyze makes of argv, as _reference_outcome."""
    # parse_intermixed_args refuses subparsers, so it runs on the analyze subparser itself
    analyze = next(action for action in _REFERENCE._actions if action.dest == "command").choices["analyze"]
    parsed = _quietly(analyze.parse_intermixed_args, argv[1:])
    return parsed if isinstance(parsed, int) else (parsed.func, {
        k: v for k, v in vars(parsed).items() if k != "func"})


def _documented_difference(argv: list[str], reference, table) -> bool:
    if _abbreviated(argv):
        return isinstance(table, int)
    return argv[:1] == ["analyze"] and reference == 2 and table == _intermixed(argv)


def test_documented_differences_from_argparse(capsys):
    reference, table = _reference_outcome(_ABBREVIATED), _table_outcome(_ABBREVIATED)
    assert reference[1]["format"] == "json" and table == 2
    assert _documented_difference(_ABBREVIATED, reference, table)
    assert main(_ABBREVIATED) == 2 and capsys.readouterr().err == "error: unknown option '--form'\n"
    assert (_reference_outcome(["-hh"]), _table_outcome(["-hh"])) == (0, 2)  # argparse: -h -h

    reference, table = _reference_outcome(_PATHS_AFTER_OPTIONS), _table_outcome(_PATHS_AFTER_OPTIONS)
    assert reference == 2 and table[1]["paths"] == _PATHS_AFTER_OPTIONS[1::2]
    assert _documented_difference(_PATHS_AFTER_OPTIONS, reference, table)
    assert main(_PATHS_AFTER_OPTIONS) == 1
    assert capsys.readouterr().out == run(capsys, "analyze", "--check", *_PATHS_AFTER_OPTIONS[1::2])[1]


@pytest.mark.parametrize("argv", [
    # -h prints help unless a wrong value or command came before it
    ["--version"], ["-h"], ["scenario", "-h"], ["gas", "calc", "--help"], ["--bogus", "-h"],
    ["analyze", "--bogus", "-h"], ["analyze", "--format", "xml", "-h"], ["alias", "sideways", "-h"],
    ["alias", "-h", "sideways"], ["--help=1"], ["gas", "calc", "--gas-used-l2", "x", "-h"],
    # "--" ends the flags, and is taken only next to a positional
    ["scenario", "--", "run", "S1"], ["scenario", "run", "--", "-h"], ["analyze", "--", "-x.sol", "--check"],
    ["sim", "--"], ["analyze", "a.sol", "--check", "--"], ["alias", "apply", "0x1", "--"],
    ["analyze", "a.sol", "--rules", "x", "--"], ["analyze", "--rules", "x", "a.sol", "--"],
    # a value that starts with a dash: a negative number, "-" or a word with a space, not a flag
    ["analyze", "a.sol", "--rules"], ["analyze", "--rules", "--check", "a.sol"], ["analyze", "--rules", "-5", "a.sol"],
    ["analyze", "--rules", "-x y", "a.sol"], ["analyze", "--rules=-x", "a.sol"], ["analyze", "--check=1", "a.sol"],
    ["scenario", "run", "S1", "--seed=-3"], ["scenario", "run", "S1", "--seed", "1_0"], ["sim", "--step", "-\n"],
    ["scenario", "run", "S1", "--param", "-5\n"], ["scenario", "run", "S1", "--param", "-h x"], ["analyze", "-"],
    # missing and surplus words
    ["alias", "apply", "0x1", "0x2"], ["gas", "calc"], ["gas"], [], ["-5"], ["scenario", "run", "S1", "S2"],
])
def test_table_parses_hand_picked_argv_as_argparse_did(argv):
    assert _table_outcome(argv) == _reference_outcome(argv)


def test_help_and_version_print_and_exit_zero(capsys):
    assert main(["--version"]) == 0 and capsys.readouterr().out == f"arbmigrate {__version__}\n"
    assert main(["analyze", "--check", "-h", "--bogus"]) == 0
    out = capsys.readouterr().out
    assert out == "usage: arbmigrate analyze PATHS... [--rules TEXT] [--config TEXT] [--format text|json] [--check]\n"
    assert main(["scenario", "-h"]) == 0
    assert [line.split()[:4] for line in capsys.readouterr().out.splitlines()] == [
        ["usage:", "arbmigrate", "scenario", "list"], ["usage:", "arbmigrate", "scenario", "run"]]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_table_parses_generated_argv_as_argparse_did(tmp_path, data):
    # both accept and reject the same argv and hand the handler the same values, but
    # where one of the two documented differences applies
    argv = _respell(data, _draw_argv(data, tmp_path))
    reference, table = _reference_outcome(argv), _table_outcome(argv)
    assert reference == table or _documented_difference(argv, reference, table), (argv, reference, table)


def test_source_parses_at_the_oldest_supported_python():
    # the interpreter running the tests may be newer than the declared floor;
    # feature_version rejects the syntax the floor's grammar lacks
    floor = re.search(r'requires-python = ">=3\.(\d+)"', PYPROJECT.read_text())
    assert floor, "pyproject.toml declares no requires-python floor"
    version = (3, int(floor[1]))
    for path in sorted(Path(arbmigrate.__file__).parent.rglob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=version)


def test_a_failing_hypothesis_test_prints_its_example(tmp_path):
    # under the project's warning filters, not INTERNALERROR; Hypothesis writes
    # .hypothesis/ into the working directory, so the run stays in tmp_path
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\ndef test_fails(n):\n    assert n < 5\n")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT), "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert result.returncode == 1, result.stdout + result.stderr
    assert "Falsifying example" in result.stdout
    assert "INTERNALERROR" not in result.stdout + result.stderr


def test_no_module_imports_a_private_name_of_another():
    # a leading underscore keeps a name to its module; a private module (._record) is fine.
    # The tests' printer, like any client, reads only the package's public names.
    package = Path(arbmigrate.__file__).parent
    crossings = []
    for path in [*sorted(package.rglob("*.py")), Path(__file__).parent / "minisol_printer.py"]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("arbmigrate")):
                crossings += [
                    f"{path.relative_to(path.parents[1])}: {node.module}.{alias.name}" for alias in node.names
                    if alias.name.startswith("_") and not alias.name.startswith("__")
                ]
    assert crossings == []


def test_src_keeps_no_function_that_nothing_in_src_calls():
    # a top-level function or method named nowhere in src/ outside its own body (an import,
    # __all__ or a docstring names nothing) serves only tests; these four serve the bench's tracer
    def uses(tree):
        return Counter(getattr(node, "id", None) or getattr(node, "attr", None) for node in ast.walk(tree))

    named, own = Counter(), Counter()
    for path in sorted(Path(arbmigrate.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        named += uses(tree)
        for top in tree.body:
            for node in [top, *top.body] if isinstance(top, ast.ClassDef) else [top]:
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("__"):
                    own[node.name] += uses(node)[node.name]
    unused = {name for name, inside in own.items() if named[name] == inside}
    assert unused == {"annotate_bindings", "walk", "sync_state_at", "l2_timestamp_read"}
    tracer = (_BENCH / "tracer.py").read_text(encoding="utf-8")
    assert all(re.search(rf"\b{name}\b", tracer) for name in unused)


def test_every_simulator_record_field_has_a_reader():
    # a field of a record class outside minisol that src/ reads as an attribute nowhere but in
    # its class's __init__ (an augmented assignment reads) serves only repr and the tests
    def reads(tree):
        return Counter(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                       and isinstance(node.ctx, ast.Load)) + Counter(
            node.target.attr for node in ast.walk(tree)
            if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Attribute))

    read, in_init = Counter(), {}
    for path in sorted(Path(arbmigrate.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        read += reads(tree)
        in_init.update({top.name: reads(node) for top in tree.body if isinstance(top, ast.ClassDef)
                        for node in top.body if getattr(node, "name", None) == "__init__"})
    classes, unread = [Record], set()
    for cls in classes:
        classes += cls.__subclasses__()
        module = cls.__module__
        if module.startswith("arbmigrate.") and not module.startswith("arbmigrate.minisol"):
            own = in_init.get(cls.__name__, Counter())
            unread |= {f"{cls.__name__}.{name}" for name in cls._fields if read[name] == own[name]}
    # serialize_report writes a DifferentialReport whole, through _asdict; only sync_state_at,
    # which the bench's tracer names, writes the two L2View fields
    assert {name for name in unread if not name.startswith("DifferentialReport.")} == {
        "L2View.last_synced_l1_number", "L2View.last_sync_time"}
    assert re.search(r"\bsync_state_at\b", (_BENCH / "tracer.py").read_text(encoding="utf-8"))


# file -> the functions and methods each replayed record or S1 step runs
_PER_RECORD = {
    "scenarios.py": ("replay_events", "_run_stale_oracle"),
    "sequencer.py": ("Sequencer.submit", "Sequencer.tick"),
    "retryable.py": ("Ticket._check", "auto_redeem", "manual_redeem", "expire_tickets"),
}


def test_per_record_code_reads_no_enum_member_through_its_class():
    # On CPython 3.11 a read such as SequencerStatus.ACTIVE runs EnumType.__getattr__, about
    # ten times a global read, so these bodies read the globals bound below each enum class.
    # Default values and other functions do not count.
    package = Path(arbmigrate.__file__).parent
    enums = {"TxOrigin", "SequencerStatus", "TicketState"}
    reads = []
    for file, names in _PER_RECORD.items():
        functions = {}
        for top in ast.parse((package / file).read_text(encoding="utf-8")).body:
            if isinstance(top, ast.FunctionDef):
                functions[top.name] = top
            elif isinstance(top, ast.ClassDef):
                functions.update({f"{top.name}.{node.name}": node for node in top.body
                                  if isinstance(node, ast.FunctionDef)})
        reads += [f"{file} {name}: {node.value.id}.{node.attr}" for name in names
                  for statement in functions[name].body for node in ast.walk(statement)
                  if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in enums]
    assert reads == []
