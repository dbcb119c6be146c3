import ast
import contextlib
import io
import json
import os
import re
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Callable

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import arbmigrate
from arbmigrate import cli, rules
from arbmigrate.aliasing import Address
from arbmigrate.chainmodel import MAX_TABLE_ROWS
from arbmigrate.cli import main
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

    def test_an_error_in_a_workers_slice_surfaces_from_the_parent(self, tree, capsys, monkeypatch, forks):
        files, odd = tree
        real = rules.analyze

        def analyze(unit, config=None):
            if unit.path == files[60]:  # in the last worker's slice
                raise RuntimeError(f"analyze failed on {unit.path}")
            return real(unit, config)

        monkeypatch.setattr(rules, "analyze", analyze)
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
        assert message == f"analyze failed on {files[60]}" and out == ""
        bad_line, missing_line = err.splitlines()
        assert bad_line == f"{odd['bad']}:1:48: error: expected expression, found ';'"
        assert missing_line.startswith(f"error: cannot read {odd['missing']}: ")

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


def test_usage_error_exit_code_via_argparse():
    with pytest.raises(SystemExit) as err:
        main(["gas"])
    assert err.value.code == 2


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


@pytest.mark.parametrize(
    "code, loaded, absent",
    [
        (f"from arbmigrate import cli; cli.main(['analyze', {str(CORPUS / 'dos_loop_dirty.sol')!r}])",
         {"minisol", "rules"}, _SIMULATORS),
        ("from arbmigrate import cli; cli.main(['scenario', 'run', 'S3'])",
         {"scenarios", "aliasing"}, {"minisol", "rules"}),
        ("from arbmigrate import scenarios", {"scenarios"}, {"minisol", "rules"}),
        ("import arbmigrate; arbmigrate.rules.analyze", {"rules"}, _SIMULATORS),
    ],
    ids=["analyze", "scenario-run", "import-scenarios", "package-attribute"],
)
def test_entry_point_loads_only_its_layers(code, loaded, absent):
    modules = _modules_after(code)
    assert {f"arbmigrate.{name}" for name in loaded} <= modules
    assert not modules & {f"arbmigrate.{name}" for name in absent}


def test_a_forked_analyze_loads_no_process_pool(tmp_path):
    # the workers are os.fork children that send marshal data through pipes; importing
    # a process pool costs an analyze job 19-39 ms, about half of what the fan-out saves
    paths = []
    for copy in range(5):  # 70 distinct paths: two workers of at least 32 files each
        for source in sorted(CORPUS.glob("*.sol")):
            paths.append(tmp_path / f"{copy}-{source.name}")
            paths[-1].write_bytes(source.read_bytes())
    code = f"""import os
from arbmigrate import cli
fork, forked = os.fork, []
def counted():
    forked.append(fork())
    return forked[-1]
os.fork, cli._WORKERS = counted, 2
assert cli.main({["analyze", "--format", "json", *map(str, paths)]!r}) == 0 and len(forked) == 1
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


def test_bench_tracer_sees_the_untraced_output_and_every_token(capsys):
    # the benchmark's per-layer view wraps lexer.tokenize through parse_source's
    # module global and counts tokens as len() of what tokenize returns
    from arbmigrate.minisol import tokenize

    files = [str(path) for path in sorted(CORPUS.glob("*_dirty.sol"))]
    files.append(str(CORPUS / "alias_permission_clean.sol"))
    argv = ["analyze", "--format", "json", *files]
    env = {**os.environ, "PYTHONPATH": str(Path(arbmigrate.__file__).parents[1])}
    tracer = Path(__file__).parents[1] / "bench" / "tracer.py"
    traced = subprocess.run([sys.executable, str(tracer), "cli", *argv],
                            env=env, capture_output=True, text=True, timeout=60)
    assert traced.returncode == 0, traced.stderr
    doc = json.loads(traced.stdout)
    code, out, _ = run(capsys, *argv)
    assert doc["exit"] == code == 0
    assert doc["stdout"] == out
    tokens = sum(len(tokenize(Path(path).read_text(encoding="utf-8"))) for path in files)
    assert doc["counters"]["lexer.tokens"] == tokens > 0
    # its per-layer view times each analyzer stage by name: a renamed or fused
    # stage would read zero calls, not an error
    calls = {name: total[0] for name, total in doc["totals"].items()}
    for name in ("parser.parse", "parser.bind", "rules.analyze"):
        assert calls.get(name) == len(files), name
    assert calls.get("rules.serialize") == 1
    # its per-rule view runs analyze with one rule enabled: each counts what analyze reports
    counted = {rule.id: doc["counters"][f"rules.{rule.id}.findings"] for rule in rule_catalog()}
    found = Counter(finding["rule_id"] for finding in json.loads(out)["findings"])
    assert counted == dict(found) and all(counted.values())


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


# Decimal literals past the uint256 range, as often within the 4,300-digit limit
# of int() on text as past it.
_HUGE_LITERAL = st.builds(
    lambda template, digits: template.format(digits),
    st.sampled_from(["contract C {{ uint256 x = {}; }}", "contract C {{ uint256[{}] x; }}",
                     "contract C {{ function f() public {{ require(block.number > {}); }} }}"]),
    _digits(79, 4300) | _digits(4301),
)


def _draw_huge(data, tmp: Path) -> tuple[list[str], Callable[[int, str, str], None] | None]:
    """analyze over a decimal literal past the uint256 range, with the check of what it printed,
    or gas calc with numbers of up to 5,000 digits."""
    if data.draw(st.booleans()):
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
    # eighth put numbers of up to 5,000 digits into an analyze source or gas calc
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
        except SystemExit as exc:  # argparse: 2 for a usage error, 0 after --version
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    if expect:
        expect(code, out.getvalue(), err.getvalue())


def test_source_parses_at_the_oldest_supported_python():
    # the interpreter running the tests may be newer than the declared floor;
    # feature_version rejects the syntax the floor's grammar lacks
    floor = re.search(r'requires-python = ">=3\.(\d+)"', PYPROJECT.read_text())
    assert floor, "pyproject.toml declares no requires-python floor"
    version = (3, int(floor[1]))
    for path in sorted(Path(arbmigrate.__file__).parent.rglob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=version)


def test_no_module_imports_a_private_name_of_another():
    # a leading underscore keeps a name to its module; a private module (._record) is fine
    package = Path(arbmigrate.__file__).parent
    crossings = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("arbmigrate")):
                crossings += [
                    f"{path.relative_to(package)}: {node.module}.{alias.name}" for alias in node.names
                    if alias.name.startswith("_") and not alias.name.startswith("__")
                ]
    assert crossings == []
