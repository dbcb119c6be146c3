"""Byte-for-byte golden outputs: the refactor oracle.

Each case below renders one command or API call to text and compares it with
a file under ``tests/golden/``. The files hold the findings JSON of the
corpus, the scenario catalog, every scenario report at its defaults and at
one non-default setting, the summary of a fixed event script that uses
every replay action, the diagnostics of every corpus file cut short at each
token's end and one character into each token, the diagnostics (or the
fired rule ids) of every corpus file with one token deleted, and the
canonical printer's text of the corpus, of generated programs and of a
hand-written source. A change that keeps behaviour keeps these bytes.

To record the files again after an intended output change, run
``PYTHONPATH=src python tests/test_golden.py`` from the repository root and
review the diff.
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest
from test_minisol import _Gen

from arbmigrate.cli import main
from arbmigrate.minisol import MiniSolSyntaxError, parse_source, print_source, tokenize
from arbmigrate.rules import analyze
from arbmigrate.scenarios import replay_events

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
CORPUS_FILES = sorted(p.relative_to(ROOT).as_posix() for p in (ROOT / "tests" / "corpus").glob("*.sol"))

# (golden file, CLI argv); paths are relative to the repository root.
CLI_CASES = [
    ("analyze_corpus.json", ["analyze", "--format", "json", *CORPUS_FILES]),
    ("scenario_list.txt", ["scenario", "list"]),
    *[(f"{sid}_default.json", ["scenario", "run", sid]) for sid in ("S1", "S2", "S3", "S4", "S5")],
    ("S1_downtime7200_seed3.json",
     ["scenario", "run", "S1", "--param", "downtime_s=7200", "--seed", "3"]),
    ("S2_interval12_sync36.json",
     ["scenario", "run", "S2", "--param", "block_interval_s=12", "--param", "sync_period_s=36",
      "--param", "horizon_s=1000", "--param", "genesis_number=5"]),
    ("S3_externally_owned.json",
     ["scenario", "run", "S3", "--param", "sender_kind=externally_owned"]),
    ("S4_cheaper_loop.json",
     ["scenario", "run", "S4", "--param", "per_iteration_gas=25000",
      "--param", "push_calldata_bytes=200"]),
    ("S5_escrowed_seed9.json",
     ["scenario", "run", "S5", "--param", "escrow_callvalue=true",
      "--param", "auto_gas_required=5000", "--seed", "9"]),
]

REPLAY_SCRIPT = "replay_script.json"
REPLAY_SUMMARY = "replay_summary.json"
TRUNCATION = "truncation_diagnostics.txt"
DELETION = "deletion_diagnostics.txt"
PRINTER = "printer.txt"
# Strings with a backslash, a quote, a newline and a tab, an else-if chain, a
# for with empty parts, modifiers and returns lists: what _Gen never draws.
PRINTER_INPUT = "printer_input.sol"
PRINTER_SEEDS = range(200)


def _cli_output(argv: list[str]) -> str:
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        os.chdir(cwd)
    assert code == 0, f"{argv} exited {code}"
    return out.getvalue()


def _replay_output() -> str:
    events = json.loads((GOLDEN / REPLAY_SCRIPT).read_text(encoding="utf-8"))
    return json.dumps(replay_events(events), indent=2, sort_keys=True) + "\n"


def _truncation_output() -> str:
    """Every diagnostic of each corpus file cut at a token's end or one character into it."""
    lines = []
    for name in CORPUS_FILES:
        source = (ROOT / name).read_text(encoding="utf-8")
        tokens = tokenize(source)
        cuts = set(tokens.ends) | {start + 1 for start in tokens.starts}
        for cut in sorted(cuts):
            lines.append(f"{Path(name).name}:{cut}")
            try:
                parse_source(source[:cut])
                lines.append("  ok")
            except MiniSolSyntaxError as err:
                lines.extend(f"  {d}" for d in err.diagnostics)
    return "\n".join(lines) + "\n"


def _deletion_output() -> str:
    """Each corpus file with one token deleted: every diagnostic, or ok and the fired rule ids.

    A deletion mostly breaks the middle of a file, so this pins the parser's
    re-sync after a bad contract, member or statement, where truncation mostly pins the
    end of input."""
    lines = []
    for name in CORPUS_FILES:
        source = (ROOT / name).read_text(encoding="utf-8")
        tokens = tokenize(source)
        for start, end in zip(tokens.starts, tokens.ends):
            head = f"{Path(name).name}:{start}: "
            try:
                unit = parse_source(source[:start] + source[end:])
            except MiniSolSyntaxError as err:
                first, *rest = err.diagnostics
                lines.append(f"{head}{first}")
                lines.extend(f"  {d}" for d in rest)
                continue
            lines.append(" ".join([f"{head}ok", *sorted({f.rule_id for f in analyze(unit)})]))
    return "\n".join(lines) + "\n"


def _printer_output() -> str:
    """print_source of each corpus file, of _Gen programs and of PRINTER_INPUT."""
    sources = [(name, (ROOT / name).read_text(encoding="utf-8")) for name in CORPUS_FILES]
    sources.append((PRINTER_INPUT, _read(PRINTER_INPUT)))
    cases = [(name, parse_source(source)) for name, source in sources]
    cases += [(f"_Gen({seed})", _Gen(seed).unit()) for seed in PRINTER_SEEDS]
    return "".join(f"== {name}\n{print_source(unit)}" for name, unit in cases)


def _read(name: str) -> str:
    return (GOLDEN / name).read_bytes().decode("utf-8")


@pytest.mark.parametrize("name, argv", CLI_CASES, ids=[name for name, _ in CLI_CASES])
def test_cli_output_matches_golden(name, argv):
    assert _cli_output(argv) == _read(name)


def test_replay_summary_matches_golden():
    assert _replay_output() == _read(REPLAY_SUMMARY)


def test_truncated_corpus_diagnostics_match_golden():
    assert _truncation_output() == _read(TRUNCATION)


def test_token_deletion_diagnostics_match_golden():
    assert _deletion_output() == _read(DELETION)


def test_printer_output_matches_golden():
    assert _printer_output() == _read(PRINTER)


def test_replay_script_uses_every_action():
    events = json.loads(_read(REPLAY_SCRIPT))
    assert {e["action"] for e in events} == {
        "sequencer_down", "sequencer_up", "submit_tx", "tick", "create_ticket",
        "auto_redeem", "manual_redeem", "expire_tickets",
    }


if __name__ == "__main__":
    for name, argv in CLI_CASES:
        (GOLDEN / name).write_bytes(_cli_output(argv).encode("utf-8"))
    (GOLDEN / REPLAY_SUMMARY).write_bytes(_replay_output().encode("utf-8"))
    (GOLDEN / TRUNCATION).write_bytes(_truncation_output().encode("utf-8"))
    (GOLDEN / DELETION).write_bytes(_deletion_output().encode("utf-8"))
    (GOLDEN / PRINTER).write_bytes(_printer_output().encode("utf-8"))
