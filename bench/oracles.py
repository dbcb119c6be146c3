"""Correctness oracles: each returns None for a correct job, or the reason it is wrong.

No expectation comes from arbmigrate itself. Analyzer findings are compared
with tests/corpus/labels.json, scenario figures with closed forms written
here from the README's definitions, and replay summaries with the ledger
identity and with the outcome the script generator tracked.
"""

from __future__ import annotations

import json
from typing import Any

from workloads import Job


def check(job: Job, code: int, stdout: str) -> str | None:
    try:
        return CHECKS[job.kind](job, code, stdout)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        # malformed output: not JSON, or missing the fields the oracle reads
        return f"unreadable output ({type(exc).__name__}: {exc})"


def _check_analyze(job: Job, code: int, stdout: str) -> str | None:
    doc = json.loads(stdout)
    expected = job.expect["files"]
    if doc["files"] != sorted(expected):
        return "files list differs from the files analyzed"
    got: dict[str, list[list[Any]]] = {name: [] for name in expected}
    for f in doc["findings"]:
        got.setdefault(f["file"], []).append([f["rule_id"], f["line"]])
    for name, want in expected.items():
        if sorted(got[name]) != sorted(want):
            return f"{name}: findings {sorted(got[name])} != labels {sorted(want)}"
    want_code = 1 if job.expect["check"] and doc["findings"] else 0
    if code != want_code:
        return f"exit code {code}, expected {want_code}"
    return None


def _gas_fees(gas_used: int, calldata_price: int, calldata_size: int, gas_price: int) -> int:
    """README formula: (gas_used + ceil(price * size / gas_price)) * gas_price."""
    return (gas_used + -(-(calldata_price * calldata_size) // gas_price)) * gas_price


def _check_scenario(job: Job, code: int, stdout: str) -> str | None:
    report = json.loads(stdout)
    sid = job.expect["id"]
    if report["scenario_id"] != sid or report["seed"] != job.expect["seed"]:
        return "report names another scenario or seed"
    divergent = any(v != 0 for v in report["divergence"].values())
    if report["divergent"] is not divergent:
        return f"divergent={report['divergent']} but divergence values say {divergent}"
    want_code = 1 if job.expect["check"] and divergent else 0
    if code != want_code:
        return f"exit code {code}, expected {want_code}"
    p, l1, l2 = report["params"], report["l1_outcome"], report["l2_outcome"]
    if any(p.get(k) != v for k, v in job.expect["params"].items()):
        return "report params differ from the --param arguments"
    if sid == "S2":
        # every L1 number in [0, horizon) is produced; L2 sees one per sync instant
        last = p["horizon_s"] - 1
        fraction = (last // p["sync_period_s"] + 1) / (last // p["block_interval_s"] + 1)
        if l2["observable_fraction"] != fraction:
            return f"S2 observable_fraction {l2['observable_fraction']} != {fraction}"
    elif sid == "S4":
        n = (p["block_gas_limit"] - p["base_gas"]) // p["per_iteration_gas"] + 1
        if l1["first_failing_n"] != n or l2["first_failing_n"] != n:
            return f"S4 first_failing_n {l1['first_failing_n']} != {n}"
        if l1["attack_cost_wei"] != n * p["push_gas"] * p["l1_gas_price_wei"]:
            return f"S4 L1 attack cost {l1['attack_cost_wei']} != n * push_gas * l1_gas_price_wei"
        l2_cost = n * _gas_fees(p["push_gas"], p["calldata_price_l1_wei"],
                                p["push_calldata_bytes"], p["l2_gas_price_wei"])
        if l2["attack_cost_wei"] != l2_cost:
            return f"S4 L2 attack cost {l2['attack_cost_wei']} != {l2_cost}"
    elif sid == "S5":
        for path, ledger in l2.items():
            reason = _ledger_reason(ledger)
            if reason:
                return f"S5 {path}: {reason}"
    return None


def _ledger_reason(ledger: dict[str, int]) -> str | None:
    out = ledger["refunded"] + ledger["consumed_as_fees"] + ledger["delivered_callvalue"] + ledger["lost"]
    if ledger["paid_in"] != out:
        return f"ledger identity broken: paid_in {ledger['paid_in']} != {out}"
    return None


def _check_replay(job: Job, code: int, stdout: str) -> str | None:
    if code != 0:
        return f"exit code {code}, expected 0"
    summary = json.loads(stdout)
    reason = _ledger_reason(summary["ledger"])
    if reason:
        return reason
    seen = [tx["id"] for tx in summary["executed"]] + summary["pending"] + summary["delayed_inbox"]
    if sorted(seen) != sorted(job.expect["submitted"]):
        return "submitted ids are not each executed, pending or delayed exactly once"
    if summary["tickets"] != job.expect["tickets"]:
        wrong = sorted(k for k, v in job.expect["tickets"].items() if summary["tickets"].get(k) != v)
        return f"ticket states differ for {len(wrong)} tickets, first {wrong[:3]}"
    if summary["reverted_tickets"] != job.expect["reverted"]:
        return "reverted tickets differ"
    return None


CHECKS = {"analyze": _check_analyze, "scenario": _check_scenario, "replay": _check_replay}
