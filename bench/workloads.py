"""Seeded inputs and job lists for the four benchmark workloads.

The program under test sees only what is built here: MiniSol files written
under the run's work directory, `arbmigrate` argv, and event-script files.
Every draw comes from one `random.Random(seed)`, so a seed fixes the inputs.
Draws are balanced (each template, file count or scenario id is used a fixed
number of times per seed) so the amount of work in a job list barely moves
from seed to seed, and only the order and the details change.

Each job carries the expectations its oracle needs (see oracles.py). None
of them is computed by arbmigrate.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

SCENARIO_IDS = ("S1", "S2", "S3", "S4", "S5")

# Ticket redeem window, as the README documents it; the replay oracle
# predicts ticket states from it.
BUFFER_LIFETIME_S = 7 * 86_400


@dataclass(frozen=True)
class Template:
    name: str  # file name in tests/corpus
    text: str
    contracts: tuple[str, ...]
    labels: tuple[tuple[str, int], ...]  # expected (rule_id, line) pairs


@dataclass
class Job:
    kind: str  # "analyze", "scenario" or "replay"
    key: str  # stable id; every run of one key must print the same bytes
    args: list[str]  # `arbmigrate` arguments, or the replay script path
    cwd: Path
    expect: dict[str, Any] = field(default_factory=dict)
    input_bytes: int = 0  # source, script or argv bytes handed to the program
    items: int = 1  # work items: replayed events, analyzed files, or one scenario run


def load_templates(corpus: Path) -> list[Template]:
    labels = json.loads((corpus / "labels.json").read_text(encoding="utf-8"))
    templates = []
    for name in sorted(labels):
        text = (corpus / name).read_text(encoding="utf-8")
        templates.append(
            Template(
                name=name,
                text=text,
                contracts=tuple(re.findall(r"\bcontract\s+([A-Za-z_]\w*)", text)),
                labels=tuple(sorted((e["rule_id"], e["line"]) for e in labels[name])),
            )
        )
    return templates


def _balanced(rng: random.Random, pool: list, n: int) -> list:
    """n items that use every item of pool equally often (up to one), in seeded order."""
    out: list = []
    while len(out) < n:
        batch = list(pool)
        rng.shuffle(batch)
        out.extend(batch)
    out = out[:n]
    rng.shuffle(out)
    return out


def _write_files(repo: Path, templates: list[Template], tag: str) -> list[tuple[str, list, int]]:
    """One template per file, its contract names suffixed so every file is distinct.

    The suffix is appended to names, so line numbers stay those of labels.json.
    Returns (file name, expected findings, size) per file.
    """
    repo.mkdir(parents=True)
    entries = []
    for i, t in enumerate(templates):
        text = t.text
        for contract in t.contracts:
            text = re.sub(rf"\b{contract}\b", f"{contract}_{tag}{i:03d}", text)
        fname = f"{t.name[:-4]}_{i:03d}.sol"
        data = text.encode("utf-8")
        (repo / fname).write_bytes(data)
        entries.append((fname, [list(x) for x in t.labels], len(data)))
    return entries


def _files_job(repo: Path, key: str, entries: list[tuple[str, list, int]], check: bool) -> Job:
    files = [name for name, _, _ in entries]
    argv = ["analyze", "--format", "json"] + (["--check"] if check else []) + files
    expect = {"files": {name: labels for name, labels, _ in entries}, "check": check}
    return Job("analyze", key, argv, repo, expect, sum(size for _, _, size in entries), len(files))


def analyze_job(root: Path, key: str, templates: list[Template], check: bool) -> Job:
    """A job over a repository of its own holding one file per template given."""
    return _files_job(root / key, key, _write_files(root / key, templates, key.replace("-", "")), check)


def scenario_job(root: Path, key: str, sid: str, seed: int, params: dict[str, Any],
                 check: bool = False) -> Job:
    argv = ["scenario", "run", sid, "--seed", str(seed)]
    for k, v in params.items():
        argv += ["--param", f"{k}={str(v).lower() if isinstance(v, bool) else v}"]
    if check:
        argv.append("--check")
    return Job("scenario", key, argv, root, {"id": sid, "seed": seed, "params": params, "check": check},
               sum(len(a) + 1 for a in argv))


# --- ci-small -----------------------------------------------------------------


def build_ci_small(rng: random.Random, templates: list[Template], root: Path) -> list[Job]:
    """24 `analyze --check` jobs over 5-30 files, and S1-S5 with --check, each twice."""
    clean = [t for t in templates if not t.labels]
    counts = _balanced(rng, [5 + (25 * i) // 23 for i in range(24)], 24)
    jobs = []
    for r, n in enumerate(counts):
        # a quarter of the repositories are clean, so exit code 0 is checked too
        pool = clean if r % 4 == 3 else templates
        jobs.append(analyze_job(root, f"ci{r:02d}", _balanced(rng, pool, n), check=True))
    for sid in SCENARIO_IDS:
        # listed twice: both runs must print the same bytes
        jobs += [scenario_job(root, sid, sid, rng.randrange(2**31), {}, check=True)] * 2
    rng.shuffle(jobs)
    return jobs


# --- analyze-bulk ----------------------------------------------------------------


def build_analyze_bulk(rng: random.Random, templates: list[Template], root: Path) -> list[Job]:
    """20 `analyze --format json` jobs over 490 files each (35 per template, ~175 KB).

    Jobs draw their files from one pool of 70 files per template, which keeps
    set-up writes small; within a job every contract name is distinct.
    """
    per_template = 35
    pool = root / "pool"
    entries = _write_files(pool, [t for t in templates for _ in range(2 * per_template)], "p")
    jobs = []
    for r in range(20):
        chosen = []
        for k in range(len(templates)):
            chosen += rng.sample(entries[2 * per_template * k:2 * per_template * (k + 1)], per_template)
        rng.shuffle(chosen)
        jobs.append(_files_job(pool, f"bulk{r:02d}", chosen, check=False))
    return jobs


# --- scenario-heavy --------------------------------------------------------------


def _draw_params(rng: random.Random, sid: str) -> dict[str, Any]:
    """Parameters inside each scenario's valid range, kept cheap to run.

    Cheap means well below the lightest fixed slow job, so job_ms_tail falls
    among the fixed jobs whatever the seed.
    """
    if sid == "S1":
        return {
            "downtime_s": rng.randrange(0, 10_000),
            "down_start_s": rng.randrange(0, 3_600),
            "horizon_s": rng.randrange(3_600, 15_000),
            "update_interval_s": rng.randrange(60, 300),
            "positions": rng.randrange(1, 50),
            "start_price_cents": rng.randrange(1_000, 100_000),
            "volatility_bp": rng.randrange(0, 500),
        }
    if sid == "S2":
        interval = rng.randrange(1, 31)
        return {
            "block_interval_s": interval,
            "sync_period_s": interval * rng.randrange(1, 11),
            "horizon_s": rng.randrange(1_000, 10_000),
            "genesis_number": rng.randrange(0, 20_000_000),
        }
    if sid == "S3":
        return {
            "l1_sender": f"0x{rng.getrandbits(160):040x}",
            "sender_kind": rng.choice(["contract", "externally_owned"]),
            "offset": f"0x{rng.getrandbits(160):040x}",
        }
    if sid == "S4":
        return {
            "block_gas_limit": rng.randrange(1_000_000, 30_000_001),
            "base_gas": rng.randrange(21_000, 200_000),
            "per_iteration_gas": rng.randrange(5_000, 100_000),
            "push_gas": rng.randrange(21_000, 100_000),
            "push_calldata_bytes": rng.randrange(0, 512),
            "l1_gas_price_wei": rng.randrange(1, 100) * 10**9,
            "l2_gas_price_wei": rng.randrange(1, 1_000) * 10**6,
            "calldata_price_l1_wei": rng.randrange(1, 100) * 10**10,
        }
    provided = rng.randrange(1_000, 10_000)
    return {  # S5: auto_gas fits the gas provided, auto_fail_gas does not
        "submission_fee": rng.randrange(0, 5_000),
        "l2_gas_provided": provided,
        "auto_gas_required": rng.randrange(0, provided + 1),
        "auto_fail_gas_required": rng.randrange(provided + 1, 2 * provided),
        "callvalue": rng.randrange(0, 1_000_000),
        "manual_submission_fee": rng.randrange(0, 5_000),
        "manual_l2_gas": rng.randrange(0, 10_000),
        "l1_direct_fee": rng.randrange(0, 10_000),
        "escrow_callvalue": rng.random() < 0.5,
    }


# The slow inputs ROADMAP names, each with lighter steps, pinned so every seed
# runs them. There are enough of them for job_ms_tail to fall among them.
HEAVY_FIXED: tuple[tuple[str, dict[str, Any]], ...] = (
    ("S1", {"horizon_s": 60_000, "downtime_s": 40_000, "update_interval_s": 10}),
    ("S1", {"horizon_s": 45_000, "downtime_s": 30_000, "update_interval_s": 10}),
    ("S1", {"horizon_s": 30_000, "downtime_s": 20_000, "update_interval_s": 10}),
    ("S2", {"horizon_s": 1_000_000}),
    ("S2", {"horizon_s": 750_000}),
    ("S2", {"horizon_s": 500_000}),
    ("S2", {"horizon_s": 250_000}),
    ("S4", {"per_iteration_gas": 1}),
    ("S4", {"per_iteration_gas": 2}),
    ("S4", {"per_iteration_gas": 3}),
    ("S4", {"per_iteration_gas": 4}),
    ("S4", {"per_iteration_gas": 6}),
)


def build_scenario_heavy(rng: random.Random, templates: list[Template], root: Path) -> list[Job]:
    """The 12 slow fixed jobs, and two drawn jobs per scenario id, each listed twice."""
    jobs = [
        scenario_job(root, f"fixed{k:02d}-{sid}", sid, rng.randrange(2**31), params)
        for k, (sid, params) in enumerate(HEAVY_FIXED)
    ]
    for sid in SCENARIO_IDS:
        for k in range(2):
            jobs += [scenario_job(root, f"{sid}-{k}", sid, rng.randrange(2**31),
                                  _draw_params(rng, sid))] * 2
    rng.shuffle(jobs)
    return jobs


# --- replay-ledger ---------------------------------------------------------------


def event_script(rng: random.Random, n_events: int) -> tuple[list[dict], dict[str, Any]]:
    """A write-heavy event script and the outcome a correct replay must give.

    The expectation is tracked here from the documented semantics: ticket
    states follow the lifecycle diagram, reverted creations are the ones
    whose funds fall short of the requirement.
    """
    events: list[dict] = []
    submitted: list[str] = []
    states: dict[str, str] = {}
    created_at: dict[str, int] = {}
    gas_provided: dict[str, int] = {}
    fresh: list[str] = []  # created, awaiting auto-redeem
    buffered: list[str] = []
    reverted: list[str] = []
    at = 0
    down = False
    next_outage = rng.randrange(20_000, 80_000)
    outage_end = 0
    while len(events) < n_events:
        at += rng.randrange(0, 300)
        if not down and at >= next_outage:
            down, outage_end = True, at + rng.randrange(3_600, 2 * 86_400)
            events.append({"at": at, "action": "sequencer_down"})
            continue
        if down and at >= outage_end:
            down, next_outage = False, at + rng.randrange(20_000, 120_000)
            events.append({"at": at, "action": "sequencer_up"})
            continue
        roll = rng.random()
        if roll < 0.50:
            tx_id = f"tx{len(submitted)}"
            submitted.append(tx_id)
            delayed = rng.random() < 0.3
            ev = {"at": at, "action": "submit_tx", "id": tx_id,
                  "origin": "delayed_inbox" if delayed else "direct_to_sequencer",
                  "gas_price": rng.randrange(1, 10**9), "gas_limit": rng.randrange(21_000, 10**6)}
            if delayed and rng.random() < 0.1:
                ev["underpriced"] = True
            events.append(ev)
        elif roll < 0.62:
            events.append({"at": at, "action": "tick"})
        elif roll < 0.77:
            tid = f"t{len(states) + len(reverted)}"
            fee, gas, value = rng.randrange(0, 5_000), rng.randrange(1_000, 50_000), rng.randrange(0, 10**6)
            need = fee + gas + value
            short = rng.random() < 0.05
            funds = need - rng.randrange(1, need + 1) if short else need + rng.randrange(0, 1_000)
            events.append({"at": at, "action": "create_ticket", "id": tid,
                           "funds_provided": funds, "required": need, "submission_fee": fee,
                           "l2_gas_provided": gas, "callvalue": value,
                           "refund_address": rng.getrandbits(160),
                           "l1_gas_spent": rng.randrange(0, 100_000),
                           "escrow_callvalue": rng.random() < 0.5})
            if short:
                reverted.append(tid)
            else:
                states[tid], created_at[tid], gas_provided[tid] = "created", at, gas
                fresh.append(tid)
        elif roll < 0.91:
            if not fresh:
                continue
            tid = fresh.pop(rng.randrange(len(fresh)))
            ok = rng.random() < 0.6
            gas = gas_provided[tid]
            need = rng.randrange(0, gas + 1) if ok else rng.randrange(gas + 1, 2 * gas + 2)
            events.append({"at": at, "action": "auto_redeem", "id": tid, "l2_gas_required": need})
            states[tid] = "auto_redeemed" if ok else "buffered"
            if not ok:
                buffered.append(tid)
        elif roll < 0.94:
            # manual redeems lag failed auto-redeems, so some tickets expire
            open_now = [t for t in buffered if at < created_at[t] + BUFFER_LIFETIME_S]
            if not open_now:
                continue
            tid = rng.choice(open_now)
            buffered.remove(tid)
            events.append({"at": at, "action": "manual_redeem", "id": tid,
                           "new_submission_fee": rng.randrange(0, 5_000),
                           "l2_gas": rng.randrange(0, 50_000)})
            states[tid] = "manually_redeemed"
        elif roll < 0.98:
            events.append({"at": at, "action": "tick"})
        else:
            events.append({"at": at, "action": "expire_tickets"})
            for tid in [t for t in buffered if at >= created_at[t] + BUFFER_LIFETIME_S]:
                buffered.remove(tid)
                states[tid] = "expired"
    expect = {"submitted": submitted, "tickets": states, "reverted": sorted(reverted)}
    return events, expect


def build_replay_ledger(rng: random.Random, templates: list[Template], root: Path) -> list[Job]:
    """10 event scripts of 15000 events each."""
    root.mkdir(parents=True, exist_ok=True)
    jobs = []
    for r in range(10):
        events, expect = event_script(rng, 15_000)
        path = root / f"script{r:02d}.json"
        data = json.dumps(events).encode("utf-8")
        path.write_bytes(data)
        jobs.append(Job("replay", f"script{r:02d}", [str(path)], root, expect, len(data), len(events)))
    return jobs


# name -> build(rng, templates, input root) -> job list
WORKLOADS: dict[str, Callable[[random.Random, list[Template], Path], list[Job]]] = {
    "ci-small": build_ci_small,
    "analyze-bulk": build_analyze_bulk,
    "scenario-heavy": build_scenario_heavy,
    "replay-ledger": build_replay_ledger,
}
