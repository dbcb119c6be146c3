"""arbmigrate benchmark: seeded workloads, correctness oracles, end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads: ci-small, analyze-bulk, scenario-heavy, replay-ledger (spec.json
says why each exists). Every job runs in its own child process, one at a
time: a closed loop with a single client, which fits a two-core machine.
Children import the checkout's src/ through PYTHONPATH.

Set-up (generate the inputs, compile bytecode into a fresh cache outside
src/, warm up) runs three times and `setup_s` is its median. With --trace 0
the fixed job list then runs in passes until --seconds is spent (at least
one pass), and the end-to-end metrics come from those untraced passes. With
--trace 1 one untraced and one traced pass run instead, and the per-layer
metrics come from the traced pass (see tracer.py); the span trace is
written to bench/_out/ when the run ends.

Every job's output is checked by oracles.py. Human-readable lines come
first; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Exit code 2 means the benchmark
could not set up, for example because src/ or tests/corpus/ is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import oracles
from workloads import WORKLOADS, Job, analyze_job, event_script, load_templates, scenario_job

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CORPUS = ROOT / "tests" / "corpus"
SPEC = json.loads((BENCH / "spec.json").read_text(encoding="utf-8"))

PY = sys.executable
# What the installed `arbmigrate` console script runs.
CLI_ENTRY = "import sys; from arbmigrate.cli import main; sys.exit(main())"
SETUP_REPEATS = 3
PROBE_RUNS = 10  # children per start-up and import measurement
RUN_BUDGET_S = 170  # stop starting jobs after this long; a run must end within 180 s
JOB_TIMEOUT_S = 60
# End-to-end times are reported at a reference speed: each measured time is
# scaled by REF_START_S / (wall time of a bare interpreter start measured
# around it), the median over CALIBRATION_WINDOW neighbouring calibrations.
REF_START_S = 0.050
CALIBRATION_WINDOW = 5


class SetupError(Exception):
    """The checkout cannot be benchmarked."""


@dataclass
class Result:
    code: int
    stdout: str
    wall: float  # seconds from spawn to reaped
    rss_kb: int  # child's peak resident set


def bare_env() -> dict[str, str]:
    """The caller's environment without any PYTHON* setting."""
    return {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}


def child_env(pycache: Path, write: bool) -> dict[str, str]:
    """The interpreter state every child runs under, the same on every commit."""
    env = bare_env()
    env["PYTHONPATH"] = str(SRC)
    # bytecode lives in a cache of the run's own, never in src/, so whether
    # src/**/__pycache__ exists does not matter
    env["PYTHONPYCACHEPREFIX"] = str(pycache)
    if not write:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def command(job: Job, traced: bool) -> list[str]:
    if traced:
        return [PY, str(BENCH / "tracer.py"), "replay" if job.kind == "replay" else "cli", *job.args]
    if job.kind == "replay":
        return [PY, str(BENCH / "replay_driver.py"), *job.args]
    return [PY, "-c", CLI_ENTRY, *job.args]


def run_child(cmd: list[str], cwd: Path, env: dict[str, str], stderr_path: Path,
              timeout: float) -> Result:
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            proc.stdout.close()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Result(proc.returncode, out.decode("utf-8", "replace"), wall, usage.ru_maxrss)


class Runner:
    """Runs jobs, checks each output, and keeps the failures and output digests."""

    def __init__(self, work: Path, env: dict[str, str], deadline: float) -> None:
        self.work = work
        self.env = env
        self.deadline = deadline
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, job: Job, traced: bool = False) -> tuple[Result, dict | None]:
        timeout = max(1.0, min(JOB_TIMEOUT_S, self.deadline - time.perf_counter()))
        res = run_child(command(job, traced), job.cwd, self.env, self.work / "stderr.txt", timeout)
        trace = None
        code, stdout = res.code, res.stdout
        if traced and res.code == 0:
            trace = json.loads(stdout)
            code, stdout = trace["exit"], trace["stdout"]
        self.attempted += 1
        reason = oracles.check(job, code, stdout)
        digest = hashlib.sha256(stdout.encode("utf-8")).hexdigest()
        if reason is None and self.digests.setdefault(job.key, digest) != digest:
            reason = "output bytes differ from an earlier run of the same job"
        if reason is not None:
            stderr = (self.work / "stderr.txt").read_text(errors="replace").strip()[-300:]
            self.failures.append(f"{job.key}: {reason}" + (f" | stderr: {stderr}" if stderr else ""))
        return res, trace

    def out_of_time(self) -> bool:
        return time.perf_counter() > self.deadline


def set_up(workload: str, seed: int, work: Path, trace: bool) -> tuple[list[Job], Path]:
    """Generate inputs, compile bytecode into a fresh cache and warm up."""
    setup = work / "setup"
    (setup / "inputs").mkdir(parents=True)
    templates = load_templates(CORPUS)
    jobs = WORKLOADS[workload](random.Random(seed), templates, setup / "inputs")
    pycache = setup / "pycache"
    env = child_env(pycache, write=True)
    subprocess.run([PY, "-m", "compileall", "-q", str(SRC)], env=env, check=True,
                   stdout=subprocess.DEVNULL)
    found = subprocess.run([PY, "-c", "import arbmigrate; print(arbmigrate.__file__)"],
                           env=env, capture_output=True, text=True)
    if found.returncode != 0 or not Path(found.stdout.strip()).is_relative_to(SRC):
        raise SetupError(f"children do not import arbmigrate from {SRC}: {found.stdout}{found.stderr}")
    # one job of each kind, so every module the jobs import is compiled here
    warm_root = setup / "warm"
    events, expect = event_script(random.Random(seed), 50)
    warm_root.mkdir()
    (warm_root / "script.json").write_text(json.dumps(events), encoding="utf-8")
    warm = [
        analyze_job(warm_root, "warm-analyze", templates[:2], check=True),
        scenario_job(warm_root, "warm-scenario", "S3", 0, {}, check=True),
        Job("replay", "warm-replay", [str(warm_root / "script.json")], warm_root, expect),
    ]
    runner = Runner(setup, env, time.perf_counter() + RUN_BUDGET_S)
    for job in warm:
        for traced in (False, True) if trace else (False,):
            runner.run(job, traced)
    if runner.failures:
        raise SetupError("warm-up failed: " + "; ".join(runner.failures))
    return jobs, pycache


def pct(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def calibrate() -> float:
    """Wall time of a bare interpreter start, which no checkout affects: the machine's speed now."""
    env = bare_env()
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    start = time.perf_counter()
    subprocess.run([PY, "-c", "pass"], env=env, check=True)
    return time.perf_counter() - start


def normalize(walls: list[float], calibs: list[float]) -> list[float]:
    """Each wall time in reference seconds, scaled by the calibrations around it."""
    half = CALIBRATION_WINDOW // 2
    return [
        wall * REF_START_S / statistics.median(calibs[max(0, k - half):k + half + 1])
        for k, wall in enumerate(walls)
    ]


def measure(workload: str, jobs: list[Job], runner: Runner, seconds: float) -> tuple[dict, list[str]]:
    walls: list[float] = []
    calibs: list[float] = []
    rss_kb = 0
    start = time.perf_counter()
    while not runner.out_of_time():
        pass_start = time.perf_counter()
        for job in jobs:
            if runner.out_of_time():
                break
            calibs.append(calibrate())
            res, _ = runner.run(job)
            walls.append(res.wall)
            rss_kb = max(rss_kb, res.rss_kb)
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            break
    n = len(jobs)
    n_passes = len(walls) // n
    if not n_passes:
        raise SetupError("no complete pass of the job list within the run budget")
    tail = SPEC["workloads"][workload]["tail_percentile"]
    norm = normalize(walls, calibs)
    passes = [sum(norm[p * n:(p + 1) * n]) for p in range(n_passes)]
    wall_s = statistics.median(passes)
    metrics = {
        "wall_s": wall_s,
        "job_ms_p50": 1000 * statistics.median(norm),
        "job_ms_tail": 1000 * pct(norm, tail),
        "src_kb_per_s": sum(j.input_bytes for j in jobs) / 1000 / wall_s,
        "events_per_s": sum(j.items for j in jobs) / wall_s,
        "peak_rss_mb": rss_kb / 1024,
    }
    notes = [f"passes={n_passes} jobs/pass={n} jobs={len(walls)} "
             f"calibration median {1000 * statistics.median(calibs):.1f} ms"]
    raw_passes = [sum(walls[p * n:(p + 1) * n]) for p in range(n_passes)]
    notes.append(f"raw wall time: wall_s {statistics.median(raw_passes):.3f} s, job_ms_p50 "
                 f"{1000 * statistics.median(walls):.1f} ms, job_ms_tail {1000 * pct(walls, tail):.1f} ms")
    beyond = sum(w > metrics["job_ms_tail"] / 1000 for w in norm)
    notes.append(f"job_ms_tail is p{tail} with {beyond} jobs beyond it"
                 + ("" if beyond >= 10 else " (fewer than 10: the tail is not resolved)"))
    return metrics, notes


def _median_child_ms(env: dict[str, str], code: str, inside: bool) -> float:
    """Median over PROBE_RUNS children: wall time, or the time the child prints (ns)."""
    values = []
    for _ in range(PROBE_RUNS):
        start = time.perf_counter()
        out = subprocess.run([PY, "-c", code], env=env, capture_output=True, text=True, check=True)
        values.append(int(out.stdout) / 1e6 if inside else 1000 * (time.perf_counter() - start))
    return statistics.median(values)


def trace_run(jobs: list[Job], runner: Runner) -> tuple[dict, list[str], dict]:
    """One untraced and one traced pass; per-layer metrics from the traced one."""
    untraced_walls = [runner.run(job)[0].wall for job in jobs]
    untraced = sum(untraced_walls)
    traced_wall = 0.0
    totals: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
    module_ns: dict[str, int] = defaultdict(int)
    module_calls: dict[str, int] = defaultdict(int)
    counters: dict[str, int] = defaultdict(int)
    per_job = []
    for job in jobs:
        res, doc = runner.run(job, traced=True)
        if doc is None:
            continue
        traced_wall += res.wall - doc["probe_ns"] / 1e9
        for name, (calls, ns, self_ns) in doc["totals"].items():
            t = totals[name]
            t[0] += calls
            t[1] += ns
            t[2] += self_ns
        for name, ns in doc["module_ns"].items():
            module_ns[name] += ns
        for name, calls in doc["module_calls"].items():
            module_calls[name] += calls
        for name, value in doc["counters"].items():
            counters[name] = max(counters[name], value) if name.endswith("_peak") else counters[name] + value
        per_job.append({
            "job": job.key, "kind": job.kind, "wall_ms": 1000 * res.wall,
            "in_process_ms": doc["job_ns"] / 1e6, "probe_ms": doc["probe_ns"] / 1e6,
            "uncovered_frac": doc["uncovered_ns"] / doc["job_ns"],
            "spans": doc["spans"], "spans_dropped": doc["dropped"],
        })
    env = runner.env
    ms = lambda ns: ns / 1e6  # noqa: E731
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    m: dict[str, float] = {
        "cli.startup_ms": _median_child_ms(env, "pass", inside=False),
        "cli.import_ms": _median_child_ms(
            env, "import time; t = time.perf_counter_ns(); import arbmigrate.cli; "
                 "print(time.perf_counter_ns() - t)", inside=True),
        "cli.read_ms": ms(totals["cli.read"][1]),
        "lexer.tokenize_ms": ms(totals["lexer.tokenize"][1]),
        "lexer.tokens": counters["lexer.tokens"],
        "lexer.tokens_per_s": ratio(counters["lexer.tokens"], totals["lexer.tokenize"][1] / 1e9),
        "parser.parse_ms": ms(totals["parser.parse"][2]),
        "parser.bind_ms": ms(totals["parser.bind"][1]),
        "parser.nodes": counters["parser.nodes"],
        "nodes.walk_ms": ms(counters["nodes.walk_ns"]),
        "rules.analyze_ms": ms(totals["rules.analyze"][1]),
    }
    for rule_id in SPEC["rule_ids"]:
        m[f"rules.{rule_id}.ms"] = ms(counters[f"rules.{rule_id}.ns"])
        m[f"rules.{rule_id}.findings"] = counters[f"rules.{rule_id}.findings"]
    m["rules.serialize_ms"] = ms(totals["rules.serialize"][1])
    for sid in ("S1", "S2", "S3", "S4", "S5"):
        m[f"scenarios.{sid}.ms"] = ms(totals[f"scenarios.{sid}"][2])
    m["scenarios.serialize_ms"] = ms(totals["scenarios.serialize"][1])
    for module in ("chainmodel", "gasmodel", "aliasing"):
        m[f"{module}.calls"] = module_calls[module]
        m[f"{module}.ms"] = ms(module_ns[module])
    m.update({
        "sequencer.submit_calls": totals["sequencer.submit"][0],
        "sequencer.submit_ms": ms(totals["sequencer.submit"][1]),
        "sequencer.tick_calls": totals["sequencer.tick"][0],
        "sequencer.tick_ms": ms(totals["sequencer.tick"][1]),
        "sequencer.delayed_peak": counters["sequencer.delayed_peak"],
        "sequencer.down_tick_yield": ratio(counters["sequencer.down_tick_included"],
                                           counters["sequencer.down_tick_scanned"]),
        "scenarios.replay_ms": ms(totals["scenarios.replay"][2]),
        "retryable.create_calls": totals["retryable.create"][0],
        "retryable.create_ms": ms(totals["retryable.create"][1]),
        "retryable.redeem_ms": ms(totals["retryable.redeem"][1]),
        "retryable.expire_calls": totals["retryable.expire"][0],
        "retryable.expire_ms": ms(totals["retryable.expire"][1]),
        "retryable.expire_yield": ratio(counters["retryable.expire_expired"],
                                        counters["retryable.expire_scanned"]),
        "trace.overhead_s": traced_wall - untraced,
        "trace.uncovered_frac": statistics.median(j["uncovered_frac"] for j in per_job) if per_job else 0.0,
    })
    notes = [f"untraced pass {untraced:.3f} s, traced pass {traced_wall:.3f} s (probe time excluded)"]
    notes += baseline_notes(jobs, m, totals, untraced_walls)
    return m, notes, {"jobs": per_job}


def baseline_notes(jobs: list[Job], m: dict, totals: dict, untraced_walls: list[float]) -> list[str]:
    """The traced figures next to ROADMAP's hand-measured baseline."""
    notes = []
    kb = sum(j.input_bytes for j in jobs if j.kind == "analyze") / 1000
    if kb:
        scale = 726.15 / kb  # ROADMAP measured the corpus repeated 150 times: 726 KB
        notes += [
            f"ROADMAP tokenize ~111k tokens/s: here {m['lexer.tokens_per_s']:.0f} tokens/s",
            f"ROADMAP tokenize+parse+bind 2.17 s per 726 KB: here {totals['parser.parse'][1] / 1e9 * scale:.2f} s",
            f"ROADMAP analyze 0.88 s per 726 KB: here {m['rules.analyze_ms'] / 1000 * scale:.2f} s",
        ]
        analyze_ms = [1000 * wall for j, wall in zip(jobs, untraced_walls) if j.kind == "analyze"]
        notes.append(f"ROADMAP CLI analyze ~220 ms/job (14 files) and import ~75 ms: here untraced "
                     f"analyze jobs median {statistics.median(analyze_ms):.0f} ms, "
                     f"cli.import_ms {m['cli.import_ms']:.1f}")
    return notes


def environment(pycache: Path, load: tuple[float, float, float]) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": load,
        "bytecode": "compiled in set-up into a fresh PYTHONPYCACHEPREFIX; jobs run with "
                    "PYTHONDONTWRITEBYTECODE=1",
        "bytecode_files": sum(1 for _ in pycache.rglob("*.pyc")),
        "src_pycache_in_tree": any(SRC.rglob("__pycache__")),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="arbmigrate benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=SPEC["default_seed"])
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "arbmigrate" / "__init__.py").is_file() or not (CORPUS / "labels.json").is_file():
        print(f"error: {ROOT} has no src/arbmigrate or tests/corpus/labels.json", file=sys.stderr)
        return 2
    workload = args.workload
    deadline = time.perf_counter() + RUN_BUDGET_S
    load = os.getloadavg()
    work = BENCH / "_work" / str(os.getpid())
    try:
        setups, raw_setups = [], []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(work / "setup", ignore_errors=True)
            speed = statistics.median(calibrate() for _ in range(3))
            start = time.perf_counter()
            jobs, pycache = set_up(workload, args.seed, work, bool(args.trace))
            raw_setups.append(time.perf_counter() - start)
            setups.append(raw_setups[-1] * REF_START_S / speed)
        runner = Runner(work, child_env(pycache, write=False), deadline)
        env = environment(pycache, load)
        if args.trace:
            metrics, notes, trace = trace_run(jobs, runner)
            names = [x["name"] for x in SPEC["per_layer"]]
            out = BENCH / "_out"
            out.mkdir(exist_ok=True)
            trace_path = out / f"trace-{workload}-{args.seed}.json"
            trace.update(workload=workload, seed=args.seed, env=env, metrics=metrics)
            trace_path.write_text(json.dumps(trace), encoding="utf-8")
            notes.append(f"spans written to {trace_path.relative_to(ROOT)}")
        else:
            metrics, notes = measure(workload, jobs, runner, args.seconds)
            metrics["setup_s"] = statistics.median(setups)
            notes.append("setup_s runs (raw wall time): " + ", ".join(f"{s:.3f}" for s in raw_setups))
            names = [x["name"] for x in SPEC["end_to_end"]]
    except (SetupError, subprocess.CalledProcessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = {x["name"]: x["unit"] for x in SPEC["end_to_end"] + SPEC["per_layer"]}
    failed = len(runner.failures)
    print(f"# workload={workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"# env {json.dumps(env)}")
    for note in notes:
        print(f"# {note}")
    for name in names:
        print(f"{name:32} {metrics[name]:14.6g} {units[name]}")
    print(f"{'failed_frac':32} {failed / runner.attempted:14.6g} ratio ({failed}/{runner.attempted} jobs)")
    for failure in runner.failures[:10]:
        print(f"# FAILED {failure}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
