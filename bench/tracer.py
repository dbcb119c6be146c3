"""Run one benchmark job in this process, with spans around arbmigrate's public functions.

Usage: python3 bench/tracer.py cli ARG...      (the arguments of one `arbmigrate` command)
       python3 bench/tracer.py replay SCRIPT   (one event script, as replay_driver.py runs it)

The spans are recorded here, around calls into each module, so the program
needs no instrumentation of its own. Spans and counters stay in memory
and are printed once, as one JSON object, when the job ends: the job's exit
code and standard output, its spans, per-name totals, per-module time and
the layer counters. After an analyze job the tracer also probes each source
the job parsed: it parses it again, then runs one full `walk` and `analyze`
once per rule. Probe time is reported apart and lies outside the job span.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import sys
import traceback
from collections import defaultdict
from time import perf_counter_ns

import arbmigrate.cli
from arbmigrate import aliasing, chainmodel, gasmodel, retryable, rules, scenarios, sequencer
from arbmigrate.minisol import lexer, nodes, parser

# Spans beyond this many per job still count in the totals but are not listed.
SPAN_CAP = 5000


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, int, int, int]] = []  # id, name, start, end, parent id
        self.dropped = 0
        self.stack: list[list] = []  # open spans: [id, name, module, child ns, start]
        self.next_id = 0
        self.totals: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])  # calls, ns, self ns
        self.module_ns: dict[str, int] = defaultdict(int)  # outermost spans only
        self.module_calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, int] = defaultdict(int)
        self.active = True  # off while the tracer probes, so probes record nothing

    def open(self, name: str, module: str) -> list:
        self.next_id += 1
        frame = [self.next_id, name, module, 0, 0]
        self.stack.append(frame)
        frame[4] = perf_counter_ns()
        return frame

    def close(self, frame: list) -> None:
        end = perf_counter_ns()
        self.stack.pop()
        span_id, name, module, child_ns, start = frame
        duration = end - start
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += duration
        total = self.totals[name]
        total[0] += 1
        total[1] += duration
        total[2] += duration - child_ns
        self.module_calls[module] += 1
        if parent is None or parent[2] != module:
            self.module_ns[module] += duration
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, name, start, end, parent[0] if parent else 0))
        else:
            self.dropped += 1

    def wrap(self, fn, name, module: str, after=None):
        """fn wrapped in a span; name may be a function of the call's arguments."""

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = self.open(name if isinstance(name, str) else name(args), module)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(frame)
            if after is not None:
                after(args, result)
            return result

        return traced


def _rebind(original, replacement) -> None:
    """Point every arbmigrate module global that names original at replacement."""
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("arbmigrate"):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)


def _layer(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


def install(tracer: Tracer, sources: list) -> None:
    """Wrap the public functions of each measured module.

    The arguments of every parse_source call are kept in sources, so the
    probe can parse them again after the job without holding ASTs during it.
    """
    count = tracer.counters

    def tokens(args, result):
        count["lexer.tokens"] += len(result)

    def submitted(args, result):
        count["sequencer.delayed_peak"] = max(count["sequencer.delayed_peak"],
                                              len(args[0].delayed_inbox))

    def expired(args, result):
        count["retryable.expire_expired"] += len(result)

    plain = [
        (lexer, "tokenize", "lexer.tokenize", tokens),
        (parser, "parse_source", "parser.parse", lambda args, result: sources.append(args)),
        (parser, "annotate_bindings", "parser.bind", None),
        (rules, "analyze", "rules.analyze", None),
        (rules, "findings_to_json", "rules.serialize", None),
        (scenarios, "run_scenario", lambda args: f"scenarios.{args[0]}", None),
        (scenarios, "serialize_report", "scenarios.serialize", None),
        (scenarios, "replay_events", "scenarios.replay", None),
        (retryable, "create_ticket", "retryable.create", None),
        (retryable, "auto_redeem", "retryable.redeem", None),
        (retryable, "manual_redeem", "retryable.redeem", None),
        (retryable, "expire_tickets", "retryable.expire", expired),
    ]
    for module, fnames in (
        (chainmodel, ("l1_block_number_at", "l2_view_l1_number_at", "sync_state_at",
                      "l2_timestamp_read", "block_number_table")),
        (gasmodel, ("gas_limit", "gas_fees", "quote", "savings_table", "render_savings_table")),
        (aliasing, ("apply_alias", "undo_alias", "l2_msg_sender")),
    ):
        plain += [(module, f, f"{_layer(module)}.{f}", None) for f in fnames]
    for module, fname, name, after in plain:
        original = getattr(module, fname)
        _rebind(original, tracer.wrap(original, name, _layer(module), after))

    cls = sequencer.Sequencer
    cls.submit = tracer.wrap(cls.submit, "sequencer.submit", "sequencer", submitted)
    traced_tick = tracer.wrap(cls.tick, "sequencer.tick", "sequencer")

    def tick(seq, now):
        down = seq.status is sequencer.SequencerStatus.DOWN
        queued = len(seq.delayed_inbox)
        executed = traced_tick(seq, now)
        if down:  # a down tick scans the whole delayed inbox for force inclusion
            count["sequencer.down_tick_scanned"] += queued
            count["sequencer.down_tick_included"] += len(executed)
        return executed

    cls.tick = tick
    traced_expire = retryable.expire_tickets

    def expire(tickets, *args, **kwargs):
        tickets = list(tickets)
        count["retryable.expire_scanned"] += len(tickets)
        return traced_expire(tickets, *args, **kwargs)

    _rebind(traced_expire, expire)


def probe(sources: list, tracer: Tracer) -> None:
    """One full walk and one single-rule analyze per rule, for each unit the job parsed."""
    count = tracer.counters
    config = rules.RuleConfig()
    rule_ids = [rule.id for rule in rules.rule_catalog()]
    for args in sources:
        unit = parser.parse_source(*args)
        start = perf_counter_ns()
        count["parser.nodes"] += sum(1 for _ in nodes.walk(unit))
        count["nodes.walk_ns"] += perf_counter_ns() - start
        for rule_id in rule_ids:
            start = perf_counter_ns()
            found = rules.analyze(unit, config.with_enabled([rule_id]))
            count[f"rules.{rule_id}.ns"] += perf_counter_ns() - start
            count[f"rules.{rule_id}.findings"] += len(found)


def main(argv: list[str]) -> int:
    kind, args = argv[0], argv[1:]
    tracer = Tracer()
    sources: list = []
    install(tracer, sources)
    out = io.StringIO()
    if kind == "cli":
        pathlib.Path.read_text = tracer.wrap(pathlib.Path.read_text, "cli.read", "cli")

        def run() -> int:
            return arbmigrate.cli.main(args)

    else:
        import replay_driver

        def run() -> int:
            out.write(replay_driver.run(args[0]))
            return 0

    frame = tracer.open("job", "job")
    try:
        with contextlib.redirect_stdout(out):
            code = run()
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # what the interpreter does with an uncaught error
        traceback.print_exc()
        code = 1
    finally:
        tracer.close(frame)
    job_ns, job_self_ns = tracer.totals["job"][1], tracer.totals["job"][2]
    start = perf_counter_ns()
    tracer.active = False
    probe(sources, tracer)
    doc = {
        "exit": code,
        "stdout": out.getvalue(),
        "job_ns": job_ns,
        "uncovered_ns": job_self_ns,
        "probe_ns": perf_counter_ns() - start,
        "spans": tracer.spans,
        "dropped": tracer.dropped,
        "totals": tracer.totals,
        "module_ns": tracer.module_ns,
        "module_calls": tracer.module_calls,
        "counters": tracer.counters,
    }
    sys.stdout.write(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
