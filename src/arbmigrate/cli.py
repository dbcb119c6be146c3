"""Command-line interface.

Exit codes: 0 = ran (and, with --check, nothing beyond expectation);
1 = findings/divergence beyond expectation in check mode; 2 = usage error
(bad arguments, unknown ids, unparseable input) or output that could not be written, a
closed stdout included.  A closed stderr loses the error line, never the exit code.

Run as the program, ``main()`` turns the cyclic garbage collector off.  That is safe
because nothing it builds needs it: ``analyze`` unbinds each unit (``minisol.unbind``)
once its outcome is taken, which leaves the unit acyclic, so reference counting frees
it, and whatever else is left dies with the process at ``os._exit``.
"""

from __future__ import annotations

import atexit
import contextlib
import errno
import gc
import marshal
import os
import sys
from pathlib import Path
from types import SimpleNamespace

from . import __version__

# `analyze` forks one worker per usable CPU once each would get this many files:
# a forked worker paid for itself at about 16 files in fresh-process runs.  Where
# os.sched_getaffinity is missing (every platform without fork, and macOS), it never forks.
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
_PER_WORKER = 32
_BATCH = 32  # files a slice reads, then parses, then analyzes before the next (_slice)


def _say(line: str) -> None:
    """One stderr line, dropped if stderr is closed or fails: each comes with exit 2 anyway."""
    if sys.stderr is not None:
        with contextlib.suppress(OSError):
            sys.stderr.write(line + "\n")


def _usage_error(message: str) -> int:
    _say(f"error: {message}")
    return 2


def _slice(paths: list[str], config):
    """Each file's stderr lines and its findings as plain tuples, None once the file is
    unreadable or unparseable (values marshal can send), in path order.  The files go in
    batches of _BATCH, phase by phase, so each phase's code stays hot: every file is read,
    then every text parsed, then each unit analyzed and unbound, so reference counting
    frees it before its outcome is yielded.  An exception that reading or parsing a file
    raised is raised at that file's turn, after every earlier file's outcome."""
    from .minisol import MiniSolSyntaxError, parse_source, unbind
    from .rules import analyze

    def read(path):  # without a leading byte-order mark, so positions count from the text
        try:
            return Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
        except (OSError, UnicodeDecodeError) as exc:
            return [f"error: cannot read {path}: {exc}"]
        except Exception as exc:  # held until this file's turn
            return exc

    def parse(path, text):
        try:
            return parse_source(text, path=path) if text.__class__ is str else text
        except MiniSolSyntaxError as exc:
            return [f"{path}:{diag}" for diag in exc.diagnostics]
        except Exception as exc:  # held until this file's turn
            return exc

    def finish(unit):
        if isinstance(unit, Exception):
            raise unit
        if unit.__class__ is list:  # the file's stderr lines
            return unit, None
        found = [tuple(finding) for finding in analyze(unit, config)]
        unbind(unit)
        return [], found

    for first in range(0, len(paths), _BATCH):
        batch = paths[first:first + _BATCH]
        units = [parse(path, text) for path, text in zip(batch, [read(path) for path in batch])]
        units.reverse()
        while units:  # popped, so no unit outlives its outcome's yield
            yield finish(units.pop())


def _outcomes(paths: list[str], config):
    """Each path's outcome from _slice, in path order.  The paths are split into contiguous
    slices, one per worker, and a child is forked for each slice after the first;
    the parent computes its own slice, and every slice whose worker sent nothing
    (its fork failed, or it raised or died) at that slice's place.  With one
    worker nothing forks.  When the generator ends or is closed, every read end
    is closed, so no child stays blocked on a full pipe, and then every child is
    reaped."""
    count = max(1, min(_WORKERS, len(paths) // _PER_WORKER))
    bounds = [len(paths) * k // count for k in range(count + 1)]
    children = []  # (pid, read end), one per slice after the first until a fork fails
    try:
        for start, stop in zip(bounds[1:], bounds[2:]):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: the parent computes the rest
                os.close(read)
                os.close(write)
                break
            if pid == 0:  # the worker: it never returns into the caller
                try:
                    os.close(read)
                    for _, pipe in children:
                        pipe.close()
                    outcomes = list(_slice(paths[start:stop], config))
                    with open(write, "wb") as pipe:
                        pipe.write(marshal.dumps(outcomes))
                finally:
                    os._exit(0)
            os.close(write)
            children.append((pid, open(read, "rb")))
        for k, (start, stop) in enumerate(zip(bounds, bounds[1:])):
            sent = []
            if 0 < k <= len(children):
                with contextlib.suppress(EOFError, ValueError):  # the worker sent nothing
                    sent = marshal.loads(children[k - 1][1].read())
            yield from sent or _slice(paths[start:stop], config)
    finally:
        for _, pipe in children:
            pipe.close()
        for pid, _ in children:
            os.waitpid(pid, 0)


def _cmd_analyze(args: SimpleNamespace) -> tuple[int, str] | int:
    from .rules import Finding, RuleConfig, findings_to_json, findings_to_text
    config = RuleConfig()
    if args.config:
        try:
            config = RuleConfig.from_file(args.config)
        except (OSError, ValueError, RecursionError) as exc:  # json: RecursionError on deep nesting
            return _usage_error(f"cannot load rule config: {exc}")
    if args.rules is not None:
        rule_ids = [r.strip() for r in args.rules.split(",") if r.strip()]
        if not rule_ids:
            return _usage_error(f"--rules names no rule id: {args.rules!r}")
        try:
            config = config.with_enabled(rule_ids)
        except ValueError as exc:
            return _usage_error(str(exc))

    findings = []
    files = []
    status = 0  # 2 once any file is unreadable or unparseable; every bad file is reported
    paths = list(dict.fromkeys(args.paths))  # each distinct path once, in the order given
    with contextlib.closing(_outcomes(paths, config)) as outcomes:
        for path, (lines, found) in zip(paths, outcomes):
            for line in lines:
                _say(line)
            if found is None:
                status = 2
            else:
                files.append(path)
                findings.extend(map(Finding._make, found))
    if status:
        return status

    write = findings_to_json if args.format == "json" else findings_to_text
    return (1 if args.check and findings else 0), write(findings, files)


def _cmd_scenario_list(args: SimpleNamespace) -> tuple[int, str]:
    from .scenarios import list_scenarios
    text = ""
    for spec in list_scenarios():
        text += f"{spec.id}  {spec.title}\n    risk: {spec.risk}\n"
        if spec.linked_rules:
            text += f"    rules: {', '.join(spec.linked_rules)}\n"
        for key, declared in spec.params.items():
            text += f"    param: {key}={declared.default}  ({declared.describe()})\n"
    return 0, text


def _cmd_scenario_run(args: SimpleNamespace) -> tuple[int, str] | int:
    from .scenarios import ScenarioError, run_scenario, serialize_report
    params = {}
    for item in args.param or []:
        if "=" not in item:
            return _usage_error(f"--param expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        params[key] = value
    try:
        report = run_scenario(args.id, params, seed=args.seed)
    except ScenarioError as exc:
        return _usage_error(str(exc))
    return (1 if args.check and report.divergent else 0), serialize_report(report)  # main writes --out


def _cmd_gas_calc(args: SimpleNamespace) -> tuple[int, str] | int:
    from .gasmodel import GasParams, quote
    try:
        q = quote(
            GasParams(
                gas_used_l2=args.gas_used_l2,
                calldata_price_l1=args.calldata_price_l1,
                calldata_size_l1=args.calldata_size_l1,
                gas_price_l2=args.gas_price_l2,
            )
        )
    except ValueError as exc:
        return _usage_error(str(exc))
    return 0, f"gas_limit: {q.gas_limit}\ngas_fees: {q.gas_fees}\n"


def _cmd_gas_table(args: SimpleNamespace) -> tuple[int, str]:
    from .gasmodel import cost_comparison_table, render_savings_table
    return 0, render_savings_table(cost_comparison_table()) + "\n"


def _cmd_alias(args: SimpleNamespace) -> tuple[int, str] | int:
    from .aliasing import ALIAS_OFFSET, Address, apply_alias, undo_alias
    try:
        address = Address.from_hex(args.address)
        offset = Address.from_hex(args.offset) if args.offset else ALIAS_OFFSET
    except ValueError as exc:
        return _usage_error(str(exc))
    transform = apply_alias if args.direction == "apply" else undo_alias
    return 0, transform(address, offset).checksummed() + "\n"


def _cmd_checklist(args: SimpleNamespace) -> tuple[int, str] | int:
    from .rules import findings_from_json, migration_checklist, render_checklist
    try:
        text = Path(args.findings).read_text(encoding="utf-8")
        findings = findings_from_json(text)
    except (OSError, ValueError, RecursionError) as exc:
        return _usage_error(f"cannot load findings: {exc}")
    return 0, render_checklist(migration_checklist(findings))


def _cmd_sim(args: SimpleNamespace) -> tuple[int, str] | int:
    from .chainmodel import L1Chain, L2View, block_number_table
    try:
        chain = L1Chain(genesis_number=args.genesis, block_interval=args.block_interval)
        view = L2View(sync_period=args.sync_period)
        rows = block_number_table(chain, view, args.horizon, args.step)
    except ValueError as exc:
        return _usage_error(str(exc))
    return 0, f"{'t(s)':<8}{'L1 block.number':<18}{'L2 block.number':<18}\n" + "".join(
        f"{t:<8}{l1:<18}{l2:<18}\n" for t, l1, l2 in rows)


def _cmd_rules(args: SimpleNamespace) -> tuple[int, str]:
    from .rules import rule_catalog
    return 0, "".join(f"{rule.id}  [{rule.severity.value}]  {rule.category.value}\n    {rule.description}\n"
                      f"    fix: {rule.remediation}\n" for rule in rule_catalog())


# Each command's words, then its handler (it returns its exit code and stdout text, or a bare 2),
# positionals and options, each (name, kind, convert, default, required): kind is "switch", "value"
# or "append" (a value that repeats; such a positional takes every positional from its place on),
# convert int, a choice tuple or None.
_COMMANDS = {
    ("analyze",): (_cmd_analyze, [("paths", "append", None, None, True)], [
        ("--rules", "value", None, None, False), ("--config", "value", None, None, False),
        ("--format", "value", ("text", "json"), "text", False), ("--check", "switch", None, False, False)]),
    ("scenario", "list"): (_cmd_scenario_list, [], []),
    ("scenario", "run"): (_cmd_scenario_run, [("id", "value", None, None, True)], [
        ("--param", "append", None, None, False), ("--seed", "value", int, 0, False),
        ("--out", "value", None, None, False), ("--check", "switch", None, False, False)]),
    ("gas", "calc"): (_cmd_gas_calc, [], [(flag, "value", int, None, True) for flag in (
        "--gas-used-l2", "--calldata-price-l1", "--calldata-size-l1", "--gas-price-l2")]),
    ("gas", "table"): (_cmd_gas_table, [], []),
    ("alias",): (_cmd_alias, [("direction", "value", ("apply", "undo"), None, True),
                              ("address", "value", None, None, True)], [("--offset", "value", None, None, False)]),
    ("checklist",): (_cmd_checklist, [("findings", "value", None, None, True)], []),
    ("sim",): (_cmd_sim, [], [(flag, "value", int, default, False) for flag, default in (
        ("--genesis", 1000), ("--block-interval", 15), ("--sync-period", 60), ("--horizon", 75), ("--step", 15))]),
    ("rules",): (_cmd_rules, [], []),
}
_HELP = {flag: (flag, "help", None, None, False) for flag in ("-h", "--help")}


def _usage(path: tuple) -> str:
    lines = [] if path else ["usage: arbmigrate --version"]
    for words, (_, positionals, options) in _COMMANDS.items():
        args = [name.upper() + "..." * (kind == "append") for name, kind, *_ in positionals]
        for flag, kind, convert, _, required in options:
            hint = "|".join(convert) if isinstance(convert, tuple) else "N" if convert else "TEXT"
            shown = flag if kind == "switch" else f"{flag} {hint}"
            args.append((shown if required else f"[{shown}]") + "..." * (kind == "append"))
        if words[:len(path)] == path:
            lines.append(" ".join(["usage: arbmigrate", *words, *args]))
    return "\n".join(lines)


def _is_flag(word: str, flags) -> bool:
    # a word that starts with a short flag or abbreviates a long one, or any word that starts with
    # a dash but "-", a negative number (as the regex -\d+|-\d*\.\d+ matches) and words with a space
    if word[:2] in flags or word[:2] == "--" and any(flag.startswith(word.partition("=")[0]) for flag in flags):
        return True
    whole, dot, fraction = word[1:].removesuffix("\n").partition(".")
    number = (whole + fraction).isdecimal() and bool(fraction or not dot)
    return word[:1] == "-" and len(word) > 1 and " " not in word and not number


def _parse(words: list[str]):
    """The handler and namespace that words name, 0 and the -h or --version text, or an exit code.  A
    wrong value stops the reading; unknown flags and missing or surplus arguments are reported at the
    end, after any -h."""
    path, command, values, late, dashes, count, last, words = (), None, {}, None, None, 0, -1, iter(words)
    options = {**_HELP, "--version": ("--version", "version", None, None, False)}
    for at, word in enumerate(words):
        if dashes is None and word != "--" and _is_flag(word, options):
            flag, eq, value = word.partition("=")
            option = options.get(flag)  # an abbreviation is no flag
            if option is None:
                late = late or f"unknown option {word!r}"
                continue
            if eq and option[1] not in ("value", "append"):
                return _usage_error(f"{flag} takes no value")
            if option[1] in ("help", "version"):
                return 0, (_usage(path) if option[1] == "help" else f"arbmigrate {__version__}") + "\n"
            if option[1] == "switch":
                value = True
            elif not eq:
                value = next(words, None)
                if value is None or _is_flag(value, options):
                    return _usage_error(f"{flag} expects a value")
        elif command is None:
            path += (word,)
            if not any(known[:len(path)] == path for known in _COMMANDS):
                return _usage_error(f"unknown command {' '.join(path)!r}")
            command = _COMMANDS.get(path)
            options = {**_HELP, **{option[0]: option for option in command[2]}} if command else _HELP
            values = {option[0]: option[3] for option in command[1] + command[2]} if command else {}
            continue
        elif word == "--" and dashes is None:
            dashes = at
            continue
        elif count < len(command[1]) or command[1] and command[1][-1][1] == "append":
            option, value, count, last = command[1][min(count, len(command[1]) - 1)], word, count + 1, at
        else:
            late = late or f"unexpected argument {word!r}"
            continue
        try:
            value = int(value) if option[2] is int else value
        except ValueError:
            return _usage_error(f"{option[0]} expects an integer, got {value!r}")
        if isinstance(option[2], tuple) and value not in option[2]:
            return _usage_error(f"{option[0]} expects one of {', '.join(option[2])}, got {value!r}")
        if option[1] == "append" and values[option[0]] is not None:
            values[option[0]].append(value)  # in place: a copy per word is quadratic in the paths
        else:
            values[option[0]] = [value] if option[1] == "append" else value
    if command is None:
        return _usage_error(f"missing command; run arbmigrate {' '.join([*path, '-h'])}")
    if dashes is not None and last < dashes - 1:  # a "--" is taken only next to a positional
        late = late or "unexpected '--'"
    missing = [option[0] for option in command[1] + command[2] if option[4] and values[option[0]] is None]
    if missing or late:
        return _usage_error(f"missing {', '.join(missing)}" if missing else late)
    return command[0], SimpleNamespace(**{name.lstrip("-").replace("-", "_"): value for name, value in values.items()})


def main(argv: list[str] | None = None) -> int:
    """Run the command and write its text to the --out file, or else to sys.stdout as it is now (a
    caller may have replaced it); output that cannot be written is exit 2.  With no argv this is the
    arbmigrate program: it turns the cyclic garbage collector off before it reads argv, runs the exit
    functions, flushes stdout and stderr and ends the process with os._exit, so interpreter
    finalization, which would free every object one by one, never runs.  A call with a list leaves
    the collector as it was and returns the exit code."""
    if argv is None:  # what the program builds is freed by reference counting (see the module doc)
        gc.disable()
    try:
        parsed, out = _parse(sys.argv[1:] if argv is None else argv), None
        if isinstance(parsed, tuple) and callable(parsed[0]):  # a handler and its arguments
            out, parsed = getattr(parsed[1], "out", None), parsed[0](parsed[1])
        code, text = (parsed, "") if isinstance(parsed, int) else parsed
        if text and out is not None:  # an empty --out is a path that cannot be written
            try:
                with open(out, "w", encoding="utf-8") as file:
                    file.write(text)
            except OSError as exc:
                code = _usage_error(f"cannot write {out}: {exc}")
        elif text:
            if sys.stdout is None:  # the program was started with stdout closed
                raise OSError(errno.EBADF, os.strerror(errno.EBADF))
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:
        code = _usage_error(str(exc))
    if argv is not None:
        return code
    atexit._run_exitfuncs()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            with contextlib.suppress(OSError):  # what a failed write left is reported or dropped
                stream.flush()
    os._exit(code)


if __name__ == "__main__":
    sys.exit(main())
