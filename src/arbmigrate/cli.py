"""Command-line interface.

Exit codes: 0 = ran (and, with --check, nothing beyond expectation);
1 = findings/divergence beyond expectation in check mode; 2 = usage error
(bad arguments, unknown ids, unparseable input).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .minisol import MiniSolSyntaxError, parse_source
    from .rules import RuleConfig, analyze, findings_to_json, get_rule
    config = RuleConfig()
    if args.config:
        try:
            config = RuleConfig.from_file(args.config)
        except (OSError, ValueError, RecursionError) as exc:  # json: RecursionError on deep nesting
            return _usage_error(f"cannot load rule config: {exc}")
    if args.rules:
        rule_ids = [r.strip() for r in args.rules.split(",") if r.strip()]
        try:
            config = config.with_enabled(rule_ids)
        except ValueError as exc:
            return _usage_error(str(exc))

    findings = []
    files = []
    status = 0  # 2 once any file is unreadable or unparseable; every bad file is reported
    for path in args.paths:
        try:
            source = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            status = _usage_error(f"cannot read {path}: {exc}")
            continue
        try:
            unit = parse_source(source, path=path)
        except MiniSolSyntaxError as exc:
            for diag in exc.diagnostics:
                print(f"{path}:{diag}", file=sys.stderr)
            status = 2
            continue
        files.append(path)
        findings.extend(analyze(unit, config))
    if status:
        return status

    if args.format == "json":
        sys.stdout.write(findings_to_json(findings, files))  # which sorts them itself
    else:
        findings.sort(key=lambda f: f.sort_key())
        for f in findings:
            rule = get_rule(f.rule_id)
            print(
                f"{f.file}:{f.line}:{f.column}: {rule.severity.value} "
                f"{f.rule_id}: {f.message}"
            )
            if f.excerpt:
                print(f"    {f.excerpt}")
        print(f"{len(findings)} finding(s) in {len(files)} file(s)")
    if args.check and findings:
        return 1
    return 0


def _cmd_scenario_list(args: argparse.Namespace) -> int:
    from .scenarios import list_scenarios
    for spec in list_scenarios():
        print(f"{spec.id}  {spec.title}")
        print(f"    risk: {spec.risk}")
        if spec.linked_rules:
            print(f"    rules: {', '.join(spec.linked_rules)}")
        defaults = ", ".join(f"{k}={v}" for k, v in spec.params.items())
        print(f"    params: {defaults}")
    return 0


def _cmd_scenario_run(args: argparse.Namespace) -> int:
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
    text = serialize_report(report)
    if args.out:
        try:
            Path(args.out).write_text(text, encoding="utf-8")
        except OSError as exc:
            return _usage_error(f"cannot write {args.out}: {exc}")
    else:
        sys.stdout.write(text)
    if args.check and report.divergent:
        return 1
    return 0


def _cmd_gas_calc(args: argparse.Namespace) -> int:
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
    print(f"gas_limit: {q.gas_limit}")
    print(f"gas_fees: {q.gas_fees}")
    return 0


def _cmd_gas_table(args: argparse.Namespace) -> int:
    from .gasmodel import cost_comparison_table, render_savings_table
    print(render_savings_table(cost_comparison_table()))
    return 0


def _cmd_alias(args: argparse.Namespace) -> int:
    from .aliasing import ALIAS_OFFSET, Address, apply_alias, undo_alias
    try:
        address = Address.from_hex(args.address)
        offset = Address.from_hex(args.offset) if args.offset else ALIAS_OFFSET
    except ValueError as exc:
        return _usage_error(str(exc))
    transform = apply_alias if args.direction == "apply" else undo_alias
    print(transform(address, offset).checksummed())
    return 0


def _cmd_checklist(args: argparse.Namespace) -> int:
    from .rules import findings_from_json, migration_checklist, render_checklist
    try:
        text = Path(args.findings).read_text(encoding="utf-8")
        findings = findings_from_json(text)
    except (OSError, ValueError, RecursionError) as exc:
        return _usage_error(f"cannot load findings: {exc}")
    sys.stdout.write(render_checklist(migration_checklist(findings)))
    return 0


def _cmd_sim(args: argparse.Namespace) -> int:
    from .chainmodel import L1Chain, L2View, block_number_table
    try:
        chain = L1Chain(genesis_number=args.genesis, block_interval=args.block_interval)
        view = L2View(sync_period=args.sync_period)
        rows = block_number_table(chain, view, args.horizon, args.step)
    except ValueError as exc:
        return _usage_error(str(exc))
    print(f"{'t(s)':<8}{'L1 block.number':<18}{'L2 block.number':<18}")
    for t, l1, l2 in rows:
        print(f"{t:<8}{l1:<18}{l2:<18}")
    return 0


def _cmd_rules(args: argparse.Namespace) -> int:
    from .rules import rule_catalog
    for rule in rule_catalog():
        print(f"{rule.id}  [{rule.severity.value}]  {rule.category.value}")
        print(f"    {rule.description}")
        print(f"    fix: {rule.remediation}")
    return 0


def build_parser() -> argparse.ArgumentParser:
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


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
