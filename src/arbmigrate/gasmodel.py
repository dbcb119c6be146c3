"""L2 gas pricing: execution gas plus the L1 calldata posting component.

The quoted gas limit is::

    gas_limit = gas_used_l2 + ceil(calldata_price_l1 * calldata_size_l1 / gas_price_l2)
    gas_fees  = gas_limit * gas_price_l2

The division is carried out exactly and rounded *up* to a whole gas unit so a
quote never undercharges; consequently ``gas_fees`` can exceed the expanded
form ``gas_used_l2 * gas_price_l2 + calldata_price_l1 * calldata_size_l1`` by
at most one gas unit's worth of fees.

Also included: the savings arithmetic for cost-comparison tables, with a
bundled 2023 snapshot of six common transactions priced on Arbitrum One vs
Ethereum mainnet.  Currency is integer cents; percentages round half-up to
the nearest integer.
"""

from __future__ import annotations

from typing import Iterable

from ._record import FrozenRecord


class GasParams(FrozenRecord):
    def __init__(self, gas_used_l2: int, calldata_price_l1: int, calldata_size_l1: int,
                 gas_price_l2: int):
        if min(gas_used_l2, calldata_price_l1, calldata_size_l1) < 0:
            raise ValueError("gas parameters must be non-negative")
        if gas_price_l2 < 0:
            raise ValueError("gas_price_l2 must be non-negative")
        if max(gas_used_l2, calldata_price_l1, calldata_size_l1, gas_price_l2) >= 2**256:
            raise ValueError("gas parameters must be below 2**256")
        vars(self).update(gas_used_l2=gas_used_l2, calldata_price_l1=calldata_price_l1,
                          calldata_size_l1=calldata_size_l1, gas_price_l2=gas_price_l2)


class GasQuote(FrozenRecord):
    def __init__(self, gas_limit: int, gas_fees: int):
        vars(self).update(gas_limit=gas_limit, gas_fees=gas_fees)


def gas_limit(p: GasParams) -> int:
    if p.gas_price_l2 <= 0:
        raise ValueError("gas_price_l2 must be positive to compute a gas limit")
    calldata_cost = p.calldata_price_l1 * p.calldata_size_l1
    return p.gas_used_l2 + -(-calldata_cost // p.gas_price_l2)


def gas_fees(p: GasParams) -> int:
    return gas_limit(p) * p.gas_price_l2


def quote(p: GasParams) -> GasQuote:
    limit = gas_limit(p)
    return GasQuote(gas_limit=limit, gas_fees=limit * p.gas_price_l2)


class CostRow(FrozenRecord):
    def __init__(self, label: str, arb_cost: int, eth_cost: int, pct_saved: int,
                 amount_saved: int):  # costs and amount in cents
        vars(self).update(label=label, arb_cost=arb_cost, eth_cost=eth_cost,
                          pct_saved=pct_saved, amount_saved=amount_saved)


class SavingsTable(FrozenRecord):
    def __init__(self, rows: tuple[CostRow, ...], mean_pct: float):
        vars(self).update(rows=rows, mean_pct=mean_pct)


def _pct_saved(arb: int, eth: int) -> int:
    # round(100 * (eth - arb) / eth) computed half-up in exact integers
    return (200 * (eth - arb) + eth) // (2 * eth)


def savings_table(rows: Iterable[tuple[str, int, int]]) -> SavingsTable:
    """Per-row percentage and amount saved, plus the mean percentage.

    Each row is (label, cost on Arbitrum in cents, cost on Ethereum in cents);
    the Ethereum cost must be positive.
    """
    out = []
    for label, arb, eth in rows:
        if eth <= 0:
            raise ValueError(f"row {label!r}: Ethereum cost must be positive")
        out.append(
            CostRow(
                label=label,
                arb_cost=arb,
                eth_cost=eth,
                pct_saved=_pct_saved(arb, eth),
                amount_saved=eth - arb,
            )
        )
    if not out:
        raise ValueError("savings table needs at least one row")
    mean = sum(r.pct_saved for r in out) / len(out)
    return SavingsTable(rows=tuple(out), mean_pct=mean)


# 2023 snapshot: the same operation priced on Arbitrum One and on Ethereum
# mainnet, in cents.  Note the published EOA-transfer row is internally
# inconsistent (it lists $0.57 saved and 87%, but 0.65 - 0.09 = 0.56, i.e.
# 86% of 0.65); this table keeps the source dollar costs and reports the
# recomputed savings.
COST_COMPARISON_2023: tuple[tuple[str, int, int], ...] = (
    ("Aave Deposit", 15, 402),
    ("EOA Transfer", 9, 65),
    ("Opensea NFT Sale", 20, 555),
    ("SushiSwap Swap", 8, 253),
    ("Uniswap Swap", 8, 397),
    ("Yearn Deposit", 5, 363),
)


def cost_comparison_table() -> SavingsTable:
    return savings_table(COST_COMPARISON_2023)


def format_cents(cents: int) -> str:
    sign = "-" if cents < 0 else ""
    cents = abs(cents)
    return f"{sign}${cents // 100}.{cents % 100:02d}"


def render_savings_table(table: SavingsTable) -> str:
    """Fixed-width text rendering used by the CLI."""
    header = f"{'Tx Example':<20}{'Arbitrum One':>14}{'Ethereum':>12}{'Pct saved':>11}{'Amount saved':>14}"
    lines = [header, "-" * len(header)]
    for r in table.rows:
        lines.append(
            f"{r.label:<20}{format_cents(r.arb_cost):>14}{format_cents(r.eth_cost):>12}"
            f"{str(r.pct_saved) + '%':>11}{format_cents(r.amount_saved):>14}"
        )
    lines.append(f"mean saving: {table.mean_pct:.1f}%")
    return "\n".join(lines)
