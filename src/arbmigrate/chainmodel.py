"""Deterministic model of L1 block production and the sequencer's lagged view of it.

The L1 chain mints one block every ``block_interval`` seconds.  The L2
sequencer refreshes its copy of the L1 block number only once per
``sync_period``, so contracts running on L2 observe a step function that can
trail the true L1 number by up to ``sync_period / block_interval - 1``
blocks.  L2 timestamps come from the sequencer's local clock, which has
coarse precision, so consecutive reads may return the same value.

All functions here are pure; there is no shared mutable state.
"""

from __future__ import annotations

import math

from ._record import FrozenRecord

DEFAULT_BLOCK_INTERVAL = 15
DEFAULT_SYNC_PERIOD = 60
DEFAULT_SEQ_CLOCK_PRECISION = 1
MAX_TABLE_ROWS = 100_000  # block_number_table builds every row in memory
# The exclusive top of the 64-bit words that EVM times and block numbers are.
# With every input below it, each number computed here stays printable.
U64 = 2**64


def _check_u64(**values: int) -> None:
    """ValueError naming the first value that does not fit in 64 bits."""
    for name, value in values.items():
        if value >= U64:
            raise ValueError(f"{name} must be at most 2**64 - 1")


class WallClock(FrozenRecord):
    """Seconds since the simulation epoch.

    Integer seconds everywhere in normal use; fractional readings are
    accepted so the coarse sequencer clock can be exercised with sub-second
    inputs.
    """

    def __init__(self, t: float = 0):
        if t < 0:
            raise ValueError(f"wall clock cannot be negative, got {t}")
        vars(self)["t"] = t


class L1Chain(FrozenRecord):
    """L1 block production: consecutive numbers, one block per interval."""

    def __init__(self, genesis_number: int, block_interval: int = DEFAULT_BLOCK_INTERVAL):
        if genesis_number < 0:
            raise ValueError("genesis_number must be non-negative")
        if block_interval <= 0:
            raise ValueError("block_interval must be positive")
        _check_u64(genesis_number=genesis_number, block_interval=block_interval)
        vars(self).update(genesis_number=genesis_number, block_interval=block_interval)


class L2View(FrozenRecord):
    """The sequencer's view of L1: periodic block-number syncs, coarse clock.

    ``last_synced_l1_number`` / ``last_sync_time`` are None until the view is
    pinned to a moment via :func:`sync_state_at`.
    """

    def __init__(self, sync_period: int = DEFAULT_SYNC_PERIOD,
                 seq_clock_precision: int = DEFAULT_SEQ_CLOCK_PRECISION,
                 last_synced_l1_number: int | None = None, last_sync_time: int | None = None):
        if sync_period <= 0:
            raise ValueError("sync_period must be positive")
        if seq_clock_precision <= 0:
            raise ValueError("seq_clock_precision must be positive")
        _check_u64(sync_period=sync_period, seq_clock_precision=seq_clock_precision)
        vars(self).update(sync_period=sync_period, seq_clock_precision=seq_clock_precision,
                          last_synced_l1_number=last_synced_l1_number,
                          last_sync_time=last_sync_time)


class L2Timestamp(FrozenRecord):
    """A sequencer clock reading. Nondecreasing; duplicates permitted."""

    def __init__(self, value: int):
        vars(self)["value"] = value


def l1_block_number_at(clock: WallClock, chain: L1Chain) -> int:
    """True L1 block number at the given wall-clock time."""
    return chain.genesis_number + int(clock.t) // chain.block_interval


def _check_sync_period(chain: L1Chain, view: L2View) -> None:
    if view.sync_period % chain.block_interval != 0:
        raise ValueError(
            f"sync_period ({view.sync_period}) must be a positive multiple "
            f"of block_interval ({chain.block_interval})"
        )


def l2_view_l1_number_at(clock: WallClock, chain: L1Chain, view: L2View) -> int:
    """L1 block number as observed from L2 at the given wall-clock time.

    The view refreshes at every multiple of ``sync_period``; a refresh
    instant itself reports the fresh value, and the value then holds until
    the next refresh.
    """
    _check_sync_period(chain, view)
    sync_instant = (int(clock.t) // view.sync_period) * view.sync_period
    return l1_block_number_at(WallClock(sync_instant), chain)


def sync_state_at(clock: WallClock, chain: L1Chain, view: L2View) -> L2View:
    """Pin the view's last-sync fields to the most recent refresh instant."""
    _check_sync_period(chain, view)
    sync_instant = (int(clock.t) // view.sync_period) * view.sync_period
    return L2View(
        view.sync_period,
        view.seq_clock_precision,
        last_synced_l1_number=l1_block_number_at(WallClock(sync_instant), chain),
        last_sync_time=sync_instant,
    )


def l2_timestamp_read(view: L2View, clock: WallClock) -> L2Timestamp:
    """Sequencer clock reading: wall time truncated to the clock's precision.

    Two reads within one precision unit return equal values; the result never
    decreases for nondecreasing inputs.
    """
    truncated = math.floor(clock.t / view.seq_clock_precision) * view.seq_clock_precision
    return L2Timestamp(value=int(truncated))


def block_number_table(
    chain: L1Chain,
    view: L2View,
    horizon: int,
    step: int,
) -> list[tuple[int, int, int]]:
    """(wall time, true L1 number, L2-observed number) rows through horizon."""
    if step <= 0:
        raise ValueError("step must be positive")
    if horizon < 0:
        raise ValueError("horizon must be non-negative")
    _check_u64(horizon=horizon, step=step)
    count = horizon // step + 1
    if count > MAX_TABLE_ROWS:
        raise ValueError(f"a table of {count:,} rows exceeds the {MAX_TABLE_ROWS:,}-row limit")
    rows = []
    for t in range(0, horizon + 1, step):
        clock = WallClock(t)
        rows.append(
            (
                t,
                l1_block_number_at(clock, chain),
                l2_view_l1_number_at(clock, chain, view),
            )
        )
    return rows
