from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arbmigrate.sequencer import (
    FORCE_INCLUSION_DELAY,
    L2Tx,
    Sequencer,
    SequencerStatus,
    TimeRegression,
    TxOrigin,
)


def direct(tx_id, t, **kw):
    return L2Tx(id=tx_id, submit_time=t, origin=TxOrigin.DIRECT_TO_SEQUENCER, **kw)


def delayed(tx_id, t, **kw):
    return L2Tx(id=tx_id, submit_time=t, origin=TxOrigin.DELAYED_INBOX, **kw)


def down():
    """A new sequencer, set DOWN."""
    seq = Sequencer()
    seq.status = SequencerStatus.DOWN
    return seq


def ticked(seq, now):
    """The (tx, execution time) pairs of one tick."""
    return [(tx, now) for tx in seq.tick(now)]


def max_wait(pairs):
    """Largest (execution time - submit time) over (tx, at) pairs; 0 if there are none."""
    return max((at - tx.submit_time for tx, at in pairs), default=0)


def test_a_new_sequencer_is_active_with_empty_queues_and_takes_no_argument():
    seq = Sequencer()
    assert seq.status is SequencerStatus.ACTIVE
    assert (list(seq.pending), seq.delayed_inbox, seq._arrivals) == ([], {}, 0)
    with pytest.raises(TypeError):
        Sequencer(SequencerStatus.DOWN)


def test_active_direct_tx_executes_at_next_tick():
    seq = Sequencer()
    seq.submit(direct("a", 10))
    pairs = ticked(seq, 10)
    assert [tx.id for tx, _ in pairs] == ["a"]
    assert max_wait(pairs) == 0


def test_down_sequencer_accumulates_in_delayed_inbox():
    seq = down()
    seq.submit(direct("a", 10))
    seq.submit(direct("b", 20))
    assert seq.tick(30) == []
    assert list(seq.delayed_inbox) == ["a", "b"]
    assert (len(seq.pending), len(seq.delayed_inbox)) == (0, 2)  # of 2 submitted, none executed


def test_delayed_origin_always_enters_delayed_inbox():
    seq = Sequencer()
    seq.submit(delayed("d", 5))
    assert list(seq.delayed_inbox) == ["d"]


def test_status_transitions():
    seq = Sequencer()
    assert seq.status is SequencerStatus.ACTIVE
    seq.status = SequencerStatus.DOWN
    assert seq.status is SequencerStatus.DOWN
    seq.status = SequencerStatus.ACTIVE
    assert seq.status is SequencerStatus.ACTIVE


def test_recovery_drains_old_delayed_txs_before_new_direct_ones():
    seq = Sequencer()
    seq.status = SequencerStatus.DOWN
    seq.submit(direct("a", 10))
    seq.submit(direct("b", 20))
    assert seq.tick(3599) == []
    seq.status = SequencerStatus.ACTIVE
    seq.submit(direct("c", 3601))
    executed = seq.tick(3602)
    assert [tx.id for tx in executed] == ["a", "b", "c"]
    assert (len(seq.pending), len(seq.delayed_inbox)) == (0, 0)  # all 3 submitted, executed


def test_force_inclusion_after_configured_delay():
    seq = down()
    seq.submit(direct("stuck", 0))
    assert seq.tick(86_399) == []
    executed = seq.tick(86_400)
    assert [tx.id for tx in executed] == ["stuck"]
    assert seq.status is SequencerStatus.DOWN


def test_underpriced_tx_skips_force_inclusion_until_the_sequencer_is_active():
    seq = down()
    seq.submit(delayed("cheap", 0, gas_price=1, underpriced=True))
    assert seq.tick(90_000) == []
    seq.status = SequencerStatus.ACTIVE
    executed = seq.tick(90_001)
    assert [tx.id for tx in executed] == ["cheap"]
    assert executed[0].gas_price == 1


def test_each_delayed_tx_is_force_included_at_its_own_deadline():
    seq = down()
    shift = FORCE_INCLUSION_DELAY - 100  # each tick as if the delay were 100 s
    seq.submit(delayed("late", 50))
    seq.submit(delayed("early", 0))
    seq.submit(delayed("cheap", 0, underpriced=True))
    assert seq.tick(shift + 99) == []
    assert [tx.id for tx in seq.tick(shift + 100)] == ["early"]
    seq.submit(delayed("backdated", 20))
    assert [tx.id for tx in seq.tick(shift + 120)] == ["backdated"]
    assert seq.tick(shift + 149) == []
    assert [tx.id for tx in seq.tick(shift + 150)] == ["late"]
    assert seq.tick(shift + 10_000) == []
    assert list(seq.delayed_inbox) == ["cheap"]


def test_inbox_queued_before_an_outage_is_force_included():
    seq = Sequencer()
    seq.submit(direct("p", 0))
    seq.submit(delayed("a", 3))
    seq.submit(delayed("b", 1, underpriced=True))
    seq.status = SequencerStatus.DOWN
    shift = FORCE_INCLUSION_DELAY - 10  # each tick as if the delay were 10 s
    assert seq.tick(shift + 12) == []
    assert [tx.id for tx in seq.tick(shift + 13)] == ["a"]
    assert (len(seq.pending), len(seq.delayed_inbox)) == (1, 1)  # of 3 submitted, 1 executed
    seq.submit(delayed("c", 4))  # arrives after "b", so it runs after it
    seq.status = SequencerStatus.ACTIVE
    assert [tx.id for tx in seq.tick(shift + 20)] == ["b", "c", "p"]
    assert (len(seq.pending), len(seq.delayed_inbox)) == (0, 0)  # all 4 submitted, executed


def test_tick_time_regression_rejected():
    seq = Sequencer()
    seq.tick(100)
    with pytest.raises(TimeRegression):
        seq.tick(99)


def test_staleness_covers_downtime_window():
    seq = Sequencer()
    seq.status = SequencerStatus.DOWN
    seq.submit(direct("a", 0))
    seq.status = SequencerStatus.ACTIVE
    assert max_wait(ticked(seq, 3600)) >= 3600


def test_staleness_empty_log_is_zero():
    assert max_wait(ticked(Sequencer(), 0)) == 0
    seq = down()
    seq.submit(direct("a", 0))
    assert max_wait(ticked(seq, 86_399)) == 0


def test_zero_downtime_staleness_bounded_by_tick_interval():
    seq = Sequencer()
    interval = 10
    pairs = []
    for now in range(0, 200, interval):
        if now % 30 == 0:
            seq.submit(direct(f"t{now}", max(0, now - 7)))
        pairs += ticked(seq, now)
    assert len(pairs) == 7
    assert max_wait(pairs) <= interval


def test_conservation_simple():
    seq = down()
    seq.submit(direct("a", 0))
    seq.submit(delayed("b", 1))
    seq.status = SequencerStatus.ACTIVE
    seq.submit(direct("c", 2))
    assert len(seq.pending) + len(seq.delayed_inbox) == 3  # 3 submitted, none executed
    assert len(seq.tick(3)) == 3
    assert (len(seq.pending), len(seq.delayed_inbox)) == (0, 0)


_EVENTS = st.lists(
    st.one_of(
        st.tuples(st.just("submit"), st.sampled_from(["direct", "delayed"])),
        st.tuples(st.just("status"), st.sampled_from(["active", "down"])),
        st.tuples(st.just("tick"), st.just(None)),
    ),
    min_size=1,
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(events=_EVENTS)
def test_conservation_and_no_duplicates_under_random_schedules(events):
    seq = Sequencer()
    now = submitted = 0
    pairs = []
    for i, (kind, arg) in enumerate(events):
        now += 7
        if kind == "submit":
            origin = TxOrigin.DIRECT_TO_SEQUENCER if arg == "direct" else TxOrigin.DELAYED_INBOX
            seq.submit(L2Tx(id=f"tx{i}", submit_time=now, origin=origin))
            submitted += 1
        elif kind == "status":
            seq.status = SequencerStatus(arg)
        else:
            pairs += ticked(seq, now)
        assert submitted == len(seq.pending) + len(seq.delayed_inbox) + len(pairs)
    executed_ids = [tx.id for tx, _ in pairs]
    assert len(executed_ids) == len(set(executed_ids))
    times = [at for _, at in pairs]
    assert times == sorted(times)


class FullScanSequencer(Sequencer):
    """Reference: every down tick scans the whole delayed inbox."""

    def tick(self, now):
        if self._last_tick is not None and now < self._last_tick:
            raise TimeRegression(f"tick at {now} precedes previous tick at {self._last_tick}")
        self._last_tick = now
        executed = []
        if self.status is SequencerStatus.ACTIVE:
            executed += self.delayed_inbox.values()
            executed += self.pending
            self.delayed_inbox, self.pending = {}, deque()
        else:
            remaining = {}
            for tx in self.delayed_inbox.values():
                if not tx.underpriced and now - tx.submit_time >= FORCE_INCLUSION_DELAY:
                    executed.append(tx)
                else:
                    remaining[tx.id] = tx
            self.delayed_inbox = remaining
        return executed


_SCHEDULE = st.lists(
    st.one_of(
        st.tuples(
            st.just("submit"),
            st.sampled_from(list(TxOrigin)),
            st.sampled_from([-50, -5, -1, 0, 1, 5, 50]),  # submit_time - now: not monotone
            st.booleans(),  # underpriced
        ),
        st.tuples(st.just("status"), st.sampled_from(list(SequencerStatus))),
        st.tuples(st.just("tick"), st.sampled_from([0, 1, 4, 5, 45, 50, 86_400])),
    ),
    min_size=4,
    max_size=60,
)


@settings(max_examples=400, deadline=None)
@given(
    lag=st.sampled_from([0, 5, 50, 86_400]),
    status=st.sampled_from(list(SequencerStatus)),
    inbox=st.lists(st.tuples(st.sampled_from([-50, 0, 50]), st.booleans()), max_size=4),
    schedule=_SCHEDULE,
)
def test_watermark_ticks_match_a_full_scan(lag, status, inbox, schedule):
    """The heap top is the exact watermark: ticks match a full scan of every down tick.

    Every transaction is submitted FORCE_INCLUSION_DELAY - lag seconds earlier
    than its tick offset says, so it falls due at the tick where a delay of
    lag would make it due.
    """
    early = FORCE_INCLUSION_DELAY - lag
    now = FORCE_INCLUSION_DELAY + 100
    fast, slow = Sequencer(), FullScanSequencer()
    for seq in (fast, slow):
        for i, (offset, cheap) in enumerate(inbox):
            seq.submit(delayed(f"given{i}", now + offset - early, underpriced=cheap))
        seq.status = status
    for i, (kind, *args) in enumerate(schedule):
        if kind == "submit":
            origin, offset, underpriced = args
            for seq in (fast, slow):
                seq.submit(L2Tx(id=f"tx{i}", submit_time=now + offset - early,
                                origin=origin, underpriced=underpriced))
        elif kind == "status":
            fast.status = args[0]
            slow.status = args[0]
        else:
            now += args[0]
            assert [tx.id for tx in fast.tick(now)] == [tx.id for tx in slow.tick(now)]
    assert list(fast.delayed_inbox) == list(slow.delayed_inbox)
    assert [tx.id for tx in fast.pending] == [tx.id for tx in slow.pending]
