import pytest
from hypothesis import given
from hypothesis import strategies as st

from arbmigrate.chainmodel import (
    L1Chain,
    L2View,
    WallClock,
    block_number_table,
    l1_block_number_at,
    l2_timestamp_read,
    l2_view_l1_number_at,
    sync_state_at,
)

CHAIN = L1Chain(genesis_number=1000)
VIEW = L2View()


def l1_at(t):
    return l1_block_number_at(WallClock(t), CHAIN)


def l2_at(t):
    return l2_view_l1_number_at(WallClock(t), CHAIN, VIEW)


class TestL1BlockNumber:
    def test_45s_after_epoch(self):
        assert l1_at(45) == 1003

    def test_genesis_at_epoch(self):
        assert l1_at(0) == 1000

    def test_75s_after_epoch(self):
        assert l1_at(75) == 1005

    def test_mid_interval_rounds_down(self):
        assert l1_at(14) == 1000
        assert l1_at(15) == 1001


class TestL2View:
    def test_30s_lags_behind_truth(self):
        assert l2_at(30) == 1000
        assert l1_at(30) == 1002

    def test_sync_boundary_takes_fresh_value(self):
        assert l2_at(60) == 1004

    def test_epoch_equals_truth(self):
        assert l2_at(0) == 1000

    def test_minute_comparison_table(self):
        # One simulated wall-clock minute and a quarter, 15s blocks, 60s sync:
        # the observed number freezes within each sync window and refreshes
        # at the boundary.
        rows = block_number_table(CHAIN, VIEW, horizon=75, step=15)
        assert rows == [
            (0, 1000, 1000),
            (15, 1001, 1000),
            (30, 1002, 1000),
            (45, 1003, 1000),
            (60, 1004, 1004),
            (75, 1005, 1004),
        ]

    def test_negative_horizon_is_rejected(self):
        with pytest.raises(ValueError, match="^horizon must be non-negative$"):
            block_number_table(CHAIN, VIEW, horizon=-5, step=15)
        assert block_number_table(CHAIN, VIEW, horizon=0, step=15) == [(0, 1000, 1000)]

    def test_sync_period_must_be_multiple_of_interval(self):
        with pytest.raises(ValueError):
            l2_view_l1_number_at(WallClock(0), CHAIN, L2View(sync_period=50))

    @given(st.integers(min_value=0, max_value=100_000))
    def test_view_never_ahead_and_gap_bounded(self, t):
        gap = l1_at(t) - l2_at(t)
        assert 0 <= gap <= VIEW.sync_period // CHAIN.block_interval - 1

    @given(st.integers(min_value=0, max_value=100_000))
    def test_step_function_constant_within_window(self, t):
        window_start = (t // VIEW.sync_period) * VIEW.sync_period
        assert l2_at(t) == l2_at(window_start)

    def test_observable_numbers_are_one_in_four(self):
        # Brute force over one simulated hour: only numbers present at sync
        # instants are ever observable through the view.
        observable = {l2_at(t) for t in range(3600)}
        produced = {l1_at(t) for t in range(3600)}
        assert observable == {1000 + 4 * k for k in range(60)}
        assert len(observable) / len(produced) == 0.25

    def test_sync_state_fields(self):
        pinned = sync_state_at(WallClock(130), CHAIN, VIEW)
        assert pinned.last_sync_time == 120
        assert pinned.last_synced_l1_number == 1008
        assert pinned.last_synced_l1_number <= l1_at(130)
        assert 130 - pinned.last_sync_time < VIEW.sync_period


class TestL2Timestamp:
    def test_sub_second_reads_truncate_to_equal_values(self):
        assert l2_timestamp_read(VIEW, WallClock(100.2)).value == 100
        assert l2_timestamp_read(VIEW, WallClock(100.8)).value == 100

    def test_monotone_across_seconds(self):
        assert l2_timestamp_read(VIEW, WallClock(100)).value == 100
        assert l2_timestamp_read(VIEW, WallClock(101)).value == 101

    def test_duplicates_allowed_in_sequence(self):
        reads = [l2_timestamp_read(VIEW, WallClock(t)).value for t in (5, 5, 6)]
        assert reads == [5, 5, 6]

    def test_coarser_precision(self):
        coarse = L2View(seq_clock_precision=10)
        assert l2_timestamp_read(coarse, WallClock(99)).value == 90

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=2, max_size=50))
    def test_nondecreasing_inputs_give_nondecreasing_outputs(self, times):
        times.sort()
        reads = [l2_timestamp_read(VIEW, WallClock(t)).value for t in times]
        assert reads == sorted(reads)


class TestClockAndChain:
    def test_clock_rejects_negative(self):
        with pytest.raises(ValueError):
            WallClock(-1)

    def test_chain_validation(self):
        with pytest.raises(ValueError):
            L1Chain(genesis_number=-1)
        with pytest.raises(ValueError):
            L1Chain(genesis_number=0, block_interval=0)

    @pytest.mark.parametrize("build", [
        lambda n: L1Chain(genesis_number=n),
        lambda n: L1Chain(0, block_interval=n),
        lambda n: L2View(sync_period=n),
        lambda n: L2View(seq_clock_precision=n),
        lambda n: block_number_table(CHAIN, VIEW, horizon=n, step=n),
        lambda n: block_number_table(CHAIN, VIEW, horizon=0, step=n),
    ], ids=["genesis", "interval", "sync", "precision", "horizon", "step"])
    def test_values_are_64_bit(self, build):
        # S2 declares the same quantities up to 2**64 - 1; past that a block number
        # could outgrow the 4,300 digits that int() -> str prints
        build(2**64 - 1)
        with pytest.raises(ValueError, match=r"^[a-z_]+ must be at most 2\*\*64 - 1$"):
            build(2**64)
