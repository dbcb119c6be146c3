import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from arbmigrate.gasmodel import (
    COST_COMPARISON_2023,
    CostRow,
    GasParams,
    cost_comparison_table,
    format_cents,
    gas_fees,
    gas_limit,
    quote,
    savings_table,
)


class TestGasFormula:
    def test_zero_calldata_collapses_to_execution_gas(self):
        p = GasParams(gas_used_l2=21_000, calldata_price_l1=16, calldata_size_l1=0, gas_price_l2=2)
        assert gas_limit(p) == 21_000
        assert gas_fees(p) == 42_000

    def test_hand_computed_example(self):
        p = GasParams(
            gas_used_l2=100_000, calldata_price_l1=16, calldata_size_l1=500, gas_price_l2=1
        )
        assert gas_limit(p) == 108_000
        assert gas_fees(p) == 108_000

    def test_zero_gas_price_rejected(self):
        p = GasParams(gas_used_l2=1, calldata_price_l1=1, calldata_size_l1=1, gas_price_l2=0)
        with pytest.raises(ValueError):
            gas_limit(p)

    def test_division_rounds_up(self):
        # 16 * 3 / 10 = 4.8 -> 5 gas units, never undercharged
        p = GasParams(gas_used_l2=0, calldata_price_l1=16, calldata_size_l1=3, gas_price_l2=10)
        assert gas_limit(p) == 5
        assert gas_fees(p) == 50

    def test_quote_bundles_both_numbers(self):
        p = GasParams(gas_used_l2=10, calldata_price_l1=7, calldata_size_l1=3, gas_price_l2=2)
        q = quote(p)
        assert q.gas_fees == q.gas_limit * 2

    @given(
        st.integers(min_value=0, max_value=10**9),
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=1, max_value=10**9),
    )
    def test_expanded_identity_within_one_rounding_unit(self, used, price1, size, price2):
        p = GasParams(used, price1, size, price2)
        expanded = used * price2 + price1 * size
        diff = gas_fees(p) - expanded
        assert 0 <= diff < price2

    @given(
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=0, max_value=10**4),
        st.integers(min_value=0, max_value=10**4),
        st.integers(min_value=1, max_value=10**4),
        st.integers(min_value=0, max_value=100),
    )
    def test_gas_limit_monotone_in_each_input(self, used, price1, size, price2, bump):
        base = gas_limit(GasParams(used, price1, size, price2))
        assert gas_limit(GasParams(used + bump, price1, size, price2)) >= base
        assert gas_limit(GasParams(used, price1 + bump, size, price2)) >= base
        assert gas_limit(GasParams(used, price1, size + bump, price2)) >= base

    def test_negative_params_rejected(self):
        with pytest.raises(ValueError):
            GasParams(-1, 0, 0, 1)

    @pytest.mark.parametrize("field", range(4))
    def test_params_are_uint256_values(self, field):
        top = [1, 1, 1, 1]
        top[field] = 2**256 - 1
        assert gas_fees(GasParams(*top)) >= 2**256 - 1
        top[field] = 2**256
        with pytest.raises(ValueError, match=r"below 2\*\*256"):
            GasParams(*top)


class TestSavingsTable:
    def test_aave_row(self):
        table = savings_table([("Aave Deposit", 15, 402)])
        assert table.rows[0] == CostRow("Aave Deposit", 15, 402, 96, 387)

    def test_uniswap_row(self):
        table = savings_table([("Uniswap Swap", 8, 397)])
        row = table.rows[0]
        assert row.pct_saved == 98
        assert row.amount_saved == 389

    def test_pct_rounds_to_nearest_not_down(self):
        # 0.05/3.63 saves 98.62%: must print 99, pinning nearest-integer rounding
        table = savings_table([("Yearn Deposit", 5, 363)])
        assert table.rows[0].pct_saved == 99

    def test_bundled_comparison_table(self):
        table = cost_comparison_table()
        assert [r.pct_saved for r in table.rows] == [96, 86, 96, 97, 98, 99]
        assert [r.amount_saved for r in table.rows] == [387, 56, 535, 245, 389, 358]
        assert table.mean_pct == pytest.approx(572 / 6)

    def test_published_eoa_row_is_internally_inconsistent(self):
        # The published source lists 87% and $0.57 for this row, but its own
        # dollar columns give 0.65 - 0.09 = 0.56 (86.15%); recomputation is
        # the contract here, so the bundled table reports 86% / $0.56.
        label, arb, eth = COST_COMPARISON_2023[1]
        assert (label, arb, eth) == ("EOA Transfer", 9, 65)
        row = savings_table([(label, arb, eth)]).rows[0]
        assert row.amount_saved == eth - arb == 56
        assert row.pct_saved == 86

    def test_zero_eth_cost_rejected(self):
        with pytest.raises(ValueError):
            savings_table([("broken", 1, 0)])

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            savings_table([])

    def test_amount_saved_is_exact_subtraction(self):
        rng = random.Random(0)
        rows = [("r", rng.randint(0, 1000), rng.randint(1, 1000)) for _ in range(200)]
        for row in savings_table(rows).rows:
            assert row.amount_saved == row.eth_cost - row.arb_cost


def test_format_cents():
    assert format_cents(387) == "$3.87"
    assert format_cents(5) == "$0.05"
    assert format_cents(-56) == "-$0.56"
