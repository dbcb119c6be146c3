"""The record contract of the simulator classes: fields, ==, hash, repr, _asdict;
and the canonical JSON writer of the same module, against json.dumps.

``tests/golden/sim_repr.txt`` holds the repr of one instance of each class, so
a change in a class's fields, their order or the repr format shows as a diff.
To record it again after an intended change, run
``PYTHONPATH=src python tests/test_records.py`` from the repository root and
review the diff.
"""

import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arbmigrate import _record

from arbmigrate._record import Record
from arbmigrate.aliasing import ADDRESS_SPACE, Address
from arbmigrate.chainmodel import L1Chain, L2View, WallClock, l2_timestamp_read, sync_state_at
from arbmigrate.gasmodel import GasParams, cost_comparison_table, quote, savings_table
from arbmigrate.retryable import FeeLedger, auto_redeem, create_ticket
from arbmigrate.scenarios import Param, ScenarioSpec, list_scenarios, run_scenario
from arbmigrate.sequencer import L2Tx, Sequencer

GOLDEN_REPR = Path(__file__).parent / "golden" / "sim_repr.txt"

FROZEN = ("Address", "WallClock", "L1Chain", "L2View", "L2Timestamp",
          "GasParams", "GasQuote", "CostRow", "SavingsTable", "ScenarioSpec", "Param")
MUTABLE = ("FeeLedger", "Ticket", "L2Tx", "DifferentialReport")


def _instances():
    """One fresh instance of each of the 15 simulator classes, by class name."""
    chain = L1Chain(genesis_number=100, block_interval=12)
    ledger = FeeLedger()
    ticket = create_ticket(ledger, ticket_id="t1", created_at=5, funds_provided=1600,
                           required=1500, submission_fee=100, l2_gas_provided=400,
                           callvalue=1000)
    auto_redeem(ticket, ledger, l2_gas_required=300, now=6)
    params = GasParams(gas_used_l2=21_000, calldata_price_l1=16, calldata_size_l1=100,
                       gas_price_l2=10)
    made = [
        Address(0xDEADBEEF),
        WallClock(90),
        chain,
        sync_state_at(WallClock(90), chain, L2View(sync_period=36, seq_clock_precision=4)),
        l2_timestamp_read(L2View(seq_clock_precision=4), WallClock(7.5)),
        params,
        quote(params),
        cost_comparison_table().rows[1],
        savings_table([("swap", 8, 253), ("mint", 1, 3)]),
        ledger,
        ticket,
        L2Tx("x", 7, payload=(7, 10_000), underpriced=True),
        ScenarioSpec(**vars(list_scenarios()[2])),  # a fresh copy of the S3 spec
        Param(**vars(list_scenarios()[2].params["sender_kind"])),  # and of one of its parameters
        run_scenario("S3"),
    ]
    return {type(obj).__name__: obj for obj in made}


def _render() -> str:
    return "".join(f"{obj!r}\n" for obj in _instances().values())


def test_repr_matches_golden():
    assert _render() == GOLDEN_REPR.read_bytes().decode("utf-8")


def test_every_class_is_covered_once():
    assert sorted(_instances()) == sorted(FROZEN + MUTABLE)


def test_eq_and_repr_read_every_field():
    for obj in _instances().values():
        assert isinstance(obj, Record)
        for name in obj._fields:  # a copy that differs in this field alone
            other = object.__new__(type(obj))
            vars(other).update(vars(obj), **{name: object()})
            assert other != obj and repr(other) != repr(obj), name


@pytest.mark.parametrize("name", FROZEN + MUTABLE)
def test_asdict_lists_the_repr_fields_in_order(name):
    obj = _instances()[name]
    shown = ", ".join(f"{key}={value!r}" for key, value in obj._asdict().items())
    assert repr(obj) == f"{name}({shown})"


@pytest.mark.parametrize("name", FROZEN + MUTABLE)
def test_keyword_construction_from_fields_round_trips(name):
    obj = _instances()[name]
    extra = {"run": obj.run} if isinstance(obj, ScenarioSpec) else {}
    assert type(obj)(**obj._asdict(), **extra) == obj


@pytest.mark.parametrize("name", FROZEN + MUTABLE)
def test_equality_holds_only_within_the_exact_class(name):
    obj, twin = _instances()[name], _instances()[name]
    assert obj is not twin and obj == twin and not obj != twin
    sub_class = type(f"Sub{name}", (type(obj),), {})
    sub = object.__new__(sub_class)
    vars(sub).update(vars(obj))
    assert obj != sub and sub != obj
    assert obj != tuple(obj._asdict().values())


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_fields_cannot_be_assigned_or_deleted(name):
    obj = _instances()[name]
    field = next(iter(obj._asdict()))
    before = repr(obj)
    with pytest.raises(AttributeError):
        setattr(obj, field, 1)
    with pytest.raises(AttributeError):
        delattr(obj, field)
    with pytest.raises(AttributeError):
        obj.unlisted = 1
    assert repr(obj) == before


@pytest.mark.parametrize("name", [n for n in FROZEN if n != "ScenarioSpec"])
def test_equal_frozen_values_hash_equal(name):
    assert hash(_instances()[name]) == hash(_instances()[name])


def test_scenario_spec_does_not_hash_because_its_params_is_a_dict():
    with pytest.raises(TypeError, match="unhashable type: 'dict'"):
        hash(_instances()["ScenarioSpec"])


@pytest.mark.parametrize("name", MUTABLE)
def test_mutable_records_are_unhashable(name):
    with pytest.raises(TypeError, match="unhashable"):
        hash(_instances()[name])


def test_scenario_spec_run_takes_no_part_in_eq_or_repr():
    spec = list_scenarios()[0]
    other = ScenarioSpec(**spec._asdict(), run=list_scenarios()[1].run)
    assert other == spec and repr(other) == repr(spec)
    assert "run" not in spec._asdict()


def test_fee_ledger_asdict_keeps_the_declaration_order():
    ledger = _instances()["FeeLedger"]
    assert list(ledger._asdict().items()) == [
        ("paid_in", 1600), ("refunded", 300), ("consumed_as_fees", 300),
        ("delivered_callvalue", 1000), ("lost", 0),
    ]
    ledger.lost += 3
    assert ledger._asdict()["lost"] == 3 and ledger._asdict() is not ledger._asdict()


def test_mutable_defaults_are_fresh_per_instance():
    a, b = Sequencer(), Sequencer()
    a.submit(L2Tx("a", 0))
    a.tick(0)
    assert (list(b.pending), b.delayed_inbox, b._arrivals) == ([], {}, 0)


@pytest.mark.parametrize("build, error", [
    (lambda: Address(-1), "address out of range: -0x1"),
    (lambda: Address(ADDRESS_SPACE), f"address out of range: {ADDRESS_SPACE:#x}"),
    (lambda: WallClock(-1), "wall clock cannot be negative, got -1"),
    (lambda: L1Chain(-1), "genesis_number must be non-negative"),
    (lambda: L1Chain(0, block_interval=0), "block_interval must be positive"),
    (lambda: L2View(sync_period=0), "sync_period must be positive"),
    (lambda: L2View(seq_clock_precision=-2), "seq_clock_precision must be positive"),
    (lambda: GasParams(0, -1, 0, 1), "gas parameters must be non-negative"),
    (lambda: GasParams(0, 0, 0, -1), "gas_price_l2 must be non-negative"),
    (lambda: L2Tx("x", -1), "submit_time must be non-negative"),
], ids=["address-low", "address-high", "clock", "genesis", "interval", "sync", "precision",
        "gas-params", "gas-price", "submit-time"])
def test_validation_errors_are_unchanged(build, error):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == error


# every code point, lone surrogates and control characters included
_ANY_TEXT = st.text(st.characters(blacklist_categories=()))
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(2**200), 2**200) | st.floats() | _ANY_TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.tuples(inner, inner)
    | st.dictionaries(_ANY_TEXT, inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(_ANY_TEXT | st.text(alphabet='"\\\n\t\b\f\r\x00\x1f\x7f\x80\u00e9\u2028\ud800\udfff\U0001f600 ~'))
@example("")
@example("\U0010ffff\ud83d\ude00")
def test_quote_is_what_json_dumps_writes(text):
    assert _record.quote(text) == json.dumps(text)


@settings(max_examples=200, deadline=None)
@given(_JSON_VALUES)
@example({"nan": float("nan"), "inf": [float("inf"), -float("inf"), -0.0], "": {}, "e": [], "big": -(10**40)})
@example([True, False, None, 0, {"a": [{}]}, ()])
def test_dump_json_is_what_json_dumps_with_indent_2_and_sorted_keys_writes(value):
    assert _record.dump_json(value) == json.dumps(value, indent=2, sort_keys=True)


def test_dump_json_rejects_what_json_dumps_rejects():
    with pytest.raises(TypeError, match="Object of type set is not JSON serializable"):
        _record.dump_json({"a": {1}})


if __name__ == "__main__":
    GOLDEN_REPR.write_bytes(_render().encode("utf-8"))
