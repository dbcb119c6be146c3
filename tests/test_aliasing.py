import pytest
from hypothesis import given
from hypothesis import strategies as st

from arbmigrate._keccak import keccak256
from arbmigrate.aliasing import (
    ADDRESS_SPACE,
    ALIAS_OFFSET,
    ALIAS_OFFSET_INT,
    Address,
    SenderKind,
    apply_alias,
    l2_msg_sender,
    undo_alias,
)

addresses = st.integers(min_value=0, max_value=ADDRESS_SPACE - 1).map(Address)


class TestKeccak:
    # published keccak-256 vectors (pre-NIST padding)
    def test_empty(self):
        assert keccak256(b"").hex() == (
            "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"
        )

    def test_abc(self):
        assert keccak256(b"abc").hex() == (
            "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45"
        )

    def test_fox(self):
        assert keccak256(b"The quick brown fox jumps over the lazy dog").hex() == (
            "4d741b6f1eb29cb2a9b9911c82f56fa8d73b04959d3d9d222895df6c0b28aa15"
        )

    def test_multiblock_input(self):
        digest = keccak256(b"a" * 1000)
        assert len(digest) == 32


class TestAddress:
    @pytest.mark.parametrize(
        "checksummed",
        [
            "0x5aAeb6053F3E94C9b9A09f33669435E7Ef1BeAed",
            "0xfB6916095ca1df60bB79Ce92cE3Ea74c37c5d359",
            "0xdbF03B407c01E7cD3CBea99509d93f8DDDC8C6FB",
            "0xD1220A0cf47c7B9Be7A2E6BA89F429762e7b9aDb",
            "0x52908400098527886E0F7030069857D2E4169EE7",
            "0xde709f2102306220921060314715629080e2fb77",
        ],
    )
    def test_checksummed_output_matches_published_vectors(self, checksummed):
        assert Address.from_hex(checksummed).checksummed() == checksummed

    @pytest.mark.parametrize(
        "bad",
        ["deadbeef", "0x123", "0x" + "g" * 40, "0x" + "a" * 41, "", "0x" + "a" * 39,
         "0x" + "a" * 40 + "\n"],
    )
    def test_from_hex_rejects_malformed_input(self, bad):
        with pytest.raises(ValueError):
            Address.from_hex(bad)

    def test_value_range_enforced(self):
        with pytest.raises(ValueError):
            Address(-1)
        with pytest.raises(ValueError):
            Address(ADDRESS_SPACE)


class TestAliasTransform:
    def test_zero_maps_to_offset(self):
        assert apply_alias(Address(0)) == ALIAS_OFFSET

    def test_undo_of_offset_is_zero(self):
        assert undo_alias(ALIAS_OFFSET) == Address(0)

    def test_top_of_range_wraps(self):
        top = Address(ADDRESS_SPACE - 1)
        expected = (ADDRESS_SPACE - 1 + ALIAS_OFFSET_INT) - ADDRESS_SPACE
        assert apply_alias(top).value == expected

    def test_undo_below_zero_wraps(self):
        assert undo_alias(Address(0)).value == ADDRESS_SPACE - ALIAS_OFFSET_INT

    @given(addresses)
    def test_round_trip_identity(self, a):
        assert undo_alias(apply_alias(a)) == a
        assert apply_alias(undo_alias(a)) == a

    @given(addresses, addresses)
    def test_round_trip_with_arbitrary_offset(self, a, offset):
        assert undo_alias(apply_alias(a, offset), offset) == a

    def test_boundary_round_trips(self):
        for value in (0, ALIAS_OFFSET_INT, ADDRESS_SPACE - 1):
            a = Address(value)
            assert undo_alias(apply_alias(a)) == a


class TestL2MsgSender:
    OWNER = Address.from_hex("0x00000000000000000000000000000000deadbeef")

    def test_contract_sender_is_aliased(self):
        assert l2_msg_sender(self.OWNER, SenderKind.CONTRACT) == apply_alias(self.OWNER)

    def test_externally_owned_sender_passes_through(self):
        assert l2_msg_sender(self.OWNER, SenderKind.EXTERNALLY_OWNED) == self.OWNER

    def test_raw_permission_check_fails_alias_aware_check_passes(self):
        sender = l2_msg_sender(self.OWNER, SenderKind.CONTRACT)
        assert (sender == self.OWNER) is False
        assert (sender == apply_alias(self.OWNER)) is True
