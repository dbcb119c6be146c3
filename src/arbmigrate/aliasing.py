"""Address aliasing for L1-to-L2 messages.

When a contract on L1 sends a message that executes on L2, the sender the L2
side observes is not the contract's own address but that address shifted by a
fixed offset (modulo the 160-bit address space).  Externally owned accounts
are passed through unchanged.  Permission checks that compare the raw L1
address therefore fail on L2 unless they are alias-aware.
"""

from __future__ import annotations

import re
from enum import Enum

from ._keccak import keccak256
from ._record import FrozenRecord

ADDRESS_SPACE = 1 << 160

# Offset added to an L1 contract address to form its L2 alias.
ALIAS_OFFSET_INT = 0x1111000000000000000000000000000000001111

HEX_ADDRESS_RE = re.compile(r"^0x[0-9a-fA-F]{40}$")


class Address(FrozenRecord):
    """A 160-bit account address."""

    def __init__(self, value: int):
        if not 0 <= value < ADDRESS_SPACE:
            raise ValueError(f"address out of range: {value:#x}")
        vars(self)["value"] = value

    @classmethod
    def from_hex(cls, text: str) -> "Address":
        """Parse a 0x-prefixed, exactly-40-hex-digit address string."""
        if not HEX_ADDRESS_RE.match(text):
            raise ValueError(f"not a 0x-prefixed 40-hex-digit address: {text!r}")
        return cls(int(text, 16))

    def hex(self) -> str:
        return f"0x{self.value:040x}"

    def checksummed(self) -> str:
        """EIP-55 mixed-case form: casing derived from the keccak of the hex."""
        plain = f"{self.value:040x}"
        digest = keccak256(plain.encode("ascii")).hex()
        chars = [
            c.upper() if int(digest[i], 16) >= 8 else c
            for i, c in enumerate(plain)
        ]
        return "0x" + "".join(chars)

    def __str__(self) -> str:
        return self.checksummed()


ALIAS_OFFSET = Address(ALIAS_OFFSET_INT)


class SenderKind(Enum):
    EXTERNALLY_OWNED = "externally_owned"
    CONTRACT = "contract"


class SenderContext(FrozenRecord):
    """Who sent the L1-to-L2 message, and whether the sender is a contract."""

    def __init__(self, l1_sender: Address, l1_sender_kind: SenderKind):
        vars(self).update(l1_sender=l1_sender, l1_sender_kind=l1_sender_kind)


def apply_alias(a: Address, offset: Address = ALIAS_OFFSET) -> Address:
    return Address((a.value + offset.value) % ADDRESS_SPACE)


def undo_alias(a: Address, offset: Address = ALIAS_OFFSET) -> Address:
    return Address((a.value - offset.value) % ADDRESS_SPACE)


def l2_msg_sender(ctx: SenderContext, offset: Address = ALIAS_OFFSET) -> Address:
    """The sender an L2 contract observes for a message from ``ctx``.

    Contract senders are aliased; externally owned senders pass through
    unchanged.
    """
    if ctx.l1_sender_kind is SenderKind.CONTRACT:
        return apply_alias(ctx.l1_sender, offset)
    return ctx.l1_sender
