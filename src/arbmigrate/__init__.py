"""arbmigrate: migration-safety toolkit for Ethereum-to-Arbitrum moves.

Simulators for the semantic differences that bite migrated contracts
(sequencer downtime and the delayed inbox, retryable-ticket fees, L1 block
number lag, address aliasing, gas pricing) plus a static analyzer that flags
the corresponding risk patterns in contract source, and differential
scenarios demonstrating each risk end to end.
"""

import importlib

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "aliasing",
    "chainmodel",
    "gasmodel",
    "minisol",
    "retryable",
    "rules",
    "scenarios",
    "sequencer",
]


def __getattr__(name: str):
    """Import a listed submodule on first access, so each entry point loads only what it runs."""
    if name in __all__:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
