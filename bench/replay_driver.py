"""Replay one event script through arbmigrate's replay_events and print the summary.

Usage: python3 bench/replay_driver.py SCRIPT.json

The summary is printed as canonical JSON (sorted keys, trailing newline).
"""

from __future__ import annotations

import json
import sys

from arbmigrate import scenarios


def run(path: str) -> str:
    with open(path, encoding="utf-8") as f:
        events = json.load(f)
    return json.dumps(scenarios.replay_events(events), sort_keys=True) + "\n"


if __name__ == "__main__":
    sys.stdout.write(run(sys.argv[1]))
