"""Set-up probe: import every layer, then print CLOCK_MONOTONIC.

The runner starts this in a fresh interpreter and takes the time from
just before the start to the printed clock as one set-up sample.
"""

import importlib
import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
LAYERS = ("gf2", "cubical", "fields", "morse", "graphlag", "specseq", "maslov", "cli")


def import_layers() -> None:
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name in LAYERS:
        importlib.import_module(f"qmdkit.{name}")


if __name__ == "__main__":
    import_layers()
    print(repr(time.monotonic()))
