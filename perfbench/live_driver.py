"""Run the carbonrun CLI against a synthetic powercap tree.

    python3 perfbench/live_driver.py ROOT COUNT_FILE -- run --offline ... -- CMD

The CLI has no option for the powercap root, so this driver binds
`PowercapSource` in `carbonrun.cli` to ROOT and then calls the real
`carbonrun.cli.main` with the remaining arguments.  The bound source counts
its instants and writes the count to COUNT_FILE when the CLI exits; the
count is one integer increment per read, next to the reads' file I/O.
"""

from __future__ import annotations

import sys

import carbonrun.cli
from carbonrun.meter import PowercapSource


def main(argv: list[str]) -> None:
    root, count_file, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: live_driver.py ROOT COUNT_FILE -- CLI ARGS...")
    instants = 0

    class RootedSource(PowercapSource):
        def __init__(self):
            super().__init__(root=root)

        def next_instant(self):
            nonlocal instants
            instants += 1
            return super().next_instant()

    carbonrun.cli.PowercapSource = RootedSource
    try:
        carbonrun.cli.main(cli_args, prog_name="carbonrun")
    finally:
        with open(count_file, "w") as fh:
            fh.write(f"{instants}\n")


if __name__ == "__main__":
    main(sys.argv[1:])
