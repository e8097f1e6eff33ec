"""Tour of the command-line interface and the JSON exchange formats.

Everything the library does is reachable from the `secrecy` command:
channels, states, and codes travel as JSON files with full float
precision, and each subcommand exits 0 on success, 1 on bad input,
2 when a premise fails (channel not degraded, targets outside the
converse region), 3 on solver failure.  This script drives the same
entry point in-process.
"""

import tempfile
from pathlib import Path

from secrecy.channels import bsc_wiretap_channel
from secrecy.cli import main
from secrecy.io import save_channel, save_state
from secrecy.quantum import maximally_entangled


def run(argv, expect=0):
    print(f"$ secrecy {' '.join(argv)}")
    code = main(argv)
    print(f"  -> exit {code}\n")
    if code != expect:
        raise SystemExit(f"expected exit {expect}, got {code}")


def main_demo():
    with tempfile.TemporaryDirectory() as name:
        tour(Path(name))


def tour(tmp):
    chan = tmp / "bsc.json"
    save_channel(bsc_wiretap_channel(0.1, 0.2), chan)
    bell = tmp / "bell.json"
    save_state(maximally_entangled(2), bell)
    print(f"files written to {tmp}\n")

    run(["validate", str(chan)])
    run(["degrade-check", str(chan)])
    run(["capacity", str(chan)])
    run(["entropy", str(bell), "--which", "hmin", "--smooth", "0.0",
         "--split", "1,1"])
    run(["converse", str(chan), "-n", "100", "--eps", "0.1",
         "--delta", "0.1"])
    run(["converse", str(chan), "-n", "100", "--eps", "0.6",
         "--delta", "0.3"], expect=2)   # outside the region

    csv_path = tmp / "region.csv"
    run(["region", "--grid", "4", "-o", str(csv_path)])
    print("region CSV head:")
    for line in csv_path.read_text().splitlines()[:4]:
        print(" ", line)


if __name__ == "__main__":
    main_demo()
