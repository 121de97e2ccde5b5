#!/usr/bin/env python3
"""The inequality-verification battery: ``logeuler verify`` for each check
with the defaults below, one CSV each.  Extra arguments are verify flags
and override the defaults."""

import sys

from logeuler.cli import run_cli

DEFAULTS = ["--n", "256", "--nmax", "64", "--out", "runs/battery"]
RUNS = [["embedding"], ["loginterp"], ["multiplier"], ["bernstein"],
        ["sharpness", "--pmax", "256"]]


def main(argv: list[str]) -> int:
    return max([run_cli(["verify", *run, *DEFAULTS, *argv]) for run in RUNS])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
