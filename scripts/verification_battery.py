#!/usr/bin/env python3
"""The inequality-verification battery: ``logeuler verify`` for each check
with the defaults below, one CSV each.  Extra arguments are verify flags
and override the defaults.  After each CSV is written its sha256 is
printed as ``<digest>  <path>``, the line ``sha256sum`` gives, so two
checkouts compare with one command each."""

import hashlib
import os
import sys

from logeuler.cli import build_parser, run_cli
from logeuler.runio import default_out_root

DEFAULTS = ["--n", "256", "--nmax", "64", "--out", "runs/battery"]
RUNS = [["embedding"], ["loginterp"], ["multiplier"], ["bernstein"],
        ["sharpness", "--pmax", "256"]]


def main(argv: list[str]) -> int:
    codes = []
    for run in RUNS:
        args = ["verify", *run, *DEFAULTS, *argv]
        codes.append(run_cli(args))
        if codes[-1] == 0:
            parsed = build_parser().parse_args(args)
            out = parsed.out or os.path.join(default_out_root(), "verify")
            path = os.path.join(out, f"{parsed.mode}.csv")
            with open(path, "rb") as fh:
                print(f"{hashlib.sha256(fh.read()).hexdigest()}  {path}")
    return max(codes)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
