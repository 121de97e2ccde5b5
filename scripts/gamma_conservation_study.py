#!/usr/bin/env python3
"""Conservation and norm growth across gamma: ``logeuler sweep`` with the
defaults below, then ``logeuler report`` on each run in sorted order.
Extra arguments are sweep flags and override the defaults."""

import os
import sys

from logeuler import cli

DEFAULTS = ["--n", "256", "--tmax", "1.0", "--seed", "7", "--ic-amplitude", "10",
            "--gamma", "0,0.5,1,1.5", "--cfl", "0.2", "--mollify", "dealias",
            "--ic", "random_band", "--diag-every", "1", "--out", "runs/gamma_study"]


def main(argv: list[str]) -> int:
    args = ["sweep", *DEFAULTS, *argv]
    root = cli.build_parser().parse_args(args).out  # bad flags exit 2 here
    code = cli.run_cli(args)
    runs = sorted(os.listdir(root)) if os.path.isdir(root) else []
    return max([code, *(cli.run_cli(["report", os.path.join(root, r)]) for r in runs)])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
