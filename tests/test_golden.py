"""Byte identity of outputs against pinned sha256 digests.

``golden_digests.json`` holds the digest of each output in ``OUTPUTS`` with
the numpy version that made it and the SIMD targets numpy dispatched to.
The two ``verify`` CSVs follow config, seed and numpy version alone.  The
``simulate`` run directory also follows the dispatch level: its T_gamma and
mollifier tables take numpy's SIMD ``log``, ``power`` and ``exp``, and under
``NPY_DISABLE_CPU_FEATURES=X86_V4`` it has other bytes.  The other ``verify``
CSVs (loginterp, multiplier, bernstein) follow the CPU too and are not
pinned.

A change that alters these bytes on purpose rewrites the file with
``PYTHONPATH=src python tests/test_golden.py`` and says which digests
changed, and why, in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

from logeuler.cli import run_cli

DIGESTS = Path(__file__).with_name("golden_digests.json")

# name -> (cli arguments without --out, output file or None for the whole
# output directory)
OUTPUTS = {
    "verify_embedding_n128": (
        ["verify", "embedding", "--n", "128", "--seed", "0", "--pmax", "256"],
        "embedding.csv"),
    "verify_sharpness_n128": (
        ["verify", "sharpness", "--n", "128", "--pmax", "256"], "sharpness.csv"),
    # 43 steps with a record at each and a snapshot every 10
    "simulate_n64_random_band": (
        ["simulate", "--n", "64", "--ic", "random_band", "--ic-amplitude", "50",
         "--diag-every", "1", "--snap-every", "10"], None),
}


def dispatch() -> list[str]:
    """The SIMD targets numpy dispatches to on this CPU."""
    return [target for target in __cpu_dispatch__ if __cpu_features__.get(target)]


def digest(path: Path) -> str:
    """sha256 of a file, or of a directory's files: each relative path and
    its bytes, in sorted order."""
    h = hashlib.sha256()
    files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
    for p in files:
        if path.is_dir():
            h.update(p.relative_to(path).as_posix().encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


def output_digest(name: str, tmp: Path) -> str:
    args, member = OUTPUTS[name]
    out = tmp / name
    if run_cli([*args, "--out", str(out)]) != 0:
        raise RuntimeError(f"{name}: {' '.join(args)} failed")
    return digest(out / member if member else out)


@pytest.mark.parametrize("name", list(OUTPUTS))
def test_output_bytes_match_the_pinned_digest(name, tmp_path):
    pinned = json.loads(DIGESTS.read_text())
    assert set(pinned["sha256"]) == set(OUTPUTS)
    got = output_digest(name, tmp_path)
    assert got == pinned["sha256"][name], (
        f"{name}: sha256 {got} differs from the pinned {pinned['sha256'][name]} "
        f"(pinned with numpy {pinned['numpy']} dispatching to {pinned['dispatch']}, "
        f"running numpy {np.__version__} dispatching to {dispatch()})")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = {name: output_digest(name, Path(tmp)) for name in OUTPUTS}
    DIGESTS.write_text(json.dumps({"numpy": np.__version__, "dispatch": dispatch(),
                                   "sha256": digests}, indent=2) + "\n")
