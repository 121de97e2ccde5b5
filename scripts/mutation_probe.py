#!/usr/bin/env python3
"""One-line mutation probe of the tier-1 tests.

Each mutant of ``MUTANTS`` replaces one anchor text in ``src/logeuler``.
The probe applies the mutants one at a time, each to a copy of ``src/``
(with the tests and the files they read) in a temporary directory, and on
that copy runs tier-1 once (less the anchor test below, which a mutant
fails by removing its anchor).  It prints one line per mutant: the first
tier-1 test that failed, or ``SURVIVED``, and the acceptance criteria
among the failures, which alone would have killed it.  A survivor is not
always a gap: a mutant may give the same bytes.

    python3 scripts/mutation_probe.py

Each anchor must occur exactly once in ``src/`` (a tier-1 test checks it),
so a change that moves an anchor updates it here.  The exit status is 1
when a mutant survives and 2 when an anchor is not found exactly once.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src") / "logeuler"
# what tier-1 reads
COPIED = ("src", "tests", "scripts", "pyproject.toml", "README.md")
# a mutant removes its own anchor, which this test reads
ANCHOR_TEST = "tests/test_scripts.py::test_mutation_probe_anchors_occur_once_in_src"
TIMEOUT = 900  # seconds for one pytest run; a hang counts as a kill

# (name, file in src/logeuler, anchor, replacement)
MUTANTS = [
    # the sites of the first hand-run probe
    ("symbol", "multipliers.py",
     "np.log(np.asarray(r, dtype=float) + 10.0)",
     "np.log(np.asarray(r, dtype=float) + 11.0)"),
    ("mtilde", "multipliers.py",
     "tgamma_eval(float(N) / 8.0, gamma)", "tgamma_eval(float(N) / 4.0, gamma)"),
    ("velocity table", "solver.py",
     "self.u2_mult = -1j * grid.kx * m / k2", "self.u2_mult = 1j * grid.kx * m / k2"),
    ("energy table", "norms.py",
     "out = tgamma_eval(g.kmod, gamma) / k2",
     "out = tgamma_eval(g.kmod + 1.0, gamma) / k2"),
    ("nyquist weight", "spectral.py", "        w[-1] = 1.0", "        w[-1] = 2.0"),
    ("rk4 weight", "solver.py",
     "np.multiply(dt, k, out=stage)", "np.multiply(0.5 * dt, k, out=stage)"),
    ("annulus", "inequalities.py",
     "phi_eval(r) - phi_eval(2.0 * r)", "phi_eval(r) - phi_eval(2.1 * r)"),
    ("embedding ratio", "inequalities.py",
     "norm / (math.sqrt(p) * denom_base)", "norm / (math.sqrt(p + 1) * denom_base)"),
    ("loginterp ratio", "inequalities.py",
     "math.log(h1 + math.e) * spr", "math.log(h1 + 2.0) * spr"),
    ("bernstein ratio", "inequalities.py",
     "N ** (2.0 * (1.0 / float(p)", "N ** (1.0 * (1.0 / float(p)"),
    ("sup-over-p ratio", "norms.py",
     "ratio = norm / np.sqrt(p)", "ratio = norm / np.sqrt(p + 1)"),
    ("grad-u symbols", "norms.py",
     "(-kx * ky, -ky * ky, kx * kx)", "(-kx * ky, -kx * kx, kx * kx)"),
    ("h-1 order", "norms.py",
     "hm1dot=_sobolev(power, -1.0)", "hm1dot=_sobolev(power, -2.0)"),
    ("discarded-energy weight", "solver.py",
     "read_only(1.0 - chi_outer**2)", "read_only(1.0 - chi_outer)"),
    ("multiscale weights", "inequalities.py",
     "np.exp(1j * phase) / (j + 1)", "np.exp(1j * phase) / (j + 2)"),
    # the code since: row crop, member hand-off, sup_inverse's row blocks
    ("row crop", "spectral.py",
     "return (rows + 1) // 2, n - rows // 2",
     "return (rows + 1) // 2, n - rows // 2 + 1"),
    ("member hand-off", "inequalities.py",
     "if len(parts) > 1 and parts[-2].cancel():",
     "if len(parts) > 2 and parts[-2].cancel():"),
    ("sup row blocks", "spectral.py",
     "np.fft.irfft(c[i : i + rows], n=n", "np.fft.irfft(c[0:rows], n=n"),
    # the bounds on the lab's block tables and on the zero-field sweep map
    ("lattice bound", "inequalities.py",
     "if N * N >= 2.0 * n * n:", "if N * N >= 8.0 * n * n:"),
    ("zero-field map", "norms.py",
     "dict.fromkeys(range(2, p_keep + 1), 0.0)",
     "dict.fromkeys(range(2, max(p_max, p_keep) + 1), 0.0)"),
]


def anchor_counts() -> dict[str, int]:
    """{mutant name: occurrences of its anchor in all of src/}."""
    texts = [path.read_text() for path in sorted((ROOT / PACKAGE).glob("*.py"))]
    return {name: sum(text.count(anchor) for text in texts)
            for name, _, anchor, _ in MUTANTS}


def mutate(text: str, anchor: str, replacement: str) -> str:
    """``text`` with its one ``anchor`` replaced; ValueError otherwise."""
    if text.count(anchor) != 1:
        raise ValueError(f"anchor {anchor!r} occurs {text.count(anchor)} times")
    return text.replace(anchor, replacement)


def _failures(tree: Path) -> list[str]:
    """The ids of the tests that fail when tier-1 runs on ``tree`` (its own
    src/ first on the path), in the order they ran, or the exit status or
    timeout when pytest failed with no such test."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-v", "-p", "no:cacheprovider",
           "--continue-on-collection-errors", "--deselect", ANCHOR_TEST]
    try:
        proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True,
                              text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return [f"timeout after {TIMEOUT} s"]
    # -v prints one line per test as it runs; a teardown error repeats an id
    failed = re.findall(r"^(\S+::\S+) (?:FAILED|ERROR)\b", proc.stdout, re.M)
    return (list(dict.fromkeys(failed))
            or ([f"pytest exit {proc.returncode}"] if proc.returncode else []))


def probe(path: str, anchor: str, replacement: str) -> tuple[str, str]:
    """(the first tier-1 test that fails, or SURVIVED; the criteria that fail)."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp)
        for part in COPIED:
            source, target = ROOT / part, tree / part
            if source.is_dir():
                shutil.copytree(source, target,
                                ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(source, target)
        target = tree / PACKAGE / path
        target.write_text(mutate(target.read_text(), anchor, replacement))
        failed = _failures(tree)
    criteria = sorted({int(c) for f in failed
                       for c in re.findall(r"test_criterion_(\d+)_", f)})
    return (failed[0] if failed else "SURVIVED",
            ", ".join(map(str, criteria)) or "none")


def main() -> int:
    bad = {name: n for name, n in anchor_counts().items() if n != 1}
    if bad:
        print(f"anchors not found exactly once in src/: {bad}", file=sys.stderr)
        return 2
    survived = 0
    for name, *mutant in MUTANTS:
        killer, criteria = probe(*mutant)
        survived += killer == "SURVIVED"
        print(f"{name:24}  {killer}  [criteria: {criteria}]", flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
