#!/usr/bin/env python3
"""Mutant check for the engine's per-round invariants and its entry checks.

Each mutant below is a one-line edit of the package source that removes
one guard.  The script copies ``src/``, ``tests/`` and ``pyproject.toml``
into a temporary directory, applies one mutant at a time, and runs a fast
test subset (engine, game and sets: a few seconds).  A mutant under which
the subset still passes has survived: the guard it removes is untested.

It exits 1 if any mutant survives, if a mutant's line is no longer in the
source (a guard that moved must be updated here), or if the unmutated copy
fails.  Usage:

    python scripts/mutants.py
"""

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
ENGINE = "src/constrained_consensus/engine.py"
GAME = "src/constrained_consensus/game.py"
TESTS = ["tests/test_engine.py", "tests/test_game.py", "tests/test_sets.py"]

# (name, the guard it removes, file, line as in the source, mutated line);
# a line that recurs in its file is matched with the line after it
MUTANTS = [
    ("clash-none", "independence of a round's winners", ENGINE,
     "clashes = int(np.bitwise_or.reduce(words[u] & words[v]))",
     "clashes = 0"),
    ("clash-highest-bit", "the first clashing round of a block is the one named", ENGINE,
     "return (clashes & -clashes).bit_length() - 1 if clashes else len(wins)",
     "return clashes.bit_length() - 1 if clashes else len(wins)"),
    ("feasibility-1e3", "the per-round feasibility bound", ENGINE,
     "failed = ~(np.maximum.reduce(dists, axis=-1) <= DEFAULT.membership)",
     "failed = ~(np.maximum.reduce(dists, axis=-1) <= 1e3)"),
    ("monotonicity-off", "best-response potentials never decrease", ENGINE,
     "if phi is not None:",
     "if False:"),
    ("fixed-point-unchecked", "the round that finds a fixed point is checked", ENGINE,
     'checked = k if stop is None else kept + (stop == "fixed_point")',
     "checked = k if stop is None else kept"),
    ("domain-cut-off", "a round outside the magnitude domain ends its block", ENGINE,
     "inside = _inside(block[1:k + 1])",
     "inside = k"),
    ("dgpc-domain-off", "the gradient step stays in the magnitude domain", ENGINE,
     '_check_domain(stepped, "gradient step")',
     "pass"),
    ("domain-rank", "a round outside the magnitude domain fails its own check", ENGINE,
     "k = min(clash, infeasible, _inside(profs))",
     "k = min(clash, infeasible, len(profs))"),
    ("start-check", "the starting profile is feasible", ENGINE,
     "_check_rounds(inst, prof[None], None, None, None)",
     "pass"),
    ("tie-rule", "a tie goes to the higher node id", ENGINE,
     "lost[np.where(metrics[i] > metrics[k], k, i)] = True",
     "lost[np.where(metrics[i] >= metrics[k], k, i)] = True"),
    ("tie-fast-path", "ties between neighbors take the edge rule", ENGINE,
     "if not np.logical_or.reduce(metrics == largest):",
     "if True:"),
    ("threshold-rollback", "a block is rolled back to its threshold round", ENGINE,
     'kept, stop = int(above.argmin()), "threshold"',
     'kept, stop = inside, "threshold"'),
    ("metric-domain", "consensus_metric's profile is in the magnitude domain", ENGINE,
     '_check_domain(prof, "profile entries")',
     "pass"),
    ("potential-domain", "potential's profile is in the magnitude domain", GAME,
     '_check_domain(prof, "profile entries")\n    i, k = inst.edge_pairs',
     "i, k = inst.edge_pairs"),
    ("as-profile-domain", "as_profile's profile is in the magnitude domain", GAME,
     '_check_domain(prof, "profile entries")\n    return prof',
     "return prof"),
    ("anchor-domain", "initialize's layout anchors are in the magnitude domain", ENGINE,
     '_check_domain(anchors, "layout positions")',
     "pass"),
    ("pocs-start-domain", "pocs_run's start is in the magnitude domain", ENGINE,
     '_check_domain(x, "starting point coordinates")',
     "pass"),
    ("from-balls-unchecked", "GameInstance.from_balls checks its ball table", GAME,
     'c, r = _ball_table((centers, radii), "ball table")',
     "c, r = np.asarray(centers, dtype=float), np.asarray(radii, dtype=float)"),
]


def passes(tree: pathlib.Path) -> bool:
    """True if the test subset passes on ``tree``; stops at the first failure."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *TESTS]
    return subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode == 0


def imported_from(tree: pathlib.Path) -> str:
    """Where the package is imported from when the subset runs on ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    code = "import constrained_consensus as cc; print(cc.__file__)"
    return subprocess.run([sys.executable, "-c", code], cwd=tree, env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = pathlib.Path(tmp)
        shutil.copytree(ROOT / "src", tree / "src")
        shutil.copytree(ROOT / "tests", tree / "tests")
        shutil.copy(ROOT / "pyproject.toml", tree)
        if not imported_from(tree).startswith(str(tree)):
            print("the package is not imported from the copy; nothing was checked")
            return 1
        if not passes(tree):
            print("the unmutated copy fails the test subset; nothing was checked")
            return 1
        survivors, stale = [], []
        for name, guard, path, old, new in MUTANTS:
            source = (ROOT / path).read_text()
            if source.count(old) != 1:
                stale.append(name)
                print(f"{name:24} STALE   line not found once in {path}: {old!r}")
                continue
            t0 = time.perf_counter()
            (tree / path).write_text(source.replace(old, new))
            try:
                killed = not passes(tree)
            finally:
                (tree / path).write_text(source)
            if not killed:
                survivors.append(name)
            verdict = "killed" if killed else "SURVIVED"
            print(f"{name:24} {verdict:8} {time.perf_counter() - t0:5.1f} s  {guard}")
    print(f"{len(MUTANTS) - len(survivors) - len(stale)} of {len(MUTANTS)} mutants killed")
    return 1 if survivors or stale else 0


if __name__ == "__main__":
    sys.exit(main())
