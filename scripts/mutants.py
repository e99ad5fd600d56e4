#!/usr/bin/env python3
"""Mutant check for the engine's per-round invariants and its entry checks.

Each mutant below is a one-line edit of the package source that removes
one guard; one edits two lines, the ball a cycle's next pass starts at and
its step past the ball a point landed on, which only together can hang
the tests.  The script copies ``src/``, ``tests/`` and ``pyproject.toml``
into a temporary directory, applies one mutant at a time, and runs a fast
test subset (engine, game and sets: a few seconds), its Hypothesis
properties drawn from one fixed seed.  A mutant under which the subset
still passes has survived: the guard it removes is untested.  A run that outlasts ten
times the unmutated run (at least 60 s) is stopped and counted as killed:
a mutant that hangs the tests is caught by them.

It exits 1 if any mutant survives, if a mutant's line is no longer in the
source (a guard that moved must be updated here), or if the unmutated copy
fails, whose pytest output it then prints.  Usage:

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
SETS = "src/constrained_consensus/sets.py"
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
    ("cycle-skips-a-ball", "a moved point is tested against the very next ball", SETS,
     "excluded &= np.arange(first, n)[:, None] > landed",
     "excluded &= np.arange(first, n)[:, None] > landed + 1"),
    ("cycle-starts-at-ball-1", "a cycle's first pass tests ball 0", SETS,
     "moving, landed, first = np.arange(len(x)), -1, 0",
     "moving, landed, first = np.arange(len(x)), 0, 1"),
    ("cycle-retests-landed", "a projected point is not projected onto its ball again", SETS,
     "excluded &= np.arange(first, n)[:, None] > landed",
     "excluded &= np.arange(first, n)[:, None] >= landed"),
    ("cycle-unbounded-retest", "a cycle ends: each pass moves its first ball on", SETS,
     "excluded &= np.arange(first, n)[:, None] > landed\n"
     "            hit = excluded.any(axis=0)\n"
     "            if not hit.any():\n"
     "                break\n"
     "            moving, landed = moving[hit], first + excluded[:, hit].argmax(axis=0)\n"
     "            first = landed.min() + 1",
     "excluded &= np.arange(first, n)[:, None] >= landed\n"
     "            hit = excluded.any(axis=0)\n"
     "            if not hit.any():\n"
     "                break\n"
     "            moving, landed = moving[hit], first + excluded[:, hit].argmax(axis=0)\n"
     "            first = landed.min()"),
    ("pass-starts-at-landed", "a pass tests only the balls past the lowest landing", SETS,
     "first = landed.min() + 1",
     "first = landed.min()"),
    ("settle-on-zero-move", "a member settles on equal bits, not a 0.0 displacement", ENGINE,
     "moved = (end.view(np.uint64) != start.view(np.uint64)).any(axis=1)",
     "moved = disp[moving, k] != 0.0"),
    ("distance-not-refreshed", "a moving member's set distance is taken every cycle", ENGINE,
     "dist[moving, k] = inst._distances(end, moving)",
     "dist[moving, k] = inst._distances(end, moving) if not k else dist[moving, k - 1]"),
]


def run_subset(tree: pathlib.Path, timeout: float | None = None) -> subprocess.CompletedProcess:
    """The test subset on ``tree``, stopped at the first failure, its output
    captured; raises ``subprocess.TimeoutExpired`` after ``timeout`` seconds.
    Hypothesis draws from one fixed seed, so a verdict does not depend on
    the draw (tier 1 runs the properties unseeded)."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "--hypothesis-seed=0", *TESTS]
    return subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True, timeout=timeout)


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
        t0 = time.perf_counter()
        clean = run_subset(tree)
        if clean.returncode:
            print(clean.stdout)
            print("the unmutated copy fails the test subset; nothing was checked")
            return 1
        timeout = max(60.0, 10 * (time.perf_counter() - t0))
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
                killed = run_subset(tree, timeout).returncode != 0
                verdict = "killed" if killed else "SURVIVED"
            except subprocess.TimeoutExpired:
                killed, verdict = True, "killed (timeout)"
            finally:
                (tree / path).write_text(source)
            if not killed:
                survivors.append(name)
            print(f"{name:24} {verdict:16} {time.perf_counter() - t0:5.1f} s  {guard}")
    print(f"{len(MUTANTS) - len(survivors) - len(stale)} of {len(MUTANTS)} mutants killed")
    return 1 if survivors or stale else 0


if __name__ == "__main__":
    sys.exit(main())
