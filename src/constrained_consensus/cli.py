"""Command-line driver.

Four commands; the last three each call one ``experiments`` protocol,
write the CSV that ``experiments`` renders, and print a summary:

* ``validate`` - run the randomized invariant suites, print PASS/FAIL per
  check, exit nonzero on any failure.
* ``run``      - ``validation_study``: both algorithms + baseline.
* ``sweep``    - ``rate_sweep``: convergence rate across network densities.
* ``pocs``     - ``pocs_study``: the baseline alone.

Parameters come from flags or from a flat ``key = value`` config file
(``--config``); flags override file values.  Exit codes: 0 success,
1 invariant failure, 2 usage/config error, 3 instance-generation failure,
4 I/O error.  The library checks every parameter before any round and
raises ``ValueError`` on a rejected input, which ``main`` reports as a
usage error.  The CLI adds two rules: float flags are finite (the library
takes ``rho = inf``, the complete graph), and ``fiedler_cut`` is positive.
A bug surfaces as an ``InvariantError``, or as a traceback unless it
raises ``ValueError``.
"""

from __future__ import annotations

import argparse
import math
import statistics
import sys

from .engine import InvariantError
from .experiments import (
    GenerationError,
    median_split,
    pocs_csv_chunks,
    pocs_study,
    rate_sweep,
    sweep_csv_text,
    validation_csv_chunks,
    validation_csv_text,  # not called here; perfbench/harness.py wraps this name
    validation_study,
    write_text,
)

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_USAGE = 2
EXIT_GENERATION = 3
EXIT_IO = 4


class ConfigError(ValueError):
    """Bad configuration value or unknown key."""


# schema: per command, key -> (type, default).  None defaults are filled in
# at run time (e.g. max_iters -> 100*n) or stay optional.
SCHEMAS: dict[str, dict[str, tuple[type, object]]] = {
    "validate": {
        "seed": (int, 0),
        "suite": (str, None),
    },
    "run": {
        "n": (int, 100),
        "q": (int, 2),
        "rho": (float, 0.3),
        "epsilon": (float, 0.01),
        "trials": (int, 50),
        "threshold": (float, 1e-5),
        "max_iters": (int, None),
        "step_size": (float, None),
        "pocs_cycles": (int, 40),
        "max_attempts": (int, 100),
        "seed": (int, 0),
        "out": (str, "validation.csv"),
    },
    "sweep": {
        "n": (int, 100),
        "q": (int, 2),
        "rho_min": (float, 0.1),
        "rho_max": (float, 0.4),
        "epsilon": (float, 0.01),
        "realizations": (int, 200),
        "threshold": (float, 1e-5),
        "max_iters": (int, None),
        "fiedler_cut": (float, None),
        "seed": (int, 0),
        "out": (str, "sweep.csv"),
    },
    "pocs": {
        "n": (int, 100),
        "q": (int, 2),
        "rho": (float, 0.3),
        "epsilon": (float, 0.01),
        "trials": (int, 1),
        "cycles": (int, 40),
        "max_attempts": (int, 100),
        "seed": (int, 0),
        "out": (str, "pocs.csv"),
    },
}


def parse_config_text(text: str) -> dict[str, str]:
    """Flat 'key = value' lines; '#' starts a comment."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line.strip()!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value")
        raw[key] = value
    return raw


def coerce_config(command: str, raw: dict[str, str]) -> dict:
    schema = SCHEMAS[command]
    unknown = sorted(set(raw) - set(schema))
    if unknown:
        raise ConfigError(f"unknown config key(s) for '{command}': {', '.join(unknown)}")
    cfg = {}
    for key, value in raw.items():
        typ = schema[key][0]
        try:
            cfg[key] = typ(value)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {value!r}") from exc
    return cfg


def resolve_config(command: str, args: argparse.Namespace) -> dict:
    """defaults <- config file <- flags, then range-check."""
    schema = SCHEMAS[command]
    cfg = {key: default for key, (_, default) in schema.items()}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        cfg.update(coerce_config(command, parse_config_text(text)))
    for key in schema:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    _validate_ranges(command, cfg)
    return cfg


def _validate_ranges(command: str, cfg: dict) -> None:
    for key, value in cfg.items():
        if value is None:
            continue
        if SCHEMAS[command][key][0] is float and not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {value}")
    if cfg.get("fiedler_cut") is not None and not cfg["fiedler_cut"] > 0:
        raise ConfigError(f"fiedler_cut must be positive, got {cfg['fiedler_cut']}")


def cmd_validate(cfg: dict) -> int:
    # imported here: the other commands need no check suites
    from .selfcheck import run_checks

    suites = [cfg["suite"]] if cfg["suite"] else None
    results = run_checks(suites=suites, seed=cfg["seed"])
    failures = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        detail = f" - {r.detail}" if r.detail else ""
        print(f"{status} {r.suite}.{r.name}{detail}")
        failures += 0 if r.passed else 1
    print(f"{len(results) - failures}/{len(results)} checks passed (seed {cfg['seed']})")
    return EXIT_OK if failures == 0 else EXIT_INVARIANT


def cmd_run(cfg: dict) -> int:
    result = validation_study(
        n=cfg["n"], q=cfg["q"], rho=cfg["rho"], epsilon=cfg["epsilon"],
        trials=cfg["trials"], max_iters=cfg["max_iters"], threshold=cfg["threshold"],
        base_seed=cfg["seed"], step_size=cfg["step_size"],
        pocs_cycles=cfg["pocs_cycles"], max_attempts=cfg["max_attempts"])
    write_text(validation_csv_chunks(result), cfg["out"])
    med = result.median_iterations()
    print(f"trials: {cfg['trials']}")
    print(f"median iterations: best-response {med['dgtc']}, gradient-projection {med['dgpc']}")
    final_disp = statistics.median(result.pocs_displacements[:, -1].tolist())
    print(f"baseline median final cycle displacement: {final_disp:.3e}")
    print(f"wrote {cfg['out']}")
    return EXIT_OK


def cmd_sweep(cfg: dict) -> int:
    records = rate_sweep(
        n=cfg["n"], q=cfg["q"], rho_min=cfg["rho_min"], rho_max=cfg["rho_max"],
        realizations=cfg["realizations"], threshold=cfg["threshold"],
        base_seed=cfg["seed"], epsilon=cfg["epsilon"], max_iters=cfg["max_iters"])
    write_text(sweep_csv_text(records), cfg["out"])
    cut = cfg["fiedler_cut"] if cfg["fiedler_cut"] is not None else _default_cut(cfg["q"])
    split = median_split(records, cut)
    print(f"realizations: {len(records)} (fiedler < {cut:g}: {split['num_sparse']})")
    if "sparse_median_dgtc" in split:
        print(f"sparse median iterations: best-response {split['sparse_median_dgtc']}, "
              f"gradient-projection {split['sparse_median_dgpc']}")
    print(f"full-range median iterations: best-response {split['full_median_dgtc']}, "
          f"gradient-projection {split['full_median_dgpc']}")
    print(f"wrote {cfg['out']}")
    return EXIT_OK


def _default_cut(q: int) -> float:
    # the sparse/dense crossover sits near 3 in 2-d and near 7 in 4-d
    return 3.0 + 2.0 * max(0, q - 2)


def cmd_pocs(cfg: dict) -> int:
    disp, dist = pocs_study(
        n=cfg["n"], q=cfg["q"], rho=cfg["rho"], epsilon=cfg["epsilon"], trials=cfg["trials"],
        cycles=cfg["cycles"], base_seed=cfg["seed"], max_attempts=cfg["max_attempts"])
    write_text(pocs_csv_chunks(disp, dist, cfg["seed"]), cfg["out"])
    print(f"trials: {cfg['trials']}, cycles: {cfg['cycles']}")
    print(f"max final distance to any set: {dist[:, -1].max():.3e}")
    print(f"wrote {cfg['out']}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="constrained-consensus",
        description="Distributed constrained-consensus simulations and experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(command: str, helptext: str) -> argparse.ArgumentParser:
        p = sub.add_parser(command, help=helptext)
        p.add_argument("--config", help="flat key = value config file (flags override)")
        for key, (typ, default) in SCHEMAS[command].items():
            flag = "--" + key.replace("_", "-")
            p.add_argument(flag, type=typ, default=None,
                           help=f"default: {default}" if default is not None else None)
        return p

    add("validate", "run the randomized invariant suites")
    add("run", "Monte-Carlo validation study (writes CSV)")
    add("sweep", "convergence-rate sweep over network density (writes CSV)")
    add("pocs", "baseline-only cyclic projection runs (writes CSV)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"validate": cmd_validate, "run": cmd_run, "sweep": cmd_sweep, "pocs": cmd_pocs}
    try:
        cfg = resolve_config(args.command, args)
        return handlers[args.command](cfg)
    except ValueError as exc:  # a rejected input, ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InvariantError as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except GenerationError as exc:
        print(f"generation error: {exc}", file=sys.stderr)
        return EXIT_GENERATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
