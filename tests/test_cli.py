import importlib.util
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from constrained_consensus import experiments, game
from constrained_consensus.cli import (
    EXIT_GENERATION,
    EXIT_INVARIANT,
    EXIT_OK,
    EXIT_USAGE,
    ConfigError,
    build_parser,
    coerce_config,
    main,
    parse_config_text,
    resolve_config,
)
from constrained_consensus.engine import StepSizeWarning
from constrained_consensus.sets import Ball

ROOT = Path(__file__).resolve().parents[1]


def test_validate_all_suites_pass(capsys):
    assert main(["validate"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert [line.split()[0] for line in out.splitlines()[:-1]] == ["PASS"] * 22
    assert "PASS sets.projection_idempotent" in out
    assert "PASS engine.dgpc_cost_descent" in out


@pytest.mark.parametrize("seed", [4, 25])
def test_validate_passes_where_cyclic_projections_converge_slowly(seed, capsys):
    # each seed draws an instance whose POCS displacement first reaches 1e-6
    # at cycle 73, past the fixed budget of 60 cycles the check once had
    assert main(["validate", "--seed", str(seed)]) == EXIT_OK
    out = capsys.readouterr().out
    assert [line.split()[0] for line in out.splitlines()[:-1]] == ["PASS"] * 22
    assert "PASS engine.pocs_displacement - 50 random feasible instances, each at most 1e-6 " \
           "within 73 cycles" in out


def test_readme_quickstart_runs_rounds(capsys):
    # the README's python block, run as written: both algorithms start
    # apart and converge
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, flags=re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    lines = capsys.readouterr().out.splitlines()
    firsts = [line for line in lines if line.startswith(("True ", "False "))]
    assert len(firsts) == 2
    for line in firsts:
        converged, rounds = line.split()[:2]
        assert converged == "True" and int(rounds) > 0


@pytest.mark.parametrize("script", ["reproduce_validation", "reproduce_rate_sweep"])
@pytest.mark.parametrize("full", [False, True])
def test_reproduce_scripts_pass_valid_argv_to_the_cli(script, full, tmp_path, monkeypatch):
    # the scripts' CLI calls are recorded, not run: each argv must parse and
    # resolve to a configuration
    spec = importlib.util.spec_from_file_location(script, ROOT / "scripts" / f"{script}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    calls = []
    monkeypatch.setattr(module, "cli_main", lambda argv: calls.append(argv) or EXIT_OK)
    monkeypatch.setattr(sys, "argv", [script, "--outdir", str(tmp_path)] + ["--full"] * full)
    assert module.main() == EXIT_OK
    configs = [resolve_config(args.command, args) for args in map(build_parser().parse_args, calls)]
    assert [cfg["q"] for cfg in configs] == ([2, 3] if script == "reproduce_validation" else [2, 4])
    assert all((cfg["n"] == 100) == full for cfg in configs)
    assert all(cfg["out"].startswith(str(tmp_path)) for cfg in configs)


def test_validate_suite_filter(capsys):
    assert main(["validate", "--suite", "potential"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "potential.exact_potential" in out
    assert "sets.projection_idempotent" not in out
    assert "engine." not in out


def test_validate_unknown_suite_is_usage_error(capsys):
    assert main(["validate", "--suite", "nonsense"]) == EXIT_USAGE
    assert "unknown suite" in capsys.readouterr().err


def test_importing_the_cli_leaves_the_check_suites_out():
    # only validate runs the suites, so no other command compiles selfcheck
    code = ("import sys; sys.path.insert(0, 'src'); import constrained_consensus.cli; "
            "print('constrained_consensus.selfcheck' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


def test_validate_corrupted_step_fails(capsys, monkeypatch):
    # a 10x step-size corruption makes the observed gradient-descent
    # monotonicity check fail (convergence no longer guaranteed there)
    step = game.default_step_size
    monkeypatch.setattr(game, "default_step_size", lambda inst: 10.0 * step(inst))
    with pytest.warns(StepSizeWarning):
        code = main(["validate", "--suite", "engine"])
    out = capsys.readouterr().out
    assert code == EXIT_INVARIANT
    assert "FAIL engine.dgpc_cost_descent" in out


def test_run_writes_deterministic_csv(tmp_path, capsys):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["run", "--n", "10", "--q", "2", "--rho", "0.5", "--trials", "2",
            "--threshold", "1e-5", "--seed", "7"]
    assert main(args + ["--out", str(out1)]) == EXIT_OK
    assert main(args + ["--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header == "algo,trial,seed,t,consensus_metric,potential"
    assert "median iterations" in capsys.readouterr().out


def test_sweep_writes_csv_and_summary(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--n", "10", "--rho-min", "0.35", "--rho-max", "0.6",
                 "--realizations", "3", "--threshold", "1e-4",
                 "--max-iters", "2000", "--seed", "3", "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "trial,seed,rho,fiedler,iters_dgtc,conv_dgtc,iters_dgpc,conv_dgpc"
    assert len(lines) == 4
    text = capsys.readouterr().out
    assert "full-range median iterations" in text


def test_pocs_command(tmp_path, capsys):
    out = tmp_path / "pocs.csv"
    code = main(["pocs", "--n", "10", "--rho", "0.5", "--trials", "2",
                 "--cycles", "6", "--seed", "1", "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "trial,seed,cycle,displacement,max_set_distance"
    assert len(lines) == 1 + 2 * 6
    assert "max final distance" in capsys.readouterr().out


def test_pocs_builds_no_ball(tmp_path, monkeypatch):
    # the baseline stacks each instance's center and radius arrays
    built = []
    init = Ball.__post_init__
    monkeypatch.setattr(Ball, "__post_init__", lambda ball: built.append(ball) or init(ball))
    assert main(["pocs", "--n", "20", "--rho", "0.5", "--trials", "3", "--cycles", "4",
                 "--out", str(tmp_path / "pocs.csv")]) == EXIT_OK
    assert built == []
    # the counter counts: an instance's sets are balls
    loc = experiments.make_localization_instance(20, 2, 0.5, 0.01, 0)
    assert len(loc.game_instance.sets) == len(built) == 20


def test_generation_failure_exit_code(tmp_path, capsys):
    code = main(["run", "--n", "40", "--rho", "0.01", "--trials", "1",
                 "--max-attempts", "3", "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_GENERATION
    assert "generation error" in capsys.readouterr().err


def test_usage_errors(tmp_path, capsys):
    assert main(["run", "--n", "1", "--out", str(tmp_path / "x.csv")]) == EXIT_USAGE
    capsys.readouterr()
    assert main(["sweep", "--rho-min", "0.5", "--rho-max", "0.4"]) == EXIT_USAGE
    capsys.readouterr()
    assert main(["run", "--trials", "-3"]) == EXIT_USAGE
    capsys.readouterr()
    assert main(["sweep", "--realizations", "0"]) == EXIT_USAGE
    capsys.readouterr()
    assert main(["run", "--epsilon", "nan"]) == EXIT_USAGE
    capsys.readouterr()
    assert main(["run", "--step-size", "nan"]) == EXIT_USAGE
    capsys.readouterr()
    assert main(["run", "--threshold", "nan"]) == EXIT_USAGE
    capsys.readouterr()
    assert main(["run", "--rho", "nan"]) == EXIT_USAGE
    capsys.readouterr()
    assert main(["pocs", "--rho", "inf"]) == EXIT_USAGE
    capsys.readouterr()
    assert main(["sweep", "--rho-max", "inf"]) == EXIT_USAGE
    capsys.readouterr()
    assert main(["sweep", "--rho-min", "-0.5", "--rho-max", "-0.1"]) == EXIT_USAGE
    assert "must be" in capsys.readouterr().err
    assert main(["sweep", "--rho-min", "0", "--rho-max", "0.5"]) == EXIT_USAGE
    assert "rho_min must be positive" in capsys.readouterr().err
    assert main(["run", "--seed", "-1", "--n", "10", "--rho", "0.5", "--trials", "1",
                 "--out", str(tmp_path / "x.csv")]) == EXIT_USAGE
    assert "seed must be nonnegative" in capsys.readouterr().err
    assert main(["validate", "--seed", "-1"]) == EXIT_USAGE
    assert "seed must be nonnegative" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["run", "--not-a-flag", "1"])
    assert exc.value.code == EXIT_USAGE


# small instances, so that a rule applied late still fails fast
SMALL = {"validate": [], "run": ["--n", "10", "--rho", "0.5", "--trials", "2"],
         "sweep": ["--n", "10", "--rho-min", "0.35", "--rho-max", "0.6", "--realizations", "2"],
         "pocs": ["--n", "10", "--rho", "0.5", "--trials", "2"]}


# scenarios that draw no instance in their few attempts: a stop rule applied
# only once an instance exists would read as a generation error
NO_RUN_INSTANCE = ["--n", "40", "--rho", "0.01", "--trials", "1", "--max-attempts", "3"]
NO_SWEEP_INSTANCE = ["--n", "40", "--rho-min", "0.01", "--rho-max", "0.02", "--realizations", "2"]

BAD_FLAGS = [
    (["run", "--epsilon", "1e200"], "epsilon"),
    (["sweep", "--epsilon", "1e200"], "epsilon"),
    (["pocs", "--epsilon", "1e200"], "epsilon"),
    (["run", "--pocs-cycles", "0"], "pocs_cycles"),
    (["run", "--step-size", "-1"], "step size"),
    (["pocs", "--trials", "0"], "trials"),
    (["pocs", "--cycles", "0"], "cycles"),
    (["validate", "--seed", "-1"], "seed"),
    (["run", "--seed", "-1"], "seed"),
    (["sweep", "--seed", "-1"], "seed"),
    (["pocs", "--seed", "-1"], "seed"),
    (["run", *NO_RUN_INSTANCE, "--threshold", "-1"], "threshold"),
    (["run", *NO_RUN_INSTANCE, "--max-iters", "0"], "max_iters"),
    (["run", *NO_RUN_INSTANCE, "--step-size", "-1"], "step size"),
    (["sweep", *NO_SWEEP_INSTANCE, "--threshold", "-1"], "threshold"),
    (["sweep", *NO_SWEEP_INSTANCE, "--max-iters", "0"], "max_iters"),
]


@pytest.mark.parametrize("argv, named", BAD_FLAGS, ids=[" ".join(argv) for argv, _ in BAD_FLAGS])
def test_bad_flag_is_a_usage_error_before_any_run(argv, named, tmp_path, monkeypatch, capsys):
    # the library rejects the parameter, by name, before a run starts, and
    # the CLI reports it as a usage error, not as a traceback
    calls = []
    run = experiments.run
    monkeypatch.setattr(experiments, "run", lambda *args: calls.append(args) or run(*args))
    command = argv[0]
    out = [] if command == "validate" else ["--out", str(tmp_path / "x.csv")]
    assert main([command] + SMALL[command] + argv[1:] + out) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err, err
    assert calls == []


def test_invariant_failure_exit_code(tmp_path, capsys):
    # a huge gradient step overflows the profile; the engine's finite-step
    # check reports it as a clean exit, not a traceback or a numpy warning
    with pytest.warns(StepSizeWarning) as caught:
        code = main(["run", "--n", "5", "--rho", "0.9", "--trials", "1", "--max-iters", "5",
                     "--step-size", "1e308", "--out", str(tmp_path / "x.csv")])
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert code == EXIT_INVARIANT
    err = capsys.readouterr().err
    assert err.startswith("invariant failure: ")
    assert "step size 1e+308 overflowed in round 1" in err


def test_io_error_exit_code(tmp_path):
    code = main(["run", "--n", "10", "--rho", "0.5", "--trials", "1",
                 "--out", str(tmp_path / "missing" / "x.csv")])
    assert code == 4


def test_config_file_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("# sweep config\nn = 10\nrho_min = 0.35\nrho_max = 0.6\n"
                   "realizations = 2\nmax_iters = 2000\nthreshold = 1e-4\nseed = 3\n")
    out1, out2 = tmp_path / "c1.csv", tmp_path / "c2.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out1)]) == EXIT_OK
    # flags override file values
    assert main(["sweep", "--config", str(cfg), "--seed", "3", "--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("n = 10\nwibble = 3\n")
    assert main(["run", "--config", str(cfg)]) == EXIT_USAGE
    assert "unknown config key" in capsys.readouterr().err


def test_config_parse_errors():
    with pytest.raises(ConfigError):
        parse_config_text("just words\n")
    with pytest.raises(ConfigError):
        parse_config_text("key =\n")
    with pytest.raises(ConfigError):
        coerce_config("run", {"n": "ten"})


def load_benchmark_runner():
    # perfbench/run.py as a module (it imports its sibling speed.py)
    bench_dir = ROOT / "perfbench"
    spec = importlib.util.spec_from_file_location("perfbench_run", bench_dir / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(bench_dir))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(bench_dir))
    return module


def check_benchmark_workload(tmp_path, monkeypatch, name, inputs):
    # the benchmark's output gate: runs the workload through
    # perfbench/harness.py plain in a fresh interpreter, as the benchmark
    # does, and applies perfbench/run.py's gate, so both the CSV's sha256
    # and the engine counts (rounds, pocs cycles, attempts) must match
    # perfbench/reference.json
    bench = load_benchmark_runner()
    workload = bench.load_reference(bench.REFERENCE)["workloads"][name]
    monkeypatch.chdir(ROOT)  # the harness imports the package from ./src
    for seeds in inputs:
        result = bench.run_cli(workload, seeds, "plain", bench.pinned_env(), str(tmp_path),
                               f"{name}-{seeds}", time.monotonic() + 600)
        assert bench.gate(result, workload["seeds"][seeds]) == [], (name, seeds)


def test_smoke_csv_matches_benchmark_reference(tmp_path, monkeypatch):
    # any change to the output bits or the counts fails here in a few seconds
    check_benchmark_workload(tmp_path, monkeypatch, "smoke", ("default", "held_out"))


def test_deep_csv_matches_benchmark_reference(tmp_path, monkeypatch):
    # the run command's bytes at depth: its 43k-row CSV spans 11 trace
    # chunks, so a slip at a chunk boundary fails here, and the two seeds
    # stop at different positions in their blocks of rounds (each run takes
    # about 5 s)
    check_benchmark_workload(tmp_path, monkeypatch, "deep-n100", ("default", "held_out"))


def test_sweep_csv_matches_benchmark_reference(tmp_path, monkeypatch):
    # the sweep command's bytes: rate_sweep, the Fiedler column and the
    # threshold stops (default seed only; the run takes about 15 s)
    check_benchmark_workload(tmp_path, monkeypatch, "sweep-n50", ("default",))


def test_wide_csv_matches_benchmark_reference(tmp_path, monkeypatch):
    # the run command's bytes at N=1000, where the engine checks blocks of
    # 8 rounds while the smaller workloads check blocks of 64; both
    # algorithms stop at the 3000-round cap (default seed only; the run
    # takes about 11 s)
    check_benchmark_workload(tmp_path, monkeypatch, "wide-n1000", ("default",))


def test_pocs_csv_matches_benchmark_reference(tmp_path, monkeypatch):
    # the pocs command's bytes: the lockstep cyclic projections, the
    # per-cycle largest set distance and one displacement per trial and
    # cycle (about 1 s per seed)
    check_benchmark_workload(tmp_path, monkeypatch, "pocs-n100", ("default", "held_out"))


def test_benchmark_selftest_passes():
    # the benchmark harness wraps engine and cli names and reads Trace fields;
    # its smoke self-test (both --trace modes, about 11 s) fails if a change
    # breaks what it relies on
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
