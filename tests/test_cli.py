import hashlib
import itertools
import json
import os
import resource
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bachet_lottery
from bachet_lottery import (
    TIE_LOWEST,
    TIE_RANDOM,
    GameSpec,
    LotterySet,
    analysis,
    deviation_series,
    finite_set,
    solve,
    truncated_simplex,
    validate_lottery,
)
from bachet_lottery import cli, engine
from bachet_lottery.analysis import DeviationSeries
from bachet_lottery.cli import VALUES_FIELDS, _envelopes, _repeat_start, _values_csv, run
from bachet_lottery.engine import TIE_RULES, fold

HALF_GAME = {"n": 6, "m": 2, "K": {"type": "finite", "lotteries": [[0.5, 0.5]]}}
TRUNC_GAME = {"n": 2000, "m": 2, "K": {"type": "truncated_simplex", "epsilon": [0.05, 0.05]}}
# a game whose dense table fits in SERIES_CAP bytes of address space, and
# whose dense deviation series would not
SERIES_GAME = {"n": 4 * 10**6, "m": 3, "K": {"type": "truncated_simplex", "epsilon": [0.05] * 3}}
SERIES_CAP = 300 << 20
# a game of 1e15 pile sizes, the same set
HUGE_GAME = {**SERIES_GAME, "n": 10**15}
# the largest file a capped run may write
FILE_CAP = 64 << 20
# a config nested past the interpreter's recursion limit
DEEP_CONFIG = b"[" * 100000 + b"]" * 100000


def write_config(tmp_path, payload, name="config.json"):
    """Write ``payload`` as JSON, or as it is when it is already bytes."""
    path = tmp_path / name
    path.write_bytes(payload if isinstance(payload, bytes) else json.dumps(payload).encode())
    return path


def run_capped(tmp_path, command, payload, address_space):
    """``python -m bachet_lottery.cli command`` on ``payload`` with its
    address space capped at ``address_space`` bytes, and each file it
    writes at FILE_CAP bytes.  One BLAS thread keeps the interpreter's own
    share of that space the same on any machine.  Past FILE_CAP a write
    fails with EFBIG: the interpreter ignores SIGXFSZ."""
    cfg = write_config(tmp_path, payload)
    env = {**os.environ, "PYTHONPATH": str(Path(bachet_lottery.__file__).parents[1]),
           "OPENBLAS_NUM_THREADS": "1"}

    def caps():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))
        resource.setrlimit(resource.RLIMIT_FSIZE, (FILE_CAP, FILE_CAP))

    return subprocess.run(
        [sys.executable, "-m", "bachet_lottery.cli", command, "--config", str(cfg),
         "--output", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=60, preexec_fn=caps,
    )


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_csv(path):
    return path.read_text().splitlines()


class TestSolve:
    def test_polytope_vertices_spelling_matches_finite(self, tmp_path):
        lots = [[0.5, 0.3, 0.2], [0.0, 0.4, 0.6], [0.6, 0.0, 0.4]]
        digests = []
        for kind in ("finite", "polytope_vertices"):
            game = {"n": 300, "m": 3, "K": {"type": kind, "lotteries": lots}}
            cfg = write_config(tmp_path, {"game": game}, name=f"{kind}.json")
            assert run("solve", cfg, output=tmp_path / kind) == 0
            digests.append((tmp_path / kind / "values.csv").read_bytes())
        assert digests[0] == digests[1]

    def test_golden_values_csv(self, tmp_path):
        cfg = write_config(tmp_path, {"command": "solve", "game": HALF_GAME})
        assert run("solve", cfg, output=tmp_path / "out") == 0
        rows = read_csv(tmp_path / "out" / "values.csv")
        assert rows[0] == "k,p,D,Delta,DeltaBar,DeltaPlus,DeltaMinus,envelope,argmax_index"
        p_col = [float(r.split(",")[1]) for r in rows[1:]]
        assert p_col == [0.0, 0.5, 0.75, 0.375, 0.4375, 0.59375]
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["eta"] == 0.5 and summary["nu"] == 0.5

    def test_n1_summary(self, tmp_path):
        cfg = write_config(tmp_path, {"game": {**HALF_GAME, "n": 1}})
        assert run("solve", cfg, output=tmp_path / "out") == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["p_n"] == 0.0

    def test_envelope_column_empty_for_pure_moves(self, tmp_path):
        game = {
            "n": 8,
            "m": 3,
            "K": {"type": "finite", "lotteries": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
        }
        cfg = write_config(tmp_path, {"game": game})
        assert run("solve", cfg, output=tmp_path / "out") == 0
        rows = read_csv(tmp_path / "out" / "values.csv")
        assert all(r.split(",")[7] == "" for r in rows[1:])

    def test_rejects_nu_zero(self, tmp_path):
        game = {"n": 5, "m": 2, "K": {"type": "finite", "lotteries": [[1.0, 0.0]]}}
        cfg = write_config(tmp_path, {"game": game})
        assert run("solve", cfg, output=tmp_path / "out") == 2


class TestVerify:
    def test_clean_report_exit_zero(self, tmp_path):
        cfg = write_config(tmp_path, {"game": TRUNC_GAME, "output": str(tmp_path / "out")})
        assert run("verify", cfg) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["all_passed"]
        ids = [c["lemma_id"] for c in report["checks"]]
        assert ids[0] == "monotonicity" and "corridor" in ids and "envelope" in ids
        assert sum(1 for i in ids if i.startswith("km_bound")) == 9
        assert all(c["violations"] == 0 for c in report["checks"])

    def test_explicit_tau_recorded(self, tmp_path):
        cfg = write_config(tmp_path, {"game": TRUNC_GAME, "tau": 0.05})
        assert run("verify", cfg, output=tmp_path / "out") == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["tau"] == 0.05 and 0 < report["delta"] < 1


class TestSimulate:
    def test_csv_schema_and_values(self, tmp_path):
        payload = {
            "game": {**HALF_GAME, "n": 7},
            "sim": {"replications": 20000, "seed": 11, "n_values": [2, 4, 7]},
        }
        cfg = write_config(tmp_path, payload)
        assert run("simulate", cfg, output=tmp_path / "out") == 0
        rows = read_csv(tmp_path / "out" / "simulation.csv")
        assert rows[0] == "n,replications,seed,p_hat,std_err,p_engine,z_score"
        assert len(rows) == 4
        for row in rows[1:]:
            fields = row.split(",")
            assert abs(float(fields[6])) < 6.0

    def test_seed_override(self, tmp_path):
        payload = {"game": {**HALF_GAME, "n": 4}, "sim": {"replications": 5000, "seed": 1}}
        cfg = write_config(tmp_path, payload)
        run("simulate", cfg, output=tmp_path / "a", seed=99)
        rows = read_csv(tmp_path / "a" / "simulation.csv")
        assert rows[1].split(",")[2] == "99"

    @pytest.mark.parametrize(
        "seed, digest",
        [
            (1, "1778c47d99f537bfd2e86f975334ceb8830e825524af712e5f063da2a1e53293"),
            (7, "fc9c82d8558b92d501406a18fd2e74d812abbcaa3f6a457edfcc4c9304c4e22b"),
        ],
    )
    def test_benchmark_config_bytes(self, tmp_path, seed, digest):
        # the simulate-mc benchmark config, whose digest at seed 0 the
        # benchmark pins: 2000 games at each of n = 25, 100, 400
        payload = {
            "game": {"n": 400, "m": 3, "K": {"type": "truncated_simplex", "epsilon": [0.05] * 3}},
            "sim": {"replications": 2000, "seed": 0, "n_values": [25, 100, 400]},
        }
        cfg = write_config(tmp_path, payload)
        assert run("simulate", cfg, output=tmp_path / "out", seed=seed) == 0
        assert sha256(tmp_path / "out" / "simulation.csv") == digest

    def test_bad_seed_override_names_the_option(self, tmp_path):
        # the config's own seed is valid: the error is the option's
        payload = {"game": {**HALF_GAME, "n": 4}, "sim": {"replications": 10, "seed": 1}}
        cfg = write_config(tmp_path, payload)
        env = {**os.environ, "PYTHONPATH": str(Path(bachet_lottery.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "bachet_lottery.cli", "simulate", "--config", str(cfg),
             "--output", str(tmp_path / "out"), "--seed", "-1"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == ["error: --seed: must be a non-negative integer"]
        assert not (tmp_path / "out").exists()


class TestSweep:
    def test_row_per_point(self, tmp_path):
        payload = {"game": HALF_GAME, "sweep": {"n_values": [2, 5, 9, 14]}}
        cfg = write_config(tmp_path, payload)
        assert run("sweep", cfg, output=tmp_path / "out") == 0
        rows = read_csv(tmp_path / "out" / "sweep.csv")
        assert rows[0] == "n,m,eta,nu,delta,p_n,Delta_n"
        assert len(rows) == 5

    def test_epsilon_family(self, tmp_path):
        payload = {
            "game": {"n": 200, "m": 2, "K": TRUNC_GAME["K"]},
            "sweep": {"epsilon_values": [0.05, 0.1, 0.2]},
        }
        cfg = write_config(tmp_path, payload)
        assert run("sweep", cfg, output=tmp_path / "out") == 0
        assert len(read_csv(tmp_path / "out" / "sweep.csv")) == 4


class TestTiesOnFirstRead:
    """solve runs the recursion only: a table's tie pass runs on the first
    read of its ties or moves, once, and never for the commands that read
    values alone."""

    @pytest.fixture
    def recorded(self, monkeypatch):
        """The tables cli.solve returns, and the prefix each tie pass read."""
        tables, passes = [], []
        solve_, payoffs = cli.solve, engine.payoffs
        monkeypatch.setattr(cli, "solve", lambda *a: tables.append(solve_(*a)) or tables[-1])
        monkeypatch.setattr(engine, "payoffs", lambda c, ext: passes.append(ext) or payoffs(c, ext))
        return tables, passes

    @pytest.mark.parametrize("command, payload", [
        ("verify", {"game": TRUNC_GAME}),
        ("sweep", {"game": {"n": 200, "m": 3}, "sweep": {"epsilon_values": [0.01, 0.05, 0.2]}}),
        ("sweep", {"game": HALF_GAME, "sweep": {"n_values": [2, 5, 9]}}),
    ])
    def test_values_only_commands_compute_no_ties(self, recorded, tmp_path, command, payload):
        tables, passes = recorded
        assert run(command, write_config(tmp_path, payload), output=tmp_path / "out") == 0
        assert tables and passes == []
        for vt in tables:
            assert "tie_mask" not in vt.__dict__ and "picks" not in vt.__dict__

    @pytest.mark.parametrize("command, payload", [
        ("solve", {"game": TRUNC_GAME}),
        ("simulate", {"game": {**TRUNC_GAME, "n": 60},
                      "sim": {"replications": 50, "seed": 3, "n_values": [10, 30, 60]}}),
    ])
    def test_move_readers_run_the_tie_pass_once(self, recorded, tmp_path, command, payload):
        tables, passes = recorded
        assert run(command, write_config(tmp_path, payload), output=tmp_path / "out") == 0
        assert len(tables) == len(passes) == 1
        assert passes[0] is tables[0].p_prefix
        assert "tie_mask" in tables[0].__dict__ and "picks" in tables[0].__dict__


class TestExploreNuZero:
    def test_runs_with_warning(self, tmp_path, capsys):
        game = {"n": 12, "m": 2, "K": {"type": "finite", "lotteries": [[1.0, 0.0]]}}
        cfg = write_config(tmp_path, {"game": game})
        assert run("explore-nu-zero", cfg, output=tmp_path / "out") == 0
        assert "warning" in capsys.readouterr().err
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert "warning" in summary
        rows = read_csv(tmp_path / "out" / "values.csv")
        assert all(r.split(",")[7] == "" for r in rows[1:])  # no envelope claimed


class TestConfigErrors:
    @pytest.mark.parametrize(
        "payload",
        [
            {},
            {"game": {"n": 0, "m": 2, "K": HALF_GAME["K"]}},
            {"game": {"n": 5, "m": 1, "K": HALF_GAME["K"]}},
            {"game": {"n": 5, "m": 2, "K": {"type": "mystery"}}},
            {"game": {"n": 5, "m": 2, "K": {"type": "finite", "lotteries": [[0.6, 0.6]]}}},
            {"game": {"n": 5, "m": 3, "K": HALF_GAME["K"]}},
            {"command": "verify", "game": HALF_GAME},  # declared/invoked mismatch
            {"game": {**HALF_GAME, "n": True}},
            {"game": {**HALF_GAME, "K": {"type": "truncated_simplex", "epsilon": ["a", 0.1]}}},
            {"game": {**HALF_GAME, "K": {"type": "truncated_simplex", "epsilon": ["0.1", 0.1]}}},
            {"game": {**HALF_GAME, "K": {"type": "finite", "lotteries": [["x", 0.5]]}}},
            {"game": {**HALF_GAME, "K": {"type": "finite", "lotteries": [0.5, 0.5]}}},
            {"game": {**HALF_GAME, "K": {"type": "finite", "lotteries": [[True, False], [False, True]]}}},
            pytest.param(b'{"game": "\xff"}', id="not-utf-8"),
            pytest.param(DEEP_CONFIG, id="nested-past-recursion-limit"),
        ],
    )
    def test_exit_code_two(self, tmp_path, capsys, payload):
        cfg = write_config(tmp_path, payload)
        assert run("solve", cfg, output=tmp_path / "out") == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "command,payload",
        [
            ("sweep", {"game": HALF_GAME, "sweep": {"n_values": 5}}),
            ("sweep", {"game": HALF_GAME, "sweep": {"epsilon_values": 5}}),
            ("sweep", {"game": HALF_GAME, "sweep": {"n_values": [True]}}),
            ("simulate", {"game": HALF_GAME, "sim": {"replications": True, "seed": True}}),
            ("simulate", {"game": HALF_GAME, "sim": {"replications": 10, "seed": True}}),
            ("simulate", {"game": HALF_GAME, "sim": {"replications": 10, "seed": 1,
                                                     "n_values": [True]}}),
            ("solve", {"game": HALF_GAME, "output": 5}),
            ("sweep", {"game": HALF_GAME, "sweep": {"n_values": []}}),
            ("sweep", {"game": HALF_GAME, "sweep": {"epsilon_values": []}}),
            ("simulate", {"game": HALF_GAME, "sim": {"replications": 10, "seed": 1,
                                                     "n_values": []}}),
            # an m past the doubles: 1/m must not be taken in floats
            ("sweep", {"game": {**HALF_GAME, "m": 10**400}, "sweep": {"epsilon_values": [0.05]}}),
        ],
    )
    def test_command_options_exit_two(self, tmp_path, capsys, command, payload):
        cfg = write_config(tmp_path, payload)
        assert run(command, cfg, output=tmp_path / "out") == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command,payload",
        [
            ("solve", {"game": HALF_GAME}),
            ("explore-nu-zero", {"game": HALF_GAME}),
            ("verify", {"game": {**TRUNC_GAME, "n": 50}}),
            ("simulate", {"game": HALF_GAME, "sim": {"replications": 10, "seed": 1}}),
            ("sweep", {"game": HALF_GAME, "sweep": {"n_values": [2, 3]}}),
        ],
    )
    def test_unwritable_output_exit_two(self, tmp_path, capsys, command, payload):
        # the output directory would sit below a regular file
        (tmp_path / "afile").write_text("")
        cfg = write_config(tmp_path, {**payload, "output": str(tmp_path / "afile" / "sub")})
        assert run(command, cfg) == 2
        assert capsys.readouterr().err.startswith("error: output: cannot write ")
        assert (tmp_path / "afile").read_text() == ""

    @pytest.mark.parametrize(
        "extra",
        [
            {"kappa_grid": [1.5]},
            {"kappa_grid": "ab"},
            {"kappa_grid": []},
            {"kappa_grid": [0.5, True]},
            {"tau": 5.0},
            {"tau": "small"},
            {"tau": float("nan")},
        ],
    )
    def test_verify_options_exit_two(self, tmp_path, capsys, extra):
        cfg = write_config(tmp_path, {"game": {**TRUNC_GAME, "n": 50}, **extra})
        assert run("verify", cfg, output=tmp_path / "out") == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize(
        "K",
        [
            {"type": "finite", "lotteries": [[float("nan"), 0.5]]},
            {"type": "truncated_simplex", "epsilon": [float("nan"), 0.05]},
            {"type": "truncated_simplex", "epsilon": [float("inf"), 0.05]},
        ],
    )
    def test_non_finite_lottery_set_exit_two(self, tmp_path, capsys, K):
        cfg = write_config(tmp_path, {"game": {"n": 5, "m": 2, "K": K}})
        assert run("verify", cfg, output=tmp_path / "out") == 2
        assert "nu = 0" not in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "verify", "simulate", "explore-nu-zero"])
    @pytest.mark.parametrize(
        "field,K",
        [
            ("game.K.epsilon", {"type": "truncated_simplex", "epsilon": [10**400, 0.05]}),
            ("game.K.lotteries", {"type": "finite", "lotteries": [[0.5, 0.5], [10**400, 0]]}),
        ],
        ids=["epsilon", "lotteries"],
    )
    def test_int_past_double_range_names_field(self, tmp_path, capsys, command, field, K):
        payload = {"game": {"n": 5, "m": 2, "K": K}, "sim": {"replications": 10, "seed": 1}}
        assert run(command, write_config(tmp_path, payload), output=tmp_path / "out") == 2
        assert capsys.readouterr().err.startswith(f"error: {field}: ")

    def test_missing_file(self, tmp_path):
        assert run("solve", tmp_path / "nope.json", output=tmp_path / "out") == 2

    def test_deep_config_exit_two_without_traceback(self, tmp_path):
        cfg = write_config(tmp_path, DEEP_CONFIG)
        env = {**os.environ, "PYTHONPATH": str(Path(bachet_lottery.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "bachet_lottery.cli", "solve", "--config", str(cfg),
             "--output", str(tmp_path / "out")],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: config: cannot read ")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command", ["solve", "verify"])
    @pytest.mark.parametrize("n", [10**30], ids=["n=1e30"])
    def test_huge_n_exit_two_without_traceback(self, tmp_path, command, n):
        # 1e30 exceeds any array size numpy allows.
        # The address space is capped first, so nothing large is ever allocated.
        game = {"n": n, "m": 3, "K": {"type": "truncated_simplex", "epsilon": [0.05] * 3}}
        proc = run_capped(tmp_path, command, {"game": game}, 4 << 30)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: game.n: ")
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()

    def test_huge_n_solve_stops_at_the_file_limit(self, tmp_path):
        # the table stops at pile size 649, but values.csv has a row for
        # each of the 1e15 pile sizes: the write fails at FILE_CAP
        proc = run_capped(tmp_path, "solve", {"game": HUGE_GAME}, 4 << 30)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: output: cannot write ")
        assert "File too large" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert list((tmp_path / "out").iterdir()) == []  # no temp file left

    def test_huge_n_verify_exit_zero(self, tmp_path):
        # verify reads the repeating table through one period: the counts
        # cover all 1e15 pile sizes, the work and memory do not
        proc = run_capped(tmp_path, "verify", {"game": HUGE_GAME}, 4 << 30)
        assert proc.returncode == 0, proc.stderr
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        n, m = 10**15, 3
        checked = {c["lemma_id"]: c["checked"] for c in report["checks"]}
        assert report["all_passed"] and report["n"] == n
        assert checked["monotonicity"] == 2 * (n - 1)
        assert checked["drop_down_2m"] == n - 1 - 2 * m
        assert checked["drop_down_3m"] == n - 3 * m
        assert checked["plus_minus"] == n - 1 and checked["envelope"] == n
        assert sha256(tmp_path / "out" / "report.json") == (
            "1985adbd65e1a851d4b5cbe39e44926592b1a6d00809c5d5ec9a39e7a0f1174f"
        )

    def test_series_game_verifies_under_cap(self, tmp_path):
        # At n=4e6 the dense table and deviation series took 726 MiB; the
        # folded ones cover about 1040 pile sizes.  The report is the one the
        # dense scan writes, byte for byte.
        proc = run_capped(tmp_path, "verify", {"game": SERIES_GAME}, SERIES_CAP)
        assert proc.returncode == 0, proc.stderr
        assert sha256(tmp_path / "out" / "report.json") == (
            "fcd9a3166995e94b2fce930349d540ef1b0ba74cdc365add8826137ef43bbbff"
        )

    def test_series_game_table_fits(self, tmp_path):
        # a sweep point solves the table and builds no deviation series
        game = {k: v for k, v in SERIES_GAME.items() if k != "n"}
        payload = {"game": game, "sweep": {"n_values": [SERIES_GAME["n"]]}}
        proc = run_capped(tmp_path, "sweep", payload, SERIES_CAP)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out" / "sweep.csv").exists()

    @pytest.mark.parametrize("command", ["solve", "verify", "explore-nu-zero"])
    def test_series_out_of_memory_names_game_n(self, tmp_path, capsys, monkeypatch, command):
        def no_memory(vt):
            raise MemoryError

        monkeypatch.setattr(analysis, "deviation_series", no_memory)
        cfg = write_config(tmp_path, {"game": SERIES_GAME})
        assert run(command, cfg, output=tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: game.n: 4000000 pile sizes do not fit in memory")
        assert not (tmp_path / "out").exists()

    def test_sweep_n_too_large_names_its_field(self, tmp_path, capsys):
        game = {"m": 3, "K": {"type": "truncated_simplex", "epsilon": [0.05] * 3}}
        cfg = write_config(tmp_path, {"game": game, "sweep": {"n_values": [7, 10**30]}})
        assert run("sweep", cfg, output=tmp_path / "out") == 2
        assert capsys.readouterr().err.startswith("error: sweep.n_values[1]: must be at most ")
        assert not (tmp_path / "out").exists()

    def test_sweep_n_out_of_memory_names_its_field(self, tmp_path, capsys, monkeypatch):
        solve = cli.solve

        def no_memory_past_1e6(spec):
            if spec.n > 10**6:
                raise MemoryError
            return solve(spec)

        monkeypatch.setattr(cli, "solve", no_memory_past_1e6)
        game = {"m": 3, "K": {"type": "truncated_simplex", "epsilon": [0.05] * 3}}
        cfg = write_config(tmp_path, {"game": game, "sweep": {"n_values": [7, 10**15]}})
        assert run("sweep", cfg, output=tmp_path / "out") == 2
        assert capsys.readouterr().err.startswith(
            "error: sweep.n_values[1]: 1000000000000000 pile sizes do not fit in memory"
        )
        assert not (tmp_path / "out").exists()

    def test_sweep_huge_n_exit_zero(self, tmp_path):
        game = {k: v for k, v in HUGE_GAME.items() if k != "n"}
        payload = {"game": game, "sweep": {"n_values": [7, HUGE_GAME["n"]]}}
        proc = run_capped(tmp_path, "sweep", payload, 4 << 30)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out" / "sweep.csv").read_text() == (
            SWEEP_HEAD
            + "7,3,0.90000000000000002,0.90000000000000002,0.83636363636766486,"
            "0.82417993750000007,0.32417993750000007\n"
            "1000000000000000,3,0.90000000000000002,0.90000000000000002,0.83636363636766486,"
            "0.50000000000000022,2.2204460492503131e-16\n"
        )

    @pytest.mark.parametrize(
        "reps, message",
        [
            # a 5 TiB draw matrix: numpy tries to allocate it and fails
            (10**11, "error: sim.replications: 100000000000 games of 7 pile sizes do not fit"),
            # 7e18 doubles: beyond any array numpy allows, refused at parse time
            (10**18, "error: sim.replications: must be at most "),
        ],
        ids=["reps=1e11", "reps=1e18"],
    )
    def test_huge_replications_exit_two_without_traceback(self, tmp_path, reps, message):
        game = {"n": 7, "m": 3, "K": {"type": "truncated_simplex", "epsilon": [0.05] * 3}}
        payload = {"game": game, "sim": {"replications": reps, "seed": 0}}
        proc = run_capped(tmp_path, "simulate", payload, 4 << 30)
        assert proc.returncode == 2
        assert proc.stderr.startswith(message)
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()


# Integer magnitudes are bounded so every run stays small, not because
# larger ones are handled differently; the two past the range of a double,
# which JSON allows, stand for the integers a float cannot hold.
JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 60), st.floats(), st.text(max_size=6),
    st.sampled_from([10**400, -(10**400)]),
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)

VALID_CONFIGS = {
    "solve": {"command": "solve", "output": "out", "tau": 0.05,
              "game": {"n": 20, "m": 2, "K": {"type": "finite",
                                              "lotteries": [[0.9, 0.1], [0.1, 0.9]]}}},
    "explore-nu-zero": {"game": {"n": 20, "m": 2,
                                 "K": {"type": "polytope_vertices", "lotteries": [[1.0, 0.0]]}}},
    "verify": {"tau": 0.05, "kappa_grid": [0.3, 0.6], "game": {**TRUNC_GAME, "n": 30}},
    "simulate": {"game": {**HALF_GAME, "n": 8},
                 "sim": {"replications": 20, "seed": 1, "n_values": [1, 8]}},
    "sweep": {"game": {**TRUNC_GAME, "n": 20}, "sweep": {"epsilon_values": [0.05, 0.2]}},
}
SWEEP_N = {"game": HALF_GAME, "sweep": {"n_values": [3, 7]}}


def _paths(node, prefix=()):
    """Every key/index path inside a JSON document, outermost first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (key,))


def _replaced(cfg, path, value):
    cfg = json.loads(json.dumps(cfg))
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return cfg


CASES = [(c, cfg, path) for c, cfg in [*VALID_CONFIGS.items(), ("sweep", SWEEP_N)]
         for path in _paths(cfg)]


class TestContract:
    """Any one field replaced by any JSON value: exit 0, 1 or 2, never a raise."""

    @pytest.mark.parametrize("command,cfg", [*VALID_CONFIGS.items(), ("sweep", SWEEP_N)])
    def test_valid_configs_pass(self, tmp_path, command, cfg):
        assert run(command, write_config(tmp_path, cfg), output=tmp_path / "out") == 0

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(CASES), JSON_VALUES)
    def test_one_field_replaced(self, case, value):
        command, cfg, path = case
        with tempfile.TemporaryDirectory() as tmp:
            config = write_config(Path(tmp), _replaced(cfg, path, value))
            assert run(command, config, output=Path(tmp) / "out") in (0, 1, 2)


class TestDeterminism:
    def test_verify_byte_identical(self, tmp_path):
        game = {**TRUNC_GAME, "n": 500}
        cfg = write_config(tmp_path, {"game": game})
        run("verify", cfg, output=tmp_path / "a")
        run("verify", cfg, output=tmp_path / "b")
        assert (tmp_path / "a" / "report.json").read_bytes() == (
            tmp_path / "b" / "report.json"
        ).read_bytes()

    def test_simulate_byte_identical(self, tmp_path):
        payload = {"game": {**HALF_GAME, "n": 5}, "sim": {"replications": 10000, "seed": 3}}
        cfg = write_config(tmp_path, payload)
        run("simulate", cfg, output=tmp_path / "a")
        run("simulate", cfg, output=tmp_path / "b")
        assert (tmp_path / "a" / "simulation.csv").read_bytes() == (
            tmp_path / "b" / "simulation.csv"
        ).read_bytes()


PURE_GAME = {"n": 5, "m": 3,
             "K": {"type": "finite", "lotteries": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}}
VALUES_HEAD = "k,p,D,Delta,DeltaBar,DeltaPlus,DeltaMinus,envelope,argmax_index\n"
SWEEP_HEAD = "n,m,eta,nu,delta,p_n,Delta_n\n"


class TestExactBytes:
    """Whole artifacts, byte for byte: a changed field format fails here."""

    @pytest.mark.parametrize(
        "command,cfg,artifact,text",
        [
            ("solve", {"game": HALF_GAME}, "values.csv", VALUES_HEAD
             + "1,0,-0.5,0.5,0.5,0,0.5,0.5,0\n"
             "2,0.5,0,0,0.5,0,0,0.5,0\n"
             "3,0.75,0.25,0.25,0.25,0.25,0,0.5,0\n"
             "4,0.375,-0.125,0.125,0.25,0,0.125,0.5,0\n"
             "5,0.4375,-0.0625,0.0625,0.125,0,0.0625,0.5,0\n"
             "6,0.59375,0.09375,0.09375,0.09375,0.09375,0,0.5,0\n"),
            # eta = 1: no envelope, so its field is empty
            ("solve", {"game": PURE_GAME}, "values.csv", VALUES_HEAD
             + "1,0,-0.5,0.5,0.5,0,0.5,,0\n"
             "2,1,0.5,0.5,0.5,0.5,0,,0\n"
             "3,1,0.5,0.5,0.5,0.5,0,,1\n"
             "4,1,0.5,0.5,0.5,0.5,0,,2\n"
             "5,0,-0.5,0.5,0.5,0,0.5,,0\n"),
            ("simulate", {"game": {**HALF_GAME, "n": 7},
                          "sim": {"replications": 50, "seed": 5, "n_values": [1, 4, 7]}},
             "simulation.csv",
             "n,replications,seed,p_hat,std_err,p_engine,z_score\n"
             "1,50,5,0,0,0,0\n"
             "4,50,5,0.44,0.070199715099136986,0.375,0.9259296837345582\n"
             "7,50,5,0.38,0.068644009206922055,0.484375,-1.5205259891707321\n"),
            ("sweep", {"game": HALF_GAME, "sweep": {"n_values": [1, 4, 9]}}, "sweep.csv",
             SWEEP_HEAD
             + "1,2,0.5,0.5,0.66666666667738594,0,0.5\n"
             "4,2,0.5,0.5,0.66666666667738594,0.375,0.125\n"
             "9,2,0.5,0.5,0.66666666667738594,0.52734375,0.02734375\n"),
            ("sweep", {"game": PURE_GAME, "sweep": {"n_values": [2, 5]}}, "sweep.csv",
             SWEEP_HEAD + "2,3,1,1,,1,0.5\n5,3,1,1,,0,0.5\n"),
            ("sweep", {"game": {"n": 40, "m": 2, "K": TRUNC_GAME["K"]},
                       "sweep": {"epsilon_values": [0.05, 0.2]}}, "sweep.csv",
             SWEEP_HEAD
             + "40,2,0.94999999999999996,0.94999999999999996,0.90952380952449163,"
             "0.37289412894583707,0.12710587105416293\n"
             "40,2,0.80000000000000004,0.80000000000000004,0.73333333333926365,"
             "0.49942031569857726,0.00057968430142274485\n"),
        ],
        ids=["values", "values-no-envelope", "simulation", "sweep-n", "sweep-eta-one",
             "sweep-eps"],
    )
    def test_artifact_text(self, tmp_path, command, cfg, artifact, text):
        assert run(command, write_config(tmp_path, cfg), output=tmp_path / "out") == 0
        assert (tmp_path / "out" / artifact).read_bytes() == text.encode()


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_artifacts_honour_umask(tmp_path, umask):
    cfg = write_config(tmp_path, {"game": HALF_GAME})
    old = os.umask(umask)
    try:
        assert run("solve", cfg, output=tmp_path / "out") == 0
    finally:
        os.umask(old)
    for name in ("values.csv", "summary.json"):
        assert (tmp_path / "out" / name).stat().st_mode & 0o777 == 0o666 & ~umask


def _reference_values_csv(vt, delta):
    """values.csv as one `%` template mapped over every series at every
    pile size, each from its definition over the dense ``vt.p_ext``."""
    m, n = vt.m, vt.n
    p = vt.p_ext[m:]
    d = p - 0.5
    windows = np.lib.stride_tricks.sliding_window_view(vt.p_ext, m)[1:]  # row k - 1: W_k
    bar = np.abs(windows - 0.5).max(axis=1)
    series = [p, d, np.abs(d), bar, np.maximum(d, 0.0), np.maximum(-d, 0.0)]
    if delta is not None:
        block = np.arange(n) // (3 * m)
        bounds = [analysis.envelope_bound(1 + 3 * m * j, delta, m) for j in range(block[-1] + 1)]
        series.append(np.array(bounds)[block])
    row = "%d," + "%.17g," * 6 + ("," if delta is None else "%.17g,") + "%d\n"
    rows = zip(range(1, n + 1), *series, vt.argmax(np.arange(1, n + 1)))
    return VALUES_HEAD + "".join(map(row.__mod__, rows))


def assert_writer_matches_reference(spec, delta, rule=TIE_LOWEST, seed=0):
    vt = solve(spec, rule, seed=seed)
    got = b"".join(_values_csv(vt, deviation_series(vt), delta)).decode()
    want = _reference_values_csv(vt, delta)
    if got != want:
        # name the first differing line instead of diffing megabytes of text
        a, b = got.splitlines(keepends=True), want.splitlines(keepends=True)
        i = next((i for i, pair in enumerate(zip(a, b)) if pair[0] != pair[1]), min(len(a), len(b)))
        pytest.fail(f"values.csv differs at line {i}: {a[i:i + 1]} != {b[i:i + 1]}")


WRITER_SETS = [
    *((f"simplex m={m}", truncated_simplex([0.05] * m)) for m in (2, 3, 4, 5)),
    ("simplex m=4 eps=0.01", truncated_simplex([0.01] * 4)),
    ("|K|=10 pair set", finite_set([[0.1 + 0.08 * i, 0.9 - 0.08 * i] for i in range(10)])),
    # picks candidates 10 and 11: move labels of two digits
    ("|K|=12 pair set", finite_set([[0.05 + 0.075 * i, 0.95 - 0.075 * i] for i in range(12)])),
    ("pure moves m=3", finite_set([[1, 0, 0], [0, 1, 0], [0, 0, 1]])),
    ("zero-weight set", finite_set([[0.5, 0.3, 0.2], [0, 0.5, 0.5], [0.6, 0, 0.4]])),
]
DELTAS = pytest.mark.parametrize("delta", [None, 0.9], ids=["no-envelope", "envelope"])
# signed zeros, subnormals, 2^-54 and the values near 1/2 the series take
FIELD_POOL = [0.0, -0.0, 0.5, 1.0, 5e-324, 2.0**-1060, 2.0**-54, 0.5 + 2.0**-53,
              0.49999999999999994, 0.1, 1e300]
# tables whose rows span several chunks: with a repeat, and without one
FIELD_TABLES = [solve(GameSpec(n, 3, truncated_simplex([eps] * 3)))
                for n, eps in ((2500, 0.05), (1200, 0.001), (7, 0.05))]


def repeat_from(cols, start, period):
    """Make the hand-built rows (the columns of ``cols``) repeat from row
    ``start`` on, as a solved table's do from S."""
    for k in range(start + period, cols.shape[1] + 1):
        cols[:, k - 1] = cols[:, k - 1 - period]


def assert_rows_match_the_fields(vt, cols, env):
    """The writer's text, for ``vt`` with the six series of rows
    1..computed replaced by the rows of ``cols``, against the field template."""
    p, d, delta, bar, plus, minus = cols
    ds = DeviationSeries(m=vt.m, n=vt.n, computed=vt.computed, period=vt.period,
                         p=p, p_min=p, p_max=p, d=d, delta=delta, delta_bar=bar,
                         delta_plus=plus, delta_minus=minus, delta_bar_minus=minus)
    got = b"".join(_values_csv(vt, ds, env)).decode().splitlines(keepends=True)
    assert got[0] == VALUES_HEAD
    rows = cols.T.tolist()
    for k, line in enumerate(got[1:], 1):
        bound = "," if env is None else "%.17g," % analysis.envelope_bound(k, env, vt.m)
        want = "%d," % k + VALUES_FIELDS % tuple(rows[fold(k, vt.computed, vt.period) - 1])
        assert line == want + bound + "%d\n" % vt.argmax(k), k
    assert len(got) == vt.n + 1


def repeat_start(vt):
    """The writer's first repeating row of a solved table."""
    ds = deviation_series(vt)
    series = [ds.p, ds.d, ds.delta, ds.delta_bar, ds.delta_plus, ds.delta_minus]
    return _repeat_start(vt.picks, series, vt.computed, vt.period)


def spied(monkeypatch, name):
    """Count the calls of the cli function ``name``."""
    calls = []
    real = getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda *a: calls.append(a) or real(*a))
    return calls


@st.composite
def finite_games(draw):
    m = draw(st.integers(2, 5))
    weights = st.lists(
        st.one_of(st.just(0.0), st.floats(0.01, 1.0)), min_size=m, max_size=m
    ).filter(lambda v: sum(v) > 0.0)
    raw = draw(st.lists(weights, min_size=1, max_size=4))
    K = LotterySet(tuple(validate_lottery([w / sum(v) for w in v]) for v in raw))
    return GameSpec(draw(st.integers(1, 3000)), m, K)


class TestValuesWriter:
    """The values.csv writer joins the repeating rows from one cycle; its
    text must equal one row template mapped over every row."""

    @pytest.mark.parametrize("eps, m, start", [(0.01, 4, 2715), (0.05, 3, 628), (0.001, 3, 30696)])
    def test_repeat_start_of_solved_tables(self, eps, m, start):
        assert repeat_start(solve(GameSpec(10**5, m, truncated_simplex([eps] * m)))) == start

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_repeat_start_is_the_first_repeating_row(self, data):
        period = data.draw(st.integers(1, 5))
        computed = data.draw(st.integers(period, 40))
        # a pool this small repeats rows by chance too; its zeros differ in sign
        cell = st.sampled_from([0.0, -0.0, 0.5, 2.0**-54])
        rows = data.draw(st.lists(st.tuples(*[cell] * 6, st.integers(0, 1)),
                                  min_size=computed, max_size=computed))
        planted = data.draw(st.integers(1, computed - period + 1))
        for k in range(planted + period, computed + 1):
            rows[k - 1] = rows[k - 1 - period]
        cols = np.array([r[:6] for r in rows]).T
        start = _repeat_start(np.array([r[6] for r in rows]), list(cols), computed, period)
        bits = [tuple(np.array(r[:6]).view(np.int64).tolist()) + r[6:] for r in rows]
        assert 1 <= start <= planted
        assert all(bits[k - 1] == bits[k - 1 - period] for k in range(start + period, computed + 1))
        if start > 1:
            assert bits[start - 2 + period] != bits[start - 2]

    @DELTAS
    @pytest.mark.parametrize("at", ["S-1", "S", "S+period", "S+3m"])
    @pytest.mark.parametrize("label, K", WRITER_SETS, ids=[label for label, _ in WRITER_SETS])
    def test_matches_reference_around_repeat_start(self, label, K, at, delta):
        # S: the first repeating row once n is large enough
        probe = solve(GameSpec(100_000, K.m, K))
        start, period, m = repeat_start(probe), probe.period, K.m
        n = {"S-1": start - 1, "S": start, "S+period": start + period, "S+3m": start + 3 * m}[at]
        assert_writer_matches_reference(GameSpec(max(1, n), K.m, K), delta)

    @DELTAS
    @pytest.mark.parametrize("rows", [1, 2 * 3 * 5, 100])
    @pytest.mark.parametrize("label, K", WRITER_SETS, ids=[label for label, _ in WRITER_SETS])
    def test_matches_reference_at_chunk_edges(self, label, K, rows, delta, monkeypatch):
        # chunks of one block, and of a few: the first chunk joined from the
        # cycle starts at the first chunk edge at or after S
        monkeypatch.setattr(cli, "CHUNK_ROWS", rows)
        probe = solve(GameSpec(100_000, K.m, K))
        segments = spied(monkeypatch, "_segments")
        n = max(3 * probe.computed, 1000) + 7 * K.m
        assert_writer_matches_reference(GameSpec(n, K.m, K), delta)
        assert segments

    @DELTAS
    @pytest.mark.parametrize("rows, n, digits", [(1, 10_017, {3, 4, 5}), (cli.CHUNK_ROWS, 10_007, {4})])
    def test_power_of_ten_inside_the_row_template(self, rows, n, digits, delta, monkeypatch):
        # rows repeat from k=628.  With one block per chunk, a chunk starts
        # at k=10000; with 504 rows, the chunk that holds it is formatted
        # row by row, and so is the last one, of part of a block
        monkeypatch.setattr(cli, "CHUNK_ROWS", rows)
        segments = spied(monkeypatch, "_segments")
        assert_writer_matches_reference(GameSpec(n, 3, truncated_simplex([0.05] * 3)), delta)
        assert {a[4] for a in segments} == digits

    def test_seeded_random_stays_on_the_general_path(self, monkeypatch):
        # its picks never repeat, so no row is joined from a cycle
        spec = GameSpec(3 * 1027 + 2, 3, truncated_simplex([0.05] * 3))
        assert solve(spec, TIE_RANDOM).picks.size == spec.n
        segments = spied(monkeypatch, "_segments")
        assert_writer_matches_reference(spec, 0.9, TIE_RANDOM, seed=1)
        assert not segments

    @DELTAS
    @pytest.mark.parametrize("at", ["c-1", "c", "c+1", "c+period", "c+3m", "3c"])
    @pytest.mark.parametrize("label, K", WRITER_SETS, ids=[label for label, _ in WRITER_SETS])
    def test_matches_reference_around_computed(self, label, K, at, delta):
        # c: where solve stops once n is large enough
        probe = solve(GameSpec(100_000, K.m, K))
        c, period, m = probe.computed, probe.period, K.m
        assert period > 0
        n = {"c-1": c - 1, "c": c, "c+1": c + 1, "c+period": c + period,
             "c+3m": c + 3 * m, "3c": 3 * c}[at]
        assert_writer_matches_reference(GameSpec(n, K.m, K), delta)

    @DELTAS
    def test_matches_reference_without_repeat(self, delta):
        spec = GameSpec(3000, 3, truncated_simplex([0.001] * 3))
        assert solve(spec).period == 0
        assert_writer_matches_reference(spec, delta)

    @DELTAS
    @pytest.mark.parametrize("seed", [0, 5])
    def test_matches_reference_seeded_random(self, seed, delta):
        assert_writer_matches_reference(
            GameSpec(3 * 1027 + 2, 3, truncated_simplex([0.05] * 3)), delta, TIE_RANDOM, seed
        )

    @settings(max_examples=60, deadline=None)
    @given(finite_games(), st.sampled_from(TIE_RULES), st.sampled_from([None, 0.5, 0.999]))
    def test_matches_reference_on_random_sets(self, spec, rule, delta):
        assert_writer_matches_reference(spec, delta, rule, seed=3)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_rows_match_the_field_template(self, data):
        # hand-built series drawn from a small pool, so that magnitudes
        # repeat across columns and across chunks of rows
        vt = data.draw(st.sampled_from(FIELD_TABLES))
        pool = FIELD_POOL + data.draw(st.lists(st.floats(allow_nan=False), max_size=6))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        cols = np.array(pool)[rng.integers(0, len(pool), (6, vt.computed))]
        cols *= rng.choice([-1.0, 1.0], cols.shape)
        cols[:, 0] = -np.abs(cols[:, 0])  # a sign bit in every column
        if vt.period:
            repeat_from(cols, data.draw(st.integers(1, vt.computed - vt.period + 1)), vt.period)
        assert_rows_match_the_fields(vt, cols, data.draw(st.sampled_from([None, 0.5])))

    @pytest.mark.parametrize("planted", [1008, 1009, 1010, 1011])
    def test_rows_repeat_from_a_start_at_a_chunk_edge(self, planted):
        # the third chunk of 504 rows starts at row 1009
        vt = FIELD_TABLES[0]
        rng = np.random.default_rng(planted)
        cols = rng.choice(FIELD_POOL, (6, vt.computed)) * rng.choice([-1.0, 1.0], (6, vt.computed))
        repeat_from(cols, planted, vt.period)
        assert_rows_match_the_fields(vt, cols, 0.5)

    def test_repeat_start_tells_signed_zeros_apart(self):
        # rows 2 and 4 differ only in the sign of a zero
        p = np.array([0.5, 0.0, 0.5, -0.0, 0.5, -0.0, 0.5, -0.0])
        assert _repeat_start(np.zeros(8, int), [p] + [np.ones(8)] * 5, 8, 2) == 3

    @pytest.mark.parametrize("delta", [0.5, 0.8363636363636363, 0.99])
    def test_envelopes_stop_taking_powers_at_zero(self, delta, monkeypatch):
        m = 3
        want = []
        while not want or want[-1] != "0,":
            want.append("%.17g," % analysis.envelope_bound(1 + 3 * m * len(want), delta, m))
        want += ["%.17g," % analysis.envelope_bound(1 + 3 * m * b, delta, m)
                 for b in range(len(want), len(want) + 1000)]
        calls = []
        bound = analysis.envelope_bound
        monkeypatch.setattr(analysis, "envelope_bound", lambda *a: calls.append(a) or bound(*a))
        got = list(itertools.islice(_envelopes(delta, m), len(want)))
        assert got == want
        # the first 0.0 is the last power taken
        assert len(calls) == want.index("0,") + 1

    def test_memory_does_not_grow_with_n(self):
        # one chunk of rows at a time: no list or string of n entries, and
        # at eps=0.001, whose 30000 rows are all evaluated, no string held
        # for every cell of them
        for n, eps, period in ((10**6, 0.05, 4), (30_000, 0.001, 0)):
            vt = solve(GameSpec(n, 3, truncated_simplex([eps] * 3)))
            assert vt.period == period
            ds = deviation_series(vt)
            vt.picks  # read first: the tie pass holds |K| payoffs per evaluated row
            tracemalloc.start()
            try:
                for _ in _values_csv(vt, ds, 0.9):
                    pass
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20, (n, eps)
