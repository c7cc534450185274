import json
import os
import resource
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

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
from bachet_lottery.cli import _values_csv, run
from bachet_lottery.engine import TIE_RULES

HALF_GAME = {"n": 6, "m": 2, "K": {"type": "finite", "lotteries": [[0.5, 0.5]]}}
TRUNC_GAME = {"n": 2000, "m": 2, "K": {"type": "truncated_simplex", "epsilon": [0.05, 0.05]}}
# a table that fits in SERIES_CAP bytes of address space, its deviation series not
SERIES_GAME = {"n": 4 * 10**6, "m": 3, "K": {"type": "truncated_simplex", "epsilon": [0.05] * 3}}
SERIES_CAP = 300 << 20
# a config nested past the interpreter's recursion limit
DEEP_CONFIG = b"[" * 100000 + b"]" * 100000


def write_config(tmp_path, payload, name="config.json"):
    """Write ``payload`` as JSON, or as it is when it is already bytes."""
    path = tmp_path / name
    path.write_bytes(payload if isinstance(payload, bytes) else json.dumps(payload).encode())
    return path


def run_capped(tmp_path, command, payload, address_space):
    """``python -m bachet_lottery.cli command`` on ``payload`` with its
    address space capped at ``address_space`` bytes.  One BLAS thread keeps
    the interpreter's own share of that space the same on any machine."""
    cfg = write_config(tmp_path, payload)
    env = {**os.environ, "PYTHONPATH": str(Path(bachet_lottery.__file__).parents[1]),
           "OPENBLAS_NUM_THREADS": "1"}
    limit = (address_space, address_space)
    return subprocess.run(
        [sys.executable, "-m", "bachet_lottery.cli", command, "--config", str(cfg),
         "--output", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, limit),
    )


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
    @pytest.mark.parametrize("n", [10**15, 10**30], ids=["n=1e15", "n=1e30"])
    def test_huge_n_exit_two_without_traceback(self, tmp_path, command, n):
        # 1e15 piles need petabytes; 1e30 exceeds any array size numpy allows.
        # The address space is capped first, so nothing large is ever allocated.
        game = {"n": n, "m": 3, "K": {"type": "truncated_simplex", "epsilon": [0.05] * 3}}
        proc = run_capped(tmp_path, command, {"game": game}, 4 << 30)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: game.n: ")
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["solve", "verify", "explore-nu-zero"])
    def test_series_too_large_exit_two_without_traceback(self, tmp_path, command):
        # Under SERIES_CAP the interpreter with numpy takes about 100 MiB and
        # the 4e6-pile table 61 MiB, so solve succeeds (see the next test);
        # the deviation series needs 9 arrays of 31 MiB more and does not fit.
        proc = run_capped(tmp_path, command, {"game": SERIES_GAME}, SERIES_CAP)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: game.n: 4000000 pile sizes do not fit in memory")
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out" / "values.csv").exists()
        assert not (tmp_path / "out" / "report.json").exists()

    def test_series_game_table_fits(self, tmp_path):
        # the other half of the test above: a sweep point solves the table
        # and builds no deviation series
        game = {k: v for k, v in SERIES_GAME.items() if k != "n"}
        payload = {"game": game, "sweep": {"n_values": [SERIES_GAME["n"]]}}
        proc = run_capped(tmp_path, "sweep", payload, SERIES_CAP)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out" / "sweep.csv").exists()

    def test_sweep_n_too_large_names_its_field(self, tmp_path, capsys):
        game = {"m": 3, "K": {"type": "truncated_simplex", "epsilon": [0.05] * 3}}
        cfg = write_config(tmp_path, {"game": game, "sweep": {"n_values": [7, 10**30]}})
        assert run("sweep", cfg, output=tmp_path / "out") == 2
        assert capsys.readouterr().err.startswith("error: sweep.n_values[1]: must be at most ")
        assert not (tmp_path / "out").exists()

    def test_sweep_n_out_of_memory_names_its_field(self, tmp_path):
        game = {"m": 3, "K": {"type": "truncated_simplex", "epsilon": [0.05] * 3}}
        payload = {"game": game, "sweep": {"n_values": [7, 10**15]}}
        proc = run_capped(tmp_path, "sweep", payload, 4 << 30)
        assert proc.returncode == 2
        assert proc.stderr.startswith(
            "error: sweep.n_values[1]: 1000000000000000 pile sizes do not fit in memory"
        )
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()

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
# larger ones are handled differently.
JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 60), st.floats(), st.text(max_size=6)
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


def _reference_values_csv(vt, ds, delta):
    """values.csv as one `%` template mapped over the full arrays."""
    series = [ds.p, ds.d, ds.delta, ds.delta_bar, ds.delta_plus, ds.delta_minus]
    if delta is not None:
        series.append(analysis.envelope(ds.n, delta, ds.m))
    row = "%d," + "%.17g," * 6 + ("," if delta is None else "%.17g,") + "%d\n"
    rows = zip(range(1, ds.n + 1), *series, vt.argmax_index)
    return VALUES_HEAD + "".join(map(row.__mod__, rows))


def assert_writer_matches_reference(spec, delta, rule=TIE_LOWEST, seed=0):
    vt = solve(spec, rule, seed=seed)
    ds = deviation_series(vt)
    got = "".join(_values_csv(vt, ds, delta))
    want = _reference_values_csv(vt, ds, delta)
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
    """The values.csv writer formats the repeating tail from one cycle; its
    text must equal one row template mapped over every row."""

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

    def test_memory_does_not_grow_with_n(self):
        # one block of rows at a time: no list or string of n entries
        vt = solve(GameSpec(10**6, 3, truncated_simplex([0.05] * 3)))
        ds = deviation_series(vt)
        tracemalloc.start()
        try:
            for _ in _values_csv(vt, ds, 0.9):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
