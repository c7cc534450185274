import contextlib
import hashlib
import io
import itertools
import json
import os
import re
import resource
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bachet_lottery
from bachet_lottery import GameSpec, deviation_series, finite_set, solve, truncated_simplex
from bachet_lottery import analysis, cli, engine
from bachet_lottery.analysis import DeviationSeries
from bachet_lottery.cli import _envelopes, _values_csv, run
from bachet_lottery.engine import fold
from bachet_lottery.errors import ConfigError, DegenerateSetError, InvalidEtaNuError, LotteryError
from bachet_lottery.lotteries import LotterySet, validate_lottery
from test_acceptance import VERIFY_GAMES

HALF_GAME = {"n": 6, "m": 2, "K": {"type": "finite", "lotteries": [[0.5, 0.5]]}}
TRUNC_GAME = {"n": 2000, "m": 2, "K": {"type": "truncated_simplex", "epsilon": [0.05, 0.05]}}
# a game whose dense table fits in SERIES_CAP bytes of address space, and
# whose dense deviation series would not
SERIES_GAME = {"n": 4 * 10**6, "m": 3, "K": {"type": "truncated_simplex", "epsilon": [0.05] * 3}}
SERIES_CAP = 300 << 20
# a game of 1e15 pile sizes, the same set
HUGE_GAME = {**SERIES_GAME, "n": 10**15}
# a game of 1e15 pile sizes whose recursion does not repeat before memory
# runs out
ENDLESS_GAME = {"n": 10**15, "m": 3, "K": {"type": "truncated_simplex", "epsilon": [1e-9] * 3}}
# sizes that are integers and reals, but past the table bound
PAST_THE_BOUND = [cli.MAX_TABLE, 2**63, 2**64]
EACH_PAST_THE_BOUND = pytest.mark.parametrize("value", PAST_THE_BOUND,
                                              ids=["MAX_TABLE", "2^63", "2^64"])
# the largest file a capped run may write
FILE_CAP = 64 << 20
# a game whose eta and nu pass, and whose contraction constant delta is 1.0
DEGENERATE_GAME = {"n": 50, "m": 3, "K": {"type": "finite", "lotteries": [[1e-320, 0.5, 0.5]]}}
# a config nested past the interpreter's recursion limit
DEEP_CONFIG = b"[" * 100000 + b"]" * 100000
# m=2, K = {(1-a, a), (a, 1-a)} at a = 1e-9: verify exits 1 on corridor
EQUAL_CORRIDOR_GAME = {"n": 1000, "m": 2, "K": {"type": "finite",
                                               "lotteries": [[1 - 1e-9, 1e-9], [1e-9, 1 - 1e-9]]}}
SIMPLEX_M3 = {"type": "truncated_simplex", "epsilon": [0.05] * 3}
# report.json of verify, byte for byte
REPORT_PINS = [
    *zip(({"game": game} for game in VERIFY_GAMES), (
        "3eb27ffaa45ed2575a9e8b53aa7f98d9ca2dcdf7ff9a80babc8c4a368cffc298",
        "443624de643cba89c0e7159d946be9d072c0929aa57e1c61465c276cf44d6620",
        "0e97671e527dba44a244ecc7050b31b222092fb53966273b0bb4b641e7abe04d",
    )),
    # drop_down_2m and drop_down_3m are vacuous: checked 0, min_slack null
    ({"game": {"n": 7, "m": 3, "K": SIMPLEX_M3}},
     "db0830d423970bdc9c6dd37e77a27ede28ad6ffd1e084e05222acb8e507e8f04"),
    ({"game": {"n": 5000, "m": 3, "K": SIMPLEX_M3}, "kappa_grid": [0.95, 0.2, 1e-6, 0.5],
      "tau": 0.1},
     "adc1bae145d56d67b726f1875a76bbb3df180bd01224ed5747cd6fc9a5c71bf6"),
    ({"game": {"n": 10_000, "m": 5, "K": {"type": "truncated_simplex", "epsilon": [0.1] * 5}}},
     "db3995feddaa6a5a8f7dddcfc522f3955f740a2bbff8600497027376056fb500"),
    ({"game": EQUAL_CORRIDOR_GAME},
     "b8e0d22fdc3db33e860ab4deb5904bbce48620c1381c7b4199712a18ec0378f0"),
]


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
    def test_readme_example_config(self, tmp_path):
        # every json block of the README, saved as it stands and run under its
        # own command, output redirected
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        blocks = re.findall(r"```json\n(.*?)```", readme, re.S)
        assert blocks
        for i, block in enumerate(blocks):
            cfg = write_config(tmp_path, block.encode(), name=f"config{i}.json")
            out = tmp_path / f"out{i}"
            assert run(json.loads(block)["command"], cfg, output=out) == 0, block
            if (out / "report.json").exists():
                assert json.loads((out / "report.json").read_text())["all_passed"] is True

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

    def test_close_kappas_get_distinct_ids(self, tmp_path):
        # 0.1 and 0.1000001 agree to 6 significant digits
        cfg = write_config(tmp_path, {"game": TRUNC_GAME, "kappa_grid": [0.1, 0.1000001]})
        assert run("verify", cfg, output=tmp_path / "out") == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        ids = [c["lemma_id"] for c in report["checks"] if c["lemma_id"].startswith("km_bound")]
        assert ids == ["km_bound[kappa=0.1]", "km_bound[kappa=0.1000001]"]

    @pytest.mark.parametrize("cfg, digest", REPORT_PINS, ids=[
        "verify-m2", "verify-m3", "verify-mirror", "tiny-n7", "kappa-tau", "m5-eps0.1",
        "equal-corridor",
    ])
    def test_report_bytes(self, tmp_path, cfg, digest):
        code = run("verify", write_config(tmp_path, cfg), output=tmp_path / "out")
        assert sha256(tmp_path / "out" / "report.json") == digest
        assert code == (1 if cfg["game"] == EQUAL_CORRIDOR_GAME else 0)

    def test_equal_corridor_report(self, tmp_path):
        # corridor holds with equality in exact arithmetic on this set, and
        # nu/(1-nu) ~ 1e9 scales a one-ulp gap past SLACK_TOL
        cfg = write_config(tmp_path, {"game": EQUAL_CORRIDOR_GAME})
        assert run("verify", cfg, output=tmp_path / "out") == 1
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["all_passed"] is False
        failing = [c for c in report["checks"] if c["violations"]]
        assert failing == [{"lemma_id": "corridor", "checked": 333, "violations": 84,
                            "min_slack": -1.1102230560244089e-07}]


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

    def test_unsorted_repeated_n_values_bytes(self, tmp_path):
        # every n reads a prefix of the run's one stream, whatever the order
        payload = {
            "game": {"n": 400, "m": 3, "K": {"type": "truncated_simplex", "epsilon": [0.05] * 3}},
            "sim": {"replications": 2000, "seed": 0, "n_values": [400, 25, 400, 1]},
        }
        assert run("simulate", write_config(tmp_path, payload), output=tmp_path / "out") == 0
        assert sha256(tmp_path / "out" / "simulation.csv") == (
            "8ce3de6150ff58466b74252f9de4ef362d317f0ecab9a79d0908b678d301b2a5"
        )

    def test_one_philox_per_run(self, tmp_path, monkeypatch):
        built = []
        philox = np.random.Philox
        monkeypatch.setattr(np.random, "Philox", lambda seed: built.append(seed) or philox(seed))
        payload = {
            "game": {**TRUNC_GAME, "n": 60},
            "sim": {"replications": 50, "seed": 3, "n_values": [10, 60, 30, 60]},
        }
        assert run("simulate", write_config(tmp_path, payload), output=tmp_path / "out") == 0
        assert built == [3]

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

    @pytest.mark.parametrize("command", ["solve", "verify", "sweep", "explore-nu-zero"])
    def test_seed_is_an_option_of_simulate_alone(self, tmp_path, capsys, command):
        cfg = str(write_config(tmp_path, VALID_CONFIGS.get(command, SWEEP_N)))
        argv = [command, "--config", cfg, "--output", str(tmp_path / "out")]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--seed", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0


def sweep_as_games(cfg):
    """The exit code and stderr of an ``n_values`` sweep whose points are
    each parsed as a game of their own: for each point in order, its type
    check, then ``cli._game``; then tau, and the drop constants of the set."""
    try:
        games = []
        for i, n in enumerate(cfg["sweep"]["n_values"]):
            where = f"sweep.n_values[{i}]"
            cli._require(cli._is_int(n) and n >= 1, where, "integer >= 1")
            games.append(cli._game({**cfg["game"], "n": n}, "sweep", where))
        cli._drop_constants(games[0][1], cli._parse_tau(cfg))
    except (ConfigError, LotteryError, DegenerateSetError, InvalidEtaNuError) as exc:
        return 2, f"error: {exc}\n"
    return 0, ""


@st.composite
def faulty_n_sweeps(draw):
    """An ``n_values`` sweep whose points, set, ``game.m`` and ``tau`` may
    each be at fault: bad entries and points past MAX_TABLE - m at any
    position; a set of the wrong sum, with nu = 0, of another m or of no
    known type; an m that is no integer >= 2 or past MAX_TABLE; a tau that
    is no real or outside its interval.  Each part is sound two times in
    three, so that a fault often stands alone."""
    m = draw(st.sampled_from([2, 3, 4, 5]))
    sound = st.sampled_from([True, True, False])
    K = draw(st.sampled_from([
        {"type": "finite", "lotteries": [[1 / m] * m]},
        {"type": "truncated_simplex", "epsilon": [0.05] * m},
        {"type": "finite", "lotteries": [[float(i == j) for j in range(m)] for i in range(m)]},
    ] if draw(sound) else [
        {"type": "finite", "lotteries": [[0.6] * m]},
        {"type": "finite", "lotteries": [[1.0] + [0.0] * (m - 1)]},
        {"type": "finite", "lotteries": [[1 / (m + 1)] * (m + 1)]},
        {"type": "mystery"},
    ]))
    game_m = m if draw(sound) else draw(st.sampled_from([1, True, "3", *PAST_THE_BOUND]))
    ns = draw(st.lists(st.integers(1, 40), min_size=1, max_size=6))
    for _ in range(draw(st.integers(0, 2))):
        bad = st.sampled_from([0, -1, True, 1.5, "7", None] if draw(st.booleans())
                              else [cli.MAX_TABLE - 1, cli.MAX_TABLE, 10**30])
        ns.insert(draw(st.integers(0, len(ns))), draw(bad))
    cfg = {"game": {"m": game_m, "K": K}, "sweep": {"n_values": ns}}
    tau = draw(st.sampled_from([None, 0.1] if draw(sound) else ["x", 5.0]))
    return cfg if tau is None else {**cfg, "tau": tau}


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

    @pytest.fixture
    def loop_runs(self, monkeypatch):
        """The game of each run of the loop."""
        specs, run_loop = [], engine._run_loop
        monkeypatch.setattr(engine, "_run_loop", lambda spec: specs.append(spec) or run_loop(spec))
        return specs

    def test_n_sweep_runs_the_loop_once(self, tmp_path, loop_runs):
        # unsorted and repeated points, n = 1, and points on both sides of
        # where solve first sees a repeat (k = 649; the table keeps 1..632)
        ns = [2000, 1, 649, 10, 632, 10**6, 633, 648, 10, 650, 1, 2000]
        payload = {"game": {"m": 3, "K": SIMPLEX_M3}, "sweep": {"n_values": ns}}
        assert run("sweep", write_config(tmp_path, payload), output=tmp_path / "out") == 0
        assert sha256(tmp_path / "out" / "sweep.csv") == (
            "34b5a8f0ea7043ff13d8098f396d038e3f297e0769498653e67d920848ca049e"
        )
        assert [spec.n for spec in loop_runs] == [10**6]
        rows = read_csv(tmp_path / "out" / "sweep.csv")[1:]
        K = truncated_simplex([0.05] * 3)
        assert [float(row.split(",")[5]) for row in rows] == [solve(GameSpec(n, 3, K)).p(n)
                                                              for n in ns]

    def test_epsilon_sweep_runs_the_loop_once_per_point(self, tmp_path, loop_runs):
        eps = [0.05, 0.01, 0.05, 0.2]
        payload = {"game": {"n": 700, "m": 3}, "sweep": {"epsilon_values": eps}}
        assert run("sweep", write_config(tmp_path, payload), output=tmp_path / "out") == 0
        assert [spec.K.lotteries for spec in loop_runs] == [truncated_simplex([e] * 3).lotteries
                                                            for e in eps]

    @pytest.fixture
    def set_calls(self, monkeypatch):
        """How often the run parses a lottery set and computes its conditions."""
        calls = dict.fromkeys(["_parse_lottery_set", "compute_conditions"], 0)
        for name in calls:
            def spy(*args, name=name, inner=getattr(cli, name)):
                calls[name] += 1
                return inner(*args)

            monkeypatch.setattr(cli, name, spy)
        return calls

    def test_n_sweep_parses_its_set_once(self, tmp_path, set_calls):
        # 50 unsorted points, with repeats: one game
        ns = [(17 * i) % 41 + 1 for i in range(50)]
        payload = {"game": {"m": 3, "K": SIMPLEX_M3}, "sweep": {"n_values": ns}}
        assert run("sweep", write_config(tmp_path, payload), output=tmp_path / "out") == 0
        assert sha256(tmp_path / "out" / "sweep.csv") == (
            "a6c13fa1565912a5b7d23580fcfea8539aa38fb09964c5715e808fd9fee2ae10"
        )
        assert set_calls == {"_parse_lottery_set": 1, "compute_conditions": 1}

    def test_epsilon_sweep_parses_each_set(self, tmp_path, set_calls):
        eps = [0.05, 0.01, 0.05, 0.2]
        payload = {"game": {"n": 700, "m": 3}, "sweep": {"epsilon_values": eps}}
        assert run("sweep", write_config(tmp_path, payload), output=tmp_path / "out") == 0
        assert sha256(tmp_path / "out" / "sweep.csv") == (
            "ed5bb91b3344ae1a99385b6791b0861df8ad95fd858a81b989bc239f13b56c50"
        )
        assert set_calls == {"_parse_lottery_set": 4, "compute_conditions": 4}

    @settings(max_examples=150)
    @given(faulty_n_sweeps())
    def test_n_sweep_reports_the_error_of_points_parsed_as_games(self, cfg):
        with tempfile.TemporaryDirectory() as tmp:
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = run("sweep", write_config(Path(tmp), cfg), output=Path(tmp) / "out")
        assert (code, err.getvalue()) == sweep_as_games(cfg)

    @pytest.mark.parametrize(
        "game, ns, tau, message",
        [
            # the set's fault comes before a later point's
            ({"m": 3, "K": {"type": "finite", "lotteries": [[0.6, 0.6, 0.6]]}}, [5, True], None,
             "game.K: coordinates sum to 1.7999999999999998, expected 1 within 1e-12"),
            ({"m": 3, "K": {"type": "mystery"}}, [True, 5], None, "sweep.n_values[0]: integer >= 1"),
            ({"m": 1, "K": SIMPLEX_M3}, [5, 10**30], "x", "game.m: must be an integer >= 2"),
            ({"m": 3, "K": SIMPLEX_M3}, [5, 10**30, "x"], "x",
             f"sweep.n_values[1]: must be at most {cli.MAX_TABLE - 3}"),
            ({"m": 2, "K": {"type": "finite", "lotteries": [[1.0, 0.0]]}}, [5, 0], None,
             "game.K: nu = 0 is only allowed under explore-nu-zero, not 'sweep'"),
            ({"m": 2, "K": SIMPLEX_M3}, [5, cli.MAX_TABLE], None,
             "game: lottery set has m=3, game spec has m=2"),
        ],
    )
    def test_n_sweep_multi_fault_error(self, tmp_path, capsys, game, ns, tau, message):
        payload = {"game": game, "sweep": {"n_values": ns}, **({} if tau is None else {"tau": tau})}
        assert run("sweep", write_config(tmp_path, payload), output=tmp_path / "out") == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()


class TestTiesOnFirstRead:
    """solve runs the recursion only: a table's tie pass runs on the first
    read of its ties or moves, once, and never for the commands that read
    values alone; sweep reads its values from the loop and builds no
    table."""

    @pytest.fixture
    def recorded(self, monkeypatch):
        """Every table built, and the prefix each tie pass read."""
        tables, passes = [], []
        table, payoffs = engine.ValueTable, engine.payoffs
        monkeypatch.setattr(engine, "ValueTable",
                            lambda **kw: tables.append(table(**kw)) or tables[-1])
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
        assert len(tables) == (command == "verify") and passes == []
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

    @pytest.mark.parametrize("tau", [None, 5.0, "x"])
    @pytest.mark.parametrize("game", [DEGENERATE_GAME, {**TRUNC_GAME, "n": 30}],
                             ids=["delta-rounds-to-1", "simplex"])
    def test_reads_no_tau_and_derives_no_delta(self, tmp_path, game, tau):
        # a delta that rounds to 1 and a tau that is not in its interval, or
        # not a real, are errors of the commands that use them: this one
        # writes no envelope
        payload = {"game": game} if tau is None else {"game": game, "tau": tau}
        assert run("explore-nu-zero", write_config(tmp_path, payload), output=tmp_path / "out") == 0
        rows = read_csv(tmp_path / "out" / "values.csv")
        assert len(rows) == game["n"] + 1
        assert all(r.split(",")[7] == "" for r in rows[1:])


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
            # two kinds of sweep: neither may be dropped in silence
            ("sweep", {"game": HALF_GAME, "sweep": {"n_values": [5], "epsilon_values": [0.05]}}),
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
            {"kappa_grid": [0.3, 0.6, 0.3]},
            # the same double as 0.5
            {"kappa_grid": [0.5, 0.50000000000000000001]},
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

    @pytest.mark.parametrize("m", [3000, 10_000])
    @pytest.mark.parametrize(
        "command,extra",
        [
            ("solve", {}),
            ("verify", {}),
            ("explore-nu-zero", {}),
            ("simulate", {"sim": {"replications": 10, "seed": 1}}),
            ("sweep", {"sweep": {"n_values": [5, 10]}}),
        ],
    )
    def test_lottery_too_long_to_compile_names_field(self, tmp_path, capsys, command, extra, m):
        # one uniform lottery: its payoff sum of m terms, past the depth to
        # which the compiler walks one `+` chain, is written as several
        # statements and solves (not a truncated simplex: that holds m * m
        # weights)
        game = {"n": 10, "m": m, "K": {"type": "finite", "lotteries": [[1 / m] * m]}}
        code = run(command, write_config(tmp_path, {"game": game, **extra}),
                   output=tmp_path / "out")
        assert "Traceback" not in capsys.readouterr().err
        assert code == 0

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

    @pytest.mark.parametrize(
        "command,payload,field",
        [
            # nu = 1e-320 leaves tau an interval below 7e-321: delta rounds to 1
            ("verify", {"game": DEGENERATE_GAME}, "game.K"),
            ("solve", {"game": DEGENERATE_GAME}, "game.K"),
            ("verify", {"game": DEGENERATE_GAME, "tau": 1e-321}, "tau"),
            # eta = 1 - 1e-16 at m = 2: delta rounds to 1
            ("sweep", {"game": {"n": 50, "m": 2}, "sweep": {"epsilon_values": [0.05, 1e-16]}},
             "sweep.epsilon_values[1]"),
        ],
    )
    def test_degenerate_delta_names_field(self, tmp_path, capsys, command, payload, field):
        assert run(command, write_config(tmp_path, payload), output=tmp_path / "out") == 2
        assert capsys.readouterr().err.startswith(f"error: {field}: derived delta=1.0 ")
        assert not (tmp_path / "out").exists()

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
        # the table keeps pile sizes 1..632, but values.csv has a row for
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

    @pytest.mark.parametrize(
        "n, m, message",
        [
            (50, 2**62, f"error: game.m: must be at most {cli.MAX_TABLE - 1}\n"),
            (2, cli.MAX_TABLE - 1, "error: game.n: must be at most 1\n"),
        ],
        ids=["m=2^62", "largest-m"],
    )
    def test_huge_m_names_its_field(self, tmp_path, capsys, n, m, message):
        # m is checked first: the bound given for n is never negative
        cfg = write_config(tmp_path, {"game": {**HALF_GAME, "n": n, "m": m}})
        assert run("solve", cfg, output=tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err == message
        assert not re.search(r"-\d", err)
        assert not (tmp_path / "out").exists()

    def test_sweep_huge_m_exit_two_without_traceback(self, tmp_path):
        # an epsilon below 1/m asks for m lottery weights, 2 EiB of them
        game = {"n": 5, "m": 2**58, "K": HALF_GAME["K"]}
        proc = run_capped(tmp_path, "sweep", {"game": game, "sweep": {"epsilon_values": [1e-20]}},
                          4 << 30)
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"error: game.m: {2**58} lottery weights do not fit")
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()

    @EACH_PAST_THE_BOUND
    def test_sweep_m_past_the_bound_names_game_m(self, tmp_path, value):
        # refused before an epsilon's m lottery weights are asked for
        game = {"n": 5, "m": value, "K": HALF_GAME["K"]}
        proc = run_capped(tmp_path, "sweep", {"game": game, "sweep": {"epsilon_values": [1e-20]}},
                          4 << 30)
        assert proc.returncode == 2
        assert proc.stderr == f"error: game.m: must be at most {cli.MAX_TABLE - 1}\n"
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()

    def test_sweep_n_out_of_memory_names_its_field(self, tmp_path, capsys, monkeypatch):
        values_at = cli.values_at

        def no_memory_past_1e6(spec, ks):
            if spec.n > 10**6:
                raise MemoryError
            return values_at(spec, ks)

        monkeypatch.setattr(cli, "values_at", no_memory_past_1e6)
        game = {"m": 3, "K": {"type": "truncated_simplex", "epsilon": [0.05] * 3}}
        cfg = write_config(tmp_path, {"game": game, "sweep": {"n_values": [7, 10**15]}})
        assert run("sweep", cfg, output=tmp_path / "out") == 2
        assert capsys.readouterr().err.startswith(
            "error: sweep.n_values[1]: 1000000000000000 pile sizes do not fit in memory"
        )
        assert not (tmp_path / "out").exists()

    def test_sweep_recursion_out_of_memory_names_the_first_largest_n(self, tmp_path, capsys,
                                                                     monkeypatch):
        # one run of the loop serves the sweep; the point that asked for its
        # n first is the one named
        run_loop = engine._run_loop

        def no_memory_past_1e6(spec):
            if spec.n > 10**6:
                raise MemoryError
            return run_loop(spec)

        monkeypatch.setattr(engine, "_run_loop", no_memory_past_1e6)
        game = {"m": 3, "K": {"type": "truncated_simplex", "epsilon": [0.05] * 3}}
        cfg = write_config(tmp_path, {"game": game, "sweep": {"n_values": [7, 10**15, 10**15]}})
        assert run("sweep", cfg, output=tmp_path / "out") == 2
        assert capsys.readouterr().err == (
            "error: sweep.n_values[1]: 1000000000000000 pile sizes do not fit in memory\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, payload",
        [
            ("solve", {"game": ENDLESS_GAME, "tau": -1}),
            ("verify", {"game": ENDLESS_GAME, "tau": -1}),
            ("sweep", {"game": {"m": 3, "K": ENDLESS_GAME["K"]}, "sweep": {"n_values": [10**15]},
                       "tau": -1}),
            # a tau in the first set's interval, not in the second's
            ("sweep", {"game": {"n": 10**15, "m": 3},
                       "sweep": {"epsilon_values": [1e-9, 0.2]}, "tau": 1.5}),
        ],
        ids=["solve", "verify", "n-sweep", "epsilon-sweep"],
    )
    def test_tau_out_of_range_exits_before_the_recursion(self, tmp_path, command, payload):
        # were tau checked after the loop, this cap would stop the loop
        # after seconds, with an error on game.n; without a cap it would run
        # until the process was killed
        t0 = time.perf_counter()
        proc = run_capped(tmp_path, command, payload, 800 << 20)
        elapsed = time.perf_counter() - t0
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: tau: ")
        assert "Traceback" not in proc.stderr
        assert elapsed < 1.0, f"exit after {elapsed:.2f} s"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, payload, message",
        [
            ("solve", {"game": TRUNC_GAME, "tau": 5.0}, "tau: tau=5.0 outside "),
            ("verify", {"game": TRUNC_GAME, "tau": 5.0}, "tau: tau=5.0 outside "),
            ("solve", {"game": DEGENERATE_GAME}, "game.K: derived delta=1.0 "),
            ("sweep", {"game": {"n": 50, "m": 3}, "sweep": {"epsilon_values": [0.05, 0.2]},
                       "tau": 1.0}, "tau: tau=1.0 outside "),
            # with sound constants the recursion's fault is the one named
            ("verify", {"game": TRUNC_GAME}, "game.n: 2000 pile sizes do not fit in memory"),
        ],
        ids=["solve-tau", "verify-tau", "solve-delta", "sweep-tau", "verify-sound"],
    )
    def test_constants_fault_named_before_the_recursions(self, tmp_path, capsys, monkeypatch,
                                                         command, payload, message):
        # a config with two faults, bad drop constants and a recursion that
        # does not fit: the constants are worked out first, so theirs is named
        def no_memory(*args):
            raise MemoryError

        monkeypatch.setattr(cli, "solve", no_memory)
        monkeypatch.setattr(cli, "values_at", no_memory)
        assert run(command, write_config(tmp_path, payload), output=tmp_path / "out") == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
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
# larger ones are handled differently; the sizes PAST_THE_BOUND stand for
# the integers and reals past the table bound, and the two past the range
# of a double, which JSON allows, for the integers a float cannot hold.
JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 60), st.floats(), st.text(max_size=6),
    st.sampled_from([*PAST_THE_BOUND, 10**400, -(10**400)]),
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
    "explore-nu-zero": {"tau": 0.05,
                        "game": {"n": 20, "m": 2,
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
# each size of a valid config, and the field that its error names
SIZE_CASES = [
    *((c, cfg, ("game", "m"), "game.m") for c, cfg in [*VALID_CONFIGS.items(), ("sweep", SWEEP_N)]),
    *((c, cfg, ("game", "n"), "game.n") for c, cfg in VALID_CONFIGS.items()),
    ("simulate", VALID_CONFIGS["simulate"], ("sim", "replications"), "sim.replications"),
    *(("simulate", VALID_CONFIGS["simulate"], ("sim", "n_values", i), "sim.n_values")
      for i in (0, 1)),
    *(("sweep", SWEEP_N, ("sweep", "n_values", i), f"sweep.n_values[{i}]") for i in (0, 1)),
]


class TestContract:
    """Any one field replaced by any JSON value: exit 0, 1 or 2, never a raise."""

    @pytest.mark.parametrize("command,cfg", [*VALID_CONFIGS.items(), ("sweep", SWEEP_N)])
    def test_valid_configs_pass(self, tmp_path, command, cfg):
        assert run(command, write_config(tmp_path, cfg), output=tmp_path / "out") == 0

    @EACH_PAST_THE_BOUND
    @pytest.mark.parametrize("command,cfg,path,field", SIZE_CASES,
                             ids=[f"{c}{'-n' if cfg is SWEEP_N else ''}-{f}"
                                  for c, cfg, _, f in SIZE_CASES])
    def test_size_past_the_bound_refused_before_allocation(self, tmp_path, capsys, command, cfg,
                                                           path, field, value):
        config = write_config(tmp_path, _replaced(cfg, path, value))
        tracemalloc.start()
        try:
            code = run(command, config, output=tmp_path / "out")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {field}: must ")
        assert peak < 1 << 20
        assert not (tmp_path / "out").exists()

    @EACH_PAST_THE_BOUND
    def test_seed_past_the_bound_runs(self, tmp_path, value):
        cfg = _replaced(VALID_CONFIGS["simulate"], ("sim", "seed"), value)
        assert run("simulate", write_config(tmp_path, cfg), output=tmp_path / "out") == 0
        rows = read_csv(tmp_path / "out" / "simulation.csv")[1:]
        assert [row.split(",")[1:3] for row in rows] == [["20", str(value)]] * 2

    @settings(max_examples=300)
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
# the six series fields of a values.csv row, as the reference writer prints them
VALUES_FIELDS = "%.17g," * 6
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


def test_artifacts_leave_the_umask_alone(tmp_path, monkeypatch):
    # another thread's file made while the umask were 0 would get mode 0666
    calls = []
    monkeypatch.setattr(os, "umask", lambda *args: calls.append(args))
    payloads = {
        "solve": {"game": HALF_GAME},
        "verify": {"game": {**TRUNC_GAME, "n": 50}},
        "simulate": {"game": HALF_GAME, "sim": {"replications": 10, "seed": 1}},
        "sweep": {"game": HALF_GAME, "sweep": {"n_values": [2, 3]}},
    }
    for command, payload in payloads.items():
        cfg = write_config(tmp_path, payload, f"{command}.json")
        assert run(command, cfg, output=tmp_path / command) == 0
    assert calls == []


def _reference_rows(vt, delta, ks):
    """The rows of values.csv for the pile sizes of the range ``ks``: one
    `%` template mapped over every series, each from its definition over
    the dense ``vt.p_ext``."""
    m = vt.m
    p = vt.p_ext[m:]
    d = p - 0.5
    windows = np.lib.stride_tricks.sliding_window_view(vt.p_ext, m)[1:]  # row k - 1: W_k
    bar = np.abs(windows - 0.5).max(axis=1)
    series = [s[ks.start - 1 : ks.stop - 1]
              for s in (p, d, np.abs(d), bar, np.maximum(d, 0.0), np.maximum(-d, 0.0))]
    if delta is not None:
        block = (np.arange(ks.start, ks.stop) - 1) // (3 * m)
        bounds = [analysis.envelope_bound(1 + 3 * m * j, delta, m)
                  for j in range(block[0], block[-1] + 1)]
        series.append(np.array(bounds)[block - block[0]])
    row = "%d," + VALUES_FIELDS + ("," if delta is None else "%.17g,") + "%d\n"
    rows = zip(ks, *series, vt.argmax(np.arange(ks.start, ks.stop)))
    return "".join(map(row.__mod__, rows))


def _reference_values_csv(vt, delta):
    return VALUES_HEAD + _reference_rows(vt, delta, range(1, vt.n + 1))


def assert_writer_matches_reference(spec, delta):
    vt = solve(spec)
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
# the first k of each number of digits past one
EDGES = {10, 100, 1000, 10_000, 100_000}
# tables whose rows span several chunks: with a repeat, and without one
FIELD_TABLES = [solve(GameSpec(n, 3, truncated_simplex([eps] * 3)))
                for n, eps in ((2500, 0.05), (1200, 0.001), (7, 0.05))]


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
        want = "%d," % k + VALUES_FIELDS % tuple(rows[fold(k, vt.n, vt.computed, vt.period) - 1])
        assert line == want + bound + "%d\n" % vt.argmax(k), k
    assert len(got) == vt.n + 1


def spied(monkeypatch, name):
    """Count the calls of the cli function ``name``."""
    calls = []
    real = getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda *a: calls.append(a) or real(*a))
    return calls


def formatted_rows(cells):
    """The rows whose fields the spied ``_cells`` calls formatted."""
    return sum(len(cols) for cols, in cells)


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

    @pytest.mark.parametrize("eps, m, start", [(0.01, 4, 2716), (0.05, 3, 629), (0.001, 3, 30697)])
    def test_repeat_start_of_solved_tables(self, eps, m, start):
        # S, the first row of the last stored period, follows the transient
        vt = solve(GameSpec(10**5, m, truncated_simplex([eps] * m)))
        assert vt.computed - vt.period + 1 == start

    @DELTAS
    @pytest.mark.parametrize("at", ["S-1", "S", "S+period", "S+3m"])
    @pytest.mark.parametrize("label, K", WRITER_SETS, ids=[label for label, _ in WRITER_SETS])
    def test_matches_reference_around_repeat_start(self, label, K, at, delta):
        # S: the first row of the last stored period once n is large enough
        probe = solve(GameSpec(100_000, K.m, K))
        period, m = probe.period, K.m
        start = probe.computed - period + 1
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
        cells = spied(monkeypatch, "_cells")
        n = max(3 * probe.computed, 1000) + 7 * K.m
        assert_writer_matches_reference(GameSpec(n, K.m, K), delta)
        # rows 1..S-1 and the cycle S..computed are formatted, no later row
        assert formatted_rows(cells) <= probe.computed

    @DELTAS
    @pytest.mark.parametrize("rows, n", [(1, 10_017), (cli.CHUNK_ROWS, 10_007)])
    def test_power_of_ten_inside_the_row_template(self, rows, n, delta, monkeypatch):
        # the row template starts at k=629.  With one block per chunk, a chunk starts
        # at k=10000; with 504 rows, k=1000 and k=10000 fall inside a chunk
        # (each starts a block: 9 divides 10^d - 1) and the last chunk ends
        # inside a block.  Every row from 629 on is joined from the cycle,
        # with k of 3, 4 and 5 digits
        monkeypatch.setattr(cli, "CHUNK_ROWS", rows)
        spec = GameSpec(n, 3, truncated_simplex([0.05] * 3))
        vt = solve(spec)
        cells = spied(monkeypatch, "_cells")
        assert_writer_matches_reference(spec, delta)
        assert formatted_rows(cells) <= vt.computed

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
    @pytest.mark.parametrize("n, rows", [(3000, cli.CHUNK_ROWS), (10_007, 1), (10_007, 512)])
    def test_matches_reference_without_repeat(self, n, rows, delta, monkeypatch):
        # no repeat below k=30697: every row is formatted, and its k crosses
        # 10, 100, 1000 and 10000 inside a chunk of 504 rows
        monkeypatch.setattr(cli, "CHUNK_ROWS", rows)
        spec = GameSpec(n, 3, truncated_simplex([0.001] * 3))
        assert solve(spec).period == 0
        assert_writer_matches_reference(spec, delta)

    @pytest.mark.parametrize("rows", [1, 100, 512])
    def test_one_chunk_per_run_of_rows(self, rows, monkeypatch):
        # the header, then one chunk of whole rows per run of whole 3m-blocks,
        # the one that holds S = 629 included
        monkeypatch.setattr(cli, "CHUNK_ROWS", rows)
        n, size = 2000, 9 * max(1, rows // 9)
        vt = solve(GameSpec(n, 3, truncated_simplex([0.05] * 3)))
        assert vt.computed - vt.period + 1 == 629
        header, *chunks = _values_csv(vt, deviation_series(vt), 0.9)
        assert header == VALUES_HEAD.encode()
        assert len(chunks) == -(-n // size)
        assert [c.count(b"\n") for c in chunks] == [min(size, n - lo) for lo in range(0, n, size)]
        assert all(c.endswith(b"\n") for c in chunks)

    @settings(max_examples=60)
    @given(finite_games(), st.sampled_from([None, 0.5, 0.999]), st.data())
    def test_matches_reference_on_random_sets(self, spec, delta, data):
        # chunks of one row, of one block, of one block and a row, of a few
        # blocks and of the default size: S, the powers of ten and a last
        # part of a block fall anywhere in a chunk
        rows = data.draw(st.sampled_from([1, 3 * spec.m, 3 * spec.m + 1, 100, 504]))
        with mock.patch.object(cli, "CHUNK_ROWS", rows):
            assert_writer_matches_reference(spec, delta)

    def test_rows_from_the_repeat_start_are_formatted_once(self, monkeypatch):
        # rows 1..S-1 and the cycle S..computed are formatted; every later
        # row is joined from the cycle's text: those of the chunk that holds
        # S, of the block that holds k=10000 and of the last chunk, which
        # ends inside a block
        spec = GameSpec(20_000, 4, truncated_simplex([0.01] * 4))
        vt = solve(spec)
        start = vt.computed - vt.period + 1
        cells = spied(monkeypatch, "_cells")
        assert_writer_matches_reference(spec, 0.9)
        assert sum(len(cols) for cols, in cells) <= start - 1 + vt.period

    @settings(max_examples=40)
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
        assert_rows_match_the_fields(vt, cols, data.draw(st.sampled_from([None, 0.5])))

    @pytest.mark.parametrize("eps, rows, edge, offset",
                             [(0.06, 171, 513, -1), (0.3, 117, 117, 0), (0.08, 9, 369, 1)])
    def test_rows_repeat_from_a_start_at_a_chunk_edge(self, eps, rows, edge, offset, monkeypatch):
        # computed - period one row before, at and one row after the chunk
        # edge past row ``edge``: the row template starts at row S =
        # computed - period + 1, so the chunk after that edge is the first
        # joined from it in the first two cases, and in the third the next
        monkeypatch.setattr(cli, "CHUNK_ROWS", rows)
        spec = GameSpec(2 * edge + 3 * rows + 5, 3, truncated_simplex([eps] * 3))
        vt = solve(spec)
        assert vt.period and vt.computed - vt.period == edge + offset
        cells = spied(monkeypatch, "_cells")
        rng = np.random.default_rng(edge)
        cols = rng.choice(FIELD_POOL, (6, vt.computed)) * rng.choice([-1.0, 1.0], (6, vt.computed))
        assert_rows_match_the_fields(vt, cols, 0.5)
        assert formatted_rows(cells) <= vt.computed
        assert_writer_matches_reference(spec, 0.5)

    @pytest.mark.parametrize("rows", [1, 3 * 4 + 1, 512])
    @pytest.mark.parametrize("part", ["before S", "from S"])
    def test_k_digits_across_powers_of_ten(self, part, rows, monkeypatch):
        # k goes from 9 to 10, 99 to 100, ..., 99999 to 100000 inside a
        # chunk (with m = 4, 10^d - 1 is no multiple of a 12-row block), on
        # rows of ten parts and on rows of five
        monkeypatch.setattr(cli, "CHUNK_ROWS", rows)
        size = 12 * max(1, rows // 12)
        if part == "before S":
            # no repeat below k=26116 at eps=0.001, nor below k=122625 at
            # eps=2e-4
            tables = [(10_010, truncated_simplex([0.001] * 4))]
            if rows == 512:
                tables.append((100_010, truncated_simplex([2e-4] * 4)))
        else:
            # pure moves repeat from k=1, eps=0.05 from k=505
            pure = finite_set(np.eye(4).tolist())
            tables = [(1010, pure), (100_010, truncated_simplex([0.05] * 4))]
        covered = set()
        for n, K in tables:
            vt = solve(GameSpec(n, 4, K))
            start = vt.computed - vt.period + 1
            _, *chunks = _values_csv(vt, deviation_series(vt), 0.9)
            for edge in sorted(EDGES):
                if edge + 10 > n or (edge - 1 >= start) != (part == "from S"):
                    continue
                assert (edge - 2) // size == (edge - 1) // size  # k = edge - 1 and edge share a chunk
                ks = range(edge - 9, edge + 10)
                first = (ks.start - 1) // size  # decode only the chunks that hold ks
                lines = b"".join(chunks[first : (ks.stop - 2) // size + 1]).decode().splitlines(True)
                got = lines[ks.start - 1 - first * size : ks.stop - 1 - first * size]
                assert "".join(got) == _reference_rows(vt, 0.9, ks), edge
                covered.add(edge)
        # a table of 10^5 rows, none of them repeated, takes a while: only in
        # big chunks
        assert covered == (EDGES if part == "from S" or rows == 512 else EDGES - {100_000})

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
        assert _envelopes(delta, m, range(len(want))) == want
        # the first 0.0 is the last power taken
        assert len(calls) == want.index("0,") + 1

    @pytest.mark.parametrize("delta", [0.5, 0.8363636363636363, 0.99])
    def test_envelopes_of_one_chunk(self, delta):
        # the blocks of the default chunk that starts at each chunk edge
        # near the start and around the first 0.0, and a last chunk cut short
        m, per = 3, cli.CHUNK_ROWS // 9
        zero = next(b for b in itertools.count() if not analysis.envelope_bound(1 + 9 * b, delta, m))
        firsts = [0, per, zero // per * per - per, zero // per * per, zero // per * per + per]
        for blocks in [range(f, f + per) for f in firsts] + [range(firsts[-1], firsts[-1] + 5)]:
            want = ["%.17g," % analysis.envelope_bound(1 + 3 * m * b, delta, m) for b in blocks]
            assert _envelopes(delta, m, blocks) == want, blocks

    @pytest.mark.parametrize("rows", [1, 512])
    @pytest.mark.parametrize("delta", [0.5, 0.8363636363636363])
    def test_writer_stops_taking_powers_at_zero(self, delta, rows, monkeypatch):
        # across chunk edges too: once a chunk's last bound is 0.0, no later
        # chunk takes a power
        monkeypatch.setattr(cli, "CHUNK_ROWS", rows)
        m = 3
        zero = next(b for b in itertools.count() if not analysis.envelope_bound(1 + 9 * b, delta, m))
        spec = GameSpec(9 * (zero + 200) + 4, m, truncated_simplex([0.05] * m))
        vt = solve(spec)
        calls = []
        bound = analysis.envelope_bound
        monkeypatch.setattr(analysis, "envelope_bound", lambda *a: calls.append(a) or bound(*a))
        text = b"".join(_values_csv(vt, deviation_series(vt), delta)).decode()
        assert len(calls) == zero + 1
        rows_at_zero = text.splitlines()[9 * zero + 1 :]
        assert len(rows_at_zero) == 9 * 200 + 4
        assert all(row.split(",")[7] == "0" for row in rows_at_zero)

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
