import json
import os

import pytest

from bachet_lottery.cli import run

HALF_GAME = {"n": 6, "m": 2, "K": {"type": "finite", "lotteries": [[0.5, 0.5]]}}
TRUNC_GAME = {"n": 2000, "m": 2, "K": {"type": "truncated_simplex", "epsilon": [0.05, 0.05]}}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def read_csv(path):
    return path.read_text().splitlines()


class TestSolve:
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
        ],
    )
    def test_exit_code_two(self, tmp_path, payload):
        cfg = write_config(tmp_path, payload)
        assert run("solve", cfg, output=tmp_path / "out") == 2

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
