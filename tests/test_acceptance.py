"""Acceptance suite: one test per release criterion, with its stated
tolerance and runtime budget.  Each test prints a single pass line."""
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import bachet_lottery
from bachet_lottery import (
    GameSpec,
    SimConfig,
    TIE_HIGHEST,
    TIE_LOWEST,
    TIE_RANDOM,
    brute_force_values,
    compute_conditions,
    deviation_series,
    drop_constants,
    estimate_win_prob,
    finite_set,
    one_shot_deviation_gap,
    solve,
    truncated_simplex,
)
from bachet_lottery.cli import _values_csv, run

HALF = finite_set([[0.5, 0.5]])
MIRROR = finite_set([[0.9, 0.1], [0.1, 0.9]])

CONVERGENCE_SETS = [
    ("truncated_simplex eps=0.05 m=2", 2, truncated_simplex([0.05, 0.05])),
    ("truncated_simplex eps=0.05 m=3", 3, truncated_simplex([0.05, 0.05, 0.05])),
    ("mirrored pair m=2", 2, MIRROR),
]

VERIFY_GAMES = [
    {"n": 10_000, "m": 2, "K": {"type": "truncated_simplex", "epsilon": [0.05, 0.05]}},
    {"n": 10_000, "m": 3, "K": {"type": "truncated_simplex", "epsilon": [0.05, 0.05, 0.05]}},
    {"n": 10_000, "m": 2, "K": {"type": "finite", "lotteries": [[0.9, 0.1], [0.1, 0.9]]}},
]


def report(line: str) -> None:
    print(f"PASS {line}")


def test_criterion_1_hand_recursion_golden():
    spec = GameSpec(6, 2, HALF)
    solve(spec)  # warm-up: kernel compilation happens per call anyway
    t0 = time.perf_counter()
    vt = solve(spec)
    elapsed = time.perf_counter() - t0
    expect = [0.0, 0.5, 0.75, 0.375, 0.4375, 0.59375]
    for k, want in enumerate(expect, start=1):
        assert abs(vt.p(k) - want) <= 1e-12
    assert elapsed < 1e-3, f"solve took {elapsed * 1e3:.3f} ms"
    report(f"criterion 1: golden values p1..p6 to 1e-12 in {elapsed * 1e6:.0f} us")


def test_criterion_2_boundary_convention():
    sets = [HALF, MIRROR, truncated_simplex([0.1, 0.2, 0.3])]
    for K in sets:
        vt = solve(GameSpec(5, K.m, K))
        assert all(vt.p(s) == 1.0 for s in range(-(K.m - 1), 1))
        assert vt.p(1) == 0.0
    report("criterion 2: p_s = 1 for s <= 0 and p_1 = 0 exactly on all tested K")


def test_criterion_3_classical_degenerate_regression():
    K = finite_set([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    vt = solve(GameSpec(50, 3, K))
    for k in range(1, 51):
        assert vt.p(k) == (0.0 if k % 4 == 1 else 1.0)
    report("criterion 3: classical m=3 pattern p_k = 0 iff k = 1 mod 4, exact, n=50")


def test_criterion_4_convergence_at_desk_scale():
    for label, m, K in CONVERGENCE_SETS:
        cond = compute_conditions(K)
        dc = drop_constants(cond.eta, cond.nu)
        n_star = 1 + 3 * m * math.ceil(math.log(2e-3) / math.log(dc.delta))
        n = max(2 * n_star, 2_000)
        ds = deviation_series(solve(GameSpec(n, m, K)))
        assert all(ds.delta_at(k) < 1e-3 for k in range(n_star, n + 1)), label
        bars = [ds.dbar(k) for k in range(1, n + 1)]
        assert all(bars[i + 1] <= bars[i] + 1e-15 for i in range(n - 1)), label
    ten = finite_set([[0.1 + 0.08 * i, 0.9 - 0.08 * i] for i in range(10)])
    t0 = time.perf_counter()
    solve(GameSpec(100_000, 2, ten))
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"n=1e5 solve took {elapsed:.2f} s"
    report(
        "criterion 4: Delta_n < 1e-3 beyond N*(delta), DeltaBar non-increasing; "
        f"n=1e5 solve with 10 candidates in {elapsed:.2f} s"
    )


def test_large_n_solve_budget():
    # the recursion repeats from k=629 with period 4; solve fills the rest
    spec = GameSpec(1_000_000, 3, truncated_simplex([0.05, 0.05, 0.05]))
    t0 = time.perf_counter()
    vt = solve(spec)
    elapsed = time.perf_counter() - t0
    assert vt.p_ext.size == 1_000_003 and len(vt.tie_sets) == 1_000_000
    assert elapsed < 1.5, f"n=1e6 solve took {elapsed:.2f} s"
    report(f"large n: n=1e6 m=3 eps=0.05 solve in {elapsed:.2f} s")


def test_long_transient_solve_budget():
    # at eps=0.001 the recursion runs 30883 pile sizes before it sees a repeat;
    # the best of 9 calls, so that a slow spell of the host does not decide
    spec = GameSpec(1_000_000, 3, truncated_simplex([0.001] * 3))
    times = []
    for _ in range(9):
        t0 = time.perf_counter()
        vt = solve(spec)
        times.append(time.perf_counter() - t0)
    assert (vt.computed, vt.period) == (30883, 4)
    elapsed = min(times)
    assert elapsed < 0.04, f"n=1e6 eps=0.001 solve took {elapsed:.3f} s"
    report(f"long transient: n=1e6 m=3 eps=0.001 solve (30883 piles evaluated) in {elapsed:.3f} s")


def test_large_n_cli_solve_budget(tmp_path):
    # rows past k=649 repeat with period 4 and are written from one cycle
    game = {"n": 1_000_000, "m": 3, "K": {"type": "truncated_simplex", "epsilon": [0.05] * 3}}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"game": game}))
    t0 = time.perf_counter()
    assert run("solve", cfg, output=tmp_path / "out") == 0
    elapsed = time.perf_counter() - t0
    values = tmp_path / "out" / "values.csv"
    digest = hashlib.sha256(values.read_bytes()).hexdigest()
    values.unlink()  # 126 MB
    assert digest == "9866910c5289b9607a8259218a8457ab2bad7be0e2770a3a54db114e89973982"
    assert elapsed < 3.0, f"n=1e6 CLI solve took {elapsed:.2f} s"
    report(f"large n: n=1e6 m=3 eps=0.05 CLI solve, values.csv unchanged, in {elapsed:.2f} s")


# midpoints of the edges of a truncated simplex, then its vertices: picks
# reach all ten labels before the table repeats with period 5
TEN_LOTTERIES = [[0.48 if i in pair else 0.02 for i in range(4)]
                 for pair in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))]
TEN_LOTTERIES += [[0.94 if i == j else 0.02 for i in range(4)] for j in range(4)]


def file_sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


@pytest.mark.parametrize(
    "game, digest",
    [
        # rows repeat from k=2715 with period 5, inside the envelope region
        pytest.param({"n": 10**6, "m": 4, "K": {"type": "truncated_simplex", "epsilon": [0.01] * 4}},
                     "aae5591309732224a19ffb0d20bd8571f3713d9582a280a641df1ffa42ce2d34",
                     id="n=1e6 m=4 eps=0.01"),
        # a late repeat: rows repeat from k=30696 with period 4
        pytest.param({"n": 10**6, "m": 3, "K": {"type": "truncated_simplex", "epsilon": [0.001] * 3}},
                     "39ab48c0309debc1c63bd50c19b8f75ef9b27d8da03c1ab1f23f73225246f50b",
                     id="n=1e6 m=3 eps=0.001"),
        pytest.param({"n": 20_000, "m": 4, "K": {"type": "finite", "lotteries": TEN_LOTTERIES}},
                     "91822cb002ee9c9813a38b2bb86ad56a0880a4deec28c3bb2c81ceba697d77d6",
                     id="|K|=10"),
    ],
)
def test_cli_values_csv_digest(tmp_path, game, digest):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"game": game}))
    assert run("solve", cfg, output=tmp_path / "out") == 0
    values = tmp_path / "out" / "values.csv"
    got = file_sha256(values)
    values.unlink()
    assert got == digest
    report(f"values.csv unchanged: n={game['n']} m={game['m']} {game['K']['type']} set")


def test_highest_index_values_csv_digest():
    # the CLI picks lowest_index; the writer reads any rule's picks
    spec = GameSpec(20_000, 3, truncated_simplex([0.05] * 3))
    vt = solve(spec, TIE_HIGHEST)
    cond = compute_conditions(spec.K)
    delta = drop_constants(cond.eta, cond.nu).delta
    text = b"".join(_values_csv(vt, deviation_series(vt), delta))
    assert hashlib.sha256(text).hexdigest() == (
        "76ce1470882d1233131d553e3b81012a93d1a54fa428a3d136bdf425ed4e273c"
    )
    report("values.csv unchanged under highest_index at n=2e4 m=3 eps=0.05")


def test_huge_n_verify_budget(tmp_path):
    # The table stops at pile size 649 and repeats with period 4, so verify
    # reads about 660 pile sizes whatever n is.  It runs in a fresh interpreter.
    # Linux hands an exec'd process the ru_maxrss of the one that started
    # it (here the test runner), so the peak of the new image is read from
    # its VmHWM where the kernel reports one.
    game = {"n": 10**9, "m": 3, "K": {"type": "truncated_simplex", "epsilon": [0.05] * 3}}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"game": game}))
    script = (
        "import json, os, resource, sys, time\n"
        "from bachet_lottery.cli import run\n"
        "t0 = time.perf_counter()\n"
        "code = run('verify', sys.argv[1], output=sys.argv[2])\n"
        "elapsed = time.perf_counter() - t0\n"
        "rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "if os.path.exists('/proc/self/status'):\n"
        "    status = open('/proc/self/status').read()\n"
        "    rss = int(status.split('VmHWM:')[1].split()[0])\n"
        "print(json.dumps({'code': code, 'elapsed': elapsed, 'rss_kib': rss}))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(bachet_lottery.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", script, str(cfg), str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout)
    assert res["code"] == 0
    assert json.loads((tmp_path / "out" / "report.json").read_text())["all_passed"]
    rss_mib = res["rss_kib"] / 1024
    assert res["elapsed"] < 1.0, f"n=1e9 verify took {res['elapsed']:.2f} s"
    assert rss_mib < 100, f"n=1e9 verify peaked at {rss_mib:.0f} MiB"
    report(f"huge n: n=1e9 m=3 eps=0.05 verify in {res['elapsed']:.3f} s, {rss_mib:.0f} MiB")


def test_criterion_5_lemma_suite(tmp_path):
    t0 = time.perf_counter()
    for i, game in enumerate(VERIFY_GAMES):
        cfg = tmp_path / f"verify_{i}.json"
        cfg.write_text(json.dumps({"command": "verify", "game": game}))
        out = tmp_path / f"out_{i}"
        assert run("verify", cfg, output=out) == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["all_passed"]
        ids = [c["lemma_id"] for c in rep["checks"]]
        for required in (
            "monotonicity",
            "no_long_winning",
            "corridor",
            "drop_down_losing",
            "drop_down_2m",
            "drop_down_3m",
            "plus_minus",
            "envelope",
        ):
            assert required in ids
        assert sum(1 for x in ids if x.startswith("km_bound")) == 9
        assert all(c["violations"] == 0 for c in rep["checks"])
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"lemma suite took {elapsed:.2f} s"
    report(f"criterion 5: verify clean on 3 configs at n=1e4 in {elapsed:.2f} s")


def test_criterion_6_oracle_equivalence():
    corpus = [
        finite_set([[0.5, 0.5]]),
        finite_set([[0.9, 0.1], [0.1, 0.9]]),
        finite_set([[0.9, 0.1], [0.1, 0.9], [0.5, 0.5]]),
        finite_set([[0.4, 0.3, 0.3], [0.2, 0.5, 0.3]]),
        finite_set([[0.6, 0.2, 0.2], [0.2, 0.6, 0.2], [0.2, 0.2, 0.6]]),
    ]
    checked = 0
    for K in corpus:
        for n in range(1, 11):
            spec = GameSpec(n, K.m, K)
            vt = solve(spec)
            oracle = brute_force_values(spec)
            assert all(abs(oracle[k] - vt.p(k)) <= 1e-10 for k in oracle)
            assert one_shot_deviation_gap(vt) <= 1e-12
            checked += 1
    report(f"criterion 6: brute force matches solve on {checked} instances, 1e-10")


def test_criterion_7_monte_carlo_consistency():
    vt = solve(GameSpec(20, 2, HALF))
    t0 = time.perf_counter()
    for n in (2, 4, 7, 20):
        res = estimate_win_prob(SimConfig(table=vt, n=n, replications=10**6, seed=12345))
        p_n = vt.p(n)
        bound = 4 * math.sqrt(p_n * (1 - p_n) / 10**6)
        assert abs(res.p_hat - p_n) <= bound, f"n={n}: {res.p_hat} vs {p_n}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"MC took {elapsed:.2f} s"
    report(f"criterion 7: |p_hat - p_n| within 4 sigma at R=1e6 for n=2,4,7,20 in {elapsed:.2f} s")


def test_criterion_8_tie_break_invariance():
    corpus = [
        finite_set([[0.5, 0.5], [0.5, 0.5]]),  # duplicate: exact tie at every k
        finite_set([[0.7, 0.3], [0.3, 0.7]]),
        finite_set([[0.5, 0.5], [0.25, 0.75], [0.75, 0.25]]),
        finite_set([[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
    ]
    saw_real_tie = False
    for K in corpus:
        spec = GameSpec(40, K.m, K)
        tables = [
            solve(spec, TIE_LOWEST),
            solve(spec, TIE_HIGHEST),
            solve(spec, TIE_RANDOM, seed=1),
            solve(spec, TIE_RANDOM, seed=2),
        ]
        base = tables[0]
        saw_real_tie |= any(len(t) > 1 for t in base.tie_sets)
        for other in tables[1:]:
            assert all(abs(base.p(k) - other.p(k)) <= 1e-12 for k in range(1, 41))
    assert saw_real_tie
    report("criterion 8: value maps identical across tie rules (<= 1e-12), ties exercised")


def test_criterion_9_determinism(tmp_path):
    verify_cfg = tmp_path / "verify.json"
    verify_cfg.write_text(json.dumps({"game": VERIFY_GAMES[0] | {"n": 1000}}))
    sim_cfg = tmp_path / "sim.json"
    sim_cfg.write_text(
        json.dumps(
            {
                "game": {"n": 7, "m": 2, "K": {"type": "finite", "lotteries": [[0.5, 0.5]]}},
                "sim": {"replications": 100_000, "seed": 2024, "n_values": [2, 4, 7]},
            }
        )
    )
    for command, cfg, artifact in (
        ("verify", verify_cfg, "report.json"),
        ("simulate", sim_cfg, "simulation.csv"),
    ):
        run(command, cfg, output=tmp_path / "a" / command)
        run(command, cfg, output=tmp_path / "b" / command)
        a = (tmp_path / "a" / command / artifact).read_bytes()
        b = (tmp_path / "b" / command / artifact).read_bytes()
        assert a == b, f"{command} artifacts differ between identical runs"
    report("criterion 9: repeated verify/simulate runs are byte-identical")
