"""Acceptance suite: one test per release criterion, with its stated
tolerance and runtime budget.  Each test prints a single pass line."""
import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import bachet_lottery
from bachet_lottery import (
    GameSpec,
    SimConfig,
    brute_force_values,
    compute_conditions,
    drop_constants,
    estimate_win_prob,
    finite_set,
    one_shot_deviation_gap,
    payoff_kernel,
    solve,
    truncated_simplex,
)
from bachet_lottery.cli import run

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
    solve(spec)  # warm-up: the loop is compiled once per shape
    # the best of 5 calls, so that a slow spell of the host does not decide
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        vt = solve(spec)
        times.append(time.perf_counter() - t0)
    elapsed = min(times)
    expect = [0.0, 0.5, 0.75, 0.375, 0.4375, 0.59375]
    for k, want in enumerate(expect, start=1):
        assert abs(vt.p(k) - want) <= 1e-12
    assert elapsed < 1e-3, f"solve took {elapsed * 1e3:.3f} ms"
    report(f"criterion 1: golden values p1..p6 to 1e-12 in {elapsed * 1e6:.0f} us")


def test_criterion_2_boundary_convention():
    # the last two hold coordinates that, before the snap to 1, sum to
    # 0.9999999999999999 left to right
    sets = [HALF, MIRROR, truncated_simplex([0.1, 0.2, 0.3]),
            finite_set([[0.06, 0.83, 0.11]]), truncated_simplex([0.043125] * 4)]
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
        vt = solve(GameSpec(n, m, K))
        # Delta_k for k = 1-m..n at index k + m - 1, with p_s = 1 for s <= 0
        delta = [abs(vt.p(k) - 0.5) for k in range(1 - m, n + 1)]
        assert all(delta[k + m - 1] < 1e-3 for k in range(n_star, n + 1)), label
        bars = [max(delta[k : k + m]) for k in range(1, n + 1)]  # over W_k
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
    # at eps=0.001 the recursion runs 30883 pile sizes before it sees a repeat
    # and keeps the first 30700, the transient and one period;
    # the best of 9 calls, so that a slow spell of the host does not decide
    spec = GameSpec(1_000_000, 3, truncated_simplex([0.001] * 3))
    times = []
    for _ in range(9):
        t0 = time.perf_counter()
        vt = solve(spec)
        times.append(time.perf_counter() - t0)
    assert (vt.computed, vt.period) == (30700, 4)
    elapsed = min(times)
    assert elapsed < 0.04, f"n=1e6 eps=0.001 solve took {elapsed:.3f} s"
    report(f"long transient: n=1e6 m=3 eps=0.001 solve (30883 piles evaluated) in {elapsed:.3f} s")


def test_n_sweep_costs_about_one_solve(tmp_path):
    # a sweep over n runs the loop once, at its largest n, and builds no
    # table: seven points at eps=0.001, whose transient outlasts the first
    # five, against one solve at the largest n; the best of 5 of each,
    # taken in turn, so that a slow spell of the host does not decide
    ns = [10, 100, 1_000, 10_000, 30_000, 100_000, 1_000_000]
    game = {"m": 3, "K": {"type": "truncated_simplex", "epsilon": [0.001] * 3}}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"game": game, "sweep": {"n_values": ns}}))
    spec = GameSpec(ns[-1], 3, truncated_simplex([0.001] * 3))
    solve(spec)  # warm-up: the loop is compiled once per shape
    sweeps, solves = [], []
    for _ in range(5):
        t0 = time.perf_counter()
        assert run("sweep", cfg, output=tmp_path / "out") == 0
        t1 = time.perf_counter()
        solve(spec)
        sweeps.append(t1 - t0)
        solves.append(time.perf_counter() - t1)
    ratio = min(sweeps) / min(solves)
    assert ratio <= 1.5, f"the sweep took {ratio:.2f}x one solve at n=1e6"
    report(f"n sweep: 7 points n=10..1e6 m=3 eps=0.001 in {ratio:.2f}x one solve at n=1e6")


def test_long_n_sweep_costs_about_one_point(tmp_path):
    # an n sweep is one game: its set is parsed and its conditions computed
    # once, however many points it has.  200 points n = 1..200 of ten
    # lotteries at m=5, against a one-point sweep at n=200; the best of 5
    # of each, taken in turn, so that a slow spell of the host does not decide
    lotteries = [[w / sum(ws) for w in ws]
                 for ws in ([1 + (i * j + i) % 7 for j in range(5)] for i in range(10))]
    game = {"m": 5, "K": {"type": "finite", "lotteries": lotteries}}
    long_cfg, one_cfg = tmp_path / "long.json", tmp_path / "one.json"
    long_cfg.write_text(json.dumps({"game": game, "sweep": {"n_values": list(range(1, 201))}}))
    one_cfg.write_text(json.dumps({"game": game, "sweep": {"n_values": [200]}}))
    assert run("sweep", one_cfg, output=tmp_path / "out") == 0  # warm-up: compiles the loop
    longs, ones = [], []
    for _ in range(5):
        t0 = time.perf_counter()
        assert run("sweep", long_cfg, output=tmp_path / "out") == 0
        t1 = time.perf_counter()
        assert run("sweep", one_cfg, output=tmp_path / "out") == 0
        longs.append(t1 - t0)
        ones.append(time.perf_counter() - t1)
    ratio = min(longs) / min(ones)
    assert ratio <= 8.0, f"the 200-point sweep took {ratio:.2f}x a one-point sweep"
    report(f"n sweep: 200 points n=1..200 m=5 |K|=10 in {ratio:.2f}x a one-point sweep at n=200")


def test_large_n_cli_solve_budget(tmp_path):
    # rows from k=629 on repeat with period 4 and are written from one cycle
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


def test_huge_n_verify_budget(tmp_path):
    # The table keeps pile sizes 1..632 and repeats with period 4, so verify
    # reads about 650 pile sizes whatever n is.  It runs in a fresh interpreter.
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


def replayed_values(spec, choose):
    """p_k for k = 1..n of the policy that plays ``choose(ties)`` at each
    pile size k, ``ties`` being the tie set of ``solve(spec)`` at k: each
    value is that candidate's ``payoff_kernel`` payoff on the replay's own
    earlier values."""
    kernel = payoff_kernel(spec.K.lotteries)
    v = [1.0] * spec.m
    for ties in solve(spec).tie_sets:
        v.append(kernel(*v[-spec.m :])[choose(ties)])
    return v[spec.m :]


def tie_break(seed=None):
    """A picker of a candidate from a tie set other than the table's first
    one: the last, or, given a seed, one drawn by ``random.Random(seed)``."""
    if seed is None:
        return lambda t: t[-1]
    rng = random.Random(seed)
    return lambda t: t[rng.randrange(len(t))]


def other_tie_breaks(*seeds):
    """The last-candidate picker, and one drawing picker per seed."""
    return [tie_break(), *map(tie_break, seeds)]


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
        base = solve(spec)
        saw_real_tie |= any(len(t) > 1 for t in base.tie_sets)
        for choose in other_tie_breaks(1, 2):
            replay = replayed_values(spec, choose)
            assert all(abs(base.p(k) - v) <= 1e-12 for k, v in enumerate(replay, 1))
    assert saw_real_tie
    report("criterion 8: values identical whichever tied move is played (<= 1e-12), ties exercised")


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
