"""Batch front-end: JSON experiment configs in, CSV series and JSON
reports out.

Commands: solve, verify, simulate, sweep, explore-nu-zero.  Exit codes:
0 success / all checks pass, 1 check violations, 2 config error.  Output
files are written atomically (temp + rename) and deterministically: a
rerun with the same config produces byte-identical artifacts.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable

import numpy as np

from . import analysis
from .engine import ValueTable, solve, values_at
from .errors import (
    ConfigError,
    DegenerateSetError,
    InvalidEtaNuError,
    LotteryError,
    TauOutOfRangeError,
)
from .lotteries import (
    ConditionReport,
    GameSpec,
    LotterySet,
    compute_conditions,
    finite_set,
    truncated_simplex,
)
from .oracles import SimConfig, draw_stream, estimate_win_prob

COMMANDS = ("solve", "verify", "simulate", "sweep", "explore-nu-zero")

# Each CSV is its header plus one row template, but values.csv, whose rows
# the writer joins from ready-made strings (see _values_csv).  Reals get 17
# significant digits, which round-trip any double.
VALUES_HEADER = "k,p,D,Delta,DeltaBar,DeltaPlus,DeltaMinus,envelope,argmax_index\n"
# rows of values.csv built at a time: the writer holds one chunk's strings
CHUNK_ROWS = 512
# k's last three digits and its comma: K_LOW[k] below 1000, after the
# text of k // 1000 the zero-padded K_LOW[1000 + k % 1000]
K_LOW = ["%d," % j for j in range(1000)] + ["%03d," % j for j in range(1000)]
SIM_HEADER = "n,replications,seed,p_hat,std_err,p_engine,z_score\n"
SIM_ROW = "%d,%d,%d,%.17g,%.17g,%.17g,%.17g\n"
SWEEP_HEADER = "n,m,eta,nu,delta,p_n,Delta_n\n"
SWEEP_ROW = "%d,%d,%.17g,%.17g,%s,%.17g,%.17g\n"

# numpy refuses an array over sys.maxsize bytes with a ValueError.  With
# the n + m doubles the recursion keeps when its state never repeats, and the
# replications x max(n_values) 64-bit words of a Monte-Carlo draw stream,
# bounded by half that, an array too large for memory fails to allocate
# instead: a MemoryError, which `_fits_in_memory` reports against the
# config field that asked for it.  Pile sizes then also fit the int64
# index arithmetic of `engine.fold`.
MAX_TABLE = sys.maxsize // 16


def _atomic_write(path: Path, chunks: Iterable[bytes]) -> None:
    """Write the concatenated ``chunks`` to ``path`` as they are, via a temp
    file and a rename.  The temp file is created with mode 0666, so that
    the process umask applies to it as it would to open()."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.writelines(chunks)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise ConfigError(f"output: cannot write {path}: {exc}") from exc


def _require(cond: bool, where: str, msg: str) -> None:
    if not cond:
        raise ConfigError(f"{where}: {msg}")


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_real(x) -> bool:
    """A float, or an int that a double can hold: float() of a larger one
    raises OverflowError."""
    return isinstance(x, float) or (_is_int(x) and abs(x) <= sys.float_info.max)


def _is_reals(x) -> bool:
    return isinstance(x, list) and all(_is_real(v) for v in x)


def _parse_lottery_set(node: dict, where: str) -> LotterySet:
    _require(isinstance(node, dict), where, "must be an object")
    kind = node.get("type")
    _require(
        kind in ("finite", "polytope_vertices", "truncated_simplex"),
        f"{where}.type",
        f"unknown lottery-set type {kind!r}",
    )
    try:
        if kind == "truncated_simplex":
            eps = node.get("epsilon")
            _require(_is_reals(eps), f"{where}.epsilon", "must be a list of reals")
            return truncated_simplex(eps)
        # a polytope is given by its vertex list, a finite set by itself
        lots = node.get("lotteries")
        _require(
            isinstance(lots, list) and lots and all(_is_reals(v) for v in lots),
            f"{where}.lotteries",
            "must be a non-empty list of lists of reals",
        )
        return finite_set(lots)
    except (LotteryError, DegenerateSetError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _game_m(node: dict) -> int:
    """game.m of config ``node``: an integer in 2..MAX_TABLE - 1."""
    m = node.get("m")
    _require(_is_int(m) and m >= 2, "game.m", "must be an integer >= 2")
    _require(m < MAX_TABLE, "game.m", f"must be at most {MAX_TABLE - 1}")
    return m


def _pile_bound(n: int, m: int, n_field: str) -> None:
    """Pile size n, from config ``n_field``, leaves n + m within MAX_TABLE."""
    _require(n + m <= MAX_TABLE, n_field, f"must be at most {MAX_TABLE - m}")


def _game(node, command: str, n_field: str) -> tuple[GameSpec, ConditionReport]:
    """The game of config ``node``, its n from config ``n_field``, and its
    conditions: the preamble of every command and of each lottery set of a
    sweep.  nu = 0 is a config error on game.K except under explore-nu-zero."""
    _require(isinstance(node, dict), "game", "must be an object")
    n = node.get("n")
    _require(_is_int(n) and n >= 1, n_field, "must be an integer >= 1")
    # m before n's bound, which a larger m would make negative
    m = _game_m(node)
    _pile_bound(n, m, n_field)
    K = _parse_lottery_set(node.get("K"), "game.K")
    try:
        spec = GameSpec(n=n, m=m, K=K)
    except (ValueError,) as exc:
        raise ConfigError(f"game: {exc}") from exc
    cond = compute_conditions(spec.K)
    _require(cond.nu_ok or command == "explore-nu-zero", "game.K",
             f"nu = 0 is only allowed under explore-nu-zero, not {command!r}")
    return spec, cond


def _parse_tau(cfg: dict) -> float | None:
    tau = cfg.get("tau")
    _require(tau is None or _is_real(tau), "tau", "must be a real number")
    return tau


def _parse_kappa_grid(cfg: dict) -> list[float]:
    grid = cfg.get("kappa_grid")
    if grid is None:
        return list(analysis.DEFAULT_KAPPA_GRID)
    _require(
        isinstance(grid, list) and grid and all(_is_real(x) and 0.0 < x < 1.0 for x in grid),
        "kappa_grid",
        "must be a non-empty list of reals in (0, 1)",
    )
    # each value names its km_bound report
    _require(len(set(grid)) == len(grid), "kappa_grid", "must not repeat a value")
    return grid


def load_config(path: str | Path, command: str) -> dict:
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    _require(isinstance(raw, dict), "config", "top level must be an object")
    _require(raw.get("output") is None or isinstance(raw["output"], str), "output",
             "must be a string")
    declared = raw.get("command")
    if declared is not None and declared != command:
        raise ConfigError(f"command: config declares {declared!r}, invoked as {command!r}")
    return raw


def _batch(values: list[float]) -> list[str]:
    """The "%.17g," text of each double in ``values``, formatted in one
    batch: one ``%`` on a template of "%.17g,\n" per value, whose result is
    split at the newlines."""
    return ("%.17g,\n" * len(values) % tuple(values)).split("\n")[:-1]


def _cells(cols: np.ndarray) -> np.ndarray:
    """The "%.17g," text of each double in ``cols``, as an object array of
    the same shape.  The distinct magnitudes (``np.unique``) are formatted
    in one ``_batch``.  A cell whose sign bit is set gets a "-" in front:
    what "%.17g" prints for any double but a NaN, -0.0 included."""
    mags, inverse = np.unique(np.abs(cols), return_inverse=True)
    cells = np.array(_batch(mags.tolist()), dtype=object)[inverse.reshape(cols.shape)]
    neg = np.signbit(cols)
    cells[neg] = "-" + cells[neg]
    return cells


def _envelopes(delta: float | None, m: int, blocks: range) -> list[str]:
    """The envelope field of each 3m-block in ``blocks``, empty without a
    delta, else formatted in one ``_batch``.  A bound is 0.0 only for
    delta < 1, and then every later power is smaller: from the first 0.0
    on, the field is "0," and no power is taken."""
    if delta is None:
        return [","] * len(blocks)
    bounds = []
    for b in blocks:
        bounds.append(analysis.envelope_bound(1 + 3 * m * b, delta, m))
        if not bounds[-1]:
            break
    return _batch(bounds) + ["0,"] * (len(blocks) - len(bounds))


def _values_csv(vt: ValueTable, ds: analysis.DeviationSeries, delta: float | None):
    """The bytes of values.csv: the header, then one ``bytes`` chunk per
    run of whole 3m-blocks, about CHUNK_ROWS rows.

    A row is k, the six series fields, the envelope and the move, joined
    from strings that already exist.  k is two parts: the text of k // 1000,
    one string per run of equal k // 1000, and k's last three digits from
    K_LOW.  The envelope is one string per block (``_envelopes``), spread to
    the block's rows, and the move is the label of vt.argmax(k).  The fields
    of a pile size past computed are those of the one it repeats in the last
    period S..computed, S = computed - period + 1 (``engine.fold``), and so
    is its move.  So the text of the ``period`` rows S..computed is made
    once, and every row from S on is five parts: k's two, its phase's
    fields, the envelope and its phase's move.  A row before S is ten: k's
    two, its fields read as slices with each distinct magnitude formatted
    once (``_cells``), the envelope and the move.  The writer holds a
    chunk's text and one cycle's.
    """
    m, n, c, period = vt.m, vt.n, vt.computed, vt.period
    series = [ds.p, ds.d, ds.delta, ds.delta_bar, ds.delta_plus, ds.delta_minus]
    labels = np.array(["%d\n" % i for i in range(len(vt.candidates))], dtype=object)
    block = 3 * m
    size = block * max(1, CHUNK_ROWS // block)
    start = n + 1
    if period:
        start = c - period + 1
        cells = _cells(np.stack([s[start - 1 : c] for s in series], axis=1)).tolist()
        moves = labels[vt.picks[start - 1 : c]].tolist()
        # the five parts of each row S..computed, k's two and the envelope
        # (None) filled per chunk; repeated, so that a chunk's rows from S
        # on are one slice from any phase
        cycle = [x for fields, move in zip(cells, moves) for x in (None, None, "".join(fields), None, move)]
        cycle *= size // period + 2
    zero = False  # a bound has been 0.0: every later one is
    yield VALUES_HEADER.encode()
    for lo in range(0, n, size):
        hi = min(n, lo + size)
        mid = min(hi, max(lo, start - 1))  # rows lo+1..mid have ten parts, mid+1..hi five
        highs, lows = [], []
        for t in range((lo + 1) // 1000, hi // 1000 + 1):
            a, b = max(lo + 1, 1000 * t), min(hi + 1, 1000 * t + 1000)
            highs += ["%d" % t if t else ""] * (b - a)
            i = a % 1000 + (1000 if t else 0)
            lows += K_LOW[i : i + b - a]
        blocks = range(lo // block, -(-hi // block))
        envs = ["0,"] * len(blocks) if zero else _envelopes(delta, m, blocks)
        zero = envs[-1] == "0,"
        env = [""] * (len(blocks) * block)  # each block's field on each of its rows
        for j in range(block):
            env[j::block] = envs
        del env[hi - lo :]
        parts = []
        if mid > lo:
            row = np.empty((mid - lo, 10), dtype=object)
            row[:, 2:8] = _cells(np.stack([s[lo:mid] for s in series], axis=1))
            row[:, 9] = labels[vt.picks[lo:mid]]
            parts = row.ravel().tolist()
            parts[0::10], parts[1::10], parts[8::10] = highs[: mid - lo], lows[: mid - lo], env[: mid - lo]
        if hi > mid:
            f = 5 * ((mid + 1 - start) % period)
            tail = cycle[f : f + 5 * (hi - mid)]
            tail[0::5], tail[1::5], tail[3::5] = highs[mid - lo :], lows[mid - lo :], env[mid - lo :]
            parts += tail
        yield "".join(parts).encode()


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()


@contextmanager
def _fits_in_memory(where: str, what: str):
    """Report a MemoryError raised in the block as a config error on
    ``where``: the config asks for more than this machine can hold."""
    try:
        yield
    except MemoryError as exc:
        raise ConfigError(f"{where}: {what} do not fit in memory") from exc


def _drop_constants(cond: ConditionReport, tau: float | None, k_field: str = "game.K"):
    """The drop constants of a set with nu > 0, or None when eta = 1.  A
    tau outside its interval is an error on ``tau``; a delta that rounds to
    1 is one on ``tau`` when the config sets it, else on the lottery set's
    config field ``k_field``."""
    if not cond.eta_ok:
        return None
    try:
        return analysis.drop_constants(cond.eta, cond.nu, tau)
    except (TauOutOfRangeError, InvalidEtaNuError) as exc:
        raise ConfigError(f"{k_field if tau is None else 'tau'}: {exc}") from exc


def _cmd_solve(cfg: dict, out: Path, command: str) -> int:
    """solve, and explore-nu-zero, whose values.csv has no envelope: it
    reads no tau and derives no delta."""
    spec, cond = _game(cfg.get("game"), command, "game.n")
    explore = command == "explore-nu-zero"
    if not cond.nu_ok:  # only explore-nu-zero gets past _game with nu = 0
        print("warning: nu = 0, convergence hypotheses unmet; bound checks skipped",
              file=sys.stderr)
    dc = None if explore else _drop_constants(cond, _parse_tau(cfg))
    with _fits_in_memory("game.n", f"{spec.n} pile sizes"):
        vt = solve(spec)
        ds = analysis.deviation_series(vt)
        _atomic_write(out / "values.csv", _values_csv(vt, ds, None if dc is None else dc.delta))
    summary = {
        "eta": cond.eta,
        "nu": cond.nu,
        "p_n": vt.p(vt.n),
        "Delta_n": abs(vt.p(vt.n) - 0.5),
    }
    if explore:
        summary["warning"] = "nu-zero exploration: convergence hypotheses not verified"
    _atomic_write(out / "summary.json", (_json_bytes(summary),))
    return 0


def _cmd_verify(cfg: dict, out: Path) -> int:
    spec, cond = _game(cfg.get("game"), "verify", "game.n")
    if not cond.eta_ok:
        raise ConfigError("game.K: eta = 1 (pure move present); verify needs eta < 1")
    kappa_grid = _parse_kappa_grid(cfg)
    dc = _drop_constants(cond, _parse_tau(cfg))
    with _fits_in_memory("game.n", f"{spec.n} pile sizes"):
        vt = solve(spec)
        reports = analysis.run_checks(analysis.deviation_series(vt), dc, kappa_grid)
    total_violations = sum(r.violation_count for r in reports)
    report = {
        "eta": cond.eta,
        "nu": cond.nu,
        "tau": dc.tau,
        "delta": dc.delta,
        "n": spec.n,
        "m": spec.m,
        "all_passed": total_violations == 0,
        "checks": [r.summary() for r in reports],
    }
    _atomic_write(out / "report.json", (_json_bytes(report),))
    return 0 if total_violations == 0 else 1


def _cmd_simulate(cfg: dict, out: Path, seed_override: int | None) -> int:
    spec, _ = _game(cfg.get("game"), "simulate", "game.n")
    sim = cfg.get("sim")
    _require(isinstance(sim, dict), "sim", "required for simulate")
    reps = sim.get("replications")
    _require(_is_int(reps) and reps >= 1, "sim.replications", "must be an integer >= 1")
    seed = seed_override if seed_override is not None else sim.get("seed")
    where = "sim.seed" if seed_override is None else "--seed"
    _require(_is_int(seed) and seed >= 0, where, "must be a non-negative integer")
    n_values = sim.get("n_values", [spec.n])
    _require(
        isinstance(n_values, list) and n_values
        and all(_is_int(v) and 1 <= v <= spec.n for v in n_values),
        "sim.n_values",
        f"must be a non-empty list of integers in 1..{spec.n}",
    )
    # the draws of the longest game: reps rows of max(n_values) words
    longest = max(n_values)
    most = MAX_TABLE // longest
    _require(reps <= most, "sim.replications", f"must be at most {most} for these n_values")
    lines = [SIM_HEADER]
    with _fits_in_memory("game.n", f"{spec.n} pile sizes"):
        vt = solve(spec)
        with _fits_in_memory("sim.replications", f"{reps} games of {longest} pile sizes"):
            # one stream per run: each n plays a prefix of it
            stream = draw_stream(seed, reps * longest)
            for n in n_values:
                res = estimate_win_prob(SimConfig(table=vt, n=n, replications=reps, seed=seed),
                                        stream)
                p_eng = vt.p(n)
                z = 0.0 if res.std_err == 0.0 else (res.p_hat - p_eng) / res.std_err
                lines.append(SIM_ROW % (n, reps, seed, res.p_hat, res.std_err, p_eng, z))
    _atomic_write(out / "simulation.csv", ("".join(lines).encode(),))
    return 0


def _cmd_sweep(cfg: dict, out: Path) -> int:
    game = cfg.get("game")
    _require(isinstance(game, dict), "game", "must be an object")
    sweep = cfg.get("sweep")
    _require(isinstance(sweep, dict), "sweep", "required for sweep")
    _require(not {"n_values", "epsilon_values"} <= sweep.keys(), "sweep",
             "give n_values or epsilon_values, not both")
    # each run of the loop: its game, the set's conditions, the config
    # fields of its n and of its K, and the pile sizes whose p_n it gives.
    # An n sweep is one game: its first point is parsed by _game, each later
    # one only as a pile size of that game, and one run at the first largest
    # n gives every point.  Each epsilon point is a set, and a run, of its own.
    runs: list[tuple[GameSpec, ConditionReport, str, str, list[int]]] = []
    if "n_values" in sweep:
        n_values = sweep["n_values"]
        _require(isinstance(n_values, list) and n_values, "sweep.n_values",
                 "must be a non-empty list")
        for i, n in enumerate(n_values):
            where = f"sweep.n_values[{i}]"
            _require(_is_int(n) and n >= 1, where, "integer >= 1")
            if i == 0:
                spec, cond = _game({**game, "n": n}, "sweep", where)
            _pile_bound(n, spec.m, where)
        top = max(range(len(n_values)), key=n_values.__getitem__)
        runs.append((GameSpec(n=n_values[top], m=spec.m, K=spec.K), cond,
                     f"sweep.n_values[{top}]", "game.K", n_values))
    elif "epsilon_values" in sweep:
        m = _game_m(game)
        eps_values = sweep["epsilon_values"]
        _require(isinstance(eps_values, list) and eps_values, "sweep.epsilon_values",
                 "must be a non-empty list")
        for i, eps in enumerate(eps_values):
            where = f"sweep.epsilon_values[{i}]"
            _require(
                _is_real(eps) and 0.0 < eps < 1 / m,  # int / int: no overflow
                where,
                f"must be a real in (0, 1/{m})",
            )
            with _fits_in_memory("game.m", f"{m} lottery weights"):
                node = {**game, "K": {"type": "truncated_simplex", "epsilon": [eps] * m}}
            spec, cond = _game(node, "sweep", "game.n")
            runs.append((spec, cond, "game.n", where, [spec.n]))
    else:
        raise ConfigError("sweep: needs n_values or epsilon_values")

    tau = _parse_tau(cfg)
    # every run's constants first, so a bad tau exits before any recursion
    dcs = [_drop_constants(cond, tau, k_field) for _, cond, _, k_field, _ in runs]
    lines = [SWEEP_HEADER]
    for (spec, cond, n_field, _, ns), dc in zip(runs, dcs):
        delta = "" if dc is None else "%.17g" % dc.delta
        with _fits_in_memory(n_field, f"{spec.n} pile sizes"):
            p = values_at(spec, ns)
        lines += [SWEEP_ROW % (n, spec.m, cond.eta, cond.nu, delta, p_n, abs(p_n - 0.5))
                  for n, p_n in zip(ns, p)]
    _atomic_write(out / "sweep.csv", ("".join(lines).encode(),))
    return 0


def run(command: str, config_path: str | Path, output: str | None = None,
        seed: int | None = None) -> int:
    """Execute one experiment; returns the process exit code.  Only
    simulate reads ``seed``, its override of sim.seed."""
    try:
        if command not in COMMANDS:
            raise ConfigError(f"command: unknown command {command!r}")
        cfg = load_config(config_path, command)
        out = Path(output or cfg.get("output") or ".")
        if command in ("solve", "explore-nu-zero"):
            return _cmd_solve(cfg, out, command)
        if command == "verify":
            return _cmd_verify(cfg, out)
        if command == "simulate":
            return _cmd_simulate(cfg, out, seed)
        return _cmd_sweep(cfg, out)
    except (ConfigError, LotteryError, DegenerateSetError, InvalidEtaNuError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(
        prog="bachet-game",
        description="Solve and verify the lottery-move take-away game from a JSON config.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--output", default=None, help="output directory (default: from config)")
        if name == "simulate":
            p.add_argument("--seed", type=int, default=None, help="override sim.seed")
    args = parser.parse_args(argv)
    sys.exit(run(args.command, args.config, args.output, getattr(args, "seed", None)))


if __name__ == "__main__":
    main()
