"""Batch front-end: JSON experiment configs in, CSV series and JSON
reports out.

Commands: solve, verify, simulate, sweep, explore-nu-zero.  Exit codes:
0 success / all checks pass, 1 check violations, 2 config error.  Output
files are written atomically (temp + rename) and deterministically: a
rerun with the same config produces byte-identical artifacts.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from . import analysis
from .engine import ValueTable, solve
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
from .oracles import SimConfig, estimate_win_prob

COMMANDS = ("solve", "verify", "simulate", "sweep", "explore-nu-zero")

# Each CSV is its header plus one row template.  A values.csv row is k,
# the six series fields as VALUES_FIELDS prints them, the envelope and the
# move label; the writer builds it from cells (see _values_csv).  Reals get
# 17 significant digits, which round-trip any double.
VALUES_HEADER = "k,p,D,Delta,DeltaBar,DeltaPlus,DeltaMinus,envelope,argmax_index\n"
VALUES_FIELDS = "%.17g," * 6
# rows of values.csv built at a time: the writer holds one chunk's strings
CHUNK_ROWS = 512
SIM_HEADER = "n,replications,seed,p_hat,std_err,p_engine,z_score\n"
SIM_ROW = "%d,%d,%d,%.17g,%.17g,%.17g,%.17g\n"
SWEEP_HEADER = "n,m,eta,nu,delta,p_n,Delta_n\n"
SWEEP_ROW = "%d,%d,%.17g,%.17g,%s,%.17g,%.17g\n"

# numpy refuses an array over sys.maxsize bytes with a ValueError.  With
# the n + m doubles of a value table whose state never repeats, and the
# replications x n doubles of a Monte-Carlo draw matrix, bounded by half
# that, an array too large for memory fails to allocate instead: a
# MemoryError, which `_fits_in_memory` reports against the config field
# that asked for it.  Pile sizes then also fit the int64 index arithmetic
# of `engine.fold`.
MAX_TABLE = sys.maxsize // 16


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


def _atomic_write(path: Path, chunks: Iterable[bytes]) -> None:
    """Write the concatenated ``chunks`` to ``path`` as they are, via a temp
    file and a rename."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.writelines(chunks)
            # mkstemp creates the file 0600; give it the mode open() would have
            os.chmod(tmp, 0o666 & ~_umask())
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


def _parse_game(node, n_field: str = "game.n") -> GameSpec:
    _require(isinstance(node, dict), "game", "must be an object")
    n, m = node.get("n"), node.get("m")
    _require(_is_int(n) and n >= 1, n_field, "must be an integer >= 1")
    _require(_is_int(m) and m >= 2, "game.m", "must be an integer >= 2")
    _require(n + m <= MAX_TABLE, n_field, f"must be at most {MAX_TABLE - m}")
    K = _parse_lottery_set(node.get("K"), "game.K")
    try:
        return GameSpec(n=n, m=m, K=K)
    except (ValueError,) as exc:
        raise ConfigError(f"game: {exc}") from exc


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


def _cells(cols: np.ndarray) -> np.ndarray:
    """The "%.17g," text of each double in ``cols``, as an object array of
    the same shape.  The distinct magnitudes (``np.unique``) are formatted
    in one batch, one ``%`` on a template of "%.17g,\n" per magnitude whose
    result is split at the newlines.  A cell whose sign bit is set gets a
    "-" in front: what "%.17g" prints for any double but a NaN, -0.0
    included."""
    mags, inverse = np.unique(np.abs(cols), return_inverse=True)
    text = ("%.17g,\n" * mags.size % tuple(mags.tolist())).split("\n")
    cells = np.array(text[:-1], dtype=object)[inverse.reshape(cols.shape)]
    neg = np.signbit(cols)
    cells[neg] = "-" + cells[neg]
    return cells


def _envelopes(delta: float | None, m: int) -> Iterator[str]:
    """The envelope field of each 3m-block in order, empty without a delta.
    A bound is 0.0 only for delta < 1, and then every later power is
    smaller: from the first 0.0 on, the field is "0," and no power is
    taken."""
    if delta is None:
        return itertools.repeat(",")
    bounds = (analysis.envelope_bound(k, delta, m) for k in itertools.count(1, 3 * m))
    powers = ("%.17g," % bound for bound in itertools.takewhile(bool, bounds))
    return itertools.chain(powers, itertools.repeat("0,"))


def _repeat_start(picks: np.ndarray, series: list[np.ndarray], computed: int, period: int) -> int:
    """The first row S from which the rows repeat: for every k >= S + period,
    row k's six series fields and pick equal those of row k - period.  One
    pass over the rows 1..computed, the doubles compared as int64 views so
    that -0.0 != 0.0; past computed the rows repeat by ``engine.fold``."""
    differs = picks[period:computed] != picks[: computed - period]
    for s in series:
        bits = s[:computed].view(np.int64)
        differs |= bits[period:] != bits[: computed - period]
    # entry i compares row i + 1 + period with row i + 1
    last = np.flatnonzero(differs)
    return int(last[-1]) + 2 if last.size else 1


def _segments(body: list[str], moves: list[str], phase: int, block: int, digits: int) -> list[str]:
    """The block + 1 strings whose join by an envelope field is the text of
    a 3m-block whose first row repeats row ``phase`` of the cycle
    (``body``: the six series fields, ``moves``: the move field), with
    ``digits`` zeros where each row's k goes."""
    rows = [(phase + r) % len(body) for r in range(block)]
    heads = ["0" * digits + "," + body[i] for i in rows]
    return [heads[0], *(moves[i] + h for i, h in zip(rows, heads[1:])), moves[rows[-1]]]


def _values_csv(vt: ValueTable, ds: analysis.DeviationSeries, delta: float | None):
    """The bytes of values.csv: the header, then one ``bytes``-like chunk
    per run of whole 3m-blocks, about CHUNK_ROWS rows.

    A row is k, the six series fields, the envelope and the move.  The
    envelope is one string per block (``_envelopes``), and the move is the
    label of vt.argmax(k).  When the picks repeat (not under
    seeded_random), every row from S = ``_repeat_start`` on is k plus one
    of the ``period`` rows S..S + period - 1, whose text is made once.  A
    chunk that starts at or after S, holds whole blocks and whose k all
    have the same number of digits is joined from that cycle: each block is
    ``env.join`` of the phase's ``_segments``, and k's digits are then
    written into the chunk by integer arithmetic, at offsets from a cumsum
    of the row widths.  Every other chunk (the rows before S, every chunk
    of a seeded_random table, the one holding a power of ten, a last one
    that ends inside a block) reads its rows through ``ds.index`` and
    formats each distinct magnitude once (``_cells``).  The writer holds
    a chunk's text, one cycle's, and the block texts of about a chunk.
    """
    m, n, c, period = vt.m, vt.n, vt.computed, vt.period
    series = [ds.p, ds.d, ds.delta, ds.delta_bar, ds.delta_plus, ds.delta_minus]
    labels = np.array(["%d\n" % i for i in range(len(vt.candidates))], dtype=object)
    envs = _envelopes(delta, m)
    block = 3 * m
    size = block * max(1, CHUNK_ROWS // block)
    start = n + 1
    if period and vt.picks.size == c:
        start = _repeat_start(vt.picks, series, c, period)
        cycle = _cells(np.stack([s[start - 1 : start - 1 + period] for s in series], axis=1))
        body = ["".join(row) for row in cycle.tolist()]
        moves = labels[vt.picks[start - 1 : start - 1 + period]].tolist()
        width = np.array([len(b) + len(v) for b, v in zip(body, moves)])
    segs: dict[tuple[int, int], list[str]] = {}  # (digits, phase): about a chunk's blocks
    yield VALUES_HEADER.encode()
    for lo in range(0, n, size):
        hi = min(n, lo + size)
        ks = np.arange(lo + 1, hi + 1)
        env = list(itertools.islice(envs, -(-(hi - lo) // block)))
        digits = len(str(hi))
        if lo >= start - 1 and len(str(lo + 1)) == digits and (hi - lo) % block == 0:
            phases = ((ks[::block] - start) % period).tolist()
            if len(segs) > size // block:
                segs.clear()
            for f in set(phases):
                if (digits, f) not in segs:
                    segs[digits, f] = _segments(body, moves, f, block, digits)
            parts = [segs[digits, f] for f in phases]
            chunk = bytearray("".join(map(str.join, env, parts)), "ascii")
            widths = width[(ks - start) % period] + (digits + 1)
            widths += np.repeat([len(e) for e in env], block)
            at = (np.cumsum(widths) - widths)[:, None] + np.arange(digits)
            power = 10 ** np.arange(digits - 1, -1, -1)
            np.frombuffer(chunk, np.uint8)[at] = ks[:, None] // power % 10 + ord("0")
            yield chunk
            continue
        row = np.empty((hi - lo, 9), dtype=object)
        row[:, 0] = ["%d," % k for k in range(lo + 1, hi + 1)]
        idx = ds.index(ks)
        row[:, 1:7] = _cells(np.stack([s[idx] for s in series], axis=1))
        row[:, 7] = np.array(env, dtype=object).repeat(block)[: hi - lo]
        row[:, 8] = labels[vt.argmax(ks)]
        yield "".join(row.ravel().tolist()).encode()


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


def _game_sized(spec: GameSpec, n_field: str = "game.n"):
    """The block holding arrays of ``spec`` that grow with n until its state
    repeats, its n from config ``n_field``."""
    return _fits_in_memory(n_field, f"{spec.n} pile sizes")


def _solve_bundle(spec: GameSpec, cond: ConditionReport, tau: float | None):
    vt = solve(spec)
    dc = None
    if cond.eta_ok and cond.nu_ok:
        try:
            dc = analysis.drop_constants(cond.eta, cond.nu, tau)
        except TauOutOfRangeError as exc:
            raise ConfigError(f"tau: {exc}") from exc
    return vt, dc


def _reject_nu_zero(cond: ConditionReport, command: str) -> None:
    if not cond.nu_ok:
        raise ConfigError(
            f"game.K: nu = 0 is only allowed under explore-nu-zero, not {command!r}"
        )


def _cmd_solve(cfg: dict, out: Path, explore: bool) -> int:
    spec = _parse_game(cfg.get("game"))
    cond = compute_conditions(spec.K)
    if explore:
        if not cond.nu_ok:
            print("warning: nu = 0, convergence hypotheses unmet; bound checks skipped",
                  file=sys.stderr)
    else:
        _reject_nu_zero(cond, "solve")
    with _game_sized(spec):
        vt, dc = _solve_bundle(spec, cond, _parse_tau(cfg))
        ds = analysis.deviation_series(vt)
        delta = None if (explore or dc is None) else dc.delta
        _atomic_write(out / "values.csv", _values_csv(vt, ds, delta))
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
    spec = _parse_game(cfg.get("game"))
    cond = compute_conditions(spec.K)
    _reject_nu_zero(cond, "verify")
    if not cond.eta_ok:
        raise ConfigError("game.K: eta = 1 (pure move present); verify needs eta < 1")
    kappa_grid = _parse_kappa_grid(cfg)
    with _game_sized(spec):
        vt, dc = _solve_bundle(spec, cond, _parse_tau(cfg))
        reports = analysis.run_checks(analysis.deviation_series(vt), cond, dc, kappa_grid)
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
    spec = _parse_game(cfg.get("game"))
    cond = compute_conditions(spec.K)
    _reject_nu_zero(cond, "simulate")
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
    # the draw matrix of the longest game has reps rows of max(n_values) doubles
    most = MAX_TABLE // max(n_values)
    _require(reps <= most, "sim.replications", f"must be at most {most} for these n_values")
    with _game_sized(spec):
        vt = solve(spec)
    lines = [SIM_HEADER]
    for n in n_values:
        with _fits_in_memory("sim.replications", f"{reps} games of {n} pile sizes"):
            res = estimate_win_prob(SimConfig(table=vt, n=n, replications=reps, seed=seed))
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
    points: list[tuple[GameSpec, str]] = []
    if "n_values" in sweep:
        n_values = sweep["n_values"]
        _require(isinstance(n_values, list) and n_values, "sweep.n_values",
                 "must be a non-empty list")
        for i, n in enumerate(n_values):
            where = f"sweep.n_values[{i}]"
            _require(_is_int(n) and n >= 1, where, "integer >= 1")
            points.append((_parse_game({**game, "n": n}, where), where))
    elif "epsilon_values" in sweep:
        m = game.get("m")
        _require(_is_int(m) and m >= 2, "game.m", "must be an integer >= 2")
        eps_values = sweep["epsilon_values"]
        _require(isinstance(eps_values, list) and eps_values, "sweep.epsilon_values",
                 "must be a non-empty list")
        for i, eps in enumerate(eps_values):
            _require(
                _is_real(eps) and 0.0 < eps < 1 / m,  # int / int: no overflow
                f"sweep.epsilon_values[{i}]",
                f"must be a real in (0, 1/{m})",
            )
            node = {**game, "K": {"type": "truncated_simplex", "epsilon": [eps] * m}}
            points.append((_parse_game(node), "game.n"))
    else:
        raise ConfigError("sweep: needs n_values or epsilon_values")

    tau = _parse_tau(cfg)
    lines = [SWEEP_HEADER]
    for spec, n_field in points:
        cond = compute_conditions(spec.K)
        _reject_nu_zero(cond, "sweep")
        with _game_sized(spec, n_field):
            vt, dc = _solve_bundle(spec, cond, tau)
        p_n = vt.p(vt.n)
        delta = "" if dc is None else "%.17g" % dc.delta
        lines.append(SWEEP_ROW % (spec.n, spec.m, cond.eta, cond.nu, delta, p_n, abs(p_n - 0.5)))
    _atomic_write(out / "sweep.csv", ("".join(lines).encode(),))
    return 0


def run(command: str, config_path: str | Path, output: str | None = None,
        seed: int | None = None) -> int:
    """Execute one experiment; returns the process exit code."""
    try:
        if command not in COMMANDS:
            raise ConfigError(f"command: unknown command {command!r}")
        cfg = load_config(config_path, command)
        out = Path(output or cfg.get("output") or ".")
        if command == "solve":
            return _cmd_solve(cfg, out, explore=False)
        if command == "explore-nu-zero":
            return _cmd_solve(cfg, out, explore=True)
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
        p.add_argument("--seed", type=int, default=None, help="override simulation seed")
    args = parser.parse_args(argv)
    sys.exit(run(args.command, args.config, args.output, args.seed))


if __name__ == "__main__":
    main()
