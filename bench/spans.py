"""Traced runs: spans and counters around the names `bachet_lottery.cli`
calls into each layer, recorded from outside the package.

`instrument` swaps each of those public names for a timed wrapper and
puts the original back on exit, so no source file changes.  `cli` binds
`solve`, `compute_conditions` and `estimate_win_prob` at import time, so
those are replaced on the `cli` module; `deviation_series`,
`drop_constants` and the `check_*` functions are looked up through the
`analysis` module on every call, so they are replaced there.  Spans stay
in memory; counters are derived from the public results after the
command returns, outside every span.
"""
from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from workloads import FLOAT64_BYTES

ROOT_SPAN = "cli.run"
CHECKS = (
    "check_monotonicity",
    "check_no_long_winning",
    "check_km_bound",
    "check_corridor",
    "check_drop_down",
    "check_plus_minus",
    "check_envelope",
)
# (module, attribute, span name, keep call arguments and result for counters)
TARGETS = (
    ("bachet_lottery.cli", "solve", "engine.solve", True),
    ("bachet_lottery.cli", "compute_conditions", "lotteries.compute_conditions", True),
    ("bachet_lottery.cli", "estimate_win_prob", "oracles.estimate_win_prob", True),
    ("bachet_lottery.analysis", "deviation_series", "analysis.deviation_series", False),
    ("bachet_lottery.analysis", "drop_constants", "analysis.drop_constants", False),
    *(("bachet_lottery.analysis", name, f"analysis.{name}", False) for name in CHECKS),
)

# Every per-layer metric a traced run computes, with its unit.
UNITS = {
    "cli.run_s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    "lotteries.compute_conditions_s": "s",
    "lotteries.calls": "count",
    "lotteries.candidates": "count",
    "engine.solve_s": "s",
    "engine.solve_calls": "count",
    "engine.piles": "count",
    "engine.ns_per_pile": "ns",
    "engine.tied_piles": "count",
    "engine.transient_k": "count",
    "engine.period": "count",
    "engine.periodic_share": "ratio",
    "analysis.deviation_series_s": "s",
    "analysis.drop_constants_s": "s",
    "analysis.checks_s": "s",
    **{f"analysis.{name}_s": "s" for name in CHECKS},
    "analysis.indices_checked": "count",
    "analysis.violations": "count",
    "oracles.estimate_win_prob_s": "s",
    "oracles.games": "count",
    "oracles.draw_bytes_computed": "bytes",
    "trace.overhead_s": "s",
}


@dataclass
class Span:
    name: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """The spans of one command execution, plus what counters need."""

    def __init__(self, execution: int):
        self.execution = execution
        self.spans: list[Span] = []
        self.kept: dict[str, list[tuple[tuple, object]]] = {}
        self._open: list[int] = []

    def wrap(self, fn, name: str, keep: bool = False):
        """`fn` recording one span per call, nested under the open span."""

        def traced(*args, **kwargs):
            span = Span(name, self._open[-1] if self._open else None)
            self._open.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if keep:
                self.kept.setdefault(name, []).append((args, result))
            return result

        return traced

    def self_seconds(self, index: int) -> float:
        """Span duration minus the time its direct children cover."""
        children = sum(s.seconds for s in self.spans if s.parent == index)
        return self.spans[index].seconds - children

    def total(self, name: str) -> float:
        return sum(s.seconds for s in self.spans if s.name == name)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def to_json(self) -> list[dict]:
        return [
            {"execution": self.execution, "id": i, "parent": s.parent, "name": s.name,
             "start": s.start, "end": s.end, "self_s": self.self_seconds(i)}
            for i, s in enumerate(self.spans)
        ]


@contextmanager
def instrument(tracer: Tracer):
    """Route every layer call `cli.run` makes through `tracer`."""
    patches = [(importlib.import_module(mod), attr, name, keep) for mod, attr, name, keep in TARGETS]
    originals = [(module, attr, getattr(module, attr)) for module, attr, _, _ in patches]
    try:
        for module, attr, name, keep in patches:
            setattr(module, attr, tracer.wrap(getattr(module, attr), name, keep))
        yield
    finally:
        for module, attr, fn in originals:
            setattr(module, attr, fn)


def periodic_structure(p_ext, m: int, n: int) -> tuple[int, int]:
    """(transient, period) from the first bit-exact repeat of a last-m tuple.

    The state after pile size k is p_{k-m+1..k} = p_ext[k : k+m].  If the
    state after j equals the state after i < j, the recursion repeats from
    pile size i + 1 on with period j - i, so `transient` = i pile sizes
    come before the periodic part.  (n, 0) when no state repeats.
    """
    seen: dict[bytes, int] = {}
    for k in range(n + 1):
        state = p_ext[k : k + m].tobytes()
        if state in seen:
            return seen[state], k - seen[state]
        seen[state] = k
    return n, 0


def layer_metrics(tracer: Tracer, out: Path, artifacts: tuple[str, ...]) -> dict[str, float]:
    """Every metric in UNITS except `trace.overhead_s`, for one traced execution."""
    from bachet_lottery.lotteries import candidate_set

    root = next(i for i, s in enumerate(tracer.spans) if s.name == ROOT_SPAN and s.parent is None)
    tables = [vt for _, vt in tracer.kept.get("engine.solve", [])]
    sets = [args[0] for args, _ in tracer.kept.get("lotteries.compute_conditions", [])]
    sims = [args[0] for args, _ in tracer.kept.get("oracles.estimate_win_prob", [])]
    piles = sum(vt.n for vt in tables)
    structure = [periodic_structure(vt.p_ext, vt.m, vt.n) for vt in tables]
    transient = sum(t for t, _ in structure)
    checks = []
    if (out / "report.json").is_file():
        checks = json.loads((out / "report.json").read_text())["checks"]
    solve_s = tracer.total("engine.solve")
    return {
        "cli.run_s": tracer.spans[root].seconds,
        "cli.self_s": tracer.self_seconds(root),
        "cli.bytes_written": sum((out / a).stat().st_size for a in artifacts),
        "lotteries.compute_conditions_s": tracer.total("lotteries.compute_conditions"),
        "lotteries.calls": tracer.calls("lotteries.compute_conditions"),
        "lotteries.candidates": sum(len(candidate_set(K)) for K in sets),
        "engine.solve_s": solve_s,
        "engine.solve_calls": len(tables),
        "engine.piles": piles,
        "engine.ns_per_pile": solve_s * 1e9 / piles if piles else 0.0,
        "engine.tied_piles": sum(sum(1 for t in vt.tie_sets if len(t) > 1) for vt in tables),
        "engine.transient_k": transient,
        "engine.period": sum(p for _, p in structure),
        "engine.periodic_share": (piles - transient) / piles if piles else 0.0,
        "analysis.deviation_series_s": tracer.total("analysis.deviation_series"),
        "analysis.drop_constants_s": tracer.total("analysis.drop_constants"),
        "analysis.checks_s": sum(tracer.total(f"analysis.{name}") for name in CHECKS),
        **{f"analysis.{name}_s": tracer.total(f"analysis.{name}") for name in CHECKS},
        "analysis.indices_checked": sum(c["checked"] for c in checks),
        "analysis.violations": sum(c["violations"] for c in checks),
        "oracles.estimate_win_prob_s": tracer.total("oracles.estimate_win_prob"),
        "oracles.games": sum(s.replications for s in sims),
        "oracles.draw_bytes_computed": max(
            (s.replications * s.n * FLOAT64_BYTES for s in sims), default=0
        ),
    }
