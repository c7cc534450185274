"""The four benchmark workloads: one `bachet-game` command and config each.

Each workload stresses a different layer of `bachet_lottery` (see
README.md in this directory for why each was chosen and what each
ROADMAP optimisation is predicted to do to it).  Only `simulate-mc`
depends on the benchmark seed; it reaches the CLI through the existing
`--seed` override, so the config itself never changes.
"""
from __future__ import annotations

from dataclasses import dataclass

FLOAT64_BYTES = 8


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: dict
    artifacts: tuple[str, ...]
    seeded: bool

    @property
    def work(self) -> int:
        """Work per command execution, the numerator of `work_per_s`.

        Pile sizes solved (sum of n over game points), or simulated games
        (replications times the number of `n_values`) for `simulate`.
        """
        game = self.config["game"]
        if self.command == "simulate":
            sim = self.config["sim"]
            return sim["replications"] * len(sim["n_values"])
        if self.command == "sweep":
            return game["n"] * len(self.config["sweep"]["epsilon_values"])
        return game["n"]

    @property
    def work_unit(self) -> str:
        return "games" if self.command == "simulate" else "piles"

    def seed_arg(self, seed: int) -> int | None:
        """What the benchmark passes as the CLI's `--seed` override."""
        return seed if self.seeded else None

    def largest_array(self) -> dict:
        """The largest numpy array one execution builds, sized from the config.

        `simulate` draws an R x n float64 matrix per `n_values` entry; every
        other command's largest array is a float64 series over k = -(m-1)..n
        (`ValueTable.p_ext` and the deviation series).  These sizes are
        computed, not measured.
        """
        game = self.config["game"]
        if self.command == "simulate":
            sim = self.config["sim"]
            n = max(sim["n_values"])
            return {
                "name": "oracles.estimate_win_prob draws",
                "shape": [sim["replications"], n],
                "bytes_computed": sim["replications"] * n * FLOAT64_BYTES,
            }
        length = game["n"] + game["m"]
        return {
            "name": "engine.ValueTable.p_ext (and each analysis series)",
            "shape": [length],
            "bytes_computed": length * FLOAT64_BYTES,
        }


def _simplex(m: int, eps: float) -> dict:
    return {"type": "truncated_simplex", "epsilon": [eps] * m}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="verify-m3",
            command="verify",
            config={"game": {"n": 10_000, "m": 3, "K": _simplex(3, 0.05)}},
            artifacts=("report.json",),
            seeded=False,
        ),
        Workload(
            name="solve-m4",
            command="solve",
            config={"game": {"n": 20_000, "m": 4, "K": _simplex(4, 0.01)}},
            artifacts=("values.csv", "summary.json"),
            seeded=False,
        ),
        Workload(
            name="sweep-eps",
            command="sweep",
            config={
                "game": {"n": 10_000, "m": 3},
                "sweep": {"epsilon_values": [0.001, 0.003, 0.01, 0.03, 0.05, 0.1, 0.2, 0.3]},
            },
            artifacts=("sweep.csv",),
            seeded=False,
        ),
        Workload(
            name="simulate-mc",
            command="simulate",
            config={
                "game": {"n": 400, "m": 3, "K": _simplex(3, 0.05)},
                "sim": {"replications": 2_000, "seed": 0, "n_values": [25, 100, 400]},
            },
            artifacts=("simulation.csv",),
            seeded=True,
        ),
    )
}
