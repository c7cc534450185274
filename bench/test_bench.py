"""Tests of the benchmark itself: output checks, failure counting and tracing.

    PYTHONPATH=src python3 -m pytest bench -q
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import checks
import spans
import worker
from bachet_lottery import cli
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SEED = 7  # not the seed the simulate-mc digest was pinned at


def _config(wl, tmp_path: Path) -> Path:
    path = tmp_path / f"{wl.name}.json"
    path.write_text(json.dumps({"command": wl.command, **wl.config}))
    return path


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory) -> dict[str, Path]:
    """Each workload's artifacts from one real execution."""
    tmp = tmp_path_factory.mktemp("artifacts")
    outs = {}
    for wl in WORKLOADS.values():
        out = tmp / wl.name
        _, failure = worker.execute(cli.run, wl, _config(wl, tmp), out, SEED)
        assert failure is None
        outs[wl.name] = out
    return outs


def _perturb_bytes(path: Path) -> None:
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 1
    path.write_bytes(bytes(data))


def _rewrite_json(path: Path, change) -> None:
    doc = json.loads(path.read_text())
    change(doc)
    path.write_text(json.dumps(doc))


def _rewrite_csv_cell(path: Path, column: str, value: str) -> None:
    lines = path.read_text().splitlines()
    col = lines[0].split(",").index(column)
    cells = lines[1].split(",")
    cells[col] = value
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


PERTURBATIONS = [
    ("solve-m4", lambda out: _perturb_bytes(out / "values.csv")),
    ("solve-m4", lambda out: _perturb_bytes(out / "summary.json")),
    ("sweep-eps", lambda out: _perturb_bytes(out / "sweep.csv")),
    ("verify-m3", lambda out: _rewrite_json(out / "report.json",
                                            lambda d: d.update(all_passed=False))),
    ("verify-m3", lambda out: _rewrite_json(out / "report.json",
                                            lambda d: d["checks"][2].update(checked=1))),
    ("verify-m3", lambda out: _rewrite_json(out / "report.json", lambda d: d.pop("delta"))),
    ("simulate-mc", lambda out: _rewrite_csv_cell(out / "simulation.csv", "p_engine", "0.5")),
    ("simulate-mc", lambda out: _rewrite_csv_cell(out / "simulation.csv", "z_score", "-5.5")),
    ("simulate-mc", lambda out: (out / "simulation.csv").unlink()),
]


def test_fresh_artifacts_pass(artifacts):
    for name, out in artifacts.items():
        assert checks.check(name, out, SEED) is None, name


@pytest.mark.parametrize("name,perturb", PERTURBATIONS)
def test_perturbed_artifact_fails(artifacts, tmp_path, name, perturb):
    out = tmp_path / "out"
    out.mkdir()
    for f in artifacts[name].iterdir():
        (out / f.name).write_bytes(f.read_bytes())
    perturb(out)
    assert checks.check(name, out, SEED) is not None


def test_fields_added_to_report_are_ignored(artifacts, tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "report.json").write_bytes((artifacts["verify-m3"] / "report.json").read_bytes())
    _rewrite_json(out / "report.json", lambda d: (d.update(informative=3),
                                                  d["checks"][0].update(last_k=9)))
    assert checks.check("verify-m3", out, SEED) is None


def test_simulate_digest_is_checked_only_at_the_pinned_seed(artifacts):
    out = artifacts["simulate-mc"]
    assert checks.check("simulate-mc", out, SEED) is None
    # the artifact names its seed, so it cannot pass as the pinned-seed run
    assert checks.check("simulate-mc", out, checks.PINNED_SEED) is not None


_real_run = cli.run


def _perturbing_run(*args):
    code = _real_run(*args)
    _perturb_bytes(Path(args[2]) / "sweep.csv")
    return code


def _raising_run(*args):
    raise RuntimeError("boom")


@pytest.mark.parametrize(
    "run,reason",
    [(lambda *args: 1, "exit code 1"), (_raising_run, "raised RuntimeError"),
     (_perturbing_run, "sha256")],
)
def test_each_failure_counts_as_a_failed_execution(monkeypatch, tmp_path, run, reason):
    monkeypatch.setattr(cli, "run", run)
    result = worker.measure(WORKLOADS["sweep-eps"], SEED, 0.0, False, tmp_path)
    assert result["attempted"] >= worker.MIN_EXECUTIONS
    assert len(result["failures"]) == result["attempted"]
    assert result["samples_s"] == []
    assert all(reason in f for f in result["failures"])


def test_traced_run_reports_layers_that_add_up(tmp_path):
    result = worker.measure(WORKLOADS["verify-m3"], SEED, 0.0, True, tmp_path)
    assert result["failures"] == []
    layers = result["layers"]
    assert set(layers) == set(spans.UNITS)
    # verify at eps=0.05, m=3 repeats from pile size 629 with period 4
    assert (layers["engine.transient_k"], layers["engine.period"]) == (628, 4)
    assert layers["analysis.indices_checked"] > 0 and layers["analysis.violations"] == 0
    recorded = json.loads((tmp_path / "trace-verify-m3.json").read_text())
    assert {s["name"] for s in recorded} >= {"engine.solve", "analysis.check_km_bound"}
    for root in (s for s in recorded if s["parent"] is None):
        children = [s for s in recorded
                    if s["execution"] == root["execution"] and s["parent"] == root["id"]]
        covered = sum(s["end"] - s["start"] for s in children)
        assert root["self_s"] + covered == pytest.approx(root["end"] - root["start"], abs=1e-9)


def test_instrument_restores_the_package():
    before = {(mod, attr): getattr(__import__(mod, fromlist=[attr]), attr)
              for mod, attr, _, _ in spans.TARGETS}
    with spans.instrument(spans.Tracer(0)):
        assert cli.solve is not before[("bachet_lottery.cli", "solve")]
    after = {(mod, attr): getattr(__import__(mod, fromlist=[attr]), attr)
             for mod, attr, _, _ in spans.TARGETS}
    assert after == before


def test_periodic_structure():
    p_ext = np.array([1.0, 1.0, 0.0, 0.3, 0.6, 0.3, 0.6, 0.3, 0.6])
    assert spans.periodic_structure(p_ext, 2, 7) == (3, 2)
    assert spans.periodic_structure(np.array([1.0, 1.0, 0.0, 0.5]), 2, 2) == (2, 0)


def test_benchmark_json_names_metrics_the_benchmark_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for m in spec["per_layer"]:
        assert spans.UNITS[m["name"]] == m["unit"]
    import run
    for m in spec["end_to_end"]:
        assert run.E2E_UNITS[m["name"]] == m["unit"]
