"""Tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest -q perfbench/selftest.py

They check that a tiny run emits every end-to-end metric named in
``BENCHMARK.json`` with its unit, that a traced run emits every per-layer
metric, and that each correctness check fails when fed a tampered result.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import phases  # noqa: E402
import speed  # noqa: E402
from repro.engine.catalog import Catalog  # noqa: E402
from repro.engine.table import QueryResult  # noqa: E402
from repro.interface.state import InterfaceState  # noqa: E402
from repro.serving.session import Session  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(workload: str, trace: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload]
    command += ["--seed", "7", "--seconds", "2", "--trace", str(trace)]
    done = subprocess.run(command, capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def assert_metrics(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    units = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert units == {metric["name"]: metric["unit"] for metric in declared}
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))


def test_tiny_run_emits_every_end_to_end_metric():
    assert_metrics(run_benchmark("regen", 0), SPEC["end_to_end"])


def test_traced_run_emits_every_per_layer_metric():
    assert_metrics(run_benchmark("serve_rw", 1), SPEC["per_layer"])


def test_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for source in HERE.glob("*.py"):
        (bench / source.name).write_text(source.read_text())
    command = [sys.executable, str(bench / "run.py"), "--workload", "regen"]
    command += ["--seed", "1", "--seconds", "1"]
    done = subprocess.run(command, capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert done.returncode != 0 and done.stdout == ""


def test_speed_scaling_takes_out_machine_slowdown():
    reference = speed.REFERENCE_PROBE_S
    sampler = speed.SpeedSampler()
    # A probe every 10 ms: one second at reference speed, then one at half speed.
    for i in range(200):
        sampler.starts.append(i * 0.01)
        sampler.durations.append(reference if i < 100 else 2 * reference)
    # Each interval holds ten probes, whose time is not the operation's.
    fast = sampler.scaled_s(0.205, 0.305)
    slow = sampler.scaled_s(1.205, 1.405)
    assert fast == pytest.approx(0.1 - 10 * reference)
    assert slow == pytest.approx((0.2 - 20 * 2 * reference) / 2)
    # A probe slowed far past the others (the thread lost its core) is capped.
    sampler.durations[50] = 1.0
    assert sampler.scaled_s(0.495, 0.4999) > 0.0049 / 2


# --------------------------------------------------------------------------- #
# Correctness checks against tampered results
# --------------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def fixture():
    built = phases.build_fixture(3)
    yield built
    built.close()


def tampered(result: QueryResult) -> QueryResult:
    """The same result with its first row's last value changed."""
    rows = [list(row) for row in result.rows]
    value = rows[0][-1]
    rows[0][-1] = value + 1 if isinstance(value, (int, float)) else f"{value}!"
    return QueryResult(list(result.columns), rows=[tuple(row) for row in rows])


def run_regen(fixture, monkeypatch):
    """One session of the cheapest scenario through the regen loop."""
    monkeypatch.setattr(phases, "REGEN_SCENARIOS", ("sp500",))
    loop = phases.RegenLoop(fixture, random.Random(1), cycles=1)
    loop.step(0)
    return loop.finish()


def run_interact(fixture, seconds: float):
    loop = phases.InteractLoop(fixture, random.Random(1))
    loop.step(seconds)
    return loop.finish()


def run_serve(fixture, seed: int, seconds: float = 1.0):
    loop = phases.ServeLoop(fixture, random.Random(seed), seconds)
    loop.step(seconds)
    return loop.finish()


def test_regen_checks_pass_on_real_results(fixture, monkeypatch):
    report = run_regen(fixture, monkeypatch)
    assert report.checks > 0 and report.check_failures == []


def test_regen_flags_an_uncovered_query(fixture, monkeypatch):
    monkeypatch.setattr(phases, "missing_queries", lambda result: 1)
    report = run_regen(fixture, monkeypatch)
    assert any("uncovered" in failure for failure in report.check_failures)


def test_regen_flags_an_invalid_interface(fixture, monkeypatch):
    from repro.errors import InterfaceError

    def invalid():
        raise InterfaceError("tampered")

    class Tampering(phases.Pi2Extension):
        def generate_interface(self, *args, **kwargs):
            version = super().generate_interface(*args, **kwargs)
            version.result.interface.validate = invalid
            return version

    monkeypatch.setattr(phases, "Pi2Extension", Tampering)
    report = run_regen(fixture, monkeypatch)
    assert any("invalid interface" in failure for failure in report.check_failures)


def test_regen_flags_a_nondeterministic_generation(fixture, monkeypatch):
    real = phases.generate_interface

    def other_interface(log, catalog, config):
        result = real(log, catalog, config)
        result.interface.fingerprint = lambda: ("tampered",)
        return result

    monkeypatch.setattr(phases, "generate_interface", other_interface)
    report = run_regen(fixture, monkeypatch)
    assert any("repeated" in failure for failure in report.check_failures)


def test_interact_checks_pass_on_real_results(fixture, monkeypatch):
    monkeypatch.setattr(phases, "CHECK_SHARE", 1.0)
    report = run_interact(fixture, 0.05)
    assert report.checks > 0 and report.check_failures == []


def test_interact_flags_tampered_chart_data(fixture, monkeypatch):
    live = fixture.interact[0]
    real = InterfaceState.data_for_tree
    monkeypatch.setattr(
        InterfaceState, "data_for_tree", lambda self, index: tampered(real(self, index))
    )
    assert not phases.check_live_data(live)
    monkeypatch.setattr(phases, "CHECK_SHARE", 1.0)
    assert run_interact(fixture, 0.05).check_failures


def test_serve_checks_pass_on_real_results(fixture, monkeypatch):
    monkeypatch.setattr(phases, "CHECK_SHARE", 1.0)
    report = run_serve(fixture, 1)
    assert report.checks > 1 and report.check_failures == []


def test_serve_flags_a_tampered_read(fixture, monkeypatch):
    real = Session.execute
    monkeypatch.setattr(phases, "CHECK_SHARE", 1.0)
    monkeypatch.setattr(
        Session, "execute", lambda self, *args, **kwargs: tampered(real(self, *args, **kwargs))
    )
    report = run_serve(fixture, 2)
    assert any("read differs" in failure for failure in report.check_failures)


def test_serve_flags_a_lost_append(fixture, monkeypatch):
    real = Catalog.append_rows
    monkeypatch.setattr(
        Catalog, "append_rows", lambda self, name, rows: real(self, name, rows) + 1
    )
    report = run_serve(fixture, 3)
    assert any(kind == "write" for *_timing, kind in report.timings)
    assert any("rows, expected" in failure for failure in report.check_failures)
