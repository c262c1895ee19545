"""Tests for the benchmark's own code.

Run from the root of the checkout::

    python3 -m pytest perfbench/tests -q

They use a shortened ``saturated_bound`` (600 slots) so every run takes a
fraction of a second.
"""

from __future__ import annotations

import importlib
import inspect
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402

METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


class TinySaturated(workloads.SaturatedBound):
    name = "tiny_saturated"
    horizon = 600.0
    burst = 100


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    bench.import_program()
    workload = TinySaturated()
    monkeypatch.setitem(workloads.WORKLOADS, workload.name, workload)
    monkeypatch.setitem(workloads.PINNED_DIGESTS, workload.name,
                        workload.repetition(workloads.DEFAULT_SEED).digest)
    monkeypatch.setattr(bench, "OUT_DIR", tmp_path)
    return workload


def test_declared_metrics_match_emitted_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared_e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    declared_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert declared_e2e == list(bench.END_TO_END)
    assert declared_layer == list(bench.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(
        workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
def test_every_emitted_metric_name_is_valid(tiny, trace):
    result, _ = bench.run_workload(tiny.name, workloads.DEFAULT_SEED, 0.0,
                                   trace)
    assert result["correct"], result
    expected = bench.PER_LAYER if trace else bench.END_TO_END
    assert sorted(result["metrics"]) == sorted(n for n, _ in expected)
    for name, entry in result["metrics"].items():
        assert METRIC_NAME.match(name), name
        assert set(entry) == {"value", "unit"}


def test_traced_run_matches_plain_run(tiny):
    """Regime-neutral tracing: the traced repetition keeps the kernel's
    saturated windows, engine dispatch count and output digest."""
    result, report = bench.run_workload(tiny.name, workloads.DEFAULT_SEED,
                                        0.0, True)
    assert result["correct"], report["failures"]
    metrics = result["metrics"]
    assert metrics["kernel.sat_slots"]["value"] > 0
    assert metrics["trace.records"]["value"] > 0
    assert metrics["bench.trace_overhead"]["value"] > 0


def test_tampered_reference_digest_fails(tiny, monkeypatch, capsys):
    monkeypatch.setitem(workloads.PINNED_DIGESTS, tiny.name, "0" * 64)
    result, _ = bench.run_workload(tiny.name, workloads.DEFAULT_SEED, 0.0,
                                   False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    code = bench.main(["--workload", tiny.name, "--seconds", "0"])
    assert code == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["failed"] > 0 and not last["correct"]


def test_other_seeds_skip_the_pin_but_not_the_oracle(tiny, monkeypatch):
    monkeypatch.setitem(workloads.PINNED_DIGESTS, tiny.name, "0" * 64)
    result, _ = bench.run_workload(tiny.name, 5, 0.0, False)
    assert result["correct"]
    monkeypatch.setattr(TinySaturated, "burst", 10)   # backlog runs dry
    result, _ = bench.run_workload(tiny.name, 5, 0.0, False)
    assert not result["correct"] and result["failed"] > 0


def test_fastest_laps_and_host_slowdown(monkeypatch):
    def outcome(laps):
        return workloads.Outcome(setup_s=laps[0][1], laps=laps, slots=10.0,
                                 ring_slots=10.0, cases=1, digest="d",
                                 probes=[2e-3] * 10)

    a = outcome([("setup", 1.0), ("run", 2.0), ("run", 5.0)])
    b = outcome([("setup", 3.0), ("run", 1.0), ("run", 6.0)])
    assert bench.fastest_laps([a, b]) == [("setup", 1.0), ("run", 1.0),
                                          ("run", 5.0)]
    monkeypatch.setattr(bench, "PROBE_REFERENCE_S", 1e-3)
    assert bench.host_slowdown([a, b]) == pytest.approx(2.0)


def _seam_attributes():
    """Every attribute a Tracer patches, with the object it holds now."""
    held = {}
    for _, module, target, _ in layers.SEAMS:
        for owner, name, raw in layers._resolve(module, target):
            held[(id(owner), name)] = (owner, name, raw)
    aliases = {}
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("repro"):
            for owner, name, raw in held.values():
                if inspect.ismodule(owner) and vars(mod).get(name) is raw:
                    aliases[(mod.__name__, name)] = raw
    return held, aliases


def test_wrappers_restore_original_callables(tiny):
    importlib.import_module("repro.fuzz.runner")
    before, aliases = _seam_attributes()
    assert aliases, "expected module-level aliases (fuzz.runner imports)"
    outcome, _, recorder = bench.traced_repetition(tiny, 0)
    assert recorder.spans_recorded > 0
    after, aliases_after = _seam_attributes()
    assert after.keys() == before.keys()
    for key, (owner, name, raw) in before.items():
        assert vars(owner)[name] is raw, f"{owner.__name__}.{name}"
    assert aliases_after == aliases
    for (modname, name), raw in aliases.items():
        assert vars(sys.modules[modname])[name] is raw


def test_span_self_time_excludes_children():
    rec = layers.SpanRecorder(categories=["outer", "inner"])

    def inner():
        return sum(range(20000))

    wrapped_inner = rec.wrap(inner, "inner", "inner")

    def outer():
        return wrapped_inner() + wrapped_inner()

    total = rec.wrap(outer, "outer", "outer")()
    assert total == 2 * sum(range(20000))
    self_s, counts = rec.snapshot()
    assert counts == {"inner": 2, "outer": 1}
    spans = [rec.log[i:i + 5] for i in range(0, len(rec.log), 5)]
    by_id = {int(s[0]): s for s in spans}
    outer_span = by_id[0]
    assert [int(s[4]) for s in spans if int(s[1]) == 1] == [0, 0]
    assert outer_span[4] == -1
    inner_time = sum(s[3] - s[2] for s in spans if int(s[1]) == 1)
    assert self_s["outer"] <= (outer_span[3] - outer_span[2]) - inner_time
    assert self_s["inner"] == pytest.approx(inner_time)


def test_without_program_source_exits_nonzero(tmp_path):
    """A directory holding only the benchmark: no result, exit code != 0."""
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload",
         "conference_call", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
