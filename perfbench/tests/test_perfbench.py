"""Tests of the benchmark itself: the report format of tiny runs, the
span arithmetic, and that every gate trips on a corrupted output.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import spans  # noqa: E402
import workloads as wl  # noqa: E402
from tlsrf.core import PAPER_QD  # noqa: E402
from tlsrf.trajectory import TagStream  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int) -> tuple[int, list[str]]:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    return done.returncode, done.stdout.splitlines()


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    code, lines = bench(workload, trace)
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    assert any(line.strip().startswith("error_rate") for line in lines)


@pytest.mark.parametrize("workload", ["mc-chaotic", "figures"])
def test_self_times_add_up_to_each_traced_operation(workload):
    code, _ = bench(workload, 1)
    assert code == 0
    recorded = json.loads((ROOT / ".perfbench" / f"spans-{workload}-seed5.json").read_text())
    ops = sorted({s["op"] for s in recorded})
    assert ops
    for op in ops:
        row = spans.layer_metrics(recorded, op)
        self_total = sum(v for k, v in row.items() if k.endswith(".self_s"))
        assert self_total == pytest.approx(row["traced_wall_s"], rel=1e-9)
        trajectory_spans = [s for s in recorded if s["op"] == op and s["name"].startswith("trajectory.")]
        assert bool(trajectory_spans) == (workload == "mc-chaotic")


def test_tracer_restores_the_modules():
    from tlsrf import emission

    original = emission.qrt_spectrum
    tracer = spans.Tracer()
    tracer.install()
    assert emission.qrt_spectrum is not original
    tracer.uninstall()
    assert emission.qrt_spectrum is original


def test_host_probe_answers_and_ends():
    with wl.HostProbe() as probe:
        times = [probe(), probe()]
    assert all(t > 0.0 for t in times)
    assert probe.proc.returncode == 0


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """One tiny operation of each workload, run in this process."""
    made = {}
    for name in ("mc-chaotic", "mc-blink-wide", "figures"):
        work = wl.make_workload(name, "tiny", tmp_path_factory.mktemp(name))
        out = work.run(wl.op_seed(5, 1))
        assert work.check(out)[0] == []
        made[name] = (work, out)
    return made


def test_mc_chaotic_gate_trips(outputs):
    work, _ = outputs["mc-chaotic"]
    out = work.steps[0][3]
    analytic, mc = wl.read_csv(out), wl.read_csv(f"{out}.mc.csv")
    assert wl.check_mc_chaotic(analytic, mc, work.drive_se) == []
    shape = dict(mc, c_norm=mc["c_norm"].copy())
    shape["c_norm"][100:110] *= 1.5
    assert any("shape" in f for f in wl.check_mc_chaotic(analytic, shape, work.drive_se))
    level = dict(mc, c_norm=mc["c_norm"] * 2.0)
    assert any("bunching level" in f for f in wl.check_mc_chaotic(analytic, level, work.drive_se))


def test_blink_gate_trips(outputs):
    work, (tags, hist, curve) = outputs["mc-blink-wide"]
    cfg, params = work.cfg, work.pset.tls
    off_by_one = hist.counts.copy()
    off_by_one[7] += 1
    scaled = hist.counts.copy()
    scaled[200] = int(scaled[200] * 1.2)
    for counts in (off_by_one, scaled):
        bad = type(hist)(hist.bin_width, hist.lags, counts, hist.c_norm, hist.stderr)
        assert any("pairs" in f for f in wl.check_blink(tags, bad, curve, cfg, params))
    # the tiny stream spans few blink cycles, so only a gross rate error trips
    tripled = TagStream(np.repeat(tags.times, 3), np.repeat(tags.channels, 3), tags.duration)
    assert any("tag rate" in f for f in wl.check_blink(tripled, hist, curve, cfg, params))
    lifted = type(curve)(curve.lags, curve.values + 1e-3)
    assert any("g2(0)" in f for f in wl.check_blink(tags, hist, lifted, cfg, params))


def figure_table(outputs, command):
    work, _ = outputs["figures"]
    (step,) = [s for s in work.steps if s[0] == command]
    return step[1], step[3]


def test_figure_gates_trip(outputs):
    params = PAPER_QD.tls
    _, out = figure_table(outputs, "saturation")
    table = wl.read_csv(out)
    assert wl.check_saturation(table, params) == []
    assert wl.check_saturation(dict(table, chaotic=table["chaotic"] * (1 + 1e-5)), params)

    _, out = figure_table(outputs, "mollow")
    table = wl.read_csv(out)
    assert wl.check_mollow(table, params) == []
    assert wl.check_mollow(dict(table, coherent_total_irf=table["coherent_total_irf"] * 1.05), params)

    cfg, out = figure_table(outputs, "lamp")
    fit = json.loads(Path(f"{out}.fit.json").read_text())
    assert wl.check_lamp(fit, cfg) == []
    assert wl.check_lamp(dict(fit, tau_corr_ns=cfg["tau_corr_ns"] * 1.2), cfg)
    assert wl.check_lamp(dict(fit, identifiable=False), cfg)

    _, out = figure_table(outputs, "g2")
    table = wl.read_csv(out)
    assert wl.check_g2_zero(table) == []
    lifted = table["g2_coherent"].copy()
    lifted[table["lag_ns"] == 0.0] = 1e-12
    assert wl.check_g2_zero(dict(table, g2_coherent=lifted))
    broken = table["g2_chaotic"].copy()
    broken[3] = np.nan
    assert wl.check_finite(dict(table, g2_chaotic=broken))


def test_failed_gate_counts_the_operation_as_failed(outputs, monkeypatch):
    work, _ = outputs["figures"]
    monkeypatch.setattr(wl, "check_g2_zero", lambda table: ["forced"])
    report = wl.run_loop(work, 5, 0.0, trace=False)
    assert report["failed"] == report["attempted"] > 0
