"""The benchmark still finds what it uses of kcpd.

``perfbench/spans.py`` wraps kcpd functions by name and reports a renamed
one as absent instead of failing, so a refactor could silently cost the
benchmark its per-layer numbers. ``perfbench/run.py`` checks every exact
operation's output with kcpd's own oracle and metrics, imported inside the
checks. These tests load both modules read-only from the benchmark
directory: the tracer on one small segment run per engine, the checks on
shortened exact workloads.
"""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from kcpd.cli import EXIT_OK, main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(monkeypatch, name):
    # read-only: no bytecode cache is written into the benchmark's directory
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up by name while the module runs
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_layer(tmp_path, capsys, monkeypatch):
    spans = _load(monkeypatch, "spans")
    rng = np.random.default_rng(3)
    x = np.concatenate([rng.normal(0, 1, 40), rng.normal(4, 1, 40)])
    inp = tmp_path / "x.csv"
    inp.write_text("\n".join(repr(float(v)) for v in x) + "\n", encoding="utf-8")
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        tracer.recording = True
        for algorithm in ("exact", "lowrank-binseg"):
            rc = main(["segment", "--input", str(inp), "--output", str(tmp_path / "r.json"),
                       "--algorithm", algorithm, "--dmax", "5",
                       "--c1", "1.0", "--c2", "1.0"])
            assert rc == EXIT_OK
        tracer.recording = False
        metrics = spans.operation_metrics(tracer)
    finally:
        tracer.uninstall()
    assert tracer.absent == []
    assert "perfbench: warning" not in capsys.readouterr().err
    for name in ("dp_core.dp_cells", "kernels.prefix_column_calls", "exact_dp.table_bytes",
                 "lowrank.best_split_calls"):
        assert metrics[name] > 0, name


@pytest.mark.parametrize("workload", ["exact-mean-8k", "exact-2d-floor"])
def test_benchmark_checks_pass_on_a_short_exact_workload(tmp_path, monkeypatch, workload):
    # run.py imports the tracer as the top-level module spans
    monkeypatch.setitem(sys.modules, "spans", _load(monkeypatch, "spans"))
    run = _load(monkeypatch, "run")
    wl = dataclasses.replace(run.WORKLOADS[workload], n=600)
    bench = run.Bench(wl, tmp_path, seed=0)
    inp = bench.generate(wl.n, "input")
    bench.operation(inp)
    quality = bench.quality(inp)
    assert (bench.attempted, bench.failed) == (1, 0), bench.failures
    assert inp.oracle  # the loss was checked against segment_cost_direct
    assert quality["model_selection.frob_to_truth"] >= 0.0
