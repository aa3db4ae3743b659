"""The benchmark's layer tracer finds every boundary it wraps in kcpd.

``perfbench/spans.py`` wraps kcpd functions by name and reports a renamed
one as absent instead of failing, so a refactor could silently cost the
benchmark its per-layer numbers. This test runs the tracer, loaded
read-only from the benchmark directory, on one small segment run per
engine.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from kcpd.cli import EXIT_OK, main

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans(monkeypatch):
    # read-only: no bytecode cache is written into the benchmark's directory
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_layer(tmp_path, capsys, monkeypatch):
    spans = _load_spans(monkeypatch)
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
