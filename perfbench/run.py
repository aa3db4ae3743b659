#!/usr/bin/env python3
"""End-to-end benchmark of ``kcpd segment``: CSV file in, JSON file out.

Run from the repository root, for example

    python3 perfbench/run.py --workload exact-mean-8k --seed 0 --seconds 12 --trace 0

The program is imported from ``src/`` of the same checkout. Every operation
is ``kcpd.cli.main(["segment", ...])`` on a CSV file that ``kcpd simulate``
wrote from ``--seed``, run serially in this process, and every operation's
JSON is checked. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``. A readable
summary, with the environment, goes to standard error; ``--record FILE``
also writes everything measured to FILE. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from dataclasses import asdict, dataclass, field
from pathlib import Path

import spans

_T_START = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

# An operation takes seconds, so a run times at least three of them and
# reports the median; a traced run times two untraced, then two traced.
MIN_TIMED_OPS = 3
MIN_TRACE_OPS = 2
# exact workloads: reported loss at d_hat against the direct-summation oracle
LOSS_RTOL = 1e-9


@dataclass(frozen=True)
class Workload:
    why: str
    n: int
    simulate: tuple[str, ...]  # `kcpd simulate` flags besides --n and --seed
    segment: tuple[str, ...]  # `kcpd segment` flags besides --input and --output
    dmax: int
    oracle_kernel: tuple[str, float] | None  # (kcpd.kernels class, delta); None: no loss oracle
    warm_n: int  # length of the warm-up input, drawn by the same generator
    # setup_s is the median of this many set-ups, each in a fresh interpreter;
    # a short set-up (~0.4 s) needs more of them to be steady, a long one
    # (~2 s) costs more of the benchmark's time budget per repetition
    setup_repeats: int


WORKLOADS = {
    "exact-mean-8k": Workload(
        why="paper's headline exact setting: 9 mean shifts, n=8000, Dmax=100; "
        "DP minimisation does most of the work and the fast path is idle",
        n=8000,
        simulate=("--num-changes", "9", "--kind", "mean"),
        segment=("--kernel", "gaussian", "--delta", "1", "--dmax", "100", "--min-seg-len", "1"),
        dmax=100,
        oracle_kernel=("GaussianKernel", 1.0),
        warm_n=1000,
        setup_repeats=7,
    ),
    "exact-2d-floor": Workload(
        why="2-d distribution change only a characteristic kernel sees, length floor 30, Dmax=12; "
        "the same sweep, but the kernel column dominates",
        n=12000,
        simulate=("--num-changes", "4", "--kind", "variance", "--tracks", "2"),
        segment=("--kernel", "laplace", "--delta", "1", "--dmax", "12", "--min-seg-len", "30"),
        dmax=12,
        oracle_kernel=("LaplaceKernel", 1.0),
        warm_n=1000,
        setup_repeats=7,
    ),
    "lowrank-500k": Workload(
        why="fast path at scale: n=5e5, 49 mean shifts, p=100; CSV parse, Nystrom "
        "embedding and split scans do the work, the exact DP is idle",
        n=500_000,
        simulate=("--num-changes", "49", "--kind", "mean"),
        segment=("--algorithm", "lowrank-binseg", "--kernel", "gaussian", "--delta", "1",
                 "--landmarks", "100", "--dmax", "100"),
        dmax=100,
        oracle_kernel=None,
        warm_n=5000,
        setup_repeats=5,
    ),
}

END_TO_END = [("segment_s", "s"), ("peak_mem_mb", "MB"), ("setup_s", "s")]
PER_LAYER = spans.LAYER_METRICS + [
    ("trace.overhead_frac", "ratio"),
    ("model_selection.d_hat_err", "count"),
    ("model_selection.frob_to_truth", "unitless"),
    ("cli.error_rate", "ratio"),
]


def load_program():
    """Import kcpd from this checkout's src/; raise ImportError otherwise."""
    if not (SRC / "kcpd" / "__init__.py").is_file():
        raise ImportError(f"no kcpd package under {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import kcpd.cli  # noqa: F401  (also imports numpy and every layer)

    import_s = time.perf_counter() - start
    import kcpd

    if Path(kcpd.__file__).resolve().parent != SRC / "kcpd":
        raise ImportError(f"kcpd imported from {kcpd.__file__}, not from {SRC}")
    return import_s


# ---------------------------------------------------------------------------
# environment


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    import numpy

    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libdir.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_revision() -> str:
    """HEAD of the checkout, "+dirty" if src/ has changes; "unknown" outside git."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        lines = top.stdout.split()
        if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
            return "unknown"
        dirty = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain", "--", "src"],
                               capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return lines[1] + ("+dirty" if dirty.stdout.strip() else "")


def environment(workload: str, seed: int, trace: int) -> dict:
    import numpy
    from kcpd import _dp_core

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": "numba" if getattr(_dp_core, "HAVE_JIT", False) else "numpy",
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_revision": git_revision(),
        "workload": workload,
        "seed": seed,
        "trace": trace,
    }


# ---------------------------------------------------------------------------
# operations and their checks


@dataclass
class Input:
    csv: Path
    n: int
    truth: tuple[int, ...]  # generator's change points, 1-based starts
    reference: str | None = None  # first operation's JSON without "timing"
    doc: dict | None = None  # first operation's JSON
    oracle: dict = field(default_factory=dict)  # change points -> direct loss


class Bench:
    """Runs and checks `kcpd segment` operations for one workload."""

    def __init__(self, wl: Workload, work: Path, seed: int):
        self.wl = wl
        self.work = work
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def generate(self, n: int, stem: str) -> Input:
        """Write an input of length n from the seed with `kcpd simulate`."""
        from kcpd import cli

        code = cli.main(["simulate", "--output", str(self.work / f"{stem}.csv"),
                         "--truth", str(self.work / f"{stem}.truth.json"),
                         "--n", str(n), "--seed", str(self.seed), *self.wl.simulate])
        if code != 0:
            raise RuntimeError(f"kcpd simulate exited with {code}")
        return self.existing(n, stem)

    def existing(self, n: int, stem: str) -> Input:
        """An input that generate() has already written."""
        truth = self.work / f"{stem}.truth.json"
        starts = json.loads(truth.read_text(encoding="utf-8"))["change_points"]
        return Input(csv=self.work / f"{stem}.csv", n=n, truth=tuple(starts))

    def operation(self, inp: Input, call=None) -> float:
        """One checked `kcpd segment` on ``inp``; returns its wall seconds."""
        from kcpd import cli

        call = cli.main if call is None else call
        out = self.work / "out.json"
        out.unlink(missing_ok=True)
        argv = ["segment", "--input", str(inp.csv), "--output", str(out), *self.wl.segment]
        self.attempted += 1
        start = time.perf_counter()
        try:
            code = call(argv)
        except Exception:  # a crash is a failed operation; the run goes on
            traceback.print_exc()
            code = "an exception"
        seconds = time.perf_counter() - start
        try:
            reason = self.check(inp, code, out)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            reason = f"malformed output: {exc!r}"
        if reason is not None:
            self.failed += 1
            self.failures.append(reason)
            print(f"perfbench: operation {self.attempted} failed: {reason}", file=sys.stderr)
        return seconds

    def check(self, inp: Input, code, out: Path) -> str | None:
        if code != 0:
            return f"exit code {code}"
        doc = json.loads(out.read_text(encoding="utf-8"))
        if len(doc["per_d"]) != self.wl.dmax:
            return f"{len(doc['per_d'])} per_d entries, expected {self.wl.dmax}"
        body = json.dumps({k: v for k, v in doc.items() if k != "timing"}, indent=2)
        if inp.reference is None:
            inp.reference, inp.doc = body, doc
        elif body != inp.reference:
            return "output outside timing differs from the first operation"
        if self.wl.oracle_kernel is not None:
            err = self.loss_error(inp, doc)
            if not err <= LOSS_RTOL:
                return f"loss at d_hat is {err:.3g} (relative) from the direct segment costs"
        return None

    def loss_error(self, inp: Input, doc: dict) -> float:
        """Relative gap between the loss reported at d_hat and the sum of
        segment_cost_direct over the reported segments, on the scaled data."""
        import numpy as np
        from kcpd import kernels
        from kcpd.exact_dp import Segmentation, segment_cost_direct

        sel = doc["selection"]
        starts = tuple(sel["change_points"])
        row = doc["per_d"][sel["d_hat"] - 1]
        if tuple(row["change_points"]) != starts:
            return float("inf")
        if starts not in inp.oracle:
            data = np.loadtxt(inp.csv, delimiter=",", ndmin=2)
            factors = np.asarray(doc["scaling"]["factors"], dtype=np.float64)
            scaled = data / np.where(factors > 0, factors, 1.0)
            cls, delta = self.wl.oracle_kernel
            spec = getattr(kernels, cls)(delta)
            seg = Segmentation(starts, inp.n)
            inp.oracle[starts] = sum(segment_cost_direct(scaled, spec, s, e) for s, e in seg.bounds())
        expected = inp.oracle[starts]
        return abs(row["loss"] - expected) / max(abs(expected), 1e-300)

    def quality(self, inp: Input) -> dict:
        from kcpd.exact_dp import Segmentation
        from kcpd.metrics import frobenius_distance

        if inp.doc is None:
            return {"model_selection.d_hat_err": 0, "model_selection.frob_to_truth": 0.0}
        sel = inp.doc["selection"]
        est = Segmentation(tuple(sel["change_points"]), inp.n)
        truth = Segmentation(inp.truth, inp.n)
        return {"model_selection.d_hat_err": abs(sel["d_hat"] - truth.d),
                "model_selection.frob_to_truth": frobenius_distance(est, truth)}


def repeat(op, seconds: float, minimum: int) -> list:
    """Call ``op`` at least ``minimum`` times and until ``seconds`` have passed."""
    out = []
    start = time.perf_counter()
    while len(out) < minimum or time.perf_counter() - start < seconds:
        out.append(op())
    return out


# ---------------------------------------------------------------------------
# the two kinds of run


def set_up_child(args) -> int:
    """``--setup-only DIR``: one set-up in this fresh interpreter, into DIR.

    Imports the program, writes the workload's input with `kcpd simulate`
    and runs one warm-up `segment` on a small input from the same
    generator; prints the three times and the warm-up's check as JSON.
    """
    try:
        import_s = load_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    bench = Bench(WORKLOADS[args.workload], Path(args.setup_only), args.seed)
    start = time.perf_counter()
    bench.generate(bench.wl.n, "input")
    generate_s = time.perf_counter() - start
    start = time.perf_counter()
    bench.operation(bench.generate(bench.wl.warm_n, "warm"))
    warmup_s = time.perf_counter() - start
    print(json.dumps({"import_s": import_s, "generate_s": generate_s, "warmup_s": warmup_s,
                      "attempted": bench.attempted, "failed": bench.failed,
                      "failures": bench.failures}))
    return 0


def measure_set_up(bench: Bench, workload: str) -> list[dict]:
    """Set up the workload's setup_repeats times, each in a fresh interpreter,
    so one-time costs count every time; the input is left in the work directory."""
    parts = []
    for _ in range(bench.wl.setup_repeats):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(bench.seed), "--seconds", "0", "--setup-only", str(bench.work)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process exited with {proc.returncode}")
        child = json.loads(proc.stdout.splitlines()[-1])
        bench.attempted += child.pop("attempted")
        bench.failed += child.pop("failed")
        bench.failures += child.pop("failures")
        parts.append(child)
    return parts


def run_untraced(bench: Bench, seconds: float, workload: str) -> tuple[dict, dict]:
    from kcpd import cli

    parts = measure_set_up(bench, workload)
    inp = bench.existing(bench.wl.n, "input")
    # the first full-size operation runs under tracemalloc, untimed; its
    # output is the reference the timed operations must reproduce
    peak = []

    def traced_memory(argv):
        tracemalloc.start()
        try:
            return cli.main(argv)
        finally:
            peak.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    bench.operation(inp, traced_memory)
    times = repeat(lambda: bench.operation(inp), seconds, MIN_TIMED_OPS)
    metrics = {
        "segment_s": statistics.median(times),
        "peak_mem_mb": peak[0] / 1e6,
        "setup_s": statistics.median(sum(p.values()) for p in parts),
    }
    detail = {"setup": parts, "timed_ops": len(times), "segment_s_each": times,
              "quality": bench.quality(inp)}
    return metrics, detail


def run_traced(bench: Bench, seconds: float) -> tuple[dict, dict]:
    from kcpd import cli

    inp = bench.generate(bench.wl.n, "input")
    bench.operation(inp)  # untimed: the reference output, and a full-size warm-up
    plain = repeat(lambda: bench.operation(inp), seconds / 2, MIN_TRACE_OPS)

    tracer = spans.Tracer()
    root = tracer.span(spans.ROOT_SPAN, cli.main)

    def traced_op():
        tracer.reset()
        tracer.recording = True
        try:
            bench.operation(inp, root)
        finally:
            tracer.recording = False
        return spans.operation_metrics(tracer)

    spans.install(tracer)
    try:
        per_op = repeat(traced_op, seconds / 2, MIN_TRACE_OPS)
    finally:
        tracer.uninstall()

    metrics = {name: statistics.median(op[name] for op in per_op) for name, _ in spans.LAYER_METRICS}
    # counts must repeat exactly; report the first operation's
    unsteady = [c for c in spans.COUNT_METRICS if len({op[c] for op in per_op}) != 1]
    metrics.update({c: per_op[0][c] for c in spans.COUNT_METRICS})
    for name in unsteady:
        print(f"perfbench: warning: count {name} differs between operations", file=sys.stderr)
    metrics["trace.overhead_frac"] = metrics["trace.segment_s"] / statistics.median(plain) - 1.0
    metrics.update(bench.quality(inp))
    metrics["cli.error_rate"] = bench.failed / bench.attempted
    detail = {"untraced_segment_s_each": plain, "per_op": per_op,
              "absent_layers": tracer.absent, "unsteady_counts": unsteady}
    return metrics, detail


# ---------------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description="kcpd segment benchmark (CSV to JSON)")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="length of the timed window")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0,
                    help="0: end-to-end metrics; 1: per-layer metrics from a traced run")
    ap.add_argument("--record", default=None, help="also write everything measured to this JSON file")
    ap.add_argument("--setup-only", default=None, metavar="DIR",
                    help="internal: one cold set-up into DIR, for setup_s")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        return set_up_child(args)
    try:
        load_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    env = environment(args.workload, args.seed, args.trace)
    print("perfbench: environment " + json.dumps(env), file=sys.stderr)

    wl = WORKLOADS[args.workload]
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    bench = Bench(wl, work, args.seed)
    try:
        if args.trace:
            metrics, detail = run_traced(bench, args.seconds)
        else:
            metrics, detail = run_untraced(bench, args.seconds, args.workload)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it

    units = dict(PER_LAYER if args.trace else END_TO_END)
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    for name, unit in units.items():
        print(f"perfbench: {args.workload:15s} {name:34s} {metrics[name]:>16.6g} {unit}", file=sys.stderr)
    print(f"perfbench: {bench.attempted} operations, {bench.failed} failed", file=sys.stderr)
    if args.record:
        record = {"environment": env, "workload": {"name": args.workload, **asdict(wl)},
                  "seconds": args.seconds, "result": result, "failures": bench.failures,
                  "wall_s": time.perf_counter() - _T_START, **detail}
        Path(args.record).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
