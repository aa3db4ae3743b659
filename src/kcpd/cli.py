"""Command-line interface: CSV in, JSON out, plus a benchmark harness.

Exit codes: 0 on success, 2 for unreadable, undecodable, malformed or
too-short input, an unwritable output path, one file named for two outputs
or a malformed flag value, 3 for an infeasible configuration. Reported
change points are 1-based segment starts. Timing fields live under a
separate "timing" key so that two runs with the same configuration and
input produce byte-identical JSON once that key is dropped.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
import warnings
from typing import Callable

import numpy as np

from . import __version__
from .exact_dp import Segmentation, check_feasible, kernseg_exact, kernseg_table_bytes
from .kernels import (
    EnergyKernel,
    ExponentialKernel,
    GaussianKernel,
    KernelSpec,
    LaplaceKernel,
    LinearKernel,
    Signal,
    SumKernel,
    mad_scale,
)
from .lowrank import LANDMARKS, binary_segmentation, embedding_table_bytes, nystrom_embed
from .model_selection import PenaltySpec, check_slope_dmax, select, slope_heuristic
from .simulate import FoldedPiece, NormalPiece, equally_spaced_changes, generate

__all__ = ["main", "run_segment", "run_bench", "load_csv", "save_csv"]

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3

# change points in the benchmark signal, which so needs one point more than that
_BENCH_CHANGES = 9


class InputError(Exception):
    pass


# ---------------------------------------------------------------------------
# CSV handling


# ASCII controls where str.splitlines ends a line ("\v", "\f", "\x1c"-"\x1e")
# or that np.loadtxt strips from a field and float() keeps ("\x1c"-"\x1f");
# text mode has already read "\r" and "\r\n" as "\n"
_SPLIT_OR_STRIP = "\x0b\x0c\x1c\x1d\x1e\x1f"


def _header_rows(line: str) -> int:
    """1 if the first line is a header, that is not all numbers, else 0."""
    try:
        [float(v) for v in line.split(",")]
    except ValueError:
        return 1
    return 0


def load_csv(path: str) -> Signal:
    """Read a signal: one row per time point, comma-separated, optional header.

    np.loadtxt parses an ASCII body at array speed. Other text, characters
    the two parsers split or strip differently, and input np.loadtxt
    refuses go to the line-wise parser, which decides what is accepted
    and words every error.
    """
    try:
        # utf-8-sig: a byte-order mark would otherwise make row 1 a header
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc}") from exc
    arr = None
    if text.isascii() and not any(c in text for c in _SPLIT_OR_STRIP):
        # comments=None: "#2" is a bad row, not a comment; an empty body
        # warns and is left to the line-wise parser's message. An open file,
        # not the path, keeps np.loadtxt from importing its archive readers
        try:
            with warnings.catch_warnings(), open(path, "r", encoding="utf-8-sig") as fh:
                warnings.simplefilter("ignore")
                arr = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None,
                                 skiprows=_header_rows(text.partition("\n")[0]))
        except (OSError, ValueError):
            pass  # the line-wise parser decides, and words the error
    if arr is None or arr.size == 0:
        arr = _parse_lines(path, text.splitlines())
    if not np.isfinite(arr).all():
        raise InputError(f"{path}: non-finite values in input")
    return Signal(arr)


def _parse_lines(path: str, lines: list[str]) -> np.ndarray:
    """The line-wise parser: skips blank lines and names the line of an error."""
    rows = []
    start = _header_rows(lines[0]) if lines else 0
    for lineno, line in enumerate(lines[start:], start=start + 1):
        if not line.strip():
            continue
        try:
            row = [float(v) for v in line.split(",")]
        except ValueError as exc:
            raise InputError(f"{path}: line {lineno}: {exc}") from exc
        rows.append((lineno, row))
    if not rows:
        raise InputError(f"{path}: no data rows")
    width = len(rows[0][1])
    for lineno, row in rows:
        if len(row) != width:
            raise InputError(f"{path}: line {lineno}: expected {width} columns, got {len(row)}")
    return np.asarray([row for _, row in rows], dtype=np.float64)


# rows per write in save_csv: a block's floats and text take a few hundred
# KB at q = 1, so the writer's memory does not grow with n
_CSV_ROWS = 4096


def save_csv(signal: Signal, path: str) -> None:
    """Write one row per time point, each value in its shortest round-trip repr.

    The rows go out in blocks of _CSV_ROWS: one ``tolist``, one ``%r`` format
    string and one write per block.
    """
    row = ",".join(["%r"] * signal.q) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        for a in range(0, signal.n, _CSV_ROWS):
            block = signal.data[a:a + _CSV_ROWS]
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


# ---------------------------------------------------------------------------
# kernel construction


# --kernel name -> class; a class's fields name the flags it reads and its
# JSON keys. The sum is built per coordinate from its --sum-child family.
_FAMILIES = {
    "linear": LinearKernel,
    "gaussian": GaussianKernel,
    "laplace": LaplaceKernel,
    "exponential": ExponentialKernel,
    "energy": EnergyKernel,
    "sum": SumKernel,
}


def build_kernel(family: str, delta: float, alpha: float, x0) -> KernelSpec:
    """The kernel of a family other than sum, from the flags its fields name."""
    cls, args = _FAMILIES[family], {"delta": delta, "alpha": alpha, "x0": x0}
    return cls(**{f.name: args[f.name] for f in dataclasses.fields(cls)})


def _kernel_doc(spec: KernelSpec) -> dict:
    if isinstance(spec, SumKernel):
        return {"family": "sum",
                "children": [{"coordinates": list(idxs), **_kernel_doc(s)} for idxs, s in spec.children]}
    for family, cls in _FAMILIES.items():
        if isinstance(spec, cls):
            return {"family": family, **{f.name: getattr(spec, f.name) for f in dataclasses.fields(cls)}}
    return {"family": spec.__class__.__name__}


# ---------------------------------------------------------------------------
# engines and the segment subcommand


@dataclasses.dataclass(frozen=True)
class Solved:
    """What :func:`_solve` returns for either engine."""

    losses: np.ndarray
    segmentation: Callable[[int], Segmentation]
    diagnostics: dict


def _solve(signal: Signal, spec: KernelSpec, algorithm: str, dmax: int, ell: int,
           landmarks: int | None, rule: str | None) -> Solved:
    """Run one engine on an already scaled signal.

    ``landmarks`` None means the fast path's default count, LANDMARKS. The
    record's ``segmentation(d)`` backtracks on demand, so timing the engine
    never does. Its ``diagnostics``, the mapping the JSON prints, holds
    ``peak_table_bytes``, ``dp_cells_scanned`` (None on the low-rank path)
    and ``lowrank`` (None on the exact path), in that order.
    """
    if algorithm == "exact":
        res = kernseg_exact(signal, spec, dmax, ell)
        return Solved(res.losses(), res.backtrack, {"peak_table_bytes": int(res.table_numbers * 8),
                                                    "dp_cells_scanned": res.cells_scanned,
                                                    "lowrank": None})
    if algorithm == "lowrank-binseg":
        p = LANDMARKS if landmarks is None else landmarks
        emb = nystrom_embed(signal, spec, p=min(p, signal.n), rule=rule)
        bres = binary_segmentation(emb, dmax, ell)
        doc = {"rank": emb.rank, "dropped": emb.dropped, "rule": emb.rule, "exhausted": bres.exhausted}
        return Solved(bres.losses, lambda d: bres.segmentations[d - 1],
                      {"peak_table_bytes": embedding_table_bytes(signal.n, emb.rank),
                       "dp_cells_scanned": None, "lowrank": doc})
    raise ValueError(f"unknown algorithm {algorithm!r}")


def run_segment(
    signal: Signal,
    spec: KernelSpec,
    algorithm: str = "exact",
    dmax: int = 100,
    ell: int = 1,
    scale: bool = True,
    landmarks: int | None = None,
    landmark_rule: str | None = None,
    c1: float | None = None,
    c2: float | None = None,
) -> dict:
    """Segment a signal end to end and return the JSON-ready document."""
    t0 = time.perf_counter()
    scaled, sigma = _prepare(signal, dmax, ell, scale, c1, c2)
    return _segment(scaled, sigma, spec, t0, algorithm=algorithm, dmax=dmax, ell=ell, scale=scale,
                    landmarks=landmarks, landmark_rule=landmark_rule, c1=c1, c2=c2)


def _prepare(signal: Signal, dmax: int, ell: int, scale: bool,
             c1: float | None, c2: float | None) -> tuple[Signal, np.ndarray]:
    """Check the run's settings against the signal, then scale it.

    Returns (scaled, sigma): a scaled copy and the factors, or with
    ``scale`` off the signal itself and ones."""
    if (c1 is None) != (c2 is None):
        raise InputError("--c1 and --c2 must be given together, or neither for the slope fit")
    for flag, value in (("--c1", c1), ("--c2", c2)):
        if value is not None and not 0 <= value < math.inf:
            raise InputError(f"{flag} must be a finite nonnegative number, got {value!r}")
    try:
        check_feasible(signal.n, dmax, ell)
    except ValueError as exc:
        # only a signal too short for Dmax and the floor has this remedy
        hint = "; lower --dmax or --min-seg-len" if str(exc).startswith("infeasible:") else ""
        raise ValueError(f"{exc}{hint}") from exc
    if c1 is None:
        # the slope fit's own refusal, before the engine runs for nothing
        check_slope_dmax(dmax)
    if not scale:
        return signal, np.ones(signal.q)
    try:
        return mad_scale(signal)
    except ValueError as exc:
        raise InputError(f"{exc}; --no-scale skips the scaling") from exc


def _segment(scaled: Signal, sigma: np.ndarray, spec: KernelSpec, t0: float, *, algorithm: str,
             dmax: int, ell: int, scale: bool, landmarks: int | None, landmark_rule: str | None,
             c1: float | None, c2: float | None) -> dict:
    """The document of one run on what :func:`_prepare` returned, timed
    from ``t0``; the other arguments are :func:`run_segment`'s."""
    n = scaled.n
    sol = _solve(scaled, spec, algorithm, dmax, ell, landmarks, landmark_rule)
    segmentations = [sol.segmentation(d) for d in range(1, dmax + 1)]

    fit = None
    if c1 is None:
        fit = slope_heuristic(sol.losses, n, ell)
        pen = PenaltySpec(fit.c1, fit.c2, n, dmax, ell)
    else:
        pen = PenaltySpec(c1, c2, n, dmax, ell)
    sel = select(sol.losses, pen)
    wall = time.perf_counter() - t0

    doc = {
        "version": __version__,
        "n": n,
        "q": scaled.q,
        "kernel": _kernel_doc(spec),
        "algorithm": algorithm,
        "dmax": dmax,
        "min_seg_len": ell,
        "scaling": {
            "applied": bool(scale),
            "factors": [float(v) for v in sigma],
            "flagged_coordinates": [c for c, v in enumerate(sigma) if v == 0.0],
        },
        "per_d": [
            {
                "d": d,
                "loss": float(sol.losses[d - 1]),
                "change_points": list(segmentations[d - 1].starts),
            }
            for d in range(1, dmax + 1)
        ],
        "selection": {
            "d_hat": sel.d_hat,
            "change_points": list(segmentations[sel.d_hat - 1].starts),
            "c1": sel.c1,
            "c2": sel.c2,
            "method": "slope-heuristic" if fit is not None else "fixed",
            "approximate_losses_warning": sol.diagnostics["lowrank"] is not None,
        },
        "diagnostics": sol.diagnostics,
        "timing": {"wall_seconds": wall},
    }
    return doc


# ---------------------------------------------------------------------------
# bench subcommand


def _bench_signal(n: int, seed: int) -> Signal:
    changes = equally_spaced_changes(n, _BENCH_CHANGES)
    specs = [[NormalPiece(float(k % 4), 1.0)] for k in range(_BENCH_CHANGES + 1)]
    return generate(n, changes, specs, seed=seed).signal


def run_bench(
    grid: list[int],
    algorithms: list[str],
    p: int = LANDMARKS,
    p_rule: str = "fixed",
    dmax: int = 100,
    ell: int = 1,
    seed: int = 0,
    memory_budget_bytes: int = 2_000_000_000,
) -> list[dict]:
    """Time one segmentation per (algorithm, n) cell on seeded data.

    Timing covers the algorithm only, never input parsing or generation.
    Cells whose main tables would exceed the memory budget are skipped.
    """
    if sorted(grid) != list(grid):
        raise ValueError("benchmark grid must be sorted ascending")
    if p_rule not in ("fixed", "sqrt"):
        raise ValueError(f"unknown landmark count rule {p_rule!r}")
    if grid and grid[0] <= _BENCH_CHANGES:
        raise ValueError(f"benchmark grid length {grid[0]} is too short: the benchmark signal "
                              f"has {_BENCH_CHANGES} changes, so each length must be at least "
                              f"{_BENCH_CHANGES + 1}")
    spec = GaussianKernel(1.0)
    # untimed warm-up so first-call and cache effects stay out of the
    # measured cells; 16 * ell points fit min(dmax, 16) segments of length ell,
    # and an unknown algorithm fails here, before any cell is estimated
    warm = _bench_signal(max(256, 16 * ell), seed)
    for algo in algorithms:
        _solve(warm, spec, algo, min(dmax, 16), ell, 16, None)
    rows = []
    for n in grid:
        sig = _bench_signal(n, seed)
        for algo in algorithms:
            d_eff = min(dmax, max(1, n // ell))  # n < ell fails on the length floor
            if algo == "exact":
                p_used = 0
                est = kernseg_table_bytes(n, d_eff, spec.psd)
            else:
                p_used = int(round(math.sqrt(n))) if p_rule == "sqrt" else p
                p_used = min(p_used, n)
                est = embedding_table_bytes(n, p_used)
            if est > memory_budget_bytes:
                print(f"skipping {algo} at n={n}: estimated {est} table bytes over budget", file=sys.stderr)
                continue
            t0 = time.perf_counter()
            bytes_used = _solve(sig, spec, algo, d_eff, ell, p_used, None).diagnostics["peak_table_bytes"]
            seconds = time.perf_counter() - t0
            rows.append({"algorithm": algo, "n": n, "p": p_used, "seconds": seconds,
                         "peak_table_bytes": bytes_used})
    return rows


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _comma_list(convert):
    """argparse type for a comma-separated list; blank items are skipped."""
    def comma_separated(text: str) -> list:
        return [convert(v.strip()) for v in text.split(",") if v.strip()]
    return comma_separated


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="kcpd", description="Kernel multiple change-point detection")
    sub = ap.add_subparsers(dest="command", required=True)

    seg = sub.add_parser("segment", help="segment a CSV signal")
    seg.add_argument("--input", required=True)
    seg.add_argument("--output", default=None, help="output JSON path (default: stdout)")
    seg.add_argument("--kernel", default="gaussian", choices=list(_FAMILIES))
    seg.add_argument("--delta", type=float, default=1.0, help="bandwidth")
    seg.add_argument("--alpha", type=float, default=1.0, help="energy exponent in (0, 2)")
    seg.add_argument("--x0", type=_comma_list(float), default=None,
                     help="energy anchor, comma-separated floats")
    seg.add_argument("--sum-child", default="gaussian",
                     choices=[f for f in _FAMILIES if f != "sum"],
                     help="per-coordinate family for --kernel sum")
    seg.add_argument("--algorithm", default="exact", choices=["exact", "lowrank-binseg"])
    seg.add_argument("--dmax", type=int, default=100)
    seg.add_argument("--min-seg-len", type=int, default=1,
                     help="minimum points per segment (30 mirrors a common default)")
    seg.add_argument("--landmarks", type=int, default=None,
                     help=f"landmark count for the fast path (default {LANDMARKS})")
    seg.add_argument("--landmark-rule", default=None, choices=["grid", "stride"])
    seg.add_argument("--no-scale", action="store_true", help="skip robust per-coordinate scaling")
    seg.add_argument("--c1", type=float, default=None)
    seg.add_argument("--c2", type=float, default=None)

    sim = sub.add_parser("simulate", help="generate a synthetic signal CSV")
    sim.add_argument("--output", required=True)
    sim.add_argument("--truth", default=None, help="optional JSON sidecar with the ground truth")
    sim.add_argument("--n", type=int, default=5000)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--num-changes", type=int, default=10)
    sim.add_argument("--jump", type=float, default=5.0, help="mean step between segments")
    sim.add_argument("--noise-sd", type=float, default=1.0)
    sim.add_argument("--kind", default="mean", choices=["mean", "variance", "folded"])
    sim.add_argument("--tracks", type=int, default=1, choices=[1, 2],
                     help="2 adds a folded second coordinate")

    ben = sub.add_parser("bench", help="runtime scaling harness")
    ben.add_argument("--grid", type=_comma_list(int), required=True,
                     help="comma-separated signal lengths, ascending")
    ben.add_argument("--algorithms", type=_comma_list(str), default="exact,lowrank-binseg")
    ben.add_argument("--landmarks", type=int, default=LANDMARKS)
    ben.add_argument("--p-rule", default="fixed", choices=["fixed", "sqrt"])
    ben.add_argument("--dmax", type=int, default=100)
    ben.add_argument("--min-seg-len", type=int, default=1)
    ben.add_argument("--seed", type=int, default=0)
    ben.add_argument("--memory-budget", type=int, default=2_000_000_000)
    ben.add_argument("--output", default=None, help="output CSV path (default: stdout)")
    return ap


def _emit(text: str, path: str | None) -> None:
    """Write text and a newline to path, or print it when no path is given."""
    if not path:
        print(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _check_writable(*paths: str | None) -> None:
    """Raise OSError now, before any work, for a given path that cannot be written."""
    for path in filter(None, paths):
        folder = os.path.dirname(os.path.abspath(path))
        if os.path.isdir(path) or not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
            raise OSError(f"cannot write {path}: not a file path in a writable directory")


def _check_flags(*checks) -> None:
    """Raise InputError for the first (flag, value, ok, wanted) check that fails."""
    for flag, value, ok, want in checks:
        if not ok:
            raise InputError(f"{flag} must be {want}, got {value!r}")


def _cmd_segment(args) -> int:
    # the selected family, or the sum's child family, checks the flags it
    # reads; a sum's energy children take no anchor, so only --kernel energy
    # reads --x0
    family = args.sum_child if args.kernel == "sum" else args.kernel
    try:
        spec = build_kernel(family, args.delta, args.alpha, args.x0 if args.kernel == "energy" else None)
    except ValueError as exc:
        raise InputError(f"--{exc}") from exc
    _check_flags(("--landmarks", args.landmarks, args.landmarks is None or args.landmarks >= 1, "at least 1"))
    signal = load_csv(args.input)
    if args.kernel == "sum":
        spec = SumKernel.per_coordinate([spec] * signal.q)
    if args.algorithm == "exact" and (args.landmarks is not None or args.landmark_rule is not None):
        print("note: landmark options are ignored on the exact path", file=sys.stderr)
    # run_segment's steps, with the input dropped once scaled: the sweep
    # reads only the scaled copy
    t0 = time.perf_counter()
    scale, ell = not args.no_scale, args.min_seg_len
    scaled, sigma = _prepare(signal, args.dmax, ell, scale, args.c1, args.c2)
    del signal
    doc = _segment(scaled, sigma, spec, t0, algorithm=args.algorithm, dmax=args.dmax, ell=ell,
                   scale=scale, landmarks=args.landmarks, landmark_rule=args.landmark_rule,
                   c1=args.c1, c2=args.c2)
    _emit(json.dumps(doc, indent=2), args.output)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    if args.truth and os.path.realpath(args.truth) == os.path.realpath(args.output):
        raise InputError(f"--output and --truth name the same file, {args.output}")
    _check_flags(
        ("--n", args.n, args.n >= 1, "a positive integer"),
        ("--seed", args.seed, args.seed >= 0, "a nonnegative integer"),
        ("--num-changes", args.num_changes, args.num_changes >= 0, "a nonnegative integer"),
        ("--jump", args.jump, math.isfinite(args.jump), "a finite number"),
        ("--noise-sd", args.noise_sd, 0 <= args.noise_sd < math.inf, "a finite nonnegative number"),
    )
    if args.n < args.num_changes + 1:
        raise ValueError(f"cannot place {args.num_changes} changes in {args.n} points")
    changes = equally_spaced_changes(args.n, args.num_changes)
    d = args.num_changes + 1
    rows = []
    for k in range(d):
        if args.kind == "mean":
            first = NormalPiece(args.jump * (k % 2), args.noise_sd)
        elif args.kind == "variance":
            first = NormalPiece(0.0, args.noise_sd * (3.0 if k % 2 else 1.0))
        else:
            first = FoldedPiece(0.5 + 0.2 * (k % 2), 0.1 * args.noise_sd)
        row = [first]
        if args.tracks == 2:
            row.append(FoldedPiece(0.5 + 0.15 * (k % 2), 0.1 * args.noise_sd))
        rows.append(row)
    out = generate(args.n, changes, rows, seed=args.seed)
    save_csv(out.signal, args.output)
    if args.truth:
        truth_doc = {
            "n": args.n,
            "seed": args.seed,
            "change_points": list(out.truth.starts),
            "means": [[float(v) for v in r] for r in out.means[[s - 1 for s in out.truth.starts]]],
        }
        _emit(json.dumps(truth_doc, indent=2), args.truth)
    return EXIT_OK


def _cmd_bench(args) -> int:
    _check_flags(
        ("--grid", args.grid, len(args.grid) > 0, "one or more signal lengths"),
        ("--algorithms", args.algorithms, len(args.algorithms) > 0, "one or more algorithm names"),
        ("--landmarks", args.landmarks, args.landmarks >= 1, "at least 1"),
        ("--seed", args.seed, args.seed >= 0, "a nonnegative integer"),
        ("--memory-budget", args.memory_budget, args.memory_budget >= 0, "a nonnegative integer"),
    )
    rows = run_bench(args.grid, args.algorithms, p=args.landmarks, p_rule=args.p_rule, dmax=args.dmax,
                     ell=args.min_seg_len, seed=args.seed, memory_budget_bytes=args.memory_budget)
    lines = ["algorithm,n,p,seconds,peak_table_bytes"]
    for r in rows:
        lines.append(f"{r['algorithm']},{r['n']},{r['p']},{r['seconds']:.6f},{r['peak_table_bytes']}")
    _emit("\n".join(lines), args.output)
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_writable(args.output, getattr(args, "truth", None))
        if args.command == "segment":
            return _cmd_segment(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        return _cmd_bench(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
