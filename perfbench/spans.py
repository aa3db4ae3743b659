"""Layer spans for the traced benchmark run.

The tracer wraps public functions at kcpd's layer boundaries from outside
the package: module attributes that kcpd looks up at call time, and
methods of the kernel classes. Nothing is patched until ``install`` runs,
and ``uninstall`` puts every original back. A boundary whose name no
longer exists is reported as absent with a warning, so a refactor that
renames a function costs that layer's numbers, not the whole run.

A span is (name, start, end, parent index); spans of one operation live in
memory until ``operation_metrics`` folds them into per-layer totals. A
span opened while another span of the same name is open is not recorded
(a sum kernel's children, for instance), so nested calls are counted once.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

ROOT_SPAN = "cli.segment"


def _warn(msg: str) -> None:
    print(f"perfbench: warning: {msg}", file=sys.stderr)


class Tracer:
    """In-memory span recorder; records only while ``recording`` is set."""

    def __init__(self):
        self.recording = False
        self.spans: list = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._open: set[str] = set()
        self._undo: list = []

    def reset(self) -> None:
        self.spans = []
        self.counts = defaultdict(int)

    def span(self, name, fn, count=None):
        """Wrap ``fn`` so each outermost call records a span ``name``.

        ``count(bound_arguments, result)`` may return (counter, increment)
        pairs, recorded at the same boundary. If it fails, for instance
        because a refactor renamed a parameter, the counter is dropped with
        one warning and the span keeps recording.
        """
        sig = None
        if count is not None:
            try:
                sig = inspect.signature(fn)
            except (TypeError, ValueError) as exc:
                _warn(f"counter at {name} dropped: {exc!r}")
                count = None
        state = {"count": count}

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording or name in self._open:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(idx)
            self._open.add(name)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self._open.discard(name)
                self.spans[idx] = (name, start, end, parent)
            counter = state["count"]
            if counter is not None:
                try:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    for key, inc in counter(bound.arguments, result):
                        self.counts[key] += inc
                except (KeyError, TypeError, AttributeError, ValueError) as exc:
                    _warn(f"counter at {name} dropped: {exc!r}")
                    state["count"] = None
            return result

        return wrapper

    # -- patching -----------------------------------------------------------

    def _patch(self, owner, attr, make) -> None:
        # a class attribute is read from the class itself, so an inherited
        # method is wrapped once, where it is defined
        original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._undo.append((owner, attr, original))

    def wrap_attribute(self, name, module, path, count=None) -> None:
        """Wrap ``module.path`` (``path`` may be ``Class.method``)."""
        owner_path, _, attr = path.rpartition(".")
        owner = _lookup(module, owner_path)
        if owner is None or not _has_own(owner, attr):
            self._mark_absent(name, f"{module}.{path}")
            return
        self._patch(owner, attr, lambda fn: self.span(name, fn, count))

    def wrap_method_everywhere(self, name, module, base, method, make) -> None:
        """Replace ``method`` on ``base`` and on every kcpd subclass that
        defines its own, with ``make(original)``."""
        root = _lookup(module, base)
        classes = [c for c in _class_tree(root) if method in vars(c)] if root else []
        if not classes:
            self._mark_absent(name, f"{module}.{base}.{method}")
            return
        for cls in classes:
            self._patch(cls, method, make)

    def _mark_absent(self, name, target) -> None:
        _warn(f"layer {name} absent: {target} not found; its metrics read 0")
        self.absent.append(name)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _lookup(module, path):
    """The object at dotted ``path`` inside ``module``, or None."""
    try:
        obj = importlib.import_module(module)
    except ImportError:
        return None
    for part in filter(None, path.split(".")):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


def _has_own(owner, attr) -> bool:
    return attr in vars(owner) if isinstance(owner, type) else hasattr(owner, attr)


def _class_tree(root) -> list:
    out, todo = [], [root]
    while todo:
        cls = todo.pop()
        if cls.__module__.startswith("kcpd"):
            out.append(cls)
        todo.extend(cls.__subclasses__())
    return out


class _ModuleView:
    """Stand-in for a module with some attributes replaced."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


# ---------------------------------------------------------------------------
# counters, each computed from the arguments or result at one boundary


def _dp_cells(args, result):
    # cells the DP minimisation scans at column e: rows 2..d_hi, starts
    # s in [ell, e - ell]; computed from the arguments, not measured
    e, ell, dmax = args["e"], args["ell"], args["dmax"]
    d_hi = min(e // ell, dmax)
    width = e - 2 * ell + 1
    cells = (d_hi - 1) * width if (e >= ell and d_hi >= 2 and width > 0) else 0
    return [("dp_core.dp_cells", cells)]


def _split_rows(args, result):
    ell = args["ell"]
    rows = max(0, (args["end"] - ell + 1) - (args["start"] + ell))
    return [("lowrank.best_split_calls", 1), ("lowrank.split_rows_scanned", rows)]


def _table_bytes(args, result):
    return [("exact_dp.table_bytes", int(result.table_numbers * 8))]


def install(tracer: Tracer) -> None:
    """Patch every layer boundary of ``kcpd segment``."""
    t = tracer
    t.wrap_attribute("cli.load_csv", "kcpd.cli", "load_csv")
    t.wrap_attribute("kernels.mad_scale", "kcpd.cli", "mad_scale")
    t.wrap_attribute("exact_dp.kernseg_exact", "kcpd.cli", "kernseg_exact", _table_bytes)
    t.wrap_attribute("exact_dp.backtrack", "kcpd.exact_dp", "DPResult.backtrack")
    t.wrap_attribute("dp_core.column_step", "kcpd._dp_core", "column_step", _dp_cells)
    t.wrap_attribute("lowrank.nystrom_embed", "kcpd.cli", "nystrom_embed")
    t.wrap_attribute("lowrank.binary_segmentation", "kcpd.cli", "binary_segmentation")
    t.wrap_attribute("lowrank.best_split", "kcpd.lowrank", "best_split", _split_rows)
    t.wrap_attribute("model_selection.slope_heuristic", "kcpd.cli", "slope_heuristic")
    t.wrap_attribute("model_selection.select", "kcpd.cli", "select")

    t.wrap_method_everywhere("kernels.gram", "kcpd.kernels", "KernelSpec", "gram",
                             lambda fn: t.span("kernels.gram", fn))

    def column_calls(args, result):
        return [("kernels.prefix_column_calls", 1)]

    def prefix_fn(original):
        # the kernel column is the closure prefix_column_fn returns, called
        # once per right boundary by the exact sweep
        @functools.wraps(original)
        def make(self, *args, **kwargs):
            return t.span("kernels.prefix_column", original(self, *args, **kwargs), column_calls)
        return make

    t.wrap_method_everywhere("kernels.prefix_column", "kcpd.kernels", "KernelSpec",
                             "prefix_column_fn", prefix_fn)

    cli = importlib.import_module("kcpd.cli")
    json_mod = getattr(cli, "json", None)
    if json_mod is None or not hasattr(json_mod, "dumps"):
        t._mark_absent("cli.json_dumps", "kcpd.cli.json.dumps")
    else:
        t._patch(cli, "json",
                 lambda mod: _ModuleView(mod, dumps=t.span("cli.json_dumps", mod.dumps)))


# ---------------------------------------------------------------------------
# folding one operation's spans into per-layer numbers

# (metric, unit); times are seconds per operation, counts per operation
LAYER_METRICS = [
    ("cli.load_csv_s", "s"),
    ("kernels.mad_scale_s", "s"),
    ("kernels.prefix_column_s", "s"),
    ("kernels.prefix_column_calls", "count"),
    ("dp_core.column_step_s", "s"),
    ("dp_core.dp_cells", "count"),
    ("dp_core.ns_per_cell", "ns"),
    ("exact_dp.kernseg_exact_s", "s"),
    ("exact_dp.sweep_self_s", "s"),
    ("exact_dp.backtrack_s", "s"),
    ("exact_dp.table_bytes", "bytes"),
    ("lowrank.nystrom_embed_s", "s"),
    ("lowrank.embed_self_s", "s"),
    ("kernels.gram_s", "s"),
    ("lowrank.binary_segmentation_s", "s"),
    ("lowrank.best_split_s", "s"),
    ("lowrank.best_split_calls", "count"),
    ("lowrank.split_rows_scanned", "count"),
    ("lowrank.heap_self_s", "s"),
    ("model_selection.slope_heuristic_s", "s"),
    ("model_selection.select_s", "s"),
    ("cli.json_dumps_s", "s"),
    ("cli.self_s", "s"),
    ("trace.segment_s", "s"),
]

# counted at a boundary, so they must repeat exactly for one input
COUNT_METRICS = [m for m, unit in LAYER_METRICS if unit in ("count", "bytes")]

# span whose self time (span minus child spans) a metric reports; every
# other "_s" metric is the total time of the span named by its stem
_SELF_TIMES = {
    "exact_dp.sweep_self_s": "exact_dp.kernseg_exact",
    "lowrank.embed_self_s": "lowrank.nystrom_embed",
    "lowrank.heap_self_s": "lowrank.binary_segmentation",
    "cli.self_s": ROOT_SPAN,
}
_TOTAL_OF = {"trace.segment_s": ROOT_SPAN}


def operation_metrics(tracer: Tracer) -> dict:
    """Per-layer numbers for the operation whose spans the tracer holds."""
    total: defaultdict[str, float] = defaultdict(float)
    child: defaultdict[int, float] = defaultdict(float)
    for name, start, end, parent in tracer.spans:
        total[name] += end - start
        if parent >= 0:
            child[parent] += end - start
    own: defaultdict[str, float] = defaultdict(float)
    for idx, (name, start, end, _) in enumerate(tracer.spans):
        own[name] += (end - start) - child[idx]

    out = {}
    for metric, unit in LAYER_METRICS:
        if metric in _SELF_TIMES:
            out[metric] = own[_SELF_TIMES[metric]]
        elif unit == "s":
            out[metric] = total[_TOTAL_OF.get(metric, metric[: -len("_s")])]
        else:
            out[metric] = tracer.counts.get(metric, 0)
    cells = out["dp_core.dp_cells"]
    out["dp_core.ns_per_cell"] = out["dp_core.column_step_s"] / cells * 1e9 if cells else 0.0
    return out
