"""Per-layer tracing from outside the package.

The tracer replaces public functions of the hahnsat modules with wrappers:
every module attribute that is the original function object is swapped, so
calls through aliases (`from .series import add as series_add`) are seen
too.  Stage functions record spans (name, start, end, parent span, item);
hot kernels only aggregate call counts and busy time, because a span per
call would cost more than the call.  `restore` puts every original back and
`assert_restored` proves that no wrapper is left.  `layer_values` gives
every value the tracer can record, zero where nothing was called; the run
reports those named in BENCHMARK.json's per_layer list.
"""

import functools
import re
import sys
from collections import Counter
from time import perf_counter

# (module, function, metric name): one span per call
STAGES = (
    ("engine", "realize_type", "engine.realize_type"),
    ("engine", "complete_type", "engine.complete_type"),
    ("engine", "classify_cut", "engine.classify_cut"),
    ("engine", "realize_cut_group", "engine.realize_cut"),
    ("engine", "realize_cut_field", "engine.realize_cut"),
    ("trees", "find_path_bounded", "trees.find_path_bounded"),
    ("valbasis", "valuation_basis", "valbasis.valuation_basis"),
    ("formulas", "doag_qe", "formulas.doag_qe"),
    ("formulas", "satisfiable", "formulas.satisfiable"),
    ("cli", "main", "cli.main"),
    ("cli", "load_type_file", "cli.load_type_file"),
)

# (module, function, metric name): aggregated count and outermost busy time
KERNELS = (
    ("series", "add", "series.add"),
    ("series", "subtract", "series.subtract"),
    ("series", "scale", "series.scale"),
    ("series", "compare_series", "series.compare_series"),
    ("formulas", "cut_bounds", "formulas.cut_bounds"),
    ("formulas", "eval_formula", "formulas.eval_formula"),
    ("formulas", "enumerate_formulas", "formulas.enumerate_formulas"),
    ("scalars", "real_algebraic", "scalars.real_algebraic"),
    ("scalars", "isolate_real_roots", "scalars.isolate_real_roots"),
    ("valbasis", "represent", "valbasis.represent"),
)

_REPORT_COUNTS = (
    ("engine.oracle.queries", re.compile(r"^oracle queries: (\d+)$", re.M)),
    ("engine.interval_states", re.compile(r"^interval states: (\d+)$", re.M)),
    ("engine.free_decisions", re.compile(r"^free decisions: (\d+)$", re.M)),
)

# counters kept beside the spans and kernels
_COUNTS = ("engine.oracle.side_calls", "engine.oracle.memo_hits",
           "trees.nodes_evaluated", "trees.path_depth", "series.constructed",
           *(name for name, _ in _REPORT_COUNTS))

_MARK = "__bench_wrapper__"


def _hahnsat_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "hahnsat"
                                  or name.startswith("hahnsat."))]


def _marked(fn):
    setattr(fn, _MARK, True)
    return fn


class Tracer:
    """Spans and counters of traced runs: install before each, restore
    after; `item` tags new spans."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, item]
        self.stack = []  # indices of open spans
        self.calls = Counter()
        self.busy = Counter()
        self.counts = Counter()
        self.item = None
        self._patches = []  # (owner, attribute, original, wrapper)

    # -- wrappers ---------------------------------------------------------

    def _open(self, name):
        self.spans.append([name, perf_counter(), None,
                           self.stack[-1] if self.stack else None,
                           self.item])
        self.stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self.stack.pop()][2] = perf_counter()

    def _span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close()
        return _marked(wrapper)

    def _kernel(self, name, fn):
        active = [False]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            if active[0]:  # busy time belongs to the outermost call
                return fn(*args, **kwargs)
            active[0] = True
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.busy[name] += perf_counter() - t0
                active[0] = False
        return _marked(wrapper)

    def _verify(self, fn):
        """eval_formula called by realize_type is its verification step."""
        as_span = self._span("engine.verify", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.stack and \
                    self.spans[self.stack[-1]][0] == "engine.realize_type":
                return as_span(*args, **kwargs)
            return fn(*args, **kwargs)
        return _marked(wrapper)

    def _path_depth(self, fn):
        @functools.wraps(fn)
        def wrapper(tree, depth):
            path = fn(tree, depth)
            self.counts["trees.path_depth"] += \
                depth if path is None else len(path)
            return path
        return _marked(wrapper)

    def _side(self, fn):
        @functools.wraps(fn)
        def wrapper(oracle, d):
            logged = len(oracle.log)
            s = fn(oracle, d)
            self.counts["engine.oracle.side_calls"] += 1
            if len(oracle.log) == logged:  # answered from the memo
                self.counts["engine.oracle.memo_hits"] += 1
            return s
        return _marked(wrapper)

    def _tree_init(self, fn):
        @functools.wraps(fn)
        def wrapper(tree, membership):
            def counted(sigma):
                self.counts["trees.nodes_evaluated"] += 1
                return membership(sigma)
            fn(tree, counted)
        return _marked(wrapper)

    def _series_init(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts["series.constructed"] += 1
            fn(*args, **kwargs)
        return _marked(wrapper)

    # -- install / restore ------------------------------------------------

    def _patch_everywhere(self, original, wrapper):
        for mod in _hahnsat_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr), wrapper))
        setattr(owner, attr, wrapper)

    def install(self):
        from hahnsat import engine, series, trees

        mods = {m.__name__.split(".")[-1]: m for m in _hahnsat_modules()}
        assert_restored()
        for mod, fn_name, name in KERNELS:
            fn = getattr(mods[mod], fn_name)
            wrapper = self._kernel(name, self._verify(fn)
                                   if fn_name == "eval_formula" else fn)
            self._patch_everywhere(fn, wrapper)
        for mod, fn_name, name in STAGES:
            fn = getattr(mods[mod], fn_name)
            wrapper = self._span(name, fn)
            if fn_name == "find_path_bounded":
                wrapper = self._path_depth(wrapper)
            self._patch_everywhere(fn, wrapper)
        self._patch(engine.CutOracle, "side",
                    self._side(engine.CutOracle.side))
        self._patch(trees.TreeOracle, "__init__",
                    self._tree_init(trees.TreeOracle.__init__))
        self._patch(series.Series, "__init__",
                    self._series_init(series.Series.__init__))

    def restore(self):
        while self._patches:
            owner, attr, original, wrapper = self._patches.pop()
            if getattr(owner, attr) is not wrapper:
                raise RuntimeError(f"{owner.__name__}.{attr} was re-patched")
            setattr(owner, attr, original)
        assert_restored()

    # -- results ----------------------------------------------------------

    def add_report(self, text):
        """Sum the BUDGETS counters of one realization report."""
        for name, pattern in _REPORT_COUNTS:
            for m in pattern.finditer(text):
                self.counts[name] += int(m.group(1))

    def layer_values(self):
        """Busy (outermost) and self time per span name, plus counters."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        calls, busy, own = Counter(), Counter(), Counter()
        for name in {name for _, _, name in STAGES} | {"engine.verify"}:
            calls[name] = busy[name] = own[name] = 0
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            calls[name] += 1
            own[name] += end - start - child[i]
            p = parent
            while p is not None and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p is None:
                busy[name] += end - start
        values = {}
        for name in calls:
            values[f"{name}.calls"] = calls[name]
            values[f"{name}.busy_s"] = busy[name]
            values[f"{name}.self_s"] = own[name]
        for _, _, name in KERNELS:
            values[f"{name}.calls"] = self.calls[name]
            values[f"{name}.busy_s"] = self.busy[name]
        for name in _COUNTS:
            values[name] = self.counts[name]
        side = self.counts["engine.oracle.side_calls"]
        values["engine.oracle.memo_hit_frac"] = \
            self.counts["engine.oracle.memo_hits"] / side if side else 0.0
        depth = self.counts["trees.path_depth"]
        values["trees.nodes_per_level"] = \
            self.counts["trees.nodes_evaluated"] / depth if depth else 0.0
        return values

    def span_records(self):
        return [{"id": i, "name": name, "start": start, "end": end,
                 "parent": parent, "item": item}
                for i, (name, start, end, parent, item)
                in enumerate(self.spans)]


def assert_restored():
    """Raise if any hahnsat module or patched class still holds a wrapper."""
    from hahnsat import engine, series, trees

    owners = _hahnsat_modules() + [engine.CutOracle, trees.TreeOracle,
                                   series.Series]
    for owner in owners:
        for attr, value in vars(owner).items():
            if getattr(value, _MARK, False):
                raise RuntimeError(
                    f"tracing wrapper left on {owner.__name__}.{attr}")
