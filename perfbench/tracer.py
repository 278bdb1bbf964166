"""In-memory spans around ahodge's public functions, installed from outside.

`Tracer.install` rebinds each listed function at every name it is bound to
inside the `ahodge` package (so `obstruction.harmonic_basis_dbar` and
`linalg.rref` as called from `linalg.nullspace` are both seen) and
`uninstall` puts the originals back.  A span is
[name, start, end, parent index, case id, nested], where nested marks a span
inside another span of the same name; busy time counts only outer spans.
Speed probes (speed.py) that interrupt a traced call are kept apart as
[start, end, parent index, case id] and taken out of every span around them.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (span name, module, attribute) for every traced function.
LAYERS = (
    ("manifold.load", "ahodge.builtins", "get_builtin"),
    ("manifold.load", "ahodge.manifold", "load_spec"),
    ("manifold.d2_relations", "ahodge.manifold", "ManifoldSpec.check_d2_relations"),
    ("hermitian.metric", "ahodge.hermitian", "metric_for"),
    ("hermitian.laplacian_identity", "ahodge.hermitian", "delta_laplacians_equal"),
    ("pdesolve.build", "ahodge.pdesolve", "build_dbar_system"),
    ("pdesolve.reduce", "ahodge.pdesolve", "reduce"),
    ("fourier.mode_matrix", "ahodge.fourier", "mode_matrix"),
    ("fourier.contributing_modes", "ahodge.fourier", "contributing_modes"),
    ("fourier.dbar", "ahodge.fourier", "harmonic_basis_dbar"),
    ("fourier.deltabar", "ahodge.fourier", "harmonic_basis_deltabar"),
    ("fourier.dol", "ahodge.fourier", "dolbeault_basis"),
    ("obstruction.search", "ahodge.obstruction", "symplectic_obstruction"),
    ("cli.report", "ahodge.cli", "run"),
    ("cli.render", "ahodge.cli", "report_to_dict"),
    ("cli.render", "ahodge.cli", "report_to_text"),
    ("scalars.gcd", "ahodge.scalars", "pgcd"),
    ("linalg.det", "ahodge.linalg", "det"),
    ("linalg.inverse", "ahodge.linalg", "inverse"),
    ("linalg.mat_mul", "ahodge.linalg", "mat_mul"),
    ("linalg.nullspace", "ahodge.linalg", "nullspace"),
    ("linalg.rref", "ahodge.linalg", "rref"),
    ("linalg.kernel_nontrivial", "ahodge.linalg", "kernel_nontrivial"),
)

ROOT = "cli.report"
LINALG = ("det", "inverse", "mat_mul", "nullspace", "rref", "kernel_nontrivial")

# Busy time (ms per traced pass) reported for each span name.
BUSY_METRICS = {
    "manifold.load_ms": "manifold.load",
    "manifold.d2_relations_ms": "manifold.d2_relations",
    "hermitian.metric_ms": "hermitian.metric",
    "hermitian.laplacian_identity_ms": "hermitian.laplacian_identity",
    "pdesolve.build_ms": "pdesolve.build",
    "pdesolve.reduce_ms": "pdesolve.reduce",
    "fourier.mode_matrix_ms": "fourier.mode_matrix",
    "fourier.contributing_modes_ms": "fourier.contributing_modes",
    "fourier.dbar_ms": "fourier.dbar",
    "fourier.deltabar_ms": "fourier.deltabar",
    "fourier.dol_ms": "fourier.dol",
    "obstruction.search_ms": "obstruction.search",
    "cli.render_ms": "cli.render",
    "scalars.gcd_ms": "scalars.gcd",
    **{f"linalg.{op}_ms": f"linalg.{op}" for op in LINALG},
}


def _observe_args(tracer: "Tracer", name: str, args) -> None:
    counts = tracer.counts
    if name == "scalars.gcd":
        counts["gcd_trivial"] += len(args[0]) <= 1 or len(args[1]) <= 1
    elif name.startswith("linalg."):
        dim = max((len(a) for a in args[:2] if isinstance(a, list)), default=0)
        if dim > counts["max_dim"]:
            counts["max_dim"] = dim
    elif name == "fourier.dbar":
        tracer.dbar_keys.add((tracer.case, args[0]))


def _observe_result(tracer: "Tracer", name: str, result) -> None:
    counts = tracer.counts
    if name == "pdesolve.build":
        counts["equations"] += len(result.equations)
        counts["unknowns"] += len(result.unknowns)
    elif name == "pdesolve.reduce":
        counts["free_after_reduce"] += sum(1 for s in result.statuses.values() if s.name == "FREE")
    elif name == "fourier.contributing_modes" and isinstance(result, list):
        counts["modes_found"] += len(result)


_OBSERVE_ARGS = {"scalars.gcd", "fourier.dbar"} | {f"linalg.{op}" for op in LINALG}
_OBSERVE_RESULT = {"pdesolve.build", "pdesolve.reduce", "fourier.contributing_modes"}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.probes: list = []
        self.case = -1
        self.counts: Counter = Counter()
        self.dbar_keys: set = set()
        self._stack: list = []
        self._depth: Counter = Counter()
        self._patches: list = []

    def _wrap(self, name: str, fn):
        spans, stack, depth = self.spans, self._stack, self._depth
        observe_args = name in _OBSERVE_ARGS
        observe_result = name in _OBSERVE_RESULT

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if observe_args:
                _observe_args(self, name, args)
            depth[name] += 1
            # The start is taken before the push and the end after the pop,
            # so a probe that lands in between still lies inside its parent.
            start = perf_counter()
            span = [name, start, start, stack[-1] if stack else -1, self.case, depth[name] > 1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = perf_counter()
                depth[name] -= 1
            if observe_result:
                _observe_result(self, name, result)
            return result

        return traced

    def install(self) -> None:
        package = [m for n, m in sys.modules.items() if n == "ahodge" or n.startswith("ahodge.")]
        for name, module_name, attr in LAYERS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original)
            for module in package:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def add_probe(self, start: float, end: float) -> None:
        """Record a speed probe taken inside a traced call."""
        if self._stack:
            self.probes.append([start, end, self._stack[-1], self.case])

    def begin_pass(self) -> tuple:
        self.counts.clear()
        self.dbar_keys.clear()
        return len(self.spans), len(self.probes)


def pass_layers(spans: list, lo: int, probes: list, scale: dict) -> dict:
    """Busy time, self time and call count per span name over spans[lo:],
    plus the time of the root (report) spans, all in seconds and without
    the `probes` taken during them.  Durations are multiplied by
    scale[case id], the calibration factor of their report."""
    n = len(spans) - lo
    child = [0.0] * n
    probed = [0.0] * n
    for t0, t1, parent, case in probes:
        dur = (t1 - t0) * scale[case]
        child[parent - lo] += dur
        if not (spans[parent][1] <= t0 <= t1 <= spans[parent][2]):
            raise AssertionError(f"a probe leaves span {parent}")
        while parent >= lo:
            probed[parent - lo] += dur
            parent = spans[parent][3]
    busy: dict = defaultdict(float)
    self_time: dict = defaultdict(float)
    calls: Counter = Counter()
    root = 0.0
    for i in range(lo, len(spans)):
        name, t0, t1, parent, case, nested = spans[i]
        dur = (t1 - t0) * scale[case]
        calls[name] += 1
        if not nested:
            busy[name] += dur - probed[i - lo]
        if parent >= lo:
            child[parent - lo] += dur
            if not (spans[parent][1] <= t0 <= t1 <= spans[parent][2]):
                raise AssertionError(f"span {i} ({name}) leaves its parent")
        elif name == ROOT:
            root += dur - probed[i - lo]
        else:
            raise AssertionError(f"span {i} ({name}) is outside every report")
    for i in range(lo, len(spans)):
        name, t0, t1, _parent, case, _nested = spans[i]
        self_time[name] += (t1 - t0) * scale[case] - child[i - lo]
    return {"busy": dict(busy), "self": dict(self_time), "calls": dict(calls), "root": root}


def layer_metrics(layers: dict, counts: Counter, dbar_keys: set, undetermined: int) -> dict:
    """The per-layer metrics of one traced pass (times in ms)."""
    busy, calls = layers["busy"], layers["calls"]
    out = {metric: 1000 * busy.get(name, 0.0) for metric, name in BUSY_METRICS.items()}
    out["cli.other_ms"] = 1000 * layers["self"].get(ROOT, 0.0)
    out["pdesolve.equations"] = counts["equations"]
    out["pdesolve.unknowns"] = counts["unknowns"]
    out["pdesolve.free_after_reduce"] = counts["free_after_reduce"]
    out["fourier.modes_found"] = counts["modes_found"]
    dbar_calls = calls.get("fourier.dbar", 0)
    out["fourier.dbar_calls"] = dbar_calls
    out["fourier.dbar_useful_ratio"] = len(dbar_keys) / dbar_calls if dbar_calls else 1.0
    out["fourier.undetermined"] = undetermined
    gcd_calls = calls.get("scalars.gcd", 0)
    out["scalars.gcd_calls"] = gcd_calls
    out["scalars.gcd_trivial_ratio"] = counts["gcd_trivial"] / gcd_calls if gcd_calls else 0.0
    for op in LINALG:
        out[f"linalg.{op}_calls"] = calls.get(f"linalg.{op}", 0)
    out["linalg.max_dim"] = counts["max_dim"]
    return out
