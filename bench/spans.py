"""In-memory spans around the public functions of each geochaos module.

The tracer replaces a public function at every place a caller looks it up
(the defining module, the package namespace and each geochaos module that
imported the name) by one wrapper that records a span: name, start, end,
parent span and operation id.  ``QuadraticHamiltonian.flow_matrix`` is
wrapped on its class.  Spans stay in memory until ``restore`` and are
summarised or written out by the caller.  Spans from sweep worker threads
have the span the main thread is blocked in as parent.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import statistics
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

# (module, function) pairs traced as layers, named <module>.<function>
TRACED = {
    "generators": ("conjugate_by_quadratic_flow",),
    "classical": ("classical_lyapunov", "evolve_flow", "jacobian_matrix"),
    "response": ("unitary_response_matrix", "state_response_matrix",
                 "response_spectrum", "lyapunov_spectrum"),
    "otoc": ("otoc_matrix", "check_correspondence", "averaged_otoc_identity"),
    "geometry": ("heisenberg_complexity", "unitary_complexity",
                 "state_complexity", "direct_path_complexity"),
    "cli": ("run_experiment",),
}
RESPONSE_MATRICES = ("response.unitary_response_matrix",
                     "response.state_response_matrix")
SOLVES = ("geometry.unitary_complexity", "geometry.state_complexity")


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.op: int | None = None
        self.op_span: int | None = None
        self._op_start = 0.0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn, *args, **kwargs):
        stack = self._stack()
        sid = next(self._ids)
        # a sweep worker's first span belongs to the span the main thread
        # is blocked in
        parent = (stack or self._main_stack or [self.op_span])[-1]
        stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(sid, name, start, end, parent, self.op))
        return result

    def begin_op(self, op: int) -> None:
        self.op = op
        self.op_span = next(self._ids)
        self._op_start = time.perf_counter()

    def end_op(self) -> None:
        with self._lock:
            self.spans.append(Span(self.op_span, "bench.operation",
                                   self._op_start, time.perf_counter(),
                                   None, self.op))
        self.op = self.op_span = None

    # -- patching ------------------------------------------------------------

    def _wrap(self, name: str, fn, tally=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if tally is not None:
                with self._lock:
                    tally(self.counts, args, kwargs, result)
            return result
        return wrapper

    def install(self) -> None:
        import geochaos
        from geochaos import classical, cli, generators, geometry, otoc, response

        modules = {"generators": generators, "classical": classical,
                   "response": response, "otoc": otoc, "geometry": geometry,
                   "cli": cli}
        sites = [geochaos, *modules.values()]
        tallies = {
            "response.unitary_response_matrix": _tally_reliable,
            "response.state_response_matrix": _tally_reliable,
            "geometry.unitary_complexity": _solve_tally(geometry.unitary_complexity),
            "geometry.state_complexity": _solve_tally(geometry.state_complexity),
        }
        for mod_name, names in TRACED.items():
            for fn_name in names:
                original = getattr(modules[mod_name], fn_name)
                qualified = f"{mod_name}.{fn_name}"
                wrapper = self._wrap(qualified, original, tallies.get(qualified))
                for site in sites:
                    if getattr(site, fn_name, None) is original:
                        self._patches.append((site, fn_name, original))
                        setattr(site, fn_name, wrapper)
        flow = classical.QuadraticHamiltonian.flow_matrix
        self._patches.append((classical.QuadraticHamiltonian, "flow_matrix", flow))
        classical.QuadraticHamiltonian.flow_matrix = self._wrap(
            "classical.flow_matrix", flow)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- summaries -----------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span duration minus the union of its children's intervals."""
        children = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append((s.start, s.end))
        out = {}
        for s in self.spans:
            covered = 0.0
            reach = s.start
            for a, b in sorted(children.get(s.sid, ())):
                a, b = max(a, reach), min(b, s.end)
                if b > a:
                    covered += b - a
                    reach = b
            out[s.sid] = (s.end - s.start) - covered
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Per-name calls, self time and median span, plus layer ratios."""
        selfs = self.self_times()
        by_name = defaultdict(list)
        for s in self.spans:
            by_name[s.name].append(s)
        names = [f"{m}.{f}" for m, fs in TRACED.items() for f in fs]
        names.append("classical.flow_matrix")
        out: dict[str, float] = {}
        for name in names:
            spans = by_name.get(name, [])
            out[f"{name}.calls"] = len(spans)
            out[f"{name}.self_s"] = sum(selfs[s.sid] for s in spans)
            out[f"{name}.p50_s"] = (statistics.median(s.end - s.start for s in spans)
                                    if spans else 0.0)
        matrix_ids = {s.sid for name in RESPONSE_MATRICES for s in by_name.get(name, [])}
        geometry_children = sum(1 for s in self.spans
                                if s.parent in matrix_ids
                                and s.name.startswith("geometry."))
        out["response.geometry_calls_per_matrix"] = (
            geometry_children / len(matrix_ids) if matrix_ids else 0.0)
        c = self.counts
        out["response.reliable_ratio"] = (c["reliable"] / c["entries"]
                                          if c["entries"] else 0.0)
        out["geometry.direct_win_ratio"] = (c["direct_wins"] / c["default_solves"]
                                            if c["default_solves"] else 0.0)
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([s.__dict__ for s in self.spans], fh)


def _tally_reliable(counts: Counter, args, kwargs, result) -> None:
    counts["entries"] += int(result.reliable.size)
    counts["reliable"] += int(result.reliable.sum())


def _solve_tally(fn):
    """Count default-config solves and those the direct optimiser won."""
    from geochaos.geometry import SolverConfig

    signature = inspect.signature(fn)
    default = SolverConfig()

    def tally(counts: Counter, args, kwargs, result) -> None:
        bound = signature.bind(*args, **kwargs)
        if bound.arguments.get("cfg", default) == default:
            counts["default_solves"] += 1
            counts["direct_wins"] += result.method == "direct"
    return tally
