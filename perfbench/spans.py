"""Outside-in per-layer tracing of drisk.

`install` wraps every public function of every `drisk.<module>` and
rebinds the wrapper in every `drisk.*` namespace that holds the same
function object, so calls made through `from .x import f` are seen too.
A private helper's time lands in its nearest wrapped public caller.
A generator function is timed per `next()`.  Each call becomes a span
(name, start, end, parent span, instance id, pass number, plus one
number taken from its arguments or return value); spans stay in memory until
`layer_metrics` folds them into per-layer numbers at the end of a run.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from array import array
from typing import Callable, Dict, List, Tuple

ERR_NONE, ERR_REFUSAL, ERR_OTHER = 0, 1, 2

BFS_FUNCS = ("graph.distances_from", "graph.multi_source_distances", "graph.ball")
SOLVE_FUNCS = ("simplex.solve_max", "simplex.solve_min")
READ_FUNCS = ("graphio.read_edge_list", "graphio.read_vertex_set", "graphio.read_pairs")
WRITE_FUNCS = ("graphio.write_edge_list", "graphio.write_vertex_set", "graphio.write_pairs")

# Layers and the per-layer metrics reported for them, with units and the
# direction that counts as better.
LAYER_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("cli.self_s", "s", "lower"),
    ("graphio.read_s", "s", "lower"),
    ("graphio.write_s", "s", "lower"),
    ("graphio.bytes", "bytes", "lower"),
    ("graph.self_s", "s", "lower"),
    ("graph.bfs_calls", "count", "lower"),
    ("graph.bfs_vertices", "count", "lower"),
    ("graph.induced_subgraph_calls", "count", "lower"),
    ("graph.induced_subgraph_s", "s", "lower"),
    ("graph.girth_s", "s", "lower"),
    ("generators.self_s", "s", "lower"),
    ("generators.trim_s", "s", "lower"),
    ("simplex.self_s", "s", "lower"),
    ("simplex.solve_calls", "count", "lower"),
    ("simplex.tableau_cells", "count", "lower"),
    ("oracle.self_s", "s", "lower"),
    ("oracle.alpha_s", "s", "lower"),
    ("oracle.gamma_s", "s", "lower"),
    ("oracle.minor_s", "s", "lower"),
    ("oracle.refusals", "count", "lower"),
    ("ballvc.self_s", "s", "lower"),
    ("projections.self_s", "s", "lower"),
    ("projections.closure_calls", "count", "lower"),
    ("projections.closure_additions", "count", "lower"),
    ("projections.profile_calls", "count", "lower"),
    ("projections.path_closure_s", "s", "lower"),
    ("wcol.self_s", "s", "lower"),
    ("wcol.order_s", "s", "lower"),
    ("wcol.reach_s", "s", "lower"),
    ("wcol.cover_s", "s", "lower"),
    ("uqw.self_s", "s", "lower"),
    ("uqw.ladder_rungs", "count", "lower"),
    ("kernel.self_s", "s", "lower"),
    ("kernel.check_calls", "count", "lower"),
    ("kernel.check_s", "s", "lower"),
    ("kernel.rounds", "count", "lower"),
    ("kernel.removals", "count", "higher"),
    ("kernel.removal_yield", "ratio", "higher"),
)


class SpanLog:
    """Spans in flat arrays; index i describes one call."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.instance = array("i")
        self.pass_no = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("d")
        self.error = array("b")
        self.stack: List[int] = []
        self.current_instance = -1
        self.current_pass = -1

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.instance.append(self.current_instance)
        self.pass_no.append(self.current_pass)
        self.value.append(0.0)
        self.error.append(ERR_NONE)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self.stack.pop()

    def __len__(self) -> int:
        return len(self.name)


def _file_size(path) -> float:
    try:
        return float(os.path.getsize(path))
    except (OSError, TypeError):
        return 0.0


def _cells(bound) -> float:
    c, rows = bound.arguments["c"], bound.arguments["rows"]
    return float(len(rows) * (len(c) + len(rows)))


# name -> (uses bound arguments?, value from (bound arguments, result))
_VALUE_HOOKS: Dict[str, Tuple[bool, Callable]] = {
    **{f: (False, lambda b, res: float(len(res))) for f in BFS_FUNCS},
    **{f: (True, lambda b, res: _cells(b)) for f in SOLVE_FUNCS},
    **{f: (True, lambda b, res: _file_size(b.arguments["path"])) for f in READ_FUNCS + WRITE_FUNCS},
    "projections.closure": (False, lambda b, res: float(res.iterations)),
    "kernel.remove_irrelevant": (False, lambda b, res: float(len(res[1]))),
}


def _error_code(exc: BaseException) -> int:
    return ERR_REFUSAL if type(exc).__name__ == "OracleLimitError" else ERR_OTHER


def wrap(fn: Callable, name: str, log: SpanLog) -> Callable:
    """A traced stand-in for fn that records one span per call (per
    `next()` for a generator function)."""
    nid = log.name_id(name)
    hook = _VALUE_HOOKS.get(name)
    sig = inspect.signature(fn) if hook and hook[0] else None

    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def traced_gen(*args, **kwargs):
            it = fn(*args, **kwargs)
            try:
                while True:
                    idx = log.open(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        log.close(idx)
                        return
                    except BaseException as exc:
                        log.error[idx] = _error_code(exc)
                        log.close(idx)
                        raise
                    log.value[idx] = 1.0
                    log.close(idx)
                    yield item
            finally:
                it.close()

        traced_gen.__perfbench_original__ = fn
        return traced_gen

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = log.open(nid)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            log.error[idx] = _error_code(exc)
            log.close(idx)
            raise
        log.close(idx)
        if hook is not None:
            bound = sig.bind(*args, **kwargs) if sig is not None else None
            log.value[idx] = hook[1](bound, result)
        return result

    traced.__perfbench_original__ = fn
    return traced


def drisk_modules() -> List:
    return [m for key, m in sorted(sys.modules.items())
            if m is not None and (key == "drisk" or key.startswith("drisk."))]


def public_functions() -> Dict[int, Tuple[Callable, str]]:
    """id -> (function, "module.name") for every public function defined
    in a drisk submodule."""
    found: Dict[int, Tuple[Callable, str]] = {}
    for mod in drisk_modules():
        short = mod.__name__.rpartition(".")[2]
        for key, obj in vars(mod).items():
            if (inspect.isfunction(obj) and not key.startswith("_")
                    and obj.__module__ == mod.__name__):
                found[id(obj)] = (obj, f"{short}.{obj.__name__}")
    return found


def install(log: SpanLog) -> Callable[[], None]:
    """Wrap every public drisk function everywhere it is bound; returns
    the function that puts the originals back."""
    originals = public_functions()
    wrappers = {key: wrap(fn, name, log) for key, (fn, name) in originals.items()}
    rebound = []
    for mod in drisk_modules():
        for key, obj in list(vars(mod).items()):
            hit = originals.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, key, wrappers[id(obj)])
                rebound.append((mod, key, obj))

    def uninstall() -> None:
        for mod, key, obj in rebound:
            setattr(mod, key, obj)

    return uninstall


# ---------------------------------------------------------------------------
# folding spans into per-layer numbers


def self_times(log: SpanLog) -> array:
    """Each span's duration minus the time its direct child spans cover."""
    own = array("d", (e - s for s, e in zip(log.start, log.end)))
    for i, p in enumerate(log.parent):
        if p >= 0:
            own[p] -= log.end[i] - log.start[i]
    return own


def function_table(log: SpanLog) -> Dict[str, Tuple[int, float, float]]:
    """name -> (spans, total seconds, self seconds)."""
    own = self_times(log)
    table: Dict[str, List[float]] = {}
    for i, nid in enumerate(log.name):
        row = table.setdefault(log.names[nid], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += log.end[i] - log.start[i]
        row[2] += own[i]
    return {k: (int(v[0]), v[1], v[2]) for k, v in table.items()}


def layer_metrics(log: SpanLog, passes: int, scale=None) -> Dict[str, float]:
    """Every metric of LAYER_METRICS, per pass over the instance list.
    With scale, the seconds of a span of instance i in pass p are
    multiplied by scale[i][p]."""
    names = log.names
    own = self_times(log)
    total: Dict[str, float] = {}

    def add(key: str, amount: float) -> None:
        total[key] = total.get(key, 0.0) + amount

    for i, nid in enumerate(log.name):
        name = names[nid]
        layer = name.partition(".")[0]
        inst = log.instance[i]
        factor = scale[inst][log.pass_no[i]] if scale is not None and inst >= 0 else 1.0
        dur = (log.end[i] - log.start[i]) * factor
        p = log.parent[i]
        parent = names[log.name[p]] if p >= 0 else ""
        value = log.value[i]
        add(f"{layer}.self_s", own[i] * factor)
        if name in READ_FUNCS:
            add("graphio.read_s", dur)
            add("graphio.bytes", value)
        elif name in WRITE_FUNCS:
            add("graphio.write_s", dur)
            add("graphio.bytes", value)
        elif name in BFS_FUNCS:
            if parent not in BFS_FUNCS:
                add("graph.bfs_calls", 1)
                add("graph.bfs_vertices", value)
        elif name == "graph.induced_subgraph":
            add("graph.induced_subgraph_calls", 1)
            add("graph.induced_subgraph_s", dur)
        elif name == "graph.girth":
            add("graph.girth_s", dur)
        elif name == "generators.trim_short_cycles":
            add("generators.trim_s", dur)
        elif name in SOLVE_FUNCS:
            if parent not in SOLVE_FUNCS:
                add("simplex.solve_calls", 1)
                add("simplex.tableau_cells", value)
        elif name == "oracle.independence_number":
            add("oracle.alpha_s", dur)
        elif name == "oracle.domination_number":
            add("oracle.gamma_s", dur)
        elif name == "oracle.find_clique_minor":
            add("oracle.minor_s", dur)
        elif name == "projections.closure":
            add("projections.closure_calls", 1)
            add("projections.closure_additions", value)
            if parent == "kernel.remove_irrelevant":
                add("kernel.rounds", 1)
        elif name == "projections.profile":
            add("projections.profile_calls", 1)
        elif name == "projections.path_closure":
            add("projections.path_closure_s", dur)
        elif name == "wcol.order_heuristic":
            add("wcol.order_s", dur)
        elif name == "wcol.weak_reach_sets":
            add("wcol.reach_s", dur)
        elif name == "wcol.greedy_ball_cover":
            add("wcol.cover_s", dur)
        elif name == "uqw.scattered_ladder":
            add("uqw.ladder_rungs", value)
        elif name == "kernel.check_certificate":
            add("kernel.check_calls", 1)
            add("kernel.check_s", dur)
        elif name == "kernel.remove_irrelevant":
            add("kernel.removals", value)
        # a refusal that escapes to the command line is one the user sees
        if log.error[i] == ERR_REFUSAL and parent == "cli.main":
            add("oracle.refusals", 1)
    out = {key: total.get(key, 0.0) / passes for key, _, _ in LAYER_METRICS}
    rounds = total.get("kernel.rounds", 0.0)
    out["kernel.removal_yield"] = total.get("kernel.removals", 0.0) / rounds if rounds else 0.0
    return out
