"""Span tracer for the benchmark's traced run.

It wraps the public functions of each latentlab module at their module
attribute, and every other module attribute bound to the same function by
``from ... import``, so that internal calls (the oracle calling
``information_closure``, the trainer calling ``mlp_forward``) are caught too.
A few methods are wrapped as well: graph reachability, kernel ridge and the
Adam step.  Per-edge accessors (``parents``, ``children``, ``kind``) stay
unwrapped because they are too small to time.

Spans are kept in memory as ``(id, name, start, end, parent, thread, error,
attrs)`` and aggregated after the run.  A span opened on a worker thread with
no open span of its own gets the innermost span open on the main thread as its
parent, so pool work counts as a child of the command that started the pool.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time

LAYERS = ("cli", "graph", "locate", "scm", "mae", "nets", "ident")

# (module, class, method, span name).
METHODS = (
    ("graph", "LatentGraph", "ancestors", "graph.ancestors"),
    ("graph", "LatentGraph", "descendants", "graph.descendants"),
    ("graph", "LatentGraph", "ancestors_of_set", "graph.ancestors_of_set"),
    ("graph", "LatentGraph", "directed_path_nodes", "graph.directed_path_nodes"),
    ("graph", "LatentGraph", "is_ancestor_of_any", "graph.is_ancestor_of_any"),
    ("graph", "LatentGraph", "topo_order", "graph.topo_order"),
    ("graph", "LatentGraph", "topo_depth", "graph.topo_depth"),
    ("ident", "KernelRidge", "fit", "ident.kernel_ridge.fit"),
    ("ident", "KernelRidge", "predict", "ident.kernel_ridge.predict"),
    ("nets", "Adam", "step", "nets.adam_step"),
)


def _mlp_flops(net, rows: int) -> int:
    return sum(2 * rows * w.shape[0] * w.shape[1] for w in net.weights)


def _file_bytes(paths) -> int:
    return sum(p.stat().st_size for p in paths.values())


# Counts taken at the call boundary from argument shapes or the result:
# each maps (args, kwargs, result) to a dict of numbers.
ATTRS = {
    # forward: one GEMM per layer; backward: weight gradient plus input gradient.
    "nets.mlp_forward": lambda a, k, r: {"flops": _mlp_flops(a[0], a[1].shape[0])},
    "nets.mlp_backward": lambda a, k, r: {"flops": 2 * _mlp_flops(a[0], a[2].shape[0])},
    "nets.adam_step": lambda a, k, r: {"arrays": len(a[1])},
    # LU solve of the n x n Gram matrix against k target columns.
    "ident.kernel_ridge.fit": lambda a, k, r: {
        "rows": a[1].shape[0],
        "flops": 2 * a[1].shape[0] ** 3 // 3 + 2 * a[1].shape[0] ** 2 * a[2].shape[1],
    },
    "locate.brute_force_minimal_c": lambda a, k, r: {"ties": len(r.ties)},
    "scm.save_dataset": lambda a, k, r: {"bytes": _file_bytes(r)},
    "scm.load_dataset": lambda a, k, r: {"bytes": r.values.nbytes},
}


def _span_name(layer: str, fn_name: str) -> str:
    if layer == "cli" and fn_name.startswith("cmd_"):
        fn_name = fn_name[len("cmd_"):]
    return f"{layer}.{fn_name}"


class Tracer:
    """Install with ``with Tracer() as t:``; read ``t.spans`` afterwards."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.main_thread().ident
        self._main_stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._main_stack if threading.get_ident() == self._main else []
            self._local.stack = stack
        return stack

    def _wrap(self, fn, name: str):
        attrs_of = ATTRS.get(name)
        spans, ids, stack_of, main_stack = self.spans, self._ids, self._stack, self._main_stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            if stack:
                parent = stack[-1]
            else:
                parent = main_stack[-1] if main_stack else None
            sid = next(ids)
            stack.append(sid)
            error = 0
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                error = 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                attrs = attrs_of(args, kwargs, result) if attrs_of and not error else None
                spans.append((sid, name, start, end, parent, threading.get_ident(), error, attrs))

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"latentlab.{layer}")
            for fn_name, fn in inspect.getmembers(mod, inspect.isfunction):
                if fn.__module__ == mod.__name__ and not fn_name.startswith("_"):
                    wrappers[id(fn)] = (fn, self._wrap(fn, _span_name(layer, fn_name)))
        for mod_name, mod in sorted(sys.modules.items()):
            if mod is None or not (mod_name == "latentlab" or mod_name.startswith("latentlab.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(mod, attr, hit[1])
        for layer, cls_name, method, name in METHODS:
            cls = getattr(importlib.import_module(f"latentlab.{layer}"), cls_name)
            self._set(cls, method, self._wrap(getattr(cls, method), name))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write(self, path) -> None:
        """One JSON array per span: id, name, start, end, parent, thread, error, attrs."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def aggregate(spans: list[tuple]) -> dict:
    """Per span name: calls, wall_s, self_s, errors and summed attrs; plus
    per-layer totals and the distinct thread count.  Self time is the span's
    duration minus the part of its interval that child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, _, start, end, parent, _, _, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    by_name: dict[str, dict] = {}
    threads = set()
    parent_name = {sid: name for sid, name, *_ in spans}
    for sid, name, start, end, parent, tid, error, attrs in spans:
        threads.add(tid)
        own = children.get(sid)
        covered = 0.0
        if own:
            covered = _union_length([(max(s, start), min(e, end)) for s, e in own if e > start and s < end])
        rec = by_name.setdefault(name, {"calls": 0, "wall_s": 0.0, "self_s": 0.0, "errors": 0,
                                        "attrs": {}, "parents": {}})
        rec["calls"] += 1
        rec["wall_s"] += end - start
        rec["self_s"] += (end - start) - covered
        rec["errors"] += error
        pname = parent_name.get(parent)
        rec["parents"][pname] = rec["parents"].get(pname, 0) + 1
        if attrs:
            for key, value in attrs.items():
                rec["attrs"][key] = rec["attrs"].get(key, 0) + value
    layers = {layer: {"calls": 0, "self_s": 0.0, "errors": 0} for layer in LAYERS}
    for name, rec in by_name.items():
        layer = layers[name.split(".", 1)[0]]
        layer["calls"] += rec["calls"]
        layer["self_s"] += rec["self_s"]
        layer["errors"] += rec["errors"]
    return {"functions": by_name, "layers": layers, "threads": len(threads)}
