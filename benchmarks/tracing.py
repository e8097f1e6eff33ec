"""Out-of-package tracing: wrap each layer's public functions and record spans.

A span is ``[op_id, span_id, parent_id, layer, t_start, t_end]``; spans of
one benchmark operation share ``op_id``.  Spans stay in memory and are
written out once, when the run ends.  A layer's self time is its spans'
durations minus the time covered by their direct child spans.

Layers are the modules of ``secrecy``.  The SDP layer is split into model
build (``LmiBuilder.build``), compile (``SdpProblem.compile``) and solve
(``sdp.solve``, which encloses compile); ``codes`` is split into evaluation,
decoder synthesis and search.  Wrappers replace a function under every name
that a ``secrecy`` module binds it to (``codes.solve``, ``lemmas.h_min_smooth``,
...), so calls between modules are seen too.  Calls to private helpers stay
inside their caller's span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

#: module -> layer of its public module-level functions
MODULE_LAYERS = {
    "secrecy.entropy": "entropy",
    "secrecy.symmetry": "symmetry",
    "secrecy.lemmas": "lemmas",
    "secrecy.channels": "channels",
    "secrecy.capacity": "capacity",
    "secrecy.converse": "converse",
    "secrecy.io": "io",
    "secrecy.cli": "cli",
}

#: (module, function) -> layer, for modules whose layer is split by function
FUNCTION_LAYERS = {
    ("secrecy.sdp", "solve"): "sdp.solve",
    ("secrecy.codes", "evaluate_code"): "codes.eval",
    ("secrecy.codes", "optimal_decoder"): "codes.decoder",
    ("secrecy.codes", "brute_force_M"): "codes.search",
}

#: (module, class, method) -> layer
METHOD_LAYERS = {
    ("secrecy.sdp", "LmiBuilder", "build"): "sdp.build",
    ("secrecy.sdp", "SdpProblem", "compile"): "sdp.compile",
}

#: (module, name) -> counter; counted calls get no span
COUNTED = {
    ("secrecy.codes", "encoder_output_states"): "codes.output_states.calls",
    ("secrecy.codes", "channel_string_state"): "codes.string_states.calls",
}

#: calls to a function made through one module's binding of it
COUNTED_BINDINGS = {
    ("secrecy.capacity", "von_neumann_entropy"): "capacity.entropy_evals",
}

#: layer metrics reported as ``<layer>.calls`` / ``<layer>.self_s``
SPAN_LAYERS = ("sdp.build", "sdp.compile", "sdp.solve", "entropy", "symmetry",
               "lemmas", "channels", "capacity", "codes.eval", "codes.decoder",
               "codes.search", "converse", "io", "cli")

COUNTERS = ("sdp.solve.iterations", "sdp.solve.constraints",
            "sdp.solve.numerical_failures", "capacity.iterations",
            "capacity.entropy_evals", "codes.output_states.calls",
            "codes.string_states.calls")


class Tracer:
    """Span recorder with install/uninstall of the layer wrappers."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.op_id = -1
        self.max_constraints = 0
        self.solves = 0
        self.wasted_solves = 0
        self._last_solve: dict[int, tuple[object, int]] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------
    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        # a problem solved again within one operation (the entropy retry
        # ladder) means its earlier solve never reached the caller
        self._last_solve = {}

    def _count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _span(self, fn, layer: str, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [self.op_id, len(spans), stack[-1] if stack else None,
                   layer, clock(), 0.0]
            spans.append(rec)
            stack.append(rec[1])
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[5] = clock()
                stack.pop()
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def _counter(self, fn, key: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._count(key)
            return fn(*args, **kwargs)

        return wrapper

    def _after_solve(self, args, sol) -> None:
        problem = args[0]
        m = int(problem.num_constraints)
        self.solves += 1
        self._count("sdp.solve.iterations", sol.iterations)
        self._count("sdp.solve.constraints", m)
        self.max_constraints = max(self.max_constraints, m)
        if sol.status.name == "NUMERICAL_FAILURE":
            self._count("sdp.solve.numerical_failures")
        if id(problem) in self._last_solve:
            self.wasted_solves += 1
        # keep the problem alive so its id cannot be reused within the op
        self._last_solve[id(problem)] = (problem, self.solves)

    def _after_capacity(self, args, result) -> None:
        iterations = getattr(result, "iterations", None)
        if isinstance(iterations, int):
            self._count("capacity.iterations", iterations)

    # -- installation --------------------------------------------------------
    def install(self) -> None:
        """Wrap every layer function and rebind it wherever secrecy binds it."""
        wrapped: dict[object, object] = {}
        modules = {name: importlib.import_module(name) for name in
                   ["secrecy." + m for m in ("quantum", "sdp", "entropy",
                    "symmetry", "lemmas", "channels", "capacity", "codes",
                    "converse", "io", "cli")]}
        for modname, mod in modules.items():
            for name, obj in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(obj) \
                        or obj.__module__ != modname:
                    continue
                layer = FUNCTION_LAYERS.get((modname, name),
                                            MODULE_LAYERS.get(modname))
                if (modname, name) in COUNTED:
                    wrapped[obj] = self._counter(obj, COUNTED[(modname, name)])
                elif layer is not None:
                    after = None
                    if layer == "sdp.solve":
                        after = self._after_solve
                    elif layer == "capacity":
                        after = self._after_capacity
                    wrapped[obj] = self._span(obj, layer, after)
        for modname, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if (modname, name) in COUNTED_BINDINGS:
                    self._patch(mod, name, self._counter(
                        obj, COUNTED_BINDINGS[(modname, name)]))
                elif inspect.isfunction(obj) and obj in wrapped:
                    self._patch(mod, name, wrapped[obj])
        for (modname, cls_name, meth), layer in METHOD_LAYERS.items():
            cls = getattr(modules[modname], cls_name)
            self._patch(cls, meth, self._span(getattr(cls, meth), layer))

    def _patch(self, owner, name: str, new) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    def uninstall(self) -> None:
        for owner, name, old in reversed(self._patches):
            setattr(owner, name, old)
        self._patches = []

    # -- reduction -----------------------------------------------------------
    def snapshot(self) -> tuple[int, dict, int, int]:
        return len(self.spans), dict(self.counts), self.solves, self.wasted_solves

    def layer_metrics(self, since: tuple, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of the spans and counts recorded after ``since``."""
        first, counts0, solves0, wasted0 = since
        spans = self.spans[first:]
        child_time = [0.0] * len(self.spans)
        for rec in spans:
            if rec[2] is not None:
                child_time[rec[2]] += rec[5] - rec[4]
        calls = {layer: 0 for layer in SPAN_LAYERS}
        self_s = {layer: 0.0 for layer in SPAN_LAYERS}
        covered = 0.0
        for rec in spans:
            duration = rec[5] - rec[4]
            calls[rec[3]] += 1
            self_s[rec[3]] += duration - child_time[rec[1]]
            if rec[2] is None:
                covered += duration
        out: dict[str, float] = {}
        for layer in SPAN_LAYERS:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_s"] = self_s[layer]
        for key in COUNTERS:
            out[key] = self.counts.get(key, 0) - counts0.get(key, 0)
        out["sdp.solve.max_constraints"] = self.max_constraints
        solves = self.solves - solves0
        wasted = self.wasted_solves - wasted0
        out["sdp.solve.useful_ratio"] = (solves - wasted) / solves if solves else 1.0
        out["trace.coverage"] = covered / wall_s
        out["trace.spans"] = len(spans)
        return out

    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="ascii") as fh:
            for op_id, span_id, parent, layer, t0, t1 in self.spans:
                fh.write(json.dumps({"op": op_id, "id": span_id,
                                     "parent": parent, "name": layer,
                                     "start": t0, "end": t1}) + "\n")
