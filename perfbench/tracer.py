"""Spans at the subdiv module boundaries, recorded from outside the package.

``Tracer.install`` replaces each boundary function listed in ``BOUNDARY``
with a timing wrapper at every module attribute that refers to it (so both
``subdiv.operators.apply`` and the ``apply`` that ``subdiv.refine``
imported are wrapped), and on classes for methods such as
``Window.__init__``; ``uninstall`` puts the originals back.

Each call becomes a span (name, start, end, parent, op id) kept in flat
arrays until ``write``.  Self time is a span's duration minus the durations
of its direct children, so the self times of one op's spans add up to the
op's root span.  Certify stages are attributed by call site: a boundary
call made from code in ``subdiv.schemes`` also adds its whole duration to
its ``schemes.certify.*`` stage.
"""

from __future__ import annotations

import functools
import glob
import os
import sys
import time
import tracemalloc
from array import array
from collections import Counter, defaultdict

import numpy as np

from subdiv import catalog, cli, masks, operators, refine, schemes


def _bytes_written(args, kwargs, result, counts):
    argv = list(args[0] if args else kwargs.get("argv") or [])
    if "--out" in argv:
        out = argv[argv.index("--out") + 1]
        counts["cli.bytes_written"] += sum(
            os.path.getsize(p) for p in glob.glob(glob.escape(out) + "*")
        )


def _count(key, measure):
    def counter(args, kwargs, result, counts):
        counts[key] += measure(args, result)
    return counter


def _certified(args, kwargs, result, counts):
    counts["schemes.certify.c1_exact"] += bool(result.meta.get("c1_exact"))


def _decay(args, kwargs, result, counts):
    counts["refine.bound_violations"] += result.bounds_hold is False


# owner, attribute, span name, certify stage when called from subdiv.schemes,
# counter run on each completed call.
BOUNDARY = [
    (cli, "main", "cli.main", None, _bytes_written),
    (catalog, "parse_scheme_arg", "catalog.parse_scheme_arg", None, None),
    (schemes.SchemeSpec, "mask_at", "schemes.SchemeSpec.mask_at", None, None),
    (schemes, "certify_theorem4", "schemes.certify_theorem4", None, _certified),
    (schemes, "similarity_report", "schemes.similarity_report", "similarity_s",
     _count("schemes.similarity_report.levels", lambda a, r: len(r.ks))),
    (schemes, "boundedness_estimate", "schemes.boundedness_estimate", "boundedness_s", None),
    (operators, "condition_a_search", "operators.condition_a_search", "search_s", None),
    (operators, "compose_all", "operators.compose_all", "transfer_s", None),
    (operators, "residue_class_norm", "operators.residue_class_norm", "transfer_s", None),
    (operators, "product_norm", "operators.product_norm", "c1_prefix_s", None),
    (operators, "compose", "operators.compose", None,
     _count("operators.compose.coeffs_out", lambda a, r: len(r.mask))),
    (operators, "apply", "operators.apply", None,
     _count("operators.apply.values_out", lambda a, r: len(r))),
    (operators.Window, "__init__", "operators.Window", None,
     _count("operators.Window.bytes_copied", lambda a, r: a[0].values.nbytes)),
    (refine, "refine_once", "refine.refine_once", None, None),
    (refine, "decay_report", "refine.decay_report", None, _decay),
    (refine, "limit_sample", "refine.limit_sample", None, None),
    (masks, "difference_mask", "masks.difference_mask", None, None),
    (masks.Mask, "__post_init__", "masks.Mask", None, None),
]

STAGES = ("search_s", "similarity_s", "boundedness_s", "transfer_s", "c1_prefix_s")


class Tracer:
    def __init__(self):
        self.active = False
        self.measure_alloc = False
        self.alloc_peak = 0
        self.op = -1
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_op = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span index, seconds covered by children]
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.stage_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.op_self_sum: defaultdict = defaultdict(float)
        self.op_wall: dict[int, float] = {}
        self._saved: list[tuple] = []

    # -- spans -------------------------------------------------------------
    def open(self, name: str) -> None:
        name_id = self.name_ids.setdefault(name, len(self.name_ids))
        parent = self._stack[-1][0] if self._stack else -1
        self.span_name.append(name_id)
        self.span_op.append(self.op)
        self.span_parent.append(parent)
        self.span_end.append(0.0)
        self._stack.append([len(self.span_start), 0.0])
        self.span_start.append(time.perf_counter())

    def close(self, name: str) -> float:
        end = time.perf_counter()
        index, children = self._stack.pop()
        self.span_end[index] = end
        duration = end - self.span_start[index]
        if self._stack:
            self._stack[-1][1] += duration
        own = duration - children
        self.calls[name] += 1
        self.self_s[name] += own
        self.op_self_sum[self.op] += own
        return duration

    def begin_op(self, op: int) -> None:
        self.op = op
        self.open("op")

    def end_op(self) -> None:
        self.op_wall[self.op] = self.close("op")

    # -- wrapping ----------------------------------------------------------
    def _wrap(self, fn, name, stage, counter):
        tracer = self
        stage_key = f"schemes.certify.{stage}" if stage else None
        alloc = name == "refine.decay_report"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if alloc and tracer.measure_alloc:
                return tracer._peak_alloc(fn, args, kwargs)
            if not tracer.active:
                return fn(*args, **kwargs)
            caller = sys._getframe(1).f_globals.get("__name__")
            tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = tracer.close(name)
            if stage_key and caller == "subdiv.schemes":
                tracer.stage_s[stage_key] += duration
                if stage == "c1_prefix_s":
                    tracer.counts["schemes.certify.prefix_factors"] += len(args[0])
            if counter:
                counter(args, kwargs, result, tracer.counts)
            return result

        return traced

    def _peak_alloc(self, fn, args, kwargs):
        """Run fn under tracemalloc and keep the largest peak seen."""
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            self.alloc_peak = max(self.alloc_peak, tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    def install(self) -> None:
        """Wrap every boundary function wherever a subdiv module holds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "subdiv" or n.startswith("subdiv."))]
        for owner, attr, name, stage, counter in BOUNDARY:
            original = owner.__dict__[attr]
            wrapper = self._wrap(original, name, stage, counter)
            holders = [owner] if isinstance(owner, type) else [
                m for m in modules if m.__dict__.get(attr) is original
            ]
            for holder in holders:
                self._saved.append((holder, attr, original))
                setattr(holder, attr, wrapper)
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for holder, attr, original in reversed(self._saved):
            setattr(holder, attr, original)
        self._saved.clear()

    # -- results -----------------------------------------------------------
    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer totals over every recorded span, as (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        for _, _, name, _, _ in BOUNDARY:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
        for stage in STAGES:
            out[f"schemes.certify.{stage}"] = (self.stage_s[f"schemes.certify.{stage}"], "s")
        for key in ("cli.bytes_written", "operators.Window.bytes_copied"):
            out[key] = (self.counts[key], "B")
        for key in ("operators.apply.values_out", "operators.compose.coeffs_out",
                    "schemes.certify.prefix_factors", "schemes.similarity_report.levels",
                    "refine.bound_violations"):
            out[key] = (self.counts[key], "count")
        certified = self.calls["schemes.certify_theorem4"]
        out["schemes.certify.c1_exact_ratio"] = (
            self.counts["schemes.certify.c1_exact"] / certified if certified else 1.0, "ratio"
        )
        out["refine.decay_report.peak_alloc_mb"] = (self.alloc_peak / 2**20, "MB")
        return out

    def self_sum_error(self) -> float:
        """Largest gap between an op's root span and the sum of its self times."""
        return max((abs(self.op_self_sum[op] - wall) for op, wall in self.op_wall.items()),
                   default=0.0)

    def write(self, path: str) -> None:
        names = sorted(self.name_ids, key=self.name_ids.get)
        np.savez(
            path, names=np.array(names), name=np.frombuffer(self.span_name, np.int32),
            op=np.frombuffer(self.span_op, np.int32),
            parent=np.frombuffer(self.span_parent, np.int32),
            start=np.frombuffer(self.span_start, np.float64),
            end=np.frombuffer(self.span_end, np.float64),
        )

