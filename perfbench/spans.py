"""Spans around the public functions of each bhkovacic layer, installed at run time.

The program is not edited.  A traced function is replaced by a wrapper in
every ``bhkovacic`` module namespace that holds it, so calls made through a
``from .module import name`` binding are recorded as well as calls through
the defining module.  Wrappers do not reach process-pool workers: a traced
run is serial.  ``Poly`` methods are not wrapped; they are too hot, and the
kernel timings cover them.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in Tracer.spans, -1 at the top


@dataclass(frozen=True)
class Target:
    """One traced function: its metric prefix, where it is defined, and hooks."""

    name: str
    module: str
    attr: str  # "function" or "Class.method"
    # when set, the span is named "<name>.<variant>" from the call's arguments
    variant: Optional[Callable[..., str]] = None
    variants: tuple = ()
    # exact counts taken from the return value
    count: Optional[Callable[[object], dict]] = None


def _expansion_basis(l, basis, *args, **kwargs) -> str:
    return basis


TARGETS = (
    Target("cli.run_verify_all", "bhkovacic.cli", "run_verify_all"),
    Target(
        "reporting.to_json",
        "bhkovacic.reporting",
        "Report.to_json",
        count=lambda text: {"reporting.json_bytes": len(text.encode())},
    ),
    Target(
        "evidence.scan",
        "bhkovacic.evidence",
        "scan",
        count=lambda report: {"evidence.cells": report.cells},
    ),
    Target("evidence.cross_check_cell", "bhkovacic.evidence", "cross_check_cell"),
    Target("evidence.s3_nonexistence", "bhkovacic.evidence", "s3_nonexistence"),
    Target("elimination.bareiss_determinant", "bhkovacic.elimination", "bareiss_determinant"),
    Target("elimination.nullspace", "bhkovacic.elimination", "nullspace"),
    Target("auxode.chandrasekhar_checks", "bhkovacic.auxode", "chandrasekhar_checks"),
    Target("auxode.chandrasekhar_coeffs", "bhkovacic.auxode", "chandrasekhar_coeffs"),
    Target("auxode.chandrasekhar_r_frame", "bhkovacic.auxode", "chandrasekhar_r_frame"),
    Target("auxode.ode_residual", "bhkovacic.auxode", "ode_residual"),
    Target(
        "auxode.brute_force_polynomial_solutions",
        "bhkovacic.auxode",
        "brute_force_polynomial_solutions",
    ),
    Target("auxode.solve_low_degree", "bhkovacic.auxode", "solve_low_degree"),
    Target(
        "hautot.extended_expansion",
        "bhkovacic.hautot",
        "extended_expansion",
        variant=_expansion_basis,
        variants=("kummer", "laguerre"),
    ),
    Target(
        "hautot.determinant_equality_check", "bhkovacic.hautot", "determinant_equality_check"
    ),
    Target("hautot.det_A", "bhkovacic.hautot", "det_A"),
    Target("kovacic.enumerate_families_n1", "bhkovacic.kovacic", "enumerate_families_n1"),
    Target("kovacic.retain_families", "bhkovacic.kovacic", "retain_families"),
    Target("master.special_frequency", "bhkovacic.master", "special_frequency"),
)

# every span name a traced run can produce, in report order
SPAN_NAMES = tuple(
    name
    for t in TARGETS
    for name in ([f"{t.name}.{v}" for v in t.variants] if t.variants else [t.name])
)
COUNT_NAMES = ("reporting.json_bytes", "evidence.cells")


def rebind(targets, make_wrapper, missing_ok: bool = False) -> list:
    """Replace each target by ``make_wrapper(target, original)`` wherever it is bound.

    A function is rebound in every ``bhkovacic`` module namespace that holds
    it, a method on its class only.  With ``missing_ok`` a target the program
    no longer has is skipped.  Returns (holder, name, original) triples to
    undo the change in reverse order.
    """
    undo = []
    for target in targets:
        owner = importlib.import_module(target.module)
        path = target.attr.split(".")
        if missing_ok and not _has_path(owner, path):
            continue
        for part in path[:-1]:
            owner = getattr(owner, part)
        original = getattr(owner, path[-1])
        wrapper = make_wrapper(target, original)
        if len(path) > 1:
            holders = [owner]
        else:
            holders = [
                module
                for name, module in list(sys.modules.items())
                if name == "bhkovacic" or name.startswith("bhkovacic.")
            ]
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, wrapper)
                    undo.append((holder, key, original))
    return undo


def _has_path(owner, path) -> bool:
    for part in path:
        if not hasattr(owner, part):
            return False
        owner = getattr(owner, part)
    return True


class Tracer:
    """Records spans in memory while installed; ``restore`` puts the originals back."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {name: 0 for name in COUNT_NAMES}
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, target: Target, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = target.name
            if target.variant:
                name = f"{name}.{target.variant(*args, **kwargs)}"
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, time.perf_counter(), 0.0, parent)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if target.count:
                for key, value in target.count(result).items():
                    self.counts[key] += value
            return result

        return traced

    def install(self) -> None:
        self._undo = rebind(TARGETS, self._wrap)

    def restore(self) -> None:
        while self._undo:
            holder, key, original = self._undo.pop()
            setattr(holder, key, original)

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its direct children cover.

        Calls are serial, so direct children are disjoint and lie inside
        their parent; their durations add up to the covered part.
        """
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                covered[span.parent] += span.end - span.start
        return [
            max(0.0, span.end - span.start - cover)
            for span, cover in zip(self.spans, covered)
        ]

    def layer_metrics(self) -> dict:
        """``<span>.s`` (inclusive), ``<span>.self_s`` and ``<span>.calls`` per span name."""
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.s"] = 0.0
            out[f"{name}.self_s"] = 0.0
            out[f"{name}.calls"] = 0
        for span, own in zip(self.spans, self.self_times()):
            out[f"{span.name}.s"] += span.end - span.start
            out[f"{span.name}.self_s"] += own
            out[f"{span.name}.calls"] += 1
        out.update(self.counts)
        return out

    def write(self, path, rep: int) -> None:
        """Append the spans as JSON lines, times relative to the first span."""
        origin = self.spans[0].start if self.spans else 0.0
        with open(path, "a") as sink:
            for span in self.spans:
                sink.write(
                    json.dumps(
                        {
                            "rep": rep,
                            "name": span.name,
                            "start": span.start - origin,
                            "end": span.end - origin,
                            "parent": span.parent,
                        }
                    )
                    + "\n"
                )
