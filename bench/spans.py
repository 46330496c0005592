"""In-memory spans around the public functions of each nhwind layer.

The tracer replaces a function at every name it is bound to in the
package (``nhwind.berry.hk`` as well as ``nhwind.bloch.hk``, for
instance), so calls made inside the package are seen too.  Nothing
under ``src/`` changes: :meth:`Tracer.restore` puts the original
objects back.

Each span records its name, its parent span, its start and end, an
optional amount of work (samples, matrix dimension or kept samples)
and the class of an exception that left it.  Self time is a span's
duration minus the time its child spans cover.
"""
from __future__ import annotations

import functools
import sys
import time

MODULES = ("nhwind", "nhwind.bloch", "nhwind.berry", "nhwind.lattice",
           "nhwind.cli")
# Prefix of the stderr line that carries a traced command's summary.
MARK = "NHBENCH-SPANS "


def _k_samples(args, kwargs, result):
    k = args[1] if len(args) > 1 else kwargs["k"]
    return int(getattr(k, "size", 1))


def _kept_samples(args, kwargs, result):
    return int(result.k_grid.size)


def _dimension(args, kwargs, result):
    return int((args[0] if args else kwargs["h"]).shape[0])


# (layer, function, amount of work recorded on each span)
TRACED = (
    ("bloch", "hk", _k_samples),
    ("bloch", "hk_derivative", _k_samples),
    ("berry", "loop_period", _kept_samples),
    ("berry", "berry_phase", None),
    ("berry", "band_winding", None),
    ("berry", "split_check", None),
    ("berry", "winding_report", None),
    ("lattice", "build_chain", None),
    ("lattice", "eig_dense", _dimension),
    ("lattice", "left_vectors", None),
    ("lattice", "ipr", None),
    ("lattice", "spectral_gap", None),
    ("lattice", "defectiveness", None),
    ("lattice", "chain_spectrum", None),
    ("lattice", "localization_profile", None),
    ("lattice", "spectrum_scan", None),
    ("cli", "main", None),
)

ERROR_CLASSES = ("GaugeSingular", "Defective", "AmbiguousTracking",
                 "NoClosure", "ValueError")


class Span:
    __slots__ = ("name", "parent", "start", "end", "amount", "error")

    def __init__(self, name: str, parent: int, start: float) -> None:
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.amount = 0
        self.error = None


class Tracer:
    """Records spans while installed; one instance per traced process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, amount):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, 0.0)
            spans.append(span)
            stack.append(len(spans) - 1)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if amount is not None:
                span.amount = amount(args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        """Wrap every traced function at each name that binds it."""
        modules = [sys.modules[name] for name in MODULES
                   if name in sys.modules]
        for layer, fname, amount in TRACED:
            home = sys.modules[f"nhwind.{layer}"]
            original = getattr(home, fname)
            wrapper = self._wrap(f"{layer}.{fname}", original, amount)
            for module in modules:
                if getattr(module, fname, None) is original:
                    self._patches.append((module, fname, original))
                    setattr(module, fname, wrapper)

    def restore(self) -> None:
        for module, fname, original in reversed(self._patches):
            setattr(module, fname, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def summary(self) -> dict:
        """Per-name totals plus the derived counts the benchmark reports.

        Returns ``{"calls", "total_s", "self_s", "amount"}``, each a
        dict keyed by span name, plus ``loop_period_hk_samples`` (``hk``
        samples evaluated inside ``loop_period``), ``n3_sum`` (sum of
        dim**3 over dense solves), ``refusals`` (``MatchFailure`` out of
        ``left_vectors``) and ``errors`` (exceptions leaving the berry
        layer, once each, by class).
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for span in spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        calls: dict[str, int] = {}
        total_s: dict[str, float] = {}
        self_s: dict[str, float] = {}
        amount: dict[str, int] = {}
        errors = dict.fromkeys(ERROR_CLASSES + ("other",), 0)
        hk_in_loop = n3_sum = refusals = 0
        for i, span in enumerate(spans):
            name = span.name
            duration = span.end - span.start
            calls[name] = calls.get(name, 0) + 1
            total_s[name] = total_s.get(name, 0.0) + duration
            self_s[name] = self_s.get(name, 0.0) + duration - child_time[i]
            amount[name] = amount.get(name, 0) + span.amount
            if name == "lattice.eig_dense":
                n3_sum += span.amount ** 3
            if name == "lattice.left_vectors" and span.error == "MatchFailure":
                refusals += 1
            if name == "bloch.hk" and self._has_ancestor(i, "berry.loop_period"):
                hk_in_loop += span.amount
            if (span.error is not None and name.startswith("berry.")
                    and not self._parent_is_berry(span)):
                key = span.error if span.error in errors else "other"
                errors[key] += 1
        return {"calls": calls, "total_s": total_s, "self_s": self_s,
                "amount": amount, "loop_period_hk_samples": hk_in_loop,
                "n3_sum": n3_sum,
                "refusals": refusals, "errors": errors}

    def _has_ancestor(self, i: int, name: str) -> bool:
        parent = self.spans[i].parent
        while parent >= 0:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent
        return False

    def _parent_is_berry(self, span: Span) -> bool:
        return (span.parent >= 0
                and self.spans[span.parent].name.startswith("berry."))


def merge(total: dict, part: dict) -> dict:
    """Add the summary ``part`` into ``total`` (both as from ``summary``)."""
    for key, value in part.items():
        if isinstance(value, dict):
            merge(total.setdefault(key, {}), value)
        else:
            total[key] = total.get(key, 0) + value
    return total
