"""In-memory spans around rovib's public functions.

A span is recorded by replacing a function at the module attribute where
its caller looks it up (``rovib.spectrum.derive`` is the name
``spectrum.level`` calls, ``rovib.oracle.eigh_tridiagonal`` the one the
oracle calls), so nothing under ``src/`` is edited.  Each span keeps its
name, start, end, parent span and request id in flat arrays until the run
ends; ``summary`` then reduces them to per-name counts and self times.

A boundary that a later refactor removes is listed in ``absent`` and the
run goes on without it.
"""

from __future__ import annotations

import importlib
from array import array
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Mapping

import numpy as np

Counter = Callable[[tuple, dict, Any], Mapping[str, float]]


def _bound(args, kwargs, level):
    return {"spectrum.bound": 1.0 if level.bound else 0.0}


def _grid_points(args, kwargs, result):
    return {"oracle.grid_points_solved": float(len(args[0]))}


def _converge_points(args, kwargs, result):
    return {"oracle.converge_points_fine": float(result.n_points_fine)}


# (module, attribute, span name, counter).  The span name's first part is
# the layer that does the work, whatever module looks the function up.
BOUNDARIES: tuple[tuple[str, str, str, Counter | None], ...] = (
    ("rovib.database", "load_database", "database.load", None),
    ("rovib.spectrum", "level_table", "spectrum.level_table", None),
    ("rovib.spectrum", "level", "spectrum.level", _bound),
    ("rovib.spectrum", "derive", "potentials.derive", None),
    ("rovib.spectrum", "to_pform", "potentials.to_pform", None),
    ("rovib.spectrum", "badawi_coefficients", "rotational.badawi", None),
    ("rovib.spectrum", "effective_coefficients", "rotational.effective", None),
    ("rovib.spectrum", "energy", "spectrum.energy", None),
    ("rovib.oracle", "deviation_report", "oracle.deviation_report", None),
    ("rovib.oracle", "converge", "oracle.converge", _converge_points),
    ("rovib.oracle", "level_table", "spectrum.level_table", None),
    ("rovib.oracle", "evaluate", "potentials.evaluate", None),
    ("rovib.oracle", "eigh_tridiagonal", "oracle.eigensolve", _grid_points),
    ("rovib.cli", "main", "cli.main", None),
    ("rovib.cli", "load_database", "database.load", None),
    ("rovib.cli", "level_table", "spectrum.level_table", None),
    ("rovib.cli", "deviation_report", "oracle.deviation_report", None),
    ("rovib.cli", "morse_vibrational_energy", "spectrum.morse", None),
    ("rovib.cli", "derive", "potentials.derive", None),
    ("rovib.cli", "verify_varshni", "potentials.verify_varshni", None),
    ("rovib.cli", "alpha_dmrm", "potentials.alpha_dmrm", None),
    ("rovib.cli", "badawi_coefficients", "rotational.badawi", None),
    ("rovib.cli", "centrifugal_approx_error", "rotational.approx_error", None),
    ("rovib.cli", "greene_aldrich_error", "rotational.greene_aldrich", None),
)


class Tracer:
    """Span recorder for one thread.  Spans are taken only while ``active``."""

    def __init__(self) -> None:
        self.active = False
        self.request_id = -1
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.error = array("b")
        self.counters: dict[str, float] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self.request_id)
        self.error.append(0)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(perf_counter())
        return index

    def _close(self, index: int, failed: bool) -> None:
        self.end[index] = perf_counter()
        self._stack.pop()
        if failed:
            self.error[index] = 1

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        failed = False
        try:
            yield
        except Exception:
            failed = True
            raise
        finally:
            self._close(index, failed)

    def wrap(self, module: str, attr: str, name: str, counter: Counter | None = None):
        """Record a span named ``name`` around every call of module.attr."""
        try:
            owner = importlib.import_module(module)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.absent.append(f"{module}.{attr}")
            return

        def traced(*args, **kwargs):
            if not self.active:
                return original(*args, **kwargs)
            index = self._open(name)
            failed = False
            try:
                result = original(*args, **kwargs)
            except Exception:
                failed = True
                raise
            finally:
                self._close(index, failed)
            if counter is not None:
                self._count(name, counter, args, kwargs, result)
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def _count(self, name, counter, args, kwargs, result) -> None:
        try:
            increments = counter(args, kwargs, result)
        except (AttributeError, IndexError, TypeError):
            label = f"{name} (counter)"
            if label not in self.absent:
                self.absent.append(label)
            return
        for key, value in increments.items():
            self.counters[key] = self.counters.get(key, 0.0) + value

    def install(self, boundaries=BOUNDARIES) -> None:
        for module, attr, name, counter in boundaries:
            self.wrap(module, attr, name, counter)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def summary(self) -> dict:
        """Per span name: calls, errors, total and self seconds; plus counters."""
        return {
            "spans": summarize(
                self.names, self.start, self.end, self.name, self.parent, self.error
            ),
            "counters": dict(self.counters),
            "absent": list(self.absent),
            "span_count": len(self.start),
        }


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the time its child spans cover.

    Spans come from one thread's call stack, so children of one parent
    never overlap and their durations add.
    """
    duration = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    parent = np.asarray(parent)
    has_parent = parent >= 0
    covered = np.bincount(
        parent[has_parent], weights=duration[has_parent], minlength=duration.size
    )
    duration -= covered
    return duration


def summarize(
    names, start, end, name, parent, error, chunk: int = 1 << 20
) -> dict[str, dict[str, float]]:
    """Calls, errors, total and self seconds per span name.

    Works through the spans in pieces of about ``chunk`` that start at a
    root span, so a long traced run needs little memory beyond the spans.
    """
    start, end, name, parent, error = map(np.asarray, (start, end, name, parent, error))
    # Spans are appended in call order, so a piece that starts at a root
    # span holds whole subtrees and its parent indices stay inside it.
    roots = np.flatnonzero(parent < 0)
    cuts = roots[:0]
    if roots.size:
        first = np.searchsorted(roots, np.arange(0, parent.size, chunk))
        cuts = np.unique(roots[np.minimum(first, roots.size - 1)])
    sums = np.zeros((4, len(names)))
    for lo, hi in zip(cuts, [*cuts[1:], parent.size]):
        piece = parent[lo:hi]
        ids = name[lo:hi]
        duration = end[lo:hi] - start[lo:hi]
        own = self_times(start[lo:hi], end[lo:hi], np.where(piece >= 0, piece - lo, -1))
        for row, weights in enumerate((None, error[lo:hi], duration, own)):
            sums[row] += np.bincount(ids, weights=weights, minlength=len(names))
    return {
        label: {
            "calls": int(sums[0, i]),
            "errors": int(sums[1, i]),
            "total_s": float(sums[2, i]),
            "self_s": float(sums[3, i]),
        }
        for i, label in enumerate(names)
    }


def merge(summaries) -> dict:
    """Add up summaries from several processes."""
    merged: dict = {"spans": {}, "counters": {}, "absent": [], "span_count": 0}
    for part in summaries:
        for label, stats in part["spans"].items():
            into = merged["spans"].setdefault(label, dict.fromkeys(stats, 0))
            for key, value in stats.items():
                into[key] += value
        for key, value in part["counters"].items():
            merged["counters"][key] = merged["counters"].get(key, 0.0) + value
        merged["absent"] += [a for a in part["absent"] if a not in merged["absent"]]
        merged["span_count"] += part["span_count"]
    return merged
