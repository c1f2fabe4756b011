"""Timing spans around calls into gaflearn, installed from outside the package.

A :class:`Tracer` swaps a module attribute (say ``gaflearn.train.gradients``)
for a wrapper that times each call, and puts the original back on
:meth:`Tracer.uninstall`. Only the name a caller looks up is replaced, so a
span sees exactly the calls made through that module's namespace; nothing
under ``src/`` is edited.

Spans nest: each open span accumulates the time of the spans it encloses,
so a span's self time is its duration minus its children's. Totals are kept
per span name in memory rather than as a list of spans, because the hot
spans (one per Adam step) number in the hundreds of thousands.

Fitness evaluation may run in a process pool. Workers are forked, so they
inherit the wrappers; a worker clears the copied totals at fork and appends
what it recorded to a spool file each time its outermost span closes. The
parent reads the spool with :meth:`Tracer.collect_workers`. Worker totals are
kept apart from the parent's, because worker time runs in parallel with the
parent's wait and must not be added to the parent's wall time.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable


class SpanTotals:
    """Call count, total seconds and self seconds per span name."""

    def __init__(self) -> None:
        self.count: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)

    def add(self, name: str, count: int, total: float, self_time: float) -> None:
        self.count[name] += count
        self.total[name] += total
        self.self_time[name] += self_time

    def as_dict(self) -> dict:
        return {n: [self.count[n], self.total[n], self.self_time[n]] for n in self.count}


class Tracer:
    def __init__(self, spool_dir: Path) -> None:
        self.home_pid = os.getpid()
        self.spool_dir = spool_dir
        self.parent = SpanTotals()
        self.workers = SpanTotals()
        # one record per trained weight set, from the parent or a worker
        self.trainings: list[dict] = []
        # observations made by result hooks, e.g. rows dropped per load
        self.observed: dict[str, list[float]] = defaultdict(list)
        self._stack: list[float] = []
        self._patched: list[tuple[object, str, object]] = []
        os.register_at_fork(after_in_child=self._forget)

    def _forget(self) -> None:
        self.parent = SpanTotals()
        self.trainings = []
        self.observed = defaultdict(list)
        self._stack = []

    # -- installing spans ---------------------------------------------------

    def wrap(
        self,
        module,
        attr: str,
        name: str,
        observe: Callable[["Tracer", tuple, object, float], None] | None = None,
    ) -> None:
        """Replace ``module.attr`` by a timed wrapper recorded as ``name``.

        ``observe(tracer, args, result, seconds)`` runs after the call,
        outside the timed interval, to record what the call's result carries.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = self._stack
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                children = stack.pop()
                self.parent.add(name, 1, elapsed, elapsed - children)
                if stack:
                    stack[-1] += elapsed
            if observe is not None:
                observe(self, args, result, elapsed)
            if not stack and os.getpid() != self.home_pid:
                self._flush_worker()
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- worker spool ---------------------------------------------------------

    def _flush_worker(self) -> None:
        line = json.dumps(
            {"spans": self.parent.as_dict(), "trainings": self.trainings}
        )
        with open(self.spool_dir / f"worker-{os.getpid()}.jsonl", "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        self._forget()

    def collect_workers(self) -> None:
        """Merge and delete the spool files that pool workers wrote."""
        for path in sorted(self.spool_dir.glob("worker-*.jsonl")):
            for line in path.read_text(encoding="utf-8").splitlines():
                doc = json.loads(line)
                for name, (count, total, self_time) in doc["spans"].items():
                    self.workers.add(name, count, total, self_time)
                self.trainings.extend(doc["trainings"])
            path.unlink()


def structure_key(structure) -> str:
    """Stable digest of a connection structure, to spot repeated trainings."""
    h = hashlib.blake2b(digest_size=8)
    for src, dst, mask in structure.blocks:
        h.update(f"{src},{dst},{mask.shape}".encode())
        h.update(mask.tobytes())
    return h.hexdigest()


def training_observer(source: str):
    """Result hook for ``train(structure, x, y, x_val, y_val, config)``."""

    def observe(tracer: Tracer, args: tuple, result, seconds: float) -> None:
        tracer.trainings.append(
            {
                "source": source,
                "key": structure_key(args[0]),
                "epochs": result.epochs_run,
                "max_epochs": args[5].max_epochs,
                "seconds": seconds,
            }
        )

    return observe
