"""Per-layer tracing of baseseq from outside the package.

The tracer swaps module attributes of ``baseseq`` for timing wrappers
while it is installed and puts the originals back when it is removed,
so no file under ``src/baseseq`` changes.  Spans nest through a stack:
each span's duration is added to its parent's covered time, so a
layer's self time is its total minus the time its child spans cover.
Everything is aggregated in memory and turned into metrics at the end
of the traced iteration.

Only calls made in this process are seen.  Work that the search farms
out to its process pool runs in forked children whose spans are lost;
the parent reports the time it waits for them as ``searcher.pool_wait``.
"""

from __future__ import annotations

import os
import statistics
import time
import types
from collections import defaultdict
from typing import Callable, Iterable, Iterator, Optional


class Tracer:
    """Span totals, covered child time, call counts and named counters."""

    def __init__(self):
        self.total: dict[str, float] = defaultdict(float)
        self.covered: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.task_ms: list[float] = []
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    # --- spans ---------------------------------------------------------------

    def _enter(self) -> float:
        self._stack.append(0.0)
        return time.perf_counter()

    def _exit(self, name: str, start: float) -> float:
        dur = time.perf_counter() - start
        self.covered[name] += self._stack.pop()
        self.total[name] += dur
        self.calls[name] += 1
        if self._stack:
            self._stack[-1] += dur
        return dur

    def self_time(self, name: str) -> float:
        return self.total[name] - self.covered[name]

    def timed(self, name: str, fn: Callable,
              after: Optional[Callable[[tuple, object, float], None]] = None) -> Callable:
        """Wrap ``fn`` in a span; ``after(args, result, seconds)`` runs on success."""
        def wrapper(*args, **kwargs):
            start = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = self._exit(name, start)
            if after is not None:
                after(args, result, dur)
            return result
        return wrapper

    def timed_iter(self, name: str, items: Iterable, counter: Optional[str] = None) -> Iterator:
        """Yield from ``items``, timing only the time spent inside ``next()``."""
        it = iter(items)
        try:
            while True:
                start = self._enter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._exit(name, start)
                if counter:
                    self.counts[counter] += 1
                yield item
        finally:
            close = getattr(it, "close", None)
            if close is not None:
                close()

    # --- installation --------------------------------------------------------

    def _patch(self, module, attr: str, replacement) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def install(self) -> None:
        """Wrap the layer boundaries of every baseseq module the search uses."""
        from baseseq import cli, equiv, numfilter, searcher, seqcore, specfilter

        counts = self.counts

        def count_tasks(_args, result, _dur):
            counts["tasks"] += len(result)

        def count_pass(_args, result, _dur):
            counts["pair_filter_pass"] += bool(result)

        def count_completions(_args, result, _dur):
            counts["completions"] += len(result)
            counts["backtrack_hits"] += bool(result)

        def note_task(_args, _result, dur):
            self.task_ms.append(dur * 1000.0)

        def count_members(_args, result, _dur):
            counts["orbit_members"] += len(result)

        def count_bytes(args, _result, _dur):
            counts["checkpoint_bytes"] += os.path.getsize(args[0])

        def expand(*args, **kwargs):
            return self.timed_iter("searcher.expand", original_expand(*args, **kwargs),
                                   counter="candidates")

        original_expand = searcher.expand_candidates
        verify = self.timed("seqcore.verify", seqcore.verify)
        search = self.timed("searcher.search", searcher.search)
        patches = [
            (numfilter, "sum_profiles", self.timed("numfilter.sum_profiles", numfilter.sum_profiles)),
            (numfilter, "residue_profiles",
             self.timed("numfilter.residue_profiles", numfilter.residue_profiles)),
            (numfilter, "refine_profiles",
             self.timed("numfilter.refine_profiles", numfilter.refine_profiles)),
            (searcher, "build_tasks",
             self.timed("searcher.build_tasks", searcher.build_tasks, count_tasks)),
            (searcher, "residue_halves",
             self.timed("searcher.residue_halves", searcher.residue_halves)),
            (searcher, "expand_candidates", expand),
            (specfilter, "pair_filter",
             self.timed("specfilter.pair_filter", specfilter.pair_filter, count_pass)),
            (searcher, "backtrack_complete",
             self.timed("searcher.backtrack", searcher.backtrack_complete, count_completions)),
            # searcher binds verify by name at import, so both names are wrapped
            (seqcore, "verify", verify),
            (searcher, "verify", verify),
            (searcher, "run_task", self.timed("searcher.run_task", searcher.run_task, note_task)),
            (equiv, "orbit", self.timed("equiv.orbit", equiv.orbit, count_members)),
            (searcher, "save_checkpoint",
             self.timed("searcher.checkpoint_save", searcher.save_checkpoint, count_bytes)),
            (searcher, "load_checkpoint",
             self.timed("searcher.checkpoint_load", searcher.load_checkpoint)),
            # cli binds search by name at import, so both names are wrapped
            (searcher, "search", search),
            (cli, "search", search),
            (cli, "main", self.timed("cli.main", cli.main)),
            (searcher, "multiprocessing", self._pool_waits(searcher.multiprocessing)),
        ]
        for module, attr, replacement in patches:
            self._patch(module, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def _pool_waits(self, multiprocessing) -> types.SimpleNamespace:
        """A stand-in for the multiprocessing module whose pools time imap waits."""
        tracer = self

        class _Pool:
            def __init__(self, pool):
                self._pool = pool

            def __enter__(self):
                self._pool.__enter__()
                return self

            def __exit__(self, *exc):
                return self._pool.__exit__(*exc)

            def terminate(self):
                self._pool.terminate()

            def imap(self, *args, **kwargs):
                return tracer.timed_iter("searcher.pool_wait", self._pool.imap(*args, **kwargs))

        def get_context(method=None):
            ctx = multiprocessing.get_context(method)
            return types.SimpleNamespace(Pool=lambda *a, **k: _Pool(ctx.Pool(*a, **k)))

        return types.SimpleNamespace(get_context=get_context)

    # --- metrics -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything traced so far (0 for layers that never ran)."""
        total, calls, counts = self.total, self.calls, self.counts
        tasks = sorted(self.task_ms)
        return {
            "numfilter.sum_profiles_s": total["numfilter.sum_profiles"],
            "numfilter.residue_profiles_s": total["numfilter.residue_profiles"],
            "numfilter.refine_profiles_s": total["numfilter.refine_profiles"],
            "numfilter.refine_profiles_calls": calls["numfilter.refine_profiles"],
            "searcher.build_tasks_s": total["searcher.build_tasks"],
            "searcher.residue_halves_self_s": self.self_time("searcher.residue_halves"),
            "searcher.tasks": counts["tasks"],
            "searcher.expand_s": total["searcher.expand"],
            "searcher.candidates": counts["candidates"],
            "specfilter.pair_filter_s": total["specfilter.pair_filter"],
            "specfilter.pair_filter_calls": calls["specfilter.pair_filter"],
            "specfilter.pass_ratio": _ratio(counts["pair_filter_pass"],
                                            calls["specfilter.pair_filter"]),
            "searcher.backtrack_s": total["searcher.backtrack"],
            "searcher.backtrack_calls": calls["searcher.backtrack"],
            "searcher.completions": counts["completions"],
            "searcher.completion_ratio": _ratio(counts["backtrack_hits"],
                                                calls["searcher.backtrack"]),
            "seqcore.verify_s": total["seqcore.verify"],
            "searcher.run_task_s": total["searcher.run_task"],
            "searcher.run_task_self_s": self.self_time("searcher.run_task"),
            "searcher.task_ms.p50": statistics.median(tasks) if tasks else 0.0,
            "searcher.task_ms.p90": _p90(tasks),
            "searcher.task_ms.samples": len(tasks),
            "equiv.orbit_s": total["equiv.orbit"],
            "equiv.orbit_calls": calls["equiv.orbit"],
            "equiv.orbit_members": counts["orbit_members"],
            "searcher.checkpoint_save_s": total["searcher.checkpoint_save"],
            "searcher.checkpoint_saves": calls["searcher.checkpoint_save"],
            "searcher.checkpoint_bytes": counts["checkpoint_bytes"],
            "searcher.checkpoint_load_s": total["searcher.checkpoint_load"],
            "searcher.pool_wait_s": total["searcher.pool_wait"],
            "searcher.other_s": self.self_time("searcher.search"),
            "cli.other_s": self.self_time("cli.main"),
        }


def _ratio(hits: int, attempts: int) -> float:
    return hits / attempts if attempts else 0.0


def _p90(sorted_ms: list[float]) -> float:
    if len(sorted_ms) < 2:
        return sorted_ms[0] if sorted_ms else 0.0
    return statistics.quantiles(sorted_ms, n=10)[8]
