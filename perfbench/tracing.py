"""In-memory span tracer that times the library's layers from outside.

The tracer replaces a layer's public function *at its use site* (the
module attribute or class method the caller looks up at call time) with
a wrapper that records one span per call: layer name, start, end, the
enclosing span on the same thread, and the draw in progress.  Spans
stay in memory until :meth:`Tracer.layer_times` folds them into self
time per layer: a span's duration minus the part its child spans cover.

Spans recorded on the consumer's (main) thread partition the traced
draw-phase wall time; whatever no layer span covers is the ``other_s``
remainder.  Spans on background threads (the remote backend's
per-worker sender threads) overlap the main thread's waiting, so they
are reported as busy time next to that partition, not inside it.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.parallel import PendingResult

#: Span record fields (a list, so the end time can be filled in place).
LAYER, START, END, PARENT, DRAW = range(5)

#: Pseudo-layer for counter bookkeeping done inside a wrapper; kept as
#: its own child span so it is charged to neither the layer nor its
#: caller.
BOOKKEEPING = "trace.bookkeeping_s"


class Tracer:
    """Records spans and counts for the functions it patches."""

    def __init__(self) -> None:
        self.counts: Dict[str, float] = defaultdict(float)
        #: Identifier of the draw in progress; every span carries it.
        self.draw_id = 0
        self._local = threading.local()
        self._threads: List[Tuple[bool, List[list]]] = []
        self._lock = threading.Lock()
        self._main = threading.get_ident()
        self._undo: List[Tuple[object, str, Optional[object]]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def _thread_state(self) -> Tuple[List[list], List[int]]:
        local = self._local
        if not hasattr(local, "spans"):
            local.spans, local.stack = [], []
            with self._lock:
                self._threads.append(
                    (threading.get_ident() == self._main, local.spans))
        return local.spans, local.stack

    def wrap(self, layer: str, fn: Callable,
             count: Optional[Callable] = None,
             error_count: Optional[str] = None) -> Callable:
        """``fn`` with a ``layer`` span around every call.

        ``count(counts, args, kwargs, result)`` updates counters after a
        successful call; ``error_count`` names a counter bumped when the
        call raises.
        """
        tracer = self
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = tracer._thread_state()
            parent = stack[-1] if stack else -1
            record = [layer, 0.0, 0.0, parent, tracer.draw_id]
            stack.append(len(spans))
            spans.append(record)
            record[START] = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[END] = perf()
                stack.pop()
                if error_count is not None:
                    tracer.counts[error_count] += 1
                raise
            record[END] = perf()
            stack.pop()
            if count is not None:
                count(tracer.counts, args, kwargs, result)
                spans.append([BOOKKEEPING, record[END], perf(), parent,
                              tracer.draw_id])
            return result

        return traced

    def patch(self, owner: object, name: str, layer: str,
              **options) -> None:
        """Replace ``owner.name`` with its traced wrapper until
        :meth:`restore`."""
        original = getattr(owner, name)
        own = vars(owner).get(name)
        setattr(owner, name, self.wrap(layer, original, **options))
        self._undo.append((owner, name, own))

    def patch_submit(self, backend: object, layer: str,
                     join_layer: str) -> None:
        """Trace ``backend.submit_round`` and the joins of its rounds.

        Submission is a ``layer`` span; the returned handle's
        ``result()`` becomes a ``join_layer`` span, which is where an
        asynchronous caller blocks on an in-flight round.
        """
        submit = backend.submit_round
        tracer = self

        def submit_round(fn, tasks):
            return _TracedPending(submit(fn, tasks), tracer, join_layer)

        setattr(backend, "submit_round", self.wrap(layer, submit_round))
        self._undo.append((backend, "submit_round", None))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._undo:
            owner, name, original = self._undo.pop()
            if original is None:
                delattr(owner, name)
            else:
                setattr(owner, name, original)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def layer_times(self) -> Tuple[Dict[str, float], Dict[str, float]]:
        """Self seconds per layer: ``(main thread, background threads)``."""
        main: Dict[str, float] = defaultdict(float)
        background: Dict[str, float] = defaultdict(float)
        with self._lock:
            threads = list(self._threads)
        for is_main, spans in threads:
            # A background thread may still be inside a span (a round
            # left in flight when the phase ended); skip unfinished ones.
            covered = [0.0] * len(spans)
            for record in spans:
                if record[END] and record[PARENT] >= 0:
                    covered[record[PARENT]] += record[END] - record[START]
            totals = main if is_main else background
            for record, child in zip(spans, covered):
                if record[END]:
                    totals[record[LAYER]] += \
                        record[END] - record[START] - child
        return main, background

    def draws_touching(self, layers: Tuple[str, ...]) -> int:
        """Distinct draws during which any of ``layers`` ran (any thread)."""
        with self._lock:
            threads = list(self._threads)
        return len({record[DRAW] for _, spans in threads for record in spans
                    if record[LAYER] in layers})


class _TracedPending(PendingResult):
    """A backend's in-flight round whose join is a traced span."""

    def __init__(self, pending: PendingResult, tracer: Tracer,
                 layer: str) -> None:
        self._pending = pending
        self._join = tracer.wrap(layer, pending.result)

    def done(self) -> bool:
        return self._pending.done()

    def result(self):
        return self._join()


# ----------------------------------------------------------------------
# The layer table: which public function stands for which layer
# ----------------------------------------------------------------------

def _count_generators(counts, args, kwargs, result) -> None:
    counts["rng.generators"] += 1


def _count_round(counts, args, kwargs, round_) -> None:
    counts["core.rounds"] += 1
    counts["core.tasks"] += len(round_.tasks)


def _count_sample(counts, args, kwargs, result) -> None:
    import numpy as np
    p = np.asarray(args[0])
    iterations = args[2] if len(args) > 2 else kwargs.get("iterations", 1)
    counts["dram.sampled_bits"] += iterations * p.size
    counts["dram.random_bitlines"] += \
        iterations * np.count_nonzero((p > 0.0) & (p < 1.0))


def _count_blocks(counts, args, kwargs, result) -> None:
    counts["crypto.blocks_hashed"] += len(args[1])


def _count_rows(counts, args, kwargs, result) -> None:
    results, iterations = args[1], args[2]
    counts["health.rows_checked"] += iterations * len(results)


def _count_frame_sent(counts, args, kwargs, result) -> None:
    from repro.core.remote import wire
    counts["remote.bytes_sent"] += wire.HEADER.size + len(args[1])


def _count_frame_received(counts, args, kwargs, payload) -> None:
    from repro.core.remote import wire
    counts["remote.bytes_received"] += wire.HEADER.size + len(payload)


def trace_layers(tracer: Tracer, system) -> None:
    """Patch every traced layer of ``system``'s draw path.

    Each layer is its library function at the site the draw path looks
    it up (``repro.core.parallel.sample_settles`` is the sampler as
    ``run_bank_task`` calls it).  Task execution is traced only on
    in-process backends: a pickling backend ships the task function to
    its workers by reference, where no client-side wrapper can follow.
    """
    from repro.bitops import BitBuffer
    from repro.core import harvest, multichannel, parallel
    from repro.core.health import HealthMonitor
    from repro.core.multichannel import SystemTrng
    from repro.crypto.conditioner import Sha256Conditioner
    from repro.dram.device import DramModule

    backend = system.backend
    tracer.patch(DramModule, "segment_probabilities",
                 "dram.probabilities_s")
    tracer.patch(parallel, "generator_from_key", "rng.generator_s",
                 count=_count_generators)
    tracer.patch(SystemTrng, "plan_round", "core.plan_s",
                 count=_count_round)
    tracer.patch(parallel, "sample_settles", "dram.sample_s",
                 count=_count_sample)
    tracer.patch(Sha256Conditioner, "condition_many", "crypto.condition_s",
                 count=_count_blocks)
    tracer.patch(SystemTrng, "gather_round", "core.gather_s")
    tracer.patch(BitBuffer, "take_bytes", "bitops.take_s")
    tracer.patch(BitBuffer, "append", "bitops.append_s")
    tracer.patch(HealthMonitor, "check_bank_results", "health.check_s",
                 count=_count_rows, error_count="health.alarms")
    tracer.patch(backend, "run_round", "parallel.round_wait_s")
    tracer.patch_submit(backend, "parallel.round_wait_s",
                        "harvest.join_wait_s")
    if not backend.ships_pickled_results:
        tracer.patch(multichannel, "run_bank_task", "parallel.task_s")
        tracer.patch(harvest, "run_bank_task", "parallel.task_s")
    if backend.name == "remote":
        from repro.core.remote import wire
        tracer.patch(wire, "send_frame", "remote.send_s")
        tracer.patch(wire, "recv_frame", "remote.recv_s")
        tracer.patch(wire, "send_raw_frame", "remote.send_s",
                     count=_count_frame_sent)
        tracer.patch(wire, "recv_raw_frame", "remote.recv_s",
                     count=_count_frame_received)
