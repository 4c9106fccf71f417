"""Stateful check that every refill mode serves the same stream.

A Hypothesis ``RuleBasedStateMachine`` drives random sequences of
``random_bits`` / ``random_bytes`` draws (empty, one bit, odd sizes and
draws spanning several refill rounds) and engine drains against three
two-channel systems built over the same modules:

* ``async_harvest=False`` on the serial backend;
* ``async_harvest=True`` on a two-thread pool;
* a reference model written out here -- ``plan_round`` ->
  ``backend.map`` -> ``gather_round`` until the pool covers the draw,
  the plain synchronous refill loop.

Every draw must return the same bits from all three, and all three
must hold the same number of bits earned but not yet served.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant, rule,
                                 run_state_machine_as_test)

import repro.core.trng as trng_module
from repro.bitops import BitBuffer
from repro.core.multichannel import SystemTrng
from repro.core.parallel import (SerialBackend, ThreadPoolBackend,
                                 run_bank_task)
from repro.dram.module_factory import build_table3_population

#: Rounds this small make a draw of a few thousand bits span several
#: of them, which is what exercises rounds queued behind each other.
ROUND_ITERATIONS = 2


class ReferenceRefill:
    """The synchronous refill loop, spelled out: plan, map, gather."""

    def __init__(self, system: SystemTrng) -> None:
        self.system = system
        self.pool = BitBuffer()

    def _refill(self, n_bits: int) -> None:
        while len(self.pool) < n_bits:
            round_ = self.system.plan_round(n_bits - len(self.pool))
            results = self.system.backend.map(run_bank_task, round_.tasks)
            failure = self.system.gather_round(round_, results, self.pool)
            assert failure is None

    def random_bits(self, n_bits: int) -> np.ndarray:
        self._refill(n_bits)
        return self.pool.take(n_bits)

    def random_bytes(self, n_bytes: int) -> bytes:
        self._refill(8 * n_bytes)
        return self.pool.take_bytes(n_bytes)


def _refill_machine(modules, entropy_per_block, thread_backend):
    def system(backend, async_harvest):
        return SystemTrng(modules, entropy_per_block=entropy_per_block,
                          backend=backend, async_harvest=async_harvest)

    bits_per_iteration = max(channel.bits_per_iteration for channel
                             in system(SerialBackend(), False).channels)
    multi_round = st.integers(3 * ROUND_ITERATIONS * bits_per_iteration,
                              6 * ROUND_ITERATIONS * bits_per_iteration)
    bit_counts = st.one_of(st.sampled_from([0, 1]),
                           st.integers(0, 2 * bits_per_iteration)
                           .map(lambda n: 2 * n + 1),
                           multi_round)

    class RefillMachine(RuleBasedStateMachine):
        def __init__(self) -> None:
            super().__init__()
            self.sync = system(SerialBackend(), async_harvest=False)
            self.overlapped = system(thread_backend, async_harvest=True)
            self.reference = ReferenceRefill(
                system(SerialBackend(), async_harvest=False))

        @rule(n_bits=bit_counts)
        def draw_bits(self, n_bits):
            want = self.reference.random_bits(n_bits)
            np.testing.assert_array_equal(self.sync.random_bits(n_bits),
                                          want)
            np.testing.assert_array_equal(
                self.overlapped.random_bits(n_bits), want)

        @rule(n_bits=bit_counts)
        def draw_bytes(self, n_bits):
            n_bytes = -(-n_bits // 8)
            want = self.reference.random_bytes(n_bytes)
            assert self.sync.random_bytes(n_bytes) == want
            assert self.overlapped.random_bytes(n_bytes) == want

        @rule()
        def drain(self):
            for generator in (self.sync, self.overlapped):
                assert generator.harvest_engine.drain(
                    generator._pool) is None

        @invariant()
        def same_bits_earned(self):
            earned = [generator.pooled_bits
                      + generator.harvest_engine.committed_bits()
                      for generator in (self.sync, self.overlapped)]
            assert earned == [len(self.reference.pool)] * 2

    return RefillMachine


def test_sync_async_and_reference_refills_serve_one_stream(
        small_geometry, entropy_scale, monkeypatch):
    monkeypatch.setattr(trng_module, "MAX_BATCH_ITERATIONS",
                        ROUND_ITERATIONS)
    modules = build_table3_population(small_geometry, names=["M13", "M4"])
    with ThreadPoolBackend(2) as thread_backend:
        machine = _refill_machine(modules, 256.0 * entropy_scale,
                                  thread_backend)
        run_state_machine_as_test(
            machine, settings=settings(max_examples=15,
                                       stateful_step_count=8,
                                       deadline=None))
