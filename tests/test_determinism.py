"""End-to-end golden streams: refactors must not move a single bit.

The simulator's reproducibility contract is that a fixed module seed
yields a fixed conditioned bitstream -- across runs, machines, execution
backends, and (most importantly) code refactors.  The equivalence suites
compare two *current* implementations against each other; these tests
pin the stream itself, so a change that rewires both sides consistently
(and would therefore slip past an equivalence test) still gets caught.

The constants were recorded from the PR that introduced the parallel
execution engine.  If a change legitimately needs to alter the stream
(e.g. a new RNG derivation scheme), regenerate them with::

    PYTHONPATH=src python tests/test_determinism.py

and say so loudly in the changelog -- downstream seeds stop reproducing.
"""

import hashlib

import numpy as np
import pytest

from repro.core.health import HealthMonitor, MonitoredTrng
from repro.core.multichannel import SystemTrng
from repro.core.parallel import (ProcessPoolBackend, SerialBackend,
                                 ThreadPoolBackend)
from repro.core.remote import LocalCluster, RemoteBackend
from repro.core.trng import QuacTrng
from repro.dram.geometry import DramGeometry
from repro.dram.module_factory import (build_module,
                                       build_table3_population,
                                       spec_by_name)

GOLDEN_BITS = 4096

#: First 4096 conditioned bits of an M13 QuacTrng at the suite's
#: standard small geometry.
QUAC_SHA256 = \
    "b96c9c585492083d14963bcfe2d2d281ee0f8faa93f3e2c4e43794d7883146ea"
QUAC_PREFIX = \
    "0001010010111001001101000111110110001001110000110110001101101001"

#: First 4096 bits of a two-channel [M13, M4] SystemTrng.  The system
#: schedule serves a first draw this small entirely from channel 0's
#: opening batch, so this stream intentionally equals the QuacTrng
#: golden -- pinning that scheduling fact too.
SYSTEM_SHA256 = QUAC_SHA256

#: The system's *second* draw (three system iterations), which forces
#: both channels to contribute and therefore pins the round-robin
#: interleaving, the fair-share batch sizing, and channel 1's stream.
SYSTEM_SECOND_DRAW_SHA256 = \
    "1ceb50bc3dd4952b94217a80cb2f7f116c3efada95fb5ca66723a68810036231"
SYSTEM_SECOND_DRAW_PREFIX = \
    "1011000011100010110001010011001110010111101110011010001001100011"

#: Backends the goldens are replayed on (bit-identical by contract).
#: The remote entries -- one-host and three-host localhost clusters,
#: each under the per-task wire protocol and the round-shard protocol
#: (the ``r`` suffix) -- pin the sharded multi-host contract: the
#: merged stream must equal the serial reference whatever the host
#: count and whichever protocol version shipped the tasks.
BACKEND_IDS = ["serial", "thread", "process", "remote1", "remote3",
               "remote1r", "remote3r"]


@pytest.fixture(scope="module", params=BACKEND_IDS)
def golden_backend(request):
    """One shared backend per id (remote clusters spawn once, not per
    test) -- safe to share because every test builds fresh
    generators."""
    if request.param == "serial":
        yield SerialBackend()
        return
    if request.param == "thread":
        backend = ThreadPoolBackend(2)
    elif request.param == "process":
        backend = ProcessPoolBackend(2)
    else:
        backend = RemoteBackend(
            cluster=LocalCluster(int(request.param[6])),
            round_execution=request.param.endswith("r"))
    with backend:
        yield backend


def _geometry():
    return DramGeometry.small(segments_per_bank=64, cache_blocks_per_row=8)


def _entropy_per_block(geometry):
    return 256.0 * geometry.row_bits / 65536


def _digest(bits: np.ndarray) -> str:
    return hashlib.sha256(np.packbits(bits).tobytes()).hexdigest()


def _prefix(bits: np.ndarray, n: int = 64) -> str:
    return "".join(str(int(b)) for b in bits[:n])


#: Harvest modes the goldens are replayed under.  The asynchronous
#: double-buffered engine (``async_harvest=True``) must reproduce the
#: synchronous stream bit for bit -- same constants, no new goldens.
HARVEST_MODES = [False, True]
HARVEST_IDS = ["sync", "async"]


def quac_stream(backend, async_harvest=False) -> np.ndarray:
    geometry = _geometry()
    module = build_module(spec_by_name("M13"), geometry)
    trng = QuacTrng(module, entropy_per_block=_entropy_per_block(geometry),
                    backend=backend, async_harvest=async_harvest)
    return trng.random_bits(GOLDEN_BITS)


def monitored_stream(backend, async_harvest=False):
    geometry = _geometry()
    module = build_module(spec_by_name("M13"), geometry)
    trng = QuacTrng(module, entropy_per_block=_entropy_per_block(geometry),
                    backend=backend)
    monitored = MonitoredTrng(trng, HealthMonitor(),
                              async_harvest=async_harvest)
    return monitored.random_bits(GOLDEN_BITS), monitored.monitor


def system_streams(backend, async_harvest=False):
    geometry = _geometry()
    modules = build_table3_population(geometry, names=["M13", "M4"])
    system = SystemTrng(modules,
                        entropy_per_block=_entropy_per_block(geometry),
                        backend=backend, async_harvest=async_harvest)
    first = system.random_bits(GOLDEN_BITS)
    second = system.random_bits(3 * system.bits_per_system_iteration())
    return first, second


@pytest.mark.parametrize("async_harvest", HARVEST_MODES, ids=HARVEST_IDS)
def test_quac_golden_stream(golden_backend, async_harvest):
    stream = quac_stream(golden_backend, async_harvest)
    assert _prefix(stream) == QUAC_PREFIX
    assert _digest(stream) == QUAC_SHA256


@pytest.mark.parametrize("async_harvest", HARVEST_MODES, ids=HARVEST_IDS)
def test_monitored_golden_stream(golden_backend, async_harvest):
    # Health monitoring observes raw read-outs and never changes the
    # conditioned bits: the monitored wrapper serves the QuacTrng
    # golden, having checked every read-out behind it.
    stream, monitor = monitored_stream(golden_backend, async_harvest)
    assert _prefix(stream) == QUAC_PREFIX
    assert _digest(stream) == QUAC_SHA256
    # One iteration (7168 bits) covers the draw: four banks' 4096-bit
    # read-outs, every one checked.
    assert monitor.samples_checked == 16384
    assert monitor.rct_failures == 0


@pytest.mark.parametrize("async_harvest", HARVEST_MODES, ids=HARVEST_IDS)
def test_system_golden_streams(golden_backend, async_harvest):
    first, second = system_streams(golden_backend, async_harvest)
    assert _digest(first) == SYSTEM_SHA256
    assert _prefix(second) == SYSTEM_SECOND_DRAW_PREFIX
    assert _digest(second) == SYSTEM_SECOND_DRAW_SHA256


def main() -> None:
    """Regenerate the golden constants (paste the output above)."""
    stream = quac_stream(SerialBackend())
    print(f'QUAC_SHA256 = "{_digest(stream)}"')
    print(f'QUAC_PREFIX = "{_prefix(stream)}"')
    first, second = system_streams(SerialBackend())
    print(f'SYSTEM_SHA256 = "{_digest(first)}"')
    print(f'SYSTEM_SECOND_DRAW_SHA256 = "{_digest(second)}"')
    print(f'SYSTEM_SECOND_DRAW_PREFIX = "{_prefix(second)}"')


if __name__ == "__main__":
    main()
