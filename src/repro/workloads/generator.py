"""Region-based synthetic trace generator.

Each application owns a disjoint slice of the block address space
(``core_id << CORE_ADDR_SHIFT``) laid out as five regions::

    [ loop | scan | rw | random | stream ........................ ]

Every generated access first picks a region by the profile's weights,
then behaves like that region:

* ``loop``   — tight sequential sweep over a small region; repeat
  references arrive well within SRAM residency, producing the clean
  LLC read hits that LHybrid and CA_RWR promote to NVM (loop-blocks);
* ``scan``   — medium cyclic sweep whose reuse distance exceeds the
  SRAM part but fits a 16-way LLC; BH retains this class while
  SRAM-first policies evict it before it can prove reuse;
* ``rw``     — read-modify-write over a small hot set, generating
  dirty, write-reused blocks;
* ``random`` — uniform pointer-chasing over a large region (sparse
  reuse);
* ``stream`` — an ever-advancing pointer over the large remainder of
  the footprint (reuse distance >> LLC), the thrashing traffic TAP
  deflects to SRAM.

Gaps between accesses are exponential with the profile's mean, giving
the analytical core model a realistic arrival process.

:meth:`AppTraceGenerator.take` is the one generator: a single inlined
loop whose ``random.Random`` calls are the stream's contract.  Per
record, in order:

1. the phase countdown (no draw);
2. an owed read-modify-write emits its write and one gap draw;
3. otherwise one ``random()`` picks the region, then the region draws:
   stream ``random()`` for the write flag, or for rw/random the
   ``getrandbits(n.bit_length())`` rejection loop of CPython's
   ``randrange(n)`` followed by the write ``random()``;
4. the gap, ``int(-log(1.0 - random()) / lambd)`` (CPython's
   ``expovariate``).

Changing any of this moves every trace: bump
:data:`~repro.workloads.cache.GENERATOR_VERSION` and re-record
``tests/goldens/trace_digests.json`` when it changes.
"""

from __future__ import annotations

import random
from array import array
from math import log

from .profiles import AppProfile
from .trace import CORE_ADDR_SHIFT, MaterializedTrace


class AppTraceGenerator:
    """Infinite trace for one application pinned to one core."""

    def __init__(self, profile: AppProfile, core_id: int, seed: int = 0) -> None:
        self.profile = profile
        self.core_id = core_id
        self.base = core_id << CORE_ADDR_SHIFT
        self._rng = random.Random((seed << 8) ^ (core_id * 0x9E3779B1) ^ 0xC0FFEE)

        # Region layout within the app's address slice.  The loop, scan
        # and rw regions own one address slot per program phase; every
        # ``phase_accesses`` accesses the generator rotates to the next
        # slot, shifting the hot working set (SPEC phase behaviour).
        n_phases = profile.n_phases
        self._loop_base = self.base
        self._scan_base = self._loop_base + n_phases * profile.loop_blocks
        self._rw_base = self._scan_base + n_phases * profile.scan_blocks
        self._random_base = self._rw_base + n_phases * profile.rw_blocks
        self._stream_base = self._random_base + profile.random_blocks
        stream_blocks = profile.footprint_blocks - profile.phased_region_blocks
        self._stream_blocks = max(1024, stream_blocks)
        self._phase = 0
        self._accesses_left_in_phase = profile.phase_accesses

        # cumulative region weights (loop, scan, stream, rw, random)
        weights = profile.region_weights
        total = sum(weights)
        acc = 0.0
        self._cum = []
        for weight in weights:
            acc += weight / total
            self._cum.append(acc)

        self._loop_pos = 0
        self._scan_pos = 0
        self._stream_pos = 0
        self._rw_pending_write = 0  # address owed a write (read-modify-write)

    # ------------------------------------------------------------------
    def take(self, n_records: int) -> MaterializedTrace:
        """The next ``n_records`` records of the stream.

        All stream state lives on ``self``, so ``take(a)`` then
        ``take(b)`` yields exactly the records of ``take(a + b)``.
        """
        if n_records < 1:
            raise ValueError("empty trace")
        profile = self.profile
        rng = self._rng
        rand = rng.random
        getrandbits = rng.getrandbits
        lambd = 1.0 / profile.gap_mean
        c_loop, c_scan, c_stream, c_rw, _ = self._cum
        n_phases = profile.n_phases
        phase_accesses = profile.phase_accesses
        loop_blocks = profile.loop_blocks
        scan_blocks = profile.scan_blocks
        rw_blocks = profile.rw_blocks
        random_blocks = profile.random_blocks
        rw_bits = rw_blocks.bit_length()
        random_bits = random_blocks.bit_length()
        stream_blocks = self._stream_blocks
        stream_base = self._stream_base
        random_base = self._random_base
        stream_write_frac = profile.stream_write_frac
        rw_write_frac = profile.rw_write_frac
        random_write_frac = profile.random_write_frac

        phase = self._phase
        left = self._accesses_left_in_phase
        loop_pos = self._loop_pos
        scan_pos = self._scan_pos
        stream_pos = self._stream_pos
        pending = self._rw_pending_write
        loop_slot = self._loop_base + phase * loop_blocks
        scan_slot = self._scan_base + phase * scan_blocks
        rw_slot = self._rw_base + phase * rw_blocks

        gaps = [0] * n_records
        addrs = [0] * n_records
        writes = bytearray(n_records)
        for i in range(n_records):
            left -= 1
            if left <= 0:
                phase = (phase + 1) % n_phases
                left = phase_accesses
                loop_pos = scan_pos = 0
                loop_slot = self._loop_base + phase * loop_blocks
                scan_slot = self._scan_base + phase * scan_blocks
                rw_slot = self._rw_base + phase * rw_blocks

            if pending:
                addr = pending
                pending = 0
                writes[i] = 1
            else:
                u = rand()
                if u < c_loop:
                    addr = loop_slot + loop_pos
                    loop_pos += 1
                    if loop_pos >= loop_blocks:
                        loop_pos = 0
                elif u < c_scan:
                    addr = scan_slot + scan_pos
                    scan_pos += 1
                    if scan_pos >= scan_blocks:
                        scan_pos = 0
                elif u < c_stream:
                    addr = stream_base + stream_pos
                    stream_pos += 1
                    if stream_pos >= stream_blocks:
                        stream_pos = 0
                    if rand() < stream_write_frac:
                        writes[i] = 1
                elif u < c_rw:
                    # randrange(0) raises; the bare rejection loop would spin
                    if rw_blocks <= 0:
                        raise ValueError("empty range for randrange()")
                    r = getrandbits(rw_bits)
                    while r >= rw_blocks:
                        r = getrandbits(rw_bits)
                    addr = rw_slot + r
                    if rand() < rw_write_frac:
                        # read-modify-write: the write follows on the next record
                        pending = addr
                else:
                    if random_blocks <= 0:
                        raise ValueError("empty range for randrange()")
                    r = getrandbits(random_bits)
                    while r >= random_blocks:
                        r = getrandbits(random_bits)
                    addr = random_base + r
                    if rand() < random_write_frac:
                        writes[i] = 1
            gaps[i] = int(-log(1.0 - rand()) / lambd)
            addrs[i] = addr

        self._phase = phase
        self._accesses_left_in_phase = left
        self._loop_pos = loop_pos
        self._scan_pos = scan_pos
        self._stream_pos = stream_pos
        self._rw_pending_write = pending
        return MaterializedTrace.from_columns(
            array("Q", gaps), array("Q", addrs), writes
        )
