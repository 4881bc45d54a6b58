"""Deterministic, splittable random sampling primitives, and the step tally
that the Prufer, Sturm and sweep kernels count their per-step hits with."""

from __future__ import annotations

import copy
import math

import numpy as np

# Version of the random-stream layout that sampled outputs depend on; bumped
# whenever the same (seed, flags) would draw different numbers.
#   v1: one RngStream per replica, addressed by the replica index.
#   v2: one RngStream per block of replicas, addressed by the index of the
#       block's first replica; the block's draws are taken as whole arrays.
#   v3: the GbetaE cross-check's blocks follow the same layout, its levels
#       drawn from the block's stream after the models (it drew each draw
#       and its levels from a stream of its own).
STREAM_CONTRACT = 3
# Replicas are drawn and processed in blocks of this many consecutive
# indices, each block from one stream, so the block size is part of the
# stream contract.
BLOCK_SIZE = 2048


class RngStream:
    """A reproducible random stream addressed by (master_seed, stream_index).

    Equal addresses always replay the same sequence; distinct stream indices
    give statistically independent streams, so parallel workers can each own
    one stream and merged results do not depend on scheduling. The master
    seed is taken modulo 2**64.
    """

    def __init__(self, master_seed: int, stream_index: int):
        if stream_index < 0:
            raise ValueError(f"stream_index must be non-negative, got {stream_index}")
        self._seq = np.random.SeedSequence(
            entropy=int(master_seed) & 0xFFFFFFFFFFFFFFFF, spawn_key=(int(stream_index),)
        )
        self.generator = np.random.default_rng(self._seq)

    def ahead(self, k: int) -> RngStream:
        """The stream k uniform doubles further on, which this one does not
        move to: a copy of its PCG64 state advanced by k outputs. It relies
        on Generator.random taking exactly one 64-bit output per float64."""
        source = self.generator.bit_generator
        bit_generator = type(source)(self._seq)
        bit_generator.state = source.state
        bit_generator.advance(k)
        stream = copy.copy(self)
        stream.generator = np.random.Generator(bit_generator)
        return stream


# Each sampler fills its `out`, a C-contiguous float array that its parameter
# broadcasts to, in place and returns it.
def gaussian_sample(sd, rng: RngStream, out: np.ndarray) -> np.ndarray:
    """N(0, sd^2) draws, each sd * standard_normal; sd = 0 fills zeros."""
    if np.any(np.asarray(sd) < 0):
        raise ValueError("standard deviation must be non-negative")
    rng.generator.standard_normal(out=out)
    out *= sd
    return out


def chi_sample(u, rng: RngStream, out: np.ndarray) -> np.ndarray:
    """Chi draws with u > 0 (possibly non-integer) degrees of freedom, by the
    identity chi_u = sqrt(2 * Gamma(u/2)); the gamma sampler handles every
    real shape, including shape < 1."""
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0):
        raise ValueError("chi degrees of freedom must be positive")
    rng.generator.standard_gamma(u / 2.0, out=out)
    # in place: a second (count, n-1) array would raise a block's peak memory
    out *= 2.0
    return np.sqrt(out, out=out)


def beta_1s_sample(s, rng: RngStream, out: np.ndarray) -> np.ndarray:
    """Beta(1, s) draws by inverse CDF: x = 1 - U^(1/s)."""
    s = np.asarray(s, dtype=float)
    if np.any(s <= 0):
        raise ValueError("beta parameter s must be positive")
    rng.generator.random(out=out)
    # in place: two (count, n-1) temporaries of a block draw left the peak
    # memory of a run to where the allocator happened to put them
    out **= 1.0 / s
    return np.subtract(1.0, out, out=out)


def replica_blocks(m: int, base: int = 0) -> list[range]:
    """Consecutive ranges of at most BLOCK_SIZE replica indices covering
    base .. base + m - 1; a block draws from the stream of its first index."""
    stop = base + m
    return [range(start, min(start + BLOCK_SIZE, stop)) for start in range(base, stop, BLOCK_SIZE)]


TWO_PI = 2.0 * math.pi


class StepTally:
    """Per-element counts of a step recursion that adds at most one per step:
    each step writes its hits (bool, `shape`) into `hits` and calls add().
    The hits are summed in bytes, added into int64 totals every 255 steps,
    before a byte can wrap; done() adds the rest and returns the totals."""

    __slots__ = ("hits", "_hit_bytes", "_counted", "_totals", "_left")
    FLUSH_STEPS = np.iinfo(np.uint8).max

    def __init__(self, shape):
        self.hits = np.zeros(shape, dtype=bool)
        self._hit_bytes = self.hits.view(np.uint8)
        self._counted = np.zeros(shape, dtype=np.uint8)
        self._totals = np.zeros(shape, dtype=np.int64)
        self._left = self.FLUSH_STEPS

    def add(self) -> None:
        np.add(self._counted, self._hit_bytes, out=self._counted)
        self._left -= 1
        if not self._left:
            self.done()

    def done(self) -> np.ndarray:
        np.add(self._totals, self._counted, out=self._totals)
        self._counted.fill(0)
        self._left = self.FLUSH_STEPS
        return self._totals
