"""Deterministic, splittable random sampling primitives."""

from __future__ import annotations

import math

import numpy as np

# Version of the random-stream layout that sampled outputs depend on; bumped
# whenever the same (seed, flags) would draw different numbers.
#   v1: one RngStream per replica, addressed by the replica index.
#   v2: one RngStream per block of replicas, addressed by the index of the
#       block's first replica; the block's draws are taken as whole arrays.
STREAM_CONTRACT = 2
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
        seq = np.random.SeedSequence(
            entropy=int(master_seed) & 0xFFFFFFFFFFFFFFFF, spawn_key=(int(stream_index),)
        )
        self.generator = np.random.default_rng(seq)


def gaussian_sample(mean, sd, rng: RngStream, size=None):
    """Draw from N(mean, sd^2); sd = 0 returns mean exactly."""
    if np.any(np.asarray(sd) < 0):
        raise ValueError("standard deviation must be non-negative")
    return rng.generator.normal(mean, sd, size)


def chi_sample(u, rng: RngStream, size=None):
    """Draw a chi variable with u > 0 (possibly non-integer) degrees of freedom.

    Uses the identity chi_u = sqrt(2 * Gamma(u/2)); the gamma sampler handles
    every real shape, including shape < 1.
    """
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0):
        raise ValueError("chi degrees of freedom must be positive")
    chi = rng.generator.standard_gamma(u / 2.0, size=size)
    if np.ndim(chi) == 0:
        return np.sqrt(2.0 * chi)
    # in place: a second (count, n-1) array would raise a block's peak memory
    chi *= 2.0
    return np.sqrt(chi, out=chi)


def beta_1s_sample(s, rng: RngStream, size=None):
    """Draw from Beta(1, s) by inverse CDF: x = 1 - U^(1/s)."""
    s = np.asarray(s, dtype=float)
    if np.any(s <= 0):
        raise ValueError("beta parameter s must be positive")
    u = rng.generator.random(size if size is not None else s.shape or None)
    if np.ndim(u) == 0:
        return 1.0 - u ** (1.0 / s)
    # in place: two (count, n-1) temporaries of a block draw left the peak
    # memory of a run to where the allocator happened to put them
    u **= 1.0 / s
    return np.subtract(1.0, u, out=u)


def block_start(indices) -> int:
    """Stream index of a block of replicas: its first replica index.

    The block must be a contiguous ascending range, so that the block's
    address and its size together name exactly the replicas it holds.
    """
    indices = np.asarray(indices)
    if indices.ndim != 1 or indices.size == 0:
        raise ValueError("a block needs a non-empty 1-d range of replica indices")
    start = int(indices[0])
    if not np.array_equal(indices, np.arange(start, start + indices.size)):
        raise ValueError("replica indices of a block must be a contiguous ascending range")
    return start


TWO_PI = 2.0 * math.pi
