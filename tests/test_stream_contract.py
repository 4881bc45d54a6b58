"""Sampled outputs pinned to the stream contract.

Each case digests integer results of fixed seeds and small sizes: arc
counts, Sturm counts, the cross-check's tallies and tail hits. Floats stay
out (bootstrap intervals go through BLAS, points through bisection), so the
digests hold on any CPU. A moved digest means the same (seed, flags) now
draws different numbers: bump STREAM_CONTRACT in rng.py, note the new
layout there, and record the new digests here.
"""

import hashlib

import numpy as np
import pytest

from betafluct.circular import _count_arcs_block, _stack_draws
from betafluct.gaussian import _cross_count_chunks, _stack_models, _sturm_block, verify_counts
from betafluct.rng import BLOCK_SIZE, STREAM_CONTRACT
from betafluct.stats import tail_check

# a block that does not start at 0, so that its stream address is pinned too
BLOCK = range(BLOCK_SIZE, BLOCK_SIZE + 300)


def _arc_counts(beta):
    gamma, eta = _stack_draws(beta, 24, 61, BLOCK)
    return _count_arcs_block(gamma, eta, 24, np.array([0.5, 3.0, 11.0, 40.0, 140.0]))


def _sturm_counts():
    diag, offdiag = _stack_models(1.5, 20, 62, BLOCK)
    return _sturm_block(diag, offdiag, np.linspace(-9.0, 9.0, 7))


def _cross_check_counts():
    # sweep and Sturm counts of each draw of one block
    chunks = _cross_count_chunks(0.5, 60, 300, 20, 63)
    return np.concatenate([np.stack([sweep, sturm]) for *_, sweep, _, sturm in chunks], axis=1)


def _tail_hits():
    # 3000 replicas: two blocks of one run
    result = tail_check(1.0, 30, 3000, 64, b_grid=(0.5, 1.0, 2.0, 4.0, 6.0))
    return [row.hits for row in result.rows]


CASES = {
    "arc counts, beta 0.5": (
        lambda: _arc_counts(0.5),
        "325fdad94ed7473444b8ec1a4f4f95963e2a6eebf3e36e2ae272c353ce19a5e5",
    ),
    "arc counts, beta 2": (
        lambda: _arc_counts(2.0),
        "98ef01a84b7b7c83151ca588148bdca9721901b08367e80d891e900ca70e7035",
    ),
    "sturm counts": (
        _sturm_counts,
        "9e6fb29db33ad21f30b7de2d8dd5d52013e3c8561b6c02f9047f3af5308f0732",
    ),
    "cross-check counts": (
        _cross_check_counts,
        "fa4e578988112f634936801ec1e37dd5e6cd2b722c26918b8d3915d6de729864",
    ),
    "verify_counts": (
        lambda: verify_counts(0.5, 60, 300, 20, 63),
        "374708fff7719dd5979ec875d56cd2286f6d3cf7ec317a3b25632aab28ec37bb",
    ),
    "tail hits": (
        _tail_hits,
        "b11af910356114fb394f9f4a194ba3edef9e3036be8df52bff3718b097e40538",
    ),
}


def _digest(values) -> str:
    return hashlib.sha256(np.asarray(values, dtype="<i8").tobytes()).hexdigest()


def test_stream_contract_version():
    assert STREAM_CONTRACT == 3


@pytest.mark.parametrize("case", sorted(CASES))
def test_sampled_outputs_match_the_stream_contract(case):
    compute, expected = CASES[case]
    assert _digest(compute()) == expected, (
        f"{case}: sampled output moved; a change to the random streams must "
        f"bump STREAM_CONTRACT (now {STREAM_CONTRACT}) and record new digests"
    )
