import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import polynomial as npoly
from scipy.integrate import quad
from scipy.linalg import eigvalsh_tridiagonal

from betafluct.gaussian import (
    STURM_TILE,
    TridiagonalModel,
    carousel_params,
    phase_sweep,
    sample_tridiagonal,
    semicircle_count,
    semicircle_residual,
    sturm_count,
    verify_counts,
    _conjugate_block,
    _cross_count_chunks,
    _strict_int_part,
    _sweep_phases,
    _sweep_counts_block,
    _sturm_block,
)
from betafluct.rng import BLOCK_SIZE, RngStream
from betafluct.stats import _stack_models

TWO_PI = 2.0 * math.pi


def _model(diag, offdiag):
    diag = np.asarray(diag, dtype=float)
    offdiag = np.asarray(offdiag, dtype=float)
    return TridiagonalModel(diag=diag, offdiag=offdiag)


def _conjugated_bands(model):
    """Subdiagonal s_1..s_{n-1} and superdiagonal s_{p-1} + Y_{p-1} of the
    conjugated model."""
    s, y = _conjugate_block(model.offdiag[None, :])
    return s[1:], s[:-1] + y[0, :-1]


def _phases(model, lams, ell):
    """One draw's forward and backward sweep phases, each (K,)."""
    fwd, bwd = _sweep_phases(model.diag[None, :], model.offdiag[None, :], lams, ell)
    return fwd[0], bwd[0]


def _charpoly_coeffs(diag, sub, sup):
    """Characteristic polynomial of a tridiagonal matrix by the three-term
    recurrence p_k = (d_k - x) p_{k-1} - sub_{k-1} sup_{k-1} p_{k-2}."""
    prev = np.array([1.0])
    cur = np.array([diag[0], -1.0])  # d_0 - x in ascending powers
    for k in range(1, len(diag)):
        term = npoly.polymul(np.array([diag[k], -1.0]), cur)
        term = npoly.polysub(term, sub[k - 1] * sup[k - 1] * prev)
        prev, cur = cur, term
    return cur


# ---------------------------------------------------------------- sampling


def test_sample_n1():
    model = sample_tridiagonal(2.0, 1, RngStream(1, 0))
    assert model.diag.shape == (1,)
    assert model.offdiag.shape == (0,)


def test_offdiag_second_moment():
    # E[offdiag_1^2] = chi^2_{beta(n-1)} / beta = n - 1
    m, n = 5000, 10
    diag, offdiag = _stack_models(2.0, n, 41, range(m))
    mean_sq = np.mean(offdiag[:, 0] ** 2)
    assert abs(mean_sq - (n - 1)) < 0.25  # 5 sigma: Var = 2(n-1)/beta


@pytest.mark.parametrize("beta", (0.5, 1.0, 4.0))
def test_block_sampler_moments(beta):
    # diag entries N(0, 2/beta); offdiag_p^2 = chi^2_{beta(n-p)} / beta has
    # mean n - p and variance 2(n-p)/beta. Three blocks pooled as in a scan;
    # every tolerance is 5 standard errors.
    n, block, blocks = 8, 2048, 3
    parts = [
        _stack_models(beta, n, 82, range(s, s + block))
        for s in range(0, blocks * block, block)
    ]
    diag = np.concatenate([d for d, _ in parts])
    offdiag = np.concatenate([o for _, o in parts])
    m = diag.shape[0]
    target = 2.0 / beta
    assert abs(np.mean(diag)) < 5.0 * math.sqrt(target / diag.size)
    assert abs(np.mean(diag**2) - target) < 5.0 * target * math.sqrt(2.0 / diag.size)
    for p in range(1, n):
        sq = offdiag[:, p - 1] ** 2
        assert abs(np.mean(sq) - (n - p)) < 5.0 * math.sqrt(2.0 * (n - p) / beta / m)


def test_stack_models_block_addressing():
    block = range(2048, 2048 + 300)
    d1, o1 = _stack_models(1.5, 12, 83, block)
    d2, o2 = _stack_models(1.5, 12, 83, block)
    assert np.array_equal(d1, d2) and np.array_equal(o1, o2)
    d3, _ = _stack_models(1.5, 12, 83, range(2049, 2049 + 300))
    assert not np.any(d1 == d3)
    # the one-draw sampler is the one-replica block at the same address
    model = sample_tridiagonal(1.5, 12, RngStream(83, 2048))
    d4, o4 = _stack_models(1.5, 12, 83, range(2048, 2049))
    assert np.array_equal(model.diag, d4[0]) and np.array_equal(model.offdiag, o4[0])


def test_spectral_histogram_semicircle():
    n, draws = 512, 400
    edges = np.linspace(-2.0, 2.0, 41)
    width = edges[1] - edges[0]
    counts = np.zeros(len(edges) - 1)
    for d in range(draws):
        model = sample_tridiagonal(2.0, n, RngStream(42, d))
        eigs = eigvalsh_tridiagonal(model.diag, model.offdiag) / math.sqrt(n)
        counts += np.histogram(eigs, bins=edges)[0]
    density = counts / (draws * n * width)
    centers = 0.5 * (edges[:-1] + edges[1:])
    semicircle = np.sqrt(4.0 - centers**2) / TWO_PI
    assert np.max(np.abs(density - semicircle)) < 0.05


# ---------------------------------------------------------------- conjugation


def test_conjugate_fixed_point():
    # off-diagonal equal to sqrt(s_0 s_1) is left unchanged by the similarity
    n = 2
    s0, s1 = math.sqrt(n - 0.5), math.sqrt(n - 1.5)
    s, y = _conjugate_block(np.array([[math.sqrt(s0 * s1)]]))
    assert y[0, 0] == pytest.approx(0.0, abs=1e-14)
    assert s[0] + y[0, 0] == pytest.approx(s0, abs=1e-14)


def test_conjugate_rejects_zero_offdiag():
    # the conjugation needs a positive off-diagonal; the model enforces it
    with pytest.raises(ValueError):
        _model([0.0, 0.0], [0.0])
    with pytest.raises(ValueError):
        _model([0.0, 0.0, 0.0], [1.0, -1.0])


def test_conjugate_charpoly_preserved():
    model = sample_tridiagonal(2.0, 8, RngStream(43, 0))
    sub, sup = _conjugated_bands(model)
    orig = _charpoly_coeffs(model.diag, model.offdiag, model.offdiag)
    tilted = _charpoly_coeffs(model.diag, sub, sup)
    scale = np.max(np.abs(orig))
    assert np.max(np.abs(orig - tilted)) < 1e-10 * scale


def test_conjugate_offdiag_products_match():
    model = sample_tridiagonal(0.5, 12, RngStream(43, 1))
    sub, sup = _conjugated_bands(model)
    assert np.allclose(sub * sup, model.offdiag**2, rtol=1e-14)
    assert np.all(sup > 0)


# ---------------------------------------------------------------- sturm


def test_sturm_single_entry():
    model = _model([0.0], [])
    assert sturm_count(model, -1.0) == 0
    assert sturm_count(model, 0.0) == 1
    assert sturm_count(model, 1.0) == 1


def test_sturm_two_by_two():
    model = _model([0.0, 0.0], [1.0])  # eigenvalues -1, 1
    assert sturm_count(model, -2.0) == 0
    assert sturm_count(model, 0.0) == 1
    assert sturm_count(model, 2.0) == 2


def test_sturm_matches_dense():
    model = sample_tridiagonal(2.0, 8, RngStream(44, 0))
    eigs = eigvalsh_tridiagonal(model.diag, model.offdiag)
    for lam in np.linspace(-8, 8, 100):
        assert sturm_count(model, lam) == int(np.searchsorted(eigs, lam, side="right"))


def test_sturm_shift_invariance():
    model = sample_tridiagonal(1.0, 16, RngStream(44, 1))
    lams = np.linspace(-6, 6, 11)
    base = sturm_count(model, lams)
    for c in (-10.0, -1.0, 1.0, 10.0):
        shifted = _model(model.diag + c, model.offdiag)
        assert np.array_equal(sturm_count(shifted, lams + c), base)


def test_sturm_monotone_with_limits():
    model = sample_tridiagonal(4.0, 32, RngStream(44, 2))
    lams = np.linspace(-15, 15, 200)
    counts = sturm_count(model, lams)
    assert np.all(np.diff(counts) >= 0)
    assert sturm_count(model, -1e9) == 0
    assert sturm_count(model, 1e9) == 32


def _reference_sturm(diag, offdiag, lam):
    """One draw's count of negative pivots at one level: a plain loop in
    Python floats, with the same zero-pivot rule as _sturm_block."""
    tiny = float(np.finfo(float).eps) * (1.0 + abs(lam))
    off = offdiag.tolist()
    count, d = 0, 0.0
    for p, x in enumerate(diag.tolist()):
        d = x - lam if p == 0 else (x - lam) - off[p - 1] * off[p - 1] / d
        if d == 0.0:
            d = -tiny
        count += d < 0.0
    return count


@pytest.mark.parametrize(
    "n", [1, 2, STURM_TILE - 1, STURM_TILE, STURM_TILE + 1, 2 * STURM_TILE + 3]
)
def test_sturm_block_matches_reference_loop(n):
    # tiles of STURM_TILE levels must chain pivots across every seam; rows 0
    # and 1 put an exact zero pivot at level 0 (lam = 0) and level 1 (lam = 0)
    rng = np.random.default_rng(n)
    c, k = 6, 5
    diag = rng.normal(0.0, 2.0, size=(c, n))
    offdiag = rng.uniform(0.2, 3.0, size=(c, n - 1))
    diag[0], diag[1], offdiag[:2] = 0.0, 1.0, 1.0
    shared = np.array([0.0, 1.0, -0.5, 2.5, -4.0])
    per_draw = rng.uniform(-6.0, 6.0, size=(c, k))
    per_draw[:2, 0] = 0.0
    for lams in (shared, per_draw):
        counts = _sturm_block(diag, offdiag, lams)
        assert counts.shape == (c, k)
        rows = np.broadcast_to(lams, (c, k))
        expected = [
            [_reference_sturm(diag[i], offdiag[i], float(lam)) for lam in rows[i]]
            for i in range(c)
        ]
        assert np.array_equal(counts, expected)


# ---------------------------------------------------------------- phase sweep


def test_phase_sweep_far_left():
    model = sample_tridiagonal(2.0, 24, RngStream(46, 0))
    assert phase_sweep(model, -1e6, 12).count == 0
    fwd, bwd = _phases(model, np.array([-1e6]), 12)
    assert fwd[0] == pytest.approx(math.pi, abs=1e-3)
    assert bwd[0] == pytest.approx(0.0, abs=1e-3)


def test_phase_sweep_flags_a_level_on_an_eigenvalue():
    # ill-conditioned counts are flagged, not silently rounded
    one = _model([0.3], [])
    for ell in (0, 1):
        sweep = phase_sweep(one, 0.3, ell)
        assert sweep.count == 1 and sweep.flagged
    assert not phase_sweep(one, 0.5, 0).flagged
    two = _model([0.0, 0.0], [1.0])  # eigenvalues -1, 1
    for lam, flagged in ((-1.0, True), (0.0, False), (1.0, True)):
        assert phase_sweep(two, lam, 1).flagged is flagged


def test_phase_sweep_split_independent():
    n = 32
    for d in range(100):
        rng = RngStream(47, d)
        model = sample_tridiagonal(2.0, n, rng)
        lam = rng.generator.uniform(-12, 12)
        counts = {ell: phase_sweep(model, lam, ell).count for ell in (0, n // 2, n)}
        assert len(set(counts.values())) == 1


def test_phase_sweep_matches_sturm():
    mismatches, flagged = verify_counts(2.0, 64, draws=50, lams_per_draw=50, seed=48)
    assert mismatches == 0
    assert flagged / (50 * 50) < 1e-3


def test_phase_monotone_in_lambda():
    model = sample_tridiagonal(2.0, 24, RngStream(49, 0))
    lams = np.linspace(-11, 11, 100)
    fwd, bwd = _phases(model, lams, 12)
    assert np.all(np.diff(fwd) > 0)
    assert np.all(np.diff(bwd) < 0)


def test_sweep_count_jumps_at_dense_eigenvalues():
    for d in range(10):
        model = sample_tridiagonal(2.0, 48, RngStream(50, d))
        eigs = eigvalsh_tridiagonal(model.diag, model.offdiag)
        for e in eigs[::7]:
            below = phase_sweep(model, e - 1e-6, 24)
            above = phase_sweep(model, e + 1e-6, 24)
            assert above.count - below.count == 1


def test_phase_sweep_ell_validation():
    model = sample_tridiagonal(2.0, 8, RngStream(50, 99))
    with pytest.raises(ValueError):
        phase_sweep(model, 0.0, 9)


# ---------------------------------------------------------------- carousel


def test_carousel_mu_zero():
    params = carousel_params(0.0, 10)
    assert len(params.rho) == 10
    assert np.allclose(params.rho, 1j)
    assert np.allclose(np.angle(params.rho), math.pi / 2)
    assert params.ell == 9


def test_carousel_edge_clamp():
    n = 10
    params = carousel_params(2.0 * math.sqrt(n), n)
    assert len(params.rho) == 1
    assert params.ell == 0


def test_carousel_invariants():
    params = carousel_params(3.7, 40)
    assert np.allclose(np.abs(params.rho), 1.0, atol=1e-12)
    assert np.all(params.rho.real >= 0) and np.all(params.rho.imag >= 0)
    with pytest.raises(ValueError):
        carousel_params(-0.1, 10)


def test_strict_int_part():
    assert _strict_int_part(3.0) == 2
    assert _strict_int_part(9.5) == 9
    assert _strict_int_part(-1.2) == -2


# ---------------------------------------------------------------- semicircle


def test_semicircle_count_total_and_half():
    assert semicircle_count(100, -math.inf, math.inf) == pytest.approx(100.0, abs=1e-10)
    assert semicircle_count(100, 0.0, math.inf) == pytest.approx(50.0, abs=1e-10)


def test_semicircle_count_quarter_vs_quadrature():
    target = semicircle_count(100, 0.0, 10.0)
    oracle = 100.0 / TWO_PI * quad(lambda x: math.sqrt(max(4.0 - x * x, 0.0)), 0.0, 1.0)[0]
    assert target == pytest.approx(oracle, abs=1e-9)
    assert target == pytest.approx(30.449889052211468, abs=1e-9)


def test_semicircle_count_additive_and_symmetric():
    pts = [-25.0, -3.0, 0.0, 7.7, 19.0]
    for a, b, c in zip(pts, pts[1:], pts[2:]):
        lhs = semicircle_count(144, a, b) + semicircle_count(144, b, c)
        assert lhs == pytest.approx(semicircle_count(144, a, c), abs=1e-10)
    assert semicircle_count(144, -7.7, -3.0) == pytest.approx(
        semicircle_count(144, 3.0, 7.7), abs=1e-10
    )
    with pytest.raises(ValueError):
        semicircle_count(10, 1.0, 0.0)


def test_semicircle_residual_values():
    assert semicircle_residual(0.0, 10) == pytest.approx(-math.pi / 2, abs=1e-9)
    n = 10
    assert semicircle_residual(2.0 * math.sqrt(n), n) == pytest.approx(0.0, abs=1e-12)
    for n in (100, 1000, 10000):
        for factor in (0.0, 0.5, 1.0, 1.5, 1.9, 2.0):
            assert abs(semicircle_residual(factor * math.sqrt(n), n)) <= 10.0


# ---------------------------------------------------------------- ensemble-level


def test_gbe_count_symmetric_about_half():
    # N(0, inf) - n/2 must be symmetric; sign test on nonzero deviations
    m, n = 10**5, 64
    deviations = np.empty(m, dtype=np.int64)
    block = 4096
    for start in range(0, m, block):
        idx = range(start, min(start + block, m))
        diag, offdiag = _stack_models(2.0, n, 53, idx)
        counts = _sturm_block(diag, offdiag, np.array([0.0]))[:, 0]
        deviations[start : start + len(idx)] = (n - counts) - n // 2
    pos = int(np.sum(deviations > 0))
    neg = int(np.sum(deviations < 0))
    z = (pos - neg) / math.sqrt(pos + neg)
    assert abs(z) < 3.29  # two-sided p > 1e-3


def test_backward_phase_drift_bounded():
    # second moment of the backward-phase deficit at the carousel split stays
    # bounded as n doubles (evaluated at lam = mu, the carousel level)
    second_moments = {}
    for n in (64, 128, 256):
        mu = math.sqrt(n)
        params = carousel_params(mu, n)
        vals = []
        for d in range(200):
            model = sample_tridiagonal(2.0, n, RngStream(54, d))
            _, bwd = _phases(model, np.array([mu]), params.ell)
            vals.append((bwd[0] + TWO_PI * (n - params.ell)) ** 2)
        second_moments[n] = float(np.mean(vals))
    assert all(v < 60.0 for v in second_moments.values())
    assert second_moments[256] < 2.0 * second_moments[64] + 10.0


def test_verify_counts_report_fields():
    _, flagged = verify_counts(1.0, 16, draws=10, lams_per_draw=5, seed=55)
    assert 0 <= flagged <= 10 * 5


def test_sweep_counts_block_agrees_with_scalar():
    model = sample_tridiagonal(2.0, 12, RngStream(56, 0))
    lams = np.linspace(-7, 7, 9)
    block_counts, _ = _sweep_counts_block(
        model.diag[None, :], model.offdiag[None, :], lams, ell=6
    )
    for j, lam in enumerate(lams):
        assert phase_sweep(model, lam, 6).count == block_counts[0, j]


@settings(max_examples=25, derandomize=True, deadline=None)
@given(
    beta=st.floats(0.25, 6.0),
    n=st.integers(1, 40),
    draws=st.integers(1, 12),
    lams_per_draw=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_cross_count_block_equals_one_draw_calls(beta, n, draws, lams_per_draw, seed):
    # the stacked block, one row of lams per draw, gives each draw's own
    # counts and flags; the counters agree wherever the sweep is not flagged
    chunks = list(_cross_count_chunks(beta, n, draws, lams_per_draw, seed))
    assert len(chunks) == 1
    diag, offdiag, lams, sweep, flags, sturm = chunks[0]
    assert sweep.shape == flags.shape == sturm.shape == (draws, lams_per_draw)
    for d in range(draws):
        one = (diag[d : d + 1], offdiag[d : d + 1], lams[d])
        one_sweep, one_flags = _sweep_counts_block(*one, n // 2)
        assert np.array_equal(sweep[d], one_sweep[0])
        assert np.array_equal(flags[d], one_flags[0])
        assert np.array_equal(sturm[d], _sturm_block(*one)[0])
    assert np.array_equal(sweep[~flags], sturm[~flags])


def test_verify_counts_across_a_chunk_boundary():
    draws = BLOCK_SIZE + 5
    chunks = list(_cross_count_chunks(1.0, 6, draws, 3, 57))
    assert [c[0].shape[0] for c in chunks] == [BLOCK_SIZE, 5]
    # the first draw past the boundary is still addressed by its own index
    model = sample_tridiagonal(1.0, 6, RngStream(57, BLOCK_SIZE))
    assert np.array_equal(chunks[1][0][0], model.diag)
    mismatches, flagged = verify_counts(1.0, 6, draws=draws, lams_per_draw=3, seed=57)
    assert mismatches == 0
    assert flagged == sum(int(np.sum(c[4])) for c in chunks)
