import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import polynomial as npoly
from scipy.integrate import quad
from scipy.linalg import eigvalsh_tridiagonal

from betafluct.gaussian import (
    DRAW_CHUNK,
    NEAR_DEGENERATE_TOL,
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
    _lift_affine,
    _sample_tridiagonal_block,
    _strict_int_part,
    _sweep_phases,
    _sweep_counts_block,
    _sturm_block,
)
from betafluct.rng import BLOCK_SIZE, RngStream
from betafluct.stats import _stack_models

TWO_PI = 2.0 * math.pi

# Property tests of the general lift draw phases, scales and shifts from
# these ranges.
angles = st.floats(-30.0, 30.0)
scales = st.floats(1e-2, 1e2)
shifts = st.floats(-10.0, 10.0)
prop = settings(max_examples=200, derandomize=True, deadline=None)


def _model(diag, offdiag):
    diag = np.asarray(diag, dtype=float)
    offdiag = np.asarray(offdiag, dtype=float)
    return TridiagonalModel(diag=diag, offdiag=offdiag)


def _conjugated_bands(model):
    """Subdiagonal s_1..s_{n-1} and superdiagonal s_{p-1} / a_{p-1} of the
    conjugated model."""
    s, a = _conjugate_block(model.offdiag[None, :])
    return s[1:], s[:-1] / a[0, :-1]


def _phases(model, lams, ell):
    """One draw's forward and backward sweep phases, each (K,)."""
    fwd, bwd = _sweep_phases(model.diag[None, :], model.offdiag[None, :], lams, ell)
    return fwd[0], bwd[0]


def _general_lift(x, a, b):
    """Lifted action of r -> a*(r + b), a > 0, on phase angles x; arrays
    broadcast.

    The projective line is identified with the unit circle by the Cayley
    transform r -> (i - r)/(i + r), under which r = tan(x/2) corresponds to
    the point e^{ix}. An affine map with a > 0 fixes infinity, the circle
    point -1, and has a unique continuous increasing lift to the real line
    that commutes with x -> x + 2*pi and fixes pi exactly. On (-pi, pi) the
    lift is 2*arctan(a*(tan(x/2) + b)); winding numbers are handled by the
    floor, and odd multiples of pi are fixed points by construction, also
    where the floor rounds up and leaves x0 an ulp below -pi.

    Lifts compose as their affine maps do:
    L(a2, b2) o L(a1, b1) = L(a1*a2, b1 + b2/a1), and L(a, b) has the
    inverse L(1/a, -a*b).
    """
    k = np.floor((x + np.pi) / TWO_PI)
    x0 = x - TWO_PI * k  # in [-pi, pi), or rounded just below -pi
    out = 2.0 * np.arctan(a * (np.tan(0.5 * x0) + b)) + TWO_PI * k
    return np.where(x0 <= -np.pi, TWO_PI * k - np.pi, out)


def _lift_sweep(diag, offdiag, lams, ell):
    """The sweep as a composition of lifts, one per transfer step, (C, K)
    each: forward, a half turn and then the lift of r -> a_l*(r + b_l);
    backward, the inverse lift and a half turn back."""
    s, a = _conjugate_block(offdiag)
    fwd, bwd = np.full(lams.shape, math.pi), np.zeros(lams.shape)
    for l in range(ell):
        fwd = _general_lift(fwd + math.pi, a[:, l : l + 1], (lams - diag[:, l : l + 1]) / s[l])
    for l in range(diag.shape[1] - 1, ell - 1, -1):
        al = a[:, l : l + 1]
        bwd = _general_lift(bwd, 1.0 / al, al * (diag[:, l : l + 1] - lams) / s[l]) - math.pi
    return fwd, bwd


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


@pytest.mark.parametrize("n", [1, 2, 512])
@pytest.mark.parametrize(
    "count", [1, DRAW_CHUNK - 1, DRAW_CHUNK, DRAW_CHUNK + 1, 2 * DRAW_CHUNK + 3]
)
def test_block_sampler_matches_direct_generator_calls(count, n):
    # the chunked step-major draw holds exactly what two whole-block generator
    # calls, diagonals then off-diagonals, draw into C-ordered arrays
    beta = 1.5
    diag, offdiag = _sample_tridiagonal_block(beta, n, count, RngStream(84, count))
    generator = RngStream(84, count).generator
    expected_diag = generator.normal(0.0, math.sqrt(2.0 / beta), (count, n))
    dof = beta * (n - np.arange(1, n, dtype=float))
    gamma = generator.standard_gamma(dof / 2.0, (count, n - 1))
    expected_offdiag = np.sqrt(2.0 * gamma) / math.sqrt(beta)
    assert diag.shape == (count, n) and offdiag.shape == (count, n - 1)
    assert np.array_equal(diag, expected_diag)
    assert np.array_equal(offdiag, expected_offdiag)
    assert diag.T.flags.c_contiguous and offdiag.T.flags.c_contiguous


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
    s, a = _conjugate_block(np.array([[math.sqrt(s0 * s1)]]))
    assert s.tolist() == [s0, s1]
    assert a[0, 0] == pytest.approx(1.0, abs=1e-14)
    assert a[0, 1] == 1.0  # the pad of the final map


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


def test_conjugate_gain_survives_an_offdiagonal_below_an_ulp():
    # draw 12 of this stream has an off-diagonal of 3.5e-11, whose square is
    # below an ulp of s_{p-1}: a gain formed as s_{p-1} / (s_{p-1} + Y_{p-1}),
    # Y_{p-1} = offdiag_p^2 / s_p - s_{p-1}, rounded the band to 0 and the gain
    # to inf; five of these 200 draws swept to NaN, and 25 unflagged counts
    # differed from Sturm's
    model = sample_tridiagonal(0.2, 16, RngStream(1, 12))
    s, a = _conjugate_block(model.offdiag[None, :])
    assert np.any(model.offdiag**2 < np.spacing(s[:-1]))
    assert np.all(np.isfinite(a)) and np.all(a > 0)
    assert np.allclose(a[0, :-1] * model.offdiag**2, s[:-1] * s[1:], rtol=1e-14)
    assert verify_counts(0.2, 16, draws=200, lams_per_draw=5, seed=1) == (0, 0)


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
    assert sturm_count(model, -math.inf) == 0
    assert sturm_count(model, math.inf) == 32


@pytest.mark.parametrize("field", ("diag", "offdiag"))
@pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
def test_tridiagonal_model_rejects_non_finite_entries(field, bad):
    # a nan entry made sturm_count return 2 of 3 (off-diagonal) or 1 of 2
    # (diagonal) with no flag
    bands = {"diag": np.zeros(3), "offdiag": np.ones(2)}
    bands[field][1] = bad
    with pytest.raises(ValueError, match=f"{field} entries must be finite"):
        _model(**bands)


def test_sturm_count_rejects_a_nan_level():
    # a nan level would count no negative pivot and read as 0 eigenvalues
    model = sample_tridiagonal(2.0, 8, RngStream(44, 3))
    for lam in (math.nan, np.array([0.0, math.nan])):
        with pytest.raises(ValueError, match="lam must not be nan"):
            sturm_count(model, lam)


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


@pytest.mark.parametrize("n", [1, 2, 15, 16, 17, 35])
def test_sturm_block_matches_reference_loop(n):
    # rows 0 and 1 put an exact zero pivot at level 0 (lam = 0) and level 1
    # (lam = 0); the block is read in C order and step-major
    rng = np.random.default_rng(n)
    c, k = 6, 5
    diag = rng.normal(0.0, 2.0, size=(c, n))
    offdiag = rng.uniform(0.2, 3.0, size=(c, n - 1))
    diag[0], diag[1], offdiag[:2] = 0.0, 1.0, 1.0
    shared = np.array([0.0, 1.0, -0.5, 2.5, -4.0])
    per_draw = rng.uniform(-6.0, 6.0, size=(c, k))
    per_draw[:2, 0] = 0.0
    for lams in (shared, per_draw):
        rows = np.broadcast_to(lams, (c, k))
        expected = [
            [_reference_sturm(diag[i], offdiag[i], float(lam)) for lam in rows[i]]
            for i in range(c)
        ]
        for block in ((diag, offdiag), _step_major(diag, offdiag)):
            counts = _sturm_block(*block, lams)
            assert counts.shape == (c, k)
            assert np.array_equal(counts, expected)


def _step_major(*arrays):
    """Copies of (C, w) arrays stored as (w, C), read through .T views."""
    return tuple(np.ascontiguousarray(a.T).T for a in arrays)


def test_block_counters_do_not_depend_on_layout():
    # the sampler's step-major block and a C-ordered copy of it give the same
    # Sturm counts and the same sweep counts and flags, for shared and
    # per-draw levels in either layout
    c, n, k = 37, 40, 6
    diag, offdiag = _stack_models(1.0, n, 85, range(c))
    assert diag.T.flags.c_contiguous
    c_order = (np.ascontiguousarray(diag), np.ascontiguousarray(offdiag))
    per_draw = np.random.default_rng(85).uniform(-15.0, 15.0, size=(c, k))
    for lams in (np.linspace(-15.0, 15.0, k), per_draw, _step_major(per_draw)[0]):
        sturm = _sturm_block(diag, offdiag, lams)
        assert np.array_equal(_sturm_block(*c_order, lams), sturm)
        for ell in (0, n // 2, n):
            counts, flags = _sweep_counts_block(diag, offdiag, lams, ell)
            c_counts, c_flags = _sweep_counts_block(*c_order, lams, ell)
            assert np.array_equal(c_counts, counts) and np.array_equal(c_flags, flags)
            assert np.array_equal(counts[~flags], sturm[~flags])


@pytest.mark.parametrize("beta", (0.5, 2.0))
def test_byte_counts_past_their_flushes(beta):
    # the Sturm pass and each sweep side count in bytes, added into their
    # totals every 255 steps; at n = 600 the Sturm pass and, at ell = 0 and
    # ell = n, a sweep side run past steps 255 and 510, and at ell = 300 both
    # sides run past step 255, with counts above 255 at the upper levels
    n = 600
    diag, offdiag = _stack_models(beta, n, 86, range(3))
    lams = np.linspace(-2.0 * math.sqrt(n) - 2.0, 2.0 * math.sqrt(n) + 2.0, 41)
    eigs = [eigvalsh_tridiagonal(d, o) for d, o in zip(diag, offdiag)]
    expected = np.array([np.searchsorted(e, lams, side="right") for e in eigs])
    assert expected[:, 0].max() == 0 and expected[:, -1].min() == n
    assert np.array_equal(_sturm_block(diag, offdiag, lams), expected)
    for ell in (0, n // 2, n):
        counts, flags = _sweep_counts_block(diag, offdiag, lams, ell)
        assert np.count_nonzero(flags) <= 1
        assert np.array_equal(counts[~flags], expected[~flags]), ell


# ---------------------------------------------------------------- lift oracle


def test_lift_affine_identity():
    xs = np.linspace(-9.0, 9.0, 101)
    assert np.allclose(_general_lift(xs, 1.0, 0.0), xs, atol=1e-12)


@prop
@given(k=st.integers(-5, 4), a=scales, b=shifts)
def test_lift_affine_fixes_odd_pi(k, a, b):
    x = math.pi * (2 * k + 1)
    assert _general_lift(x, a, b) == pytest.approx(x, abs=1e-10)


def test_lift_affine_fixes_odd_pi_within_rounding():
    # at an odd multiple of pi the floor can round (x + pi) / 2pi up, leaving
    # x0 an ulp below -pi, where tan(x0/2) jumps sign; the lift still fixes x
    odd = math.pi * (2 * np.arange(-20, 21) + 1)
    xs = np.concatenate([odd, np.nextafter(odd, np.inf), np.nextafter(odd, -np.inf)])
    for a, b in ((1.0, 0.0), (3.0, -2.0)):
        assert np.max(np.abs(_general_lift(xs, a, b) - xs)) < 1e-10
        assert np.allclose(_general_lift(xs + TWO_PI, a, b), _general_lift(xs, a, b) + TWO_PI, rtol=0.0, atol=1e-9)


def test_lift_affine_value_via_cayley():
    # r = tan(x/2) maps to the circle point (i - r)/(i + r); the lifted value
    # must be an argument of the transported point
    x, a, b = math.pi / 2, 1.0, 1.0
    out = float(_general_lift(x, a, b))
    assert out == pytest.approx(2.0 * math.atan(2.0), abs=1e-12)
    r = a * (math.tan(x / 2) + b)
    target = (1j - r) / (1j + r)
    assert abs(np.exp(1j * out) - target) < 1e-12


@prop
@given(x=angles, a=scales, b=shifts)
def test_lift_affine_monotone_and_equivariant(x, a, b):
    xs = np.linspace(x, x + 2.0 * TWO_PI, 2001)
    out = _general_lift(xs, a, b)
    assert np.all(np.diff(out) > 0)
    assert np.allclose(_general_lift(xs + TWO_PI, a, b), out + TWO_PI, rtol=0.0, atol=1e-9)


@prop
@given(x=angles, a=scales, b=shifts)
def test_affine_inverse_roundtrip(x, a, b):
    # L(a, b) has the inverse L(1/a, -a*b)
    assert _general_lift(_general_lift(x, a, b), 1.0 / a, -a * b) == pytest.approx(x, abs=1e-9)


@prop
@given(x=angles, a1=scales, b1=shifts, a2=scales, b2=shifts)
def test_composition_and_inverse(x, a1, b1, a2, b2):
    # L(a2, b2) o L(a1, b1) = L(a1*a2, b1 + b2/a1): a chain of transfer steps
    # is one lift call
    composed = _general_lift(x, a1 * a2, b1 + b2 / a1)
    assert _general_lift(_general_lift(x, a1, b1), a2, b2) == pytest.approx(composed, abs=1e-9)
    back = _general_lift(composed, 1.0 / (a1 * a2), -a1 * a2 * (b1 + b2 / a1))
    assert back == pytest.approx(x, abs=1e-9)


def test_sweep_read_off_is_the_general_lift_at_a_whole_turn():
    # the sweep reads a phase off as 2*pi*k + 2*arctan(r): the general lift of
    # r -> r at x = 2*pi*k, byte for byte, including signed zeros, infinities
    # and nan
    sheets = np.array([-600, -7, -1, 0, 1, 2, 600], dtype=np.int64)[:, None]
    special = [-0.0, 0.0, np.inf, -np.inf, np.nan, 1e-300, 1e300, -1e300]
    r = np.concatenate([special, np.random.default_rng(5).standard_cauchy(200)])
    read_off = _lift_affine(sheets, r)
    lift = _general_lift(TWO_PI * sheets, 1.0, r)
    assert read_off.dtype == lift.dtype == np.float64
    assert read_off.shape == lift.shape == (len(sheets), len(r))
    assert read_off.tobytes() == lift.tobytes()


# ---------------------------------------------------------------- phase sweep


def test_phase_sweep_far_left():
    model = sample_tridiagonal(2.0, 24, RngStream(46, 0))
    assert phase_sweep(model, -1e6, 12).count == 0
    fwd, bwd = _phases(model, np.array([-1e6]), 12)
    assert fwd[0] == pytest.approx(math.pi, abs=1e-3)
    assert bwd[0] == pytest.approx(0.0, abs=1e-3)
    # an empty side is its start state, read off exactly
    assert _phases(model, np.array([-1e6]), 0)[0][0] == math.pi
    assert _phases(model, np.array([-1e6]), 24)[1][0] == 0.0


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


def test_phase_sweep_through_an_exact_zero_chart_value():
    # lam = X_0 puts the forward chart value on exactly 0 after map 0, and
    # lam = X_{n-1} the backward one at its first sheet test; a half turn
    # from r = 0 crosses into the next sheet, so every split must still give
    # Sturm's count
    model = _model([0.0, 5.0, -3.0, 2.0], [1.0, 0.5, 2.0])
    for lam in (0.0, 2.0):
        for ell in range(model.n + 1):
            sweep = phase_sweep(model, lam, ell)
            assert not sweep.flagged and sweep.count == sturm_count(model, lam)


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


@settings(max_examples=80, derandomize=True, deadline=None)
@given(
    beta=st.floats(0.25, 6.0),
    n_ell=st.integers(1, 64).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))),
    draws=st.integers(1, 8),
    lams_per_draw=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_chart_sweep_matches_lift_composition(beta, n_ell, draws, lams_per_draw, seed):
    # the chart recursion with one lift per side equals one lift per step, for
    # per-draw and shared levels; its counts and flags are the lift sweep's
    n, ell = n_ell
    diag, offdiag = _stack_models(beta, n, seed, range(draws))
    half_width = 2.0 * math.sqrt(n) + 2.0
    per_draw = np.random.default_rng(seed).uniform(-half_width, half_width, (draws, lams_per_draw))
    for lams in (per_draw, per_draw[0]):
        rows = np.broadcast_to(lams, (draws, lams_per_draw))
        fwd, bwd = _sweep_phases(diag, offdiag, lams, ell)
        ref_fwd, ref_bwd = _lift_sweep(diag, offdiag, rows, ell)
        assert np.max(np.abs(fwd - ref_fwd)) < 1e-8
        assert np.max(np.abs(bwd - ref_bwd)) < 1e-8
        winding = (ref_fwd - ref_bwd) / TWO_PI
        counts, flags = _sweep_counts_block(diag, offdiag, lams, ell)
        assert np.array_equal(counts, np.floor(winding))
        assert np.array_equal(flags, np.abs(winding - np.round(winding)) < NEAR_DEGENERATE_TOL)


def test_sweep_flags_a_non_finite_winding():
    # a NaN entry makes its draw's phase NaN on whichever side crosses it;
    # the count is flagged and defined, and the other draw is untouched
    diag, offdiag = _stack_models(2.0, 6, 58, range(2))
    lams = np.linspace(-5.0, 5.0, 7)
    clean = _sweep_counts_block(diag, offdiag, lams, 3)
    diag[0, 2] = np.nan
    for ell in (0, 3, 6):
        counts, flags = _sweep_counts_block(diag, offdiag, lams, ell)
        assert flags[0].all() and np.array_equal(counts[0], np.zeros(7))
        assert np.array_equal(counts[1], clean[0][1]) and np.array_equal(flags[1], clean[1][1])


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
    # each chunk is drawn as a scan draws a block, from the stream of its
    # first index: the models, then the levels, one row per draw
    half_width = 2.0 * math.sqrt(6) + 2.0
    for chunk, block in zip(chunks, (range(BLOCK_SIZE), range(BLOCK_SIZE, draws)), strict=True):
        rng = RngStream(57, block.start)
        diag, offdiag = _sample_tridiagonal_block(1.0, 6, len(block), rng)
        lams = rng.generator.uniform(-half_width, half_width, (len(block), 3))
        for got, expected in zip(chunk[:3], (diag, offdiag, lams)):
            assert np.array_equal(got, expected)
    mismatches, flagged = verify_counts(1.0, 6, draws=draws, lams_per_draw=3, seed=57)
    assert mismatches == 0
    assert flagged == sum(int(np.sum(c[4])) for c in chunks)
