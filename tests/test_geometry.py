import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from scgscale.geometry import (
    NS_CUBIC,
    NS_QUINTIC,
    BlockGeometry,
    GeometryKind,
    LayeredPoint,
    block_dual_norm,
    block_primal_norm,
    composite_dual_norm,
    exact_polar,
    lmo_block,
    newton_schulz_polar,
)

SIGN, SPECTRAL, EUCLIDEAN = GeometryKind.SIGN, GeometryKind.SPECTRAL, GeometryKind.EUCLIDEAN


def point(*blocks):
    return LayeredPoint(list(blocks))


class TestNorms:
    def test_single_euclidean_block(self):
        x = np.array([3.0, 4.0])
        assert block_primal_norm(x, EUCLIDEAN) == pytest.approx(5.0)
        assert block_dual_norm(x, EUCLIDEAN) == pytest.approx(5.0)

    def test_sign_composite_is_max_and_sum(self):
        x = [np.array([2.0, -1.0]), np.array([7.0, 0.0, 0.0])]
        assert max(block_primal_norm(a, SIGN) for a in x) == pytest.approx(7.0)  # max of 2 and 7
        assert [block_dual_norm(a, SIGN) for a in x] == pytest.approx([3.0, 7.0])
        assert composite_dual_norm(x, [SIGN, SIGN]) == pytest.approx(10.0)

    def test_sign_dual_sums(self):
        x = [np.array([1.0, 2.0]), np.array([1.0, 3.0])]
        assert composite_dual_norm(x, [SIGN, SIGN]) == pytest.approx(7.0)

    def test_spectral_block_diag(self):
        # oracle: singular values of diag(2, 3) are (3, 2)
        x = np.diag([2.0, 3.0])
        sv = np.linalg.svd(x, compute_uv=False)
        assert block_primal_norm(x, SPECTRAL) == pytest.approx(sv[0]) == pytest.approx(3.0)
        assert block_dual_norm(x, SPECTRAL) == pytest.approx(sv.sum()) == pytest.approx(5.0)

    def test_zero_point_all_zero(self):
        x = [np.zeros(3), np.zeros(2)]
        kinds = [SIGN, EUCLIDEAN]
        assert max(block_primal_norm(a, k) for a, k in zip(x, kinds)) == 0.0
        assert composite_dual_norm(x, kinds) == 0.0

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            point(("w", [1.0, np.inf]))

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            point(("w", [1.0]), ("w", [2.0]))


class TestBlockGeometry:
    def test_spectral_needs_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            BlockGeometry("spectral", (4,))

    def test_radius_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            BlockGeometry("sign", (4,), radius_eta=0.0)

    def test_sign_accepts_matrix_shape(self):
        BlockGeometry("sign", (2, 3))


class TestLmo:
    def test_sign_rule(self):
        m = np.array([1.5, -2.0])
        d = lmo_block(m, SIGN)
        assert np.array_equal(d, [-1.0, 1.0])
        assert float(np.dot(m, d)) == pytest.approx(-3.5)  # -l1 norm

    def test_spectral_identity(self):
        assert np.allclose(lmo_block(np.eye(2), SPECTRAL), -np.eye(2))

    def test_zero_block_stays_zero(self):
        for kind, shape in [(SIGN, (3,)), (EUCLIDEAN, (3,)), (SPECTRAL, (2, 2))]:
            assert not np.any(lmo_block(np.zeros(shape), kind))

    def test_sign_matches_brute_force_corners(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            dim = rng.integers(1, 11)
            m = rng.standard_normal(dim)
            d = lmo_block(m, GeometryKind.SIGN)
            corners = np.array(list(itertools.product([-1.0, 1.0], repeat=dim)))
            best = np.min(corners @ m)
            assert float(m @ d) == pytest.approx(best, abs=1e-12)

    def test_unknown_spectral_method(self):
        with pytest.raises(ValueError, match="spectral_method"):
            lmo_block(np.eye(2), GeometryKind.SPECTRAL, spectral_method="qr")


@st.composite
def random_block(draw):
    kind = draw(st.sampled_from([SIGN, EUCLIDEAN, SPECTRAL]))
    if kind is SPECTRAL:
        rows = draw(st.integers(1, 5))
        cols = draw(st.integers(1, 5))
        shape = (rows, cols)
    else:
        shape = (draw(st.integers(1, 8)),)
    vals = draw(
        st.lists(
            st.floats(-100.0, 100.0, allow_nan=False),
            min_size=int(np.prod(shape)),
            max_size=int(np.prod(shape)),
        )
    )
    return kind, np.array(vals).reshape(shape)


class TestLmoProperties:
    @given(random_block())
    @settings(max_examples=150, deadline=None)
    def test_pairing_equals_negative_dual(self, block):
        kind, m = block
        pairing = float(np.sum(m * lmo_block(m, kind)))
        dual = composite_dual_norm([m], [kind])
        assert pairing == pytest.approx(-dual, abs=1e-8 * max(1.0, dual))

    @given(random_block())
    @example((EUCLIDEAN, np.array([2.76e-159])))  # subnormal square
    @example((EUCLIDEAN, np.array([1e-170])))  # square underflows to zero
    @settings(max_examples=150, deadline=None)
    def test_feasibility(self, block):
        kind, m = block
        assert block_primal_norm(lmo_block(m, kind), kind) <= 1.0 + 1e-8

    @given(random_block(), st.floats(1e-3, 1e3))
    @example((SIGN, np.array([5e-324])), 0.5)  # the scaled entry underflows to 0
    @settings(max_examples=100, deadline=None)
    def test_positive_scaling_invariance(self, block, scale):
        kind, m = block
        # The property needs every nonzero entry to stay nonzero when scaled.
        assume(np.count_nonzero(scale * m) == np.count_nonzero(m))
        assert np.allclose(lmo_block(m, kind), lmo_block(scale * m, kind), atol=1e-9)

    @given(random_block())
    @settings(max_examples=100, deadline=None)
    def test_dual_vs_euclidean_ratio_finite_positive(self, block):
        kind, m = block
        euclid = math.sqrt(float(np.sum(m * m)))
        if euclid == 0.0:  # zero or underflowing block
            return
        ratio = composite_dual_norm([m], [kind]) / euclid
        assert np.isfinite(ratio) and ratio > 0


class TestExactPolar:
    def test_positive_diagonal(self):
        assert np.allclose(exact_polar(np.diag([2.0, 3.0])), np.eye(2))

    def test_rank_one(self):
        u = np.array([1.0, 0.0, 0.0])
        v = np.array([0.0, 1.0])
        M = np.outer(u, v)
        assert np.allclose(exact_polar(2.5 * M), M)

    def test_operator_norm_one(self):
        rng = np.random.default_rng(3)
        M = rng.standard_normal((5, 3))
        P = exact_polar(M)
        sv = np.linalg.svd(P, compute_uv=False)
        assert abs(sv[0] - 1.0) < 1e-10
        U, _, Vt = np.linalg.svd(M, full_matrices=False)
        assert np.allclose(P, U @ Vt)

    def test_zero_matrix_raises(self):
        with pytest.raises(ValueError, match="zero"):
            exact_polar(np.zeros((2, 2)))


def conditioned_matrix(rng, rows, cols, cond):
    """Random matrix with singular values spread over [1/cond, 1]."""
    k = min(rows, cols)
    U, _ = np.linalg.qr(rng.standard_normal((rows, k)))
    V, _ = np.linalg.qr(rng.standard_normal((cols, k)))
    s = rng.uniform(1.0 / cond, 1.0, k)
    return (U * s) @ V.T


class TestNewtonSchulz:
    def test_identity_recovered(self):
        # the frobenius pre-normalization shrinks the singular values, so the
        # fixed point is only re-reached to high accuracy, not exactly
        assert np.allclose(newton_schulz_polar(np.eye(3), 5), np.eye(3), atol=1e-6)
        assert np.allclose(newton_schulz_polar(np.eye(3), 9), np.eye(3), atol=1e-12)

    def test_orthogonal_recovered(self):
        rng = np.random.default_rng(1)
        Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        assert np.allclose(newton_schulz_polar(Q, 5), Q, atol=1e-6)

    def test_pairing_at_least_090_of_nuclear(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            M = conditioned_matrix(rng, 8, 4, cond=10.0)
            P = newton_schulz_polar(M, 5)
            nuclear = np.linalg.svd(M, compute_uv=False).sum()
            assert np.sum(M * P) >= 0.9 * nuclear

    def test_transpose_consistency(self):
        rng = np.random.default_rng(5)
        M = rng.standard_normal((3, 7))
        assert np.allclose(newton_schulz_polar(M, 5), newton_schulz_polar(M.T, 5).T)

    def test_cubic_stays_contractive(self):
        rng = np.random.default_rng(9)
        M = conditioned_matrix(rng, 6, 6, cond=5.0)
        P = newton_schulz_polar(M, 5, coefficients=NS_CUBIC)
        assert np.linalg.svd(P, compute_uv=False)[0] <= 1.0 + 1e-9

    def test_quintic_orthogonalizes(self):
        rng = np.random.default_rng(11)
        M = conditioned_matrix(rng, 8, 4, cond=10.0)
        P = newton_schulz_polar(M, 5, coefficients=NS_QUINTIC)
        nuclear = np.linalg.svd(M, compute_uv=False).sum()
        assert np.sum(M * P) >= 0.9 * nuclear

    def test_zero_matrix_raises(self):
        with pytest.raises(ValueError, match="zero"):
            newton_schulz_polar(np.zeros((3, 3)))

    def test_close_to_exact_polar_on_conditioned_input(self):
        rng = np.random.default_rng(13)
        M = conditioned_matrix(rng, 5, 5, cond=3.0)
        ns = newton_schulz_polar(M, 20)
        assert np.allclose(ns, exact_polar(M), atol=1e-6)
