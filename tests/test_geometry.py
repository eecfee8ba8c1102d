import itertools
import math
import re

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
    _step_block,
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

    def test_equality_and_repr(self):
        x = point(("w", [1.0, 2.0]), ("b", np.zeros((2, 3))))
        assert x == point(("w", [1.0, 2.0]), ("b", np.zeros((2, 3))))
        assert x != point(("w", [1.0, 2.0]), ("c", np.zeros((2, 3))))
        assert x != [1.0, 2.0]  # not a point: equal only to itself
        assert repr(x) == "LayeredPoint(w:(2,), b:(2, 3))"


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
        d = lmo_block(m, SIGN)[0]
        assert np.array_equal(d, [-1.0, 1.0])
        assert float(np.dot(m, d)) == pytest.approx(-3.5)  # -l1 norm

    def test_spectral_identity(self):
        assert np.allclose(lmo_block(np.eye(2), SPECTRAL)[0], -np.eye(2))

    def test_zero_block_stays_zero(self):
        for kind, shape in [(SIGN, (3,)), (EUCLIDEAN, (3,)), (SPECTRAL, (2, 2))]:
            d, dual = lmo_block(np.zeros(shape), kind)
            assert not np.any(d) and dual == 0.0

    def test_sign_matches_brute_force_corners(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            dim = rng.integers(1, 11)
            m = rng.standard_normal(dim)
            d = lmo_block(m, GeometryKind.SIGN)[0]
            corners = np.array(list(itertools.product([-1.0, 1.0], repeat=dim)))
            best = np.min(corners @ m)
            assert float(m @ d) == pytest.approx(best, abs=1e-12)

    def test_sign_and_euclidean_are_the_run_step_from_zero(self):
        # lmo_block is the one-block view of _step_block: the step from zero at
        # unit scale, bit for bit; a euclidean block with a NaN takes no step.
        rng = np.random.default_rng(8)
        blocks = [(SIGN, rng.standard_normal(5)), (EUCLIDEAN, rng.standard_normal((2, 3))),
                  (EUCLIDEAN, np.array([3e-160, -4e-160])), (EUCLIDEAN, np.array([1.0, np.nan]))]
        for kind, m in blocks:
            x = np.zeros((1,) + m.shape)
            _step_block(x, m[None], kind, np.ones_like(x), np.empty_like(x))
            assert np.array_equal(lmo_block(m, kind)[0], x[0])
        assert not np.any(x)  # the NaN block's

    def test_dual_norm_matches_block_dual_norm(self):
        rng = np.random.default_rng(5)
        for kind, shape in [(SIGN, (7,)), (EUCLIDEAN, (2, 3)), (SPECTRAL, (5, 3))]:
            m = rng.standard_normal(shape)
            assert lmo_block(m, kind)[1] == pytest.approx(block_dual_norm(m, kind), rel=1e-14)

    def test_spectral_direction_is_a_partial_isometry(self):
        # The exact polar factor has singular value 1 on the range of the
        # block and 0 off it, so it lies on the unit sphere of the spectral norm.
        rng = np.random.default_rng(12)
        full = rng.standard_normal((5, 3))
        low = np.outer(rng.standard_normal(4), rng.standard_normal(6))
        for m, rank in [(full, 3), (full.T, 3), (low, 1)]:
            s = np.linalg.svd(lmo_block(m, SPECTRAL)[0], compute_uv=False)
            assert np.allclose(s[:rank], 1.0, atol=1e-12)
            assert np.all(np.abs(s[rank:]) < 1e-12)

    def test_spectral_transpose_consistency(self):
        # The LMO of the transpose is the transposed direction, with the
        # same dual norm, for wide and tall blocks alike.
        rng = np.random.default_rng(14)
        for shape in [(3, 7), (7, 3), (4, 4)]:
            m = rng.standard_normal(shape)
            d, dual = lmo_block(m, SPECTRAL)
            d_t, dual_t = lmo_block(m.T, SPECTRAL)
            assert np.allclose(d_t, d.T, atol=1e-12)
            assert dual_t == pytest.approx(dual, rel=1e-12)

    def test_spectral_stack_is_matrix_by_matrix(self):
        # One call on a stack gives each matrix its lone-call direction and
        # nuclear norm bit for bit; a zero or rank-deficient matrix included.
        rng = np.random.default_rng(6)
        stack = rng.standard_normal((4, 5, 3))
        stack[1] = 0.0
        stack[2] = np.outer(rng.standard_normal(5), rng.standard_normal(3))
        d, duals = lmo_block(stack, SPECTRAL)
        assert d.shape == stack.shape and duals.shape == (4,)
        for r, m in enumerate(stack):
            lone_d, lone_dual = lmo_block(m, SPECTRAL)
            assert np.array_equal(d[r], lone_d) and duals[r] == lone_dual
        assert not np.any(d[1]) and duals[1] == 0.0
        U, s, Vt = np.linalg.svd(stack[2], full_matrices=False)
        keep = s > 1e-12 * s[0]
        assert np.array_equal(d[2], -(U[:, keep] @ Vt[keep]))
        assert duals[0] == pytest.approx(block_dual_norm(stack[0], SPECTRAL), rel=1e-14)


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
        d, dual_from_lmo = lmo_block(m, kind)
        pairing = float(np.sum(m * d))
        dual = composite_dual_norm([m], [kind])
        assert pairing == pytest.approx(-dual, abs=1e-8 * max(1.0, dual))
        assert dual_from_lmo == pytest.approx(dual, rel=1e-12, abs=1e-300)

    @given(random_block())
    @example((EUCLIDEAN, np.array([2.76e-159])))  # subnormal square
    @example((EUCLIDEAN, np.array([1e-170])))  # square underflows to zero
    @settings(max_examples=150, deadline=None)
    def test_feasibility(self, block):
        kind, m = block
        assert block_primal_norm(lmo_block(m, kind)[0], kind) <= 1.0 + 1e-8

    @given(random_block(), st.floats(1e-3, 1e3))
    @example((SIGN, np.array([5e-324])), 0.5)  # the scaled entry underflows to 0
    @example((SPECTRAL, np.diag([3.0, 3e-12])), 977.2810889379965)  # crosses the cutoff
    @settings(max_examples=100, deadline=None)
    def test_positive_scaling_invariance(self, block, scale):
        kind, m = block
        # The property needs every nonzero entry to stay nonzero when scaled.
        assume(np.count_nonzero(scale * m) == np.count_nonzero(m))
        d, d_scaled = lmo_block(m, kind)[0], lmo_block(scale * m, kind)[0]
        if kind is SPECTRAL:
            # Both are LMO answers for m: feasible, and each pairs with m to
            # within the singular values it may drop of minus its nuclear norm.
            s = np.linalg.svd(m, compute_uv=False)
            for direction in (d, d_scaled):
                assert block_primal_norm(direction, SPECTRAL) <= 1.0 + 1e-8
                assert np.sum(m * direction) == pytest.approx(
                    -s.sum(), abs=1e-11 * s[0] + 1e-300)
            # The SVDs of m and of scale * m round a singular value s_i by
            # about 1e-16 * s[0]. So near the cutoff 1e-12 * s[0] they may
            # keep different values, and a kept s_i far below s[0] leaves the
            # direction only about 1e-16 * s[0] / s_i accurate.
            ratios = s[s > 0] / s[0] if s[0] > 0 else s[:0]
            if np.any((ratios > 1e-12 * (1 - 1e-2)) & (ratios < 1e-5)):
                return
        assert np.allclose(d, d_scaled, atol=1e-9)

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
    # The polar factor U V^T is the negated direction of the exact spectral LMO.
    def test_scaling_can_cross_the_cutoff(self):
        # The second singular value is 1e-12 of the first, the cutoff itself:
        # the SVD of the block drops it, that of the block times 977.28...
        # rounds it just above the cutoff and keeps it.
        m = np.diag([3.0, 3e-12])
        assert np.array_equal(lmo_block(m, SPECTRAL)[0], -np.diag([1.0, 0.0]))
        assert np.array_equal(lmo_block(977.2810889379965 * m, SPECTRAL)[0], -np.eye(2))

    def test_positive_diagonal(self):
        assert np.allclose(-lmo_block(np.diag([2.0, 3.0]), SPECTRAL)[0], np.eye(2))

    def test_rank_one(self):
        u = np.array([1.0, 0.0, 0.0])
        v = np.array([0.0, 1.0])
        M = np.outer(u, v)
        assert np.allclose(-lmo_block(2.5 * M, SPECTRAL)[0], M)

    def test_operator_norm_one(self):
        rng = np.random.default_rng(3)
        M = rng.standard_normal((5, 3))
        P = -lmo_block(M, SPECTRAL)[0]
        sv = np.linalg.svd(P, compute_uv=False)
        assert abs(sv[0] - 1.0) < 1e-10
        U, _, Vt = np.linalg.svd(M, full_matrices=False)
        assert np.allclose(P, U @ Vt)


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

    @pytest.mark.parametrize("M, iters, message", [
        pytest.param(np.ones(3), 5, "expected a 2-D matrix, got shape (3,)", id="not-2d"),
        pytest.param(np.eye(2), 0, "iters must be >= 1", id="iters"),
    ])
    def test_input_checks_raise_their_message(self, M, iters, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            newton_schulz_polar(M, iters)

    def test_zero_matrix_raises(self):
        with pytest.raises(ValueError, match="zero"):
            newton_schulz_polar(np.zeros((3, 3)))

    def test_close_to_exact_polar_on_conditioned_input(self):
        rng = np.random.default_rng(13)
        M = conditioned_matrix(rng, 5, 5, cond=3.0)
        ns = newton_schulz_polar(M, 20)
        assert np.allclose(ns, -lmo_block(M, SPECTRAL)[0], atol=1e-6)
