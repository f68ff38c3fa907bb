import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distshap import (
    InvalidParameterError,
    RandomStream,
    RankDeficiencyError,
    SingularMatrixError,
    SpdMatrix,
    estimate_second_moment,
    inv_logit,
    mahalanobis_sq,
    spd_inverse,
)


class TestRandomStream:
    def test_same_seed_bit_identical(self):
        a = RandomStream(77, 1).generator.chisquare(3, size=1000)
        b = RandomStream(77, 1).generator.chisquare(3, size=1000)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RandomStream(77, 1).generator.chisquare(3, size=1000)
        b = RandomStream(77, 2).generator.chisquare(3, size=1000)
        assert not np.array_equal(a, b)

    def test_substreams_reproducible_and_independent(self):
        root = RandomStream(5)
        a = root.substream(3).generator.standard_normal(100)
        b = RandomStream(5).substream(3).generator.standard_normal(100)
        c = root.substream(4).generator.standard_normal(100)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestSpdInverse:
    def test_identity(self):
        inv = spd_inverse(SpdMatrix(np.eye(3)))
        assert np.allclose(inv.values, np.eye(3), atol=1e-14)

    def test_diagonal(self):
        inv = spd_inverse(SpdMatrix(np.diag([4.0, 1.0])))
        assert np.allclose(inv.values, np.diag([0.25, 1.0]), atol=1e-14)

    def test_multiply_back(self):
        gen = np.random.default_rng(8)
        a = gen.standard_normal((6, 6))
        m = SpdMatrix(a @ a.T + 0.5 * np.eye(6))
        inv = spd_inverse(m)
        err = np.linalg.norm(m.values @ inv.values - np.eye(6))
        assert err < 1e-8
        assert np.array_equal(inv.values, inv.values.T)

    def test_involution(self):
        gen = np.random.default_rng(9)
        a = gen.standard_normal((5, 5))
        m = SpdMatrix(a @ a.T + 0.5 * np.eye(5))
        back = spd_inverse(spd_inverse(m))
        rel = np.linalg.norm(back.values - m.values) / np.linalg.norm(m.values)
        assert rel < 1e-6

    @pytest.mark.parametrize("diagonal, pivot", [
        ([-1.0, 1.0, 2.0], 1), ([1.0, -1.0, 2.0], 2), ([1.0, 2.0, -1.0], 3)],
        ids=("pivot1", "pivot2", "pivot3"))
    def test_non_spd_names_pivot(self, diagonal, pivot):
        with pytest.raises(SingularMatrixError) as excinfo:
            SpdMatrix(np.diag(diagonal))
        assert excinfo.value.pivot == pivot

    def test_asymmetric_rejected(self):
        with pytest.raises(InvalidParameterError):
            SpdMatrix(np.array([[1.0, 0.5], [0.0, 1.0]]))


class TestSecondMoment:
    def test_symmetric_four_points(self):
        pts = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        m = estimate_second_moment(pts)
        assert np.allclose(m.values, np.diag([0.5, 0.5]), atol=1e-15)

    def test_law_of_large_numbers(self):
        pts = RandomStream(11).generator.standard_normal((10**5, 3))
        m = estimate_second_moment(pts)
        assert np.abs(np.diag(m.values) - 1.0).max() < 0.05
        off = m.values - np.diag(np.diag(m.values))
        assert np.abs(off).max() < 0.05

    def test_rank_deficiency(self):
        with pytest.raises(RankDeficiencyError):
            estimate_second_moment(np.ones((2, 3)))

    def test_degenerate_samples_singular(self):
        pts = np.ones((5, 2))  # rank one
        with pytest.raises(SingularMatrixError):
            estimate_second_moment(pts)


class TestMahalanobis:
    def test_identity_metric(self):
        assert mahalanobis_sq(np.array([3.0, 4.0]), SpdMatrix(np.eye(2))) == 25.0

    def test_zero_vector(self):
        assert mahalanobis_sq(np.zeros(2), SpdMatrix(np.eye(2))) == 0.0

    def test_diagonal_metric(self):
        sigma_inv = spd_inverse(SpdMatrix(np.diag([4.0, 1.0])))
        assert mahalanobis_sq(np.array([2.0, 0.0]), sigma_inv) == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidParameterError):
            mahalanobis_sq(np.ones(3), SpdMatrix(np.eye(2)))

    @given(st.floats(-100.0, 100.0), st.floats(0.01, 50.0))
    @settings(max_examples=50, deadline=None)
    def test_quadratic_scaling(self, x0, c):
        sigma_inv = SpdMatrix(np.array([[2.0, 0.3], [0.3, 1.0]]))
        x = np.array([x0, 1.5])
        lhs = mahalanobis_sq(c * x, sigma_inv)
        rhs = c * c * mahalanobis_sq(x, sigma_inv)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestInvLogit:
    def test_midpoint(self):
        assert inv_logit(0.0) == 0.5

    @given(st.floats(-700.0, 700.0))
    @settings(max_examples=100, deadline=None)
    def test_symmetry(self, t):
        assert inv_logit(t) + inv_logit(-t) == pytest.approx(1.0, abs=1e-15)

    def test_saturation_no_overflow(self):
        with np.errstate(over="raise", invalid="raise"):
            high = inv_logit(40.0)
            assert 1.0 - high < 1e-17
            assert inv_logit(700.0) == 1.0
            assert inv_logit(-700.0) == pytest.approx(0.0, abs=1e-300)

    def test_vectorized(self):
        out = inv_logit(np.array([-1.0, 0.0, 1.0]))
        assert out.shape == (3,)
        assert out[1] == 0.5
