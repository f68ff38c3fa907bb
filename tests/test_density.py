from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import norm

import distshap.density as density
from distshap import numerics
from distshap import (
    BandwidthSelectionError,
    DensityValueRequest,
    InvalidParameterError,
    KernelSpec,
    RandomStream,
    coeff_A,
    coeff_B,
    dshapley_density,
    kde_evaluate,
    select_bandwidth,
    synergy_scan,
    uniform_closed_form,
)

APPENDIX_GRID = [10.0 ** e for e in (-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0)]
# 0.3 unless listed: a 10-d uniform kernel needs a wide window to cover a [0, 1] pair
BANDWIDTHS = {("uniform", 10): 0.9}


def block_sizes(stop, width):
    """Rows in each block that cuts ``stop`` rows of ``width`` floats under the memory budget."""
    return [len(range(stop)[rows]) for rows in numerics.blocks(stop, width)]


class TestKdeEvaluate:
    def test_uniform_center(self):
        assert kde_evaluate(np.array([[0.0]]), KernelSpec("uniform", 1.0), np.array([0.0])) == 1.0

    def test_gaussian_center(self):
        val = kde_evaluate(np.array([[0.0]]), KernelSpec("gaussian", 1.0), np.array([0.0]))
        assert val == pytest.approx((2.0 * np.pi) ** -0.5)

    def test_symmetry(self):
        pts = np.array([[-0.8], [0.8]])
        for family in ("uniform", "gaussian"):
            kern = KernelSpec(family, 0.5)
            lhs = kde_evaluate(pts, kern, np.array([0.3]))
            rhs = kde_evaluate(pts, kern, np.array([-0.3]))
            assert lhs == pytest.approx(rhs, rel=1e-14)

    def test_empty_reference_rejected(self):
        with pytest.raises(InvalidParameterError):
            kde_evaluate(np.empty((0, 1)), KernelSpec("uniform", 1.0), np.array([0.0]))

    @pytest.mark.parametrize("family", ["uniform", "gaussian"])
    @pytest.mark.parametrize("where", ["set", "z"])
    def test_nonfinite_input_rejected(self, family, where):
        # a NaN fails the Gaussian's underflow gate and the uniform's window test alike,
        # so unchecked it would read as a density of 0
        s, z = np.array([[0.0], [0.5]]), np.array([[0.2], [0.4]])
        (s if where == "set" else z)[1, 0] = np.nan
        with pytest.raises(InvalidParameterError, match="must be finite"):
            kde_evaluate(s, KernelSpec(family, 1.0), z)

    @pytest.mark.parametrize("bandwidth", [np.nan, np.inf, 0.0])
    def test_nonfinite_or_nonpositive_bandwidth_rejected(self, bandwidth):
        with pytest.raises(InvalidParameterError, match="bandwidth"):
            KernelSpec("gaussian", bandwidth)

    @pytest.mark.parametrize("where", ["set", "z"])
    def test_zero_width_points_rejected(self, where):
        # the kernel's dimension is the points' width, so a width of 0 is refused where they enter
        s, z = np.zeros((3, 2)), np.zeros((4, 2))
        s, z = (s[:, :0], z) if where == "set" else (s, z[:, :0])
        with pytest.raises(InvalidParameterError, match="dimension must be at least 1"):
            kde_evaluate(s, KernelSpec("gaussian", 1.0), z)

    @pytest.mark.parametrize("call, name", [
        (lambda k: kde_evaluate(0.5, k, [0.1]), "the reference set s"),
        (lambda k: kde_evaluate([0.1, 0.2], k, np.zeros((2, 3, 1))), "z"),
        (lambda k: select_bandwidth(3.0, [0.1, 0.2]), "samples"),
        (lambda k: dshapley_density(DensityValueRequest(np.zeros((2, 2)), 10), np.zeros((4, 3, 2)), k),
         "background"),
        (lambda k: k.evaluate(0.3), "diff"),
        (lambda k: k.self_convolution(0.3), "diff"),
    ], ids=["kde-set", "kde-z", "bandwidth-samples", "density-background", "evaluate", "self-convolution"])
    def test_points_of_an_unusable_rank_rejected(self, call, name):
        with pytest.raises(InvalidParameterError, match=f"^{name} must be an? "):
            call(KernelSpec("gaussian", 1.0))

    @pytest.mark.parametrize("s_star", [np.zeros((2, 0)), np.zeros((3, 2, 0))], ids=["set", "stack"])
    def test_zero_width_request_rejected(self, s_star):
        with pytest.raises(InvalidParameterError, match=r"nonempty \(n, dimension\) set"):
            DensityValueRequest(s_star, m=10)

    @pytest.mark.parametrize("family", ["uniform", "gaussian"])
    def test_integrates_to_one_1d(self, family):
        pts = RandomStream(3).generator.standard_normal((40, 1))
        kern = KernelSpec(family, 0.7)
        grid = np.linspace(-12, 12, 20001)
        dens = kde_evaluate(pts, kern, grid[:, None])
        total = np.trapezoid(dens, grid)
        assert abs(total - 1.0) < 0.01

    def test_integrates_to_one_2d_mc(self):
        # importance sampling against a wide gaussian proposal
        pts = RandomStream(5).generator.standard_normal((30, 2))
        kern = KernelSpec("gaussian", 0.5)
        gen = RandomStream(6).generator
        scale = 4.0
        z = gen.standard_normal((10**5, 2)) * scale
        proposal = np.exp(-0.5 * np.sum((z / scale) ** 2, axis=1)) / (2 * np.pi * scale**2)
        est = np.mean(kde_evaluate(pts, kern, z) / proposal)
        assert abs(est - 1.0) < 0.01

    def test_width_mismatch_rejected(self):
        pts = RandomStream(4).generator.standard_normal((5, 3))
        kern = KernelSpec("gaussian", 0.8)
        z = np.array([0.1, -0.2, 0.3])  # a 1-d z of length dim is one point
        assert kde_evaluate(pts, kern, z) == kde_evaluate(pts, kern, z[None, :])[0]
        with pytest.raises(InvalidParameterError, match="width"):
            kde_evaluate(pts, kern, np.array([0.5]))


class TestSelectBandwidth:
    def test_single_entry_grid(self):
        samples = RandomStream(0).generator.standard_normal(100)
        assert select_bandwidth(samples, [0.37]) == 0.37

    def test_standard_normal_picks_plugin_neighborhood(self):
        samples = RandomStream(3).generator.standard_normal(2000)
        h = select_bandwidth(samples, APPENDIX_GRID)
        assert h in (10.0 ** -0.5, 1.0)

    def test_duplicated_samples_degenerate(self):
        dup = np.full(50, 0.7)
        h = select_bandwidth(dup, [0.001, 0.1, 1.0])
        assert h == 0.001

    def test_empty_grid(self):
        with pytest.raises(InvalidParameterError):
            select_bandwidth(np.zeros(10), [])

    def test_all_nonfinite_scores(self):
        pts = RandomStream(9).generator.standard_normal((50, 2))
        with pytest.raises(BandwidthSelectionError):
            select_bandwidth(pts, [1e-200, 1e-201])

    def test_tie_breaks_to_larger(self):
        # duplicated grid entries force an exact tie
        samples = RandomStream(3).generator.standard_normal(200)
        h = select_bandwidth(samples, [0.3, 0.3])
        assert h == 0.3

    @staticmethod
    def direct_loo_score(pts, h):
        n, dim = pts.shape
        diffs = pts[:, None, :] - pts[None, :, :]
        kern = KernelSpec("gaussian", h)
        square = kern.self_convolution(diffs).sum() / n ** 2
        held_out = kern.evaluate(diffs)[~np.eye(n, dtype=bool)].sum() / (n * (n - 1))
        return square - 2.0 * held_out

    @pytest.mark.parametrize("dim", [1, 3])
    def test_loo_scores_match_direct_formula(self, dim, monkeypatch):
        # a small block budget runs several blocks, the last one short
        monkeypatch.setattr(numerics, "_BLOCK_FLOATS", 400)
        n = 37
        assert block_sizes(n, n) == [10, 10, 10, 7]
        pts = RandomStream(11).generator.standard_normal((n, dim))
        grid = [0.05, 0.2, 0.7, 2.5]
        for h, got in zip(grid, density._gaussian_loo_scores(pts, grid)):
            assert got == pytest.approx(self.direct_loo_score(pts, h), rel=1e-12)

    @pytest.mark.parametrize("arg, band", [(-726.0, (-745.0, -708.4)),
                                           (-800.0, (-np.inf, -745.2))])
    def test_loo_scores_in_underflow_bands(self, arg, band, monkeypatch):
        # Nearly equidistant points put every off-diagonal term exp(-sq / 4h^2) of the
        # all-pairs sum where numpy's exp is slow: subnormal at -726, 0 at -800.
        monkeypatch.setattr(numerics, "_BLOCK_FLOATS", 60)
        n = 12
        assert block_sizes(n, n) == [5, 5, 2]
        pts = 3.0 * np.eye(n) + 0.01 * RandomStream(14).generator.standard_normal((n, n))
        sq = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)[~np.eye(n, dtype=bool)]
        h = np.sqrt(np.median(sq) / (-4.0 * arg))
        args = -sq / (4.0 * h * h)
        assert np.all((args > band[0]) & (args < band[1]))
        (got,) = density._gaussian_loo_scores(pts, [h])
        assert got == pytest.approx(self.direct_loo_score(pts, h), rel=1e-12)

    def test_loo_scores_do_not_depend_on_blocking(self, monkeypatch):
        n, dim = 37, 3
        pts = RandomStream(15).generator.standard_normal((n, dim))
        grid = [0.01, 0.05, 0.2, 0.7, 2.5]
        whole = density._gaussian_loo_scores(pts, grid)
        assert block_sizes(n, n) == [n]
        monkeypatch.setattr(numerics, "_BLOCK_FLOATS", 400)
        assert block_sizes(n, n) == [10, 10, 10, 7]
        assert density._gaussian_loo_scores(pts, grid) == pytest.approx(whole, rel=1e-14)

    def test_loo_scores_in_each_gate_branch(self, monkeypatch):
        # At h = 1 a pair is gated beyond a distance of ~53.2. In blocks of ten rows: the
        # first ten points lie far from every other point (every pair gated); the next ten
        # lie within reach of all later points (every pair in range); the last ten sit on
        # two sides 60 apart (pairs across the sides gated, the others in range).
        monkeypatch.setattr(numerics, "_BLOCK_FLOATS", 300)
        n, h = 30, 1.0
        assert block_sizes(n, n) == [10, 10, 10]
        gen = RandomStream(17).generator
        far = np.column_stack([1000.0 * np.arange(1, 11), np.zeros(10)])
        near = gen.uniform(-5.0, 5.0, size=(10, 2))
        sides = np.column_stack([np.tile([30.0, -30.0], 5), np.zeros(10)])
        pts = np.vstack([far, near, sides + gen.uniform(-1.0, 1.0, size=(10, 2))])
        args = -np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1) / (4.0 * h * h)
        later = np.triu(np.ones((n, n), dtype=bool), 1)
        kept = [args[b:b + 10][later[b:b + 10]] >= density.LOG_TINY for b in (0, 10, 20)]
        assert not kept[0].any() and kept[1].all() and 0 < kept[2].sum() < kept[2].size
        (got,) = density._gaussian_loo_scores(pts, [h])
        assert got == pytest.approx(self.direct_loo_score(pts, h), rel=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("dim", [1, 3])
    def test_nonfinite_sample_rejected(self, dim, bad):
        # before any scoring, which would drop a NaN pair in its masked exp
        samples = RandomStream(0).generator.standard_normal((50, dim))
        samples[7, dim - 1] = bad
        with pytest.raises(InvalidParameterError, match="finite"):
            select_bandwidth(samples[:, 0] if dim == 1 else samples, APPENDIX_GRID)

    def test_two_samples_accepted_one_rejected(self):
        assert select_bandwidth(np.array([0.0, 1.0]), [0.1, 1.0]) in (0.1, 1.0)
        with pytest.raises(InvalidParameterError):
            select_bandwidth(np.array([0.0]), [0.1, 1.0])

    @pytest.mark.parametrize("grid", [[0.0], [0.0, 0.1], [float("nan"), 0.1],
                                      [-0.1, 0.1], [float("inf"), 0.1]])
    def test_nonpositive_or_nonfinite_entry_rejected(self, grid):
        samples = RandomStream(0).generator.standard_normal(50)
        with pytest.raises(InvalidParameterError):
            select_bandwidth(samples, grid)


class TestCoefficients:
    def test_basic_values(self):
        assert coeff_A(1, 1) == 1.0
        assert coeff_B(2, 1) == 0.0

    def test_exact_rational_values(self):
        a23 = Fraction(1, 3) * (Fraction(4, 4) + Fraction(4, 9) + Fraction(4, 16))
        b23 = Fraction(1, 3) * (Fraction(4, 9) + Fraction(8, 16))
        assert coeff_A(2, 3) == pytest.approx(float(a23), rel=1e-14)
        assert coeff_B(2, 3) == pytest.approx(float(b23), rel=1e-14)
        assert coeff_A(2, 3) == pytest.approx(0.564815, abs=1e-6)
        assert coeff_B(2, 3) == pytest.approx(0.314815, abs=1e-6)

    def test_ranges_and_monotonicity(self):
        for n in (1, 2, 5, 20, 200):
            previous = None
            for m in range(1, 201):
                a = coeff_A(n, m)
                assert 0.0 < a <= 1.0
                assert coeff_B(n, m) >= 0.0
                if previous is not None:
                    assert a <= previous + 1e-15
                previous = a

    def test_invalid(self):
        with pytest.raises(InvalidParameterError):
            coeff_A(0, 5)


class TestUniformClosedForm:
    @staticmethod
    def plain_constant(n, m, h, c_den):
        """The size-only part of an n-point set's value, summed by a plain loop."""
        def h2(s):
            lead = (n * n + 2.0 * n * s) / (s + n) ** 2
            body = (12.0 - 15.0 * h + (5.0 + s) * h * h) / (12.0 * s * h)
            return lead * body - (2.0 * n * s / (s + n) ** 2) * (h / 4.0)
        return c_den / m + sum(h2(j - 1) for j in range(2, m + 1)) / m

    def test_half_bandwidth_makes_fit_term_vanish(self):
        # at h = 1/2 the separated-pair fit coefficient is zero, so any two
        # admissible far-apart pairs share the same value
        v1 = uniform_closed_form([0.25, 0.75], 0.5, 100, 0.2)
        assert v1 == pytest.approx(self.plain_constant(2, 100, 0.5, 0.2), rel=1e-12)

    @pytest.mark.parametrize("point", [0.1, 0.5, 0.85])
    def test_single_point(self, point):
        # an interior point's value does not depend on where it sits: the fit term
        # (1/m) sum_j 1/j^2 (1 - 1/h) plus the size-only part
        h, m = 0.2, 100
        fit = sum(1.0 / j ** 2 for j in range(1, m + 1)) / m * (1.0 - 1.0 / h)
        expected = fit + self.plain_constant(1, m, h, 0.2)
        assert uniform_closed_form([point], h, m, 0.2) == pytest.approx(expected, rel=1e-12)

    def test_branch_continuity(self):
        h, m = 0.2, 100
        at = uniform_closed_form([0.4, 0.4 + h], h, m, 0.2)
        below = uniform_closed_form([0.4, 0.4 + h - 1e-15], h, m, 0.2)
        assert abs(at - below) < 1e-12

    def test_difference_formula(self):
        h, m = 0.2, 100
        far = uniform_closed_form([0.3, 0.7], h, m, 0.2)
        near = uniform_closed_form([0.49, 0.51], h, m, 0.2)
        expected = coeff_A(2, m) * (1.0 / (2 * h) - 0.02 / (2 * h * h))
        assert far - near == pytest.approx(expected, rel=1e-12)

    def test_boundary_condition_enforced(self):
        with pytest.raises(InvalidParameterError):
            uniform_closed_form([0.05, 0.5], 0.2, 100, 0.2)

    def test_set_size_limits(self):
        with pytest.raises(InvalidParameterError):
            uniform_closed_form([0.3, 0.5, 0.7], 0.2, 100, 0.2)

    @pytest.mark.parametrize("points, h", [([0.5], np.nan), ([0.5], np.inf), ([np.nan], 0.2),
                                           ([0.4, np.nan], 0.2)],
                             ids=["h-nan", "h-inf", "point-nan", "second-point-nan"])
    def test_nonfinite_input_rejected(self, points, h):
        with pytest.raises(InvalidParameterError):
            uniform_closed_form(points, h, 100, 0.2)

    @pytest.mark.parametrize("c_den", [np.nan, np.inf, -np.inf])
    def test_nonfinite_c_den_rejected(self, c_den):
        # returned NaN or an infinity while synergy_scan refused the same constant
        with pytest.raises(InvalidParameterError, match="C_den must be finite"):
            uniform_closed_form([0.5], 0.2, 10, c_den)


class TestDensityEstimator:
    def test_nonfinite_set_rejected(self):
        with pytest.raises(InvalidParameterError, match="s_star must be finite"):
            DensityValueRequest(np.array([[[0.3], [0.5]], [[0.4], [np.nan]]]), m=10)

    @pytest.mark.parametrize("m", [0, np.nan])
    def test_horizon_below_one_rejected(self, m):
        with pytest.raises(InvalidParameterError, match="m must be at least 1"):
            DensityValueRequest(np.array([[0.3]]), m=m)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_background_row_rejected(self, bad):
        bg = RandomStream(1).generator.uniform(size=(100, 2))
        bg[7, 1] = bad
        with pytest.raises(InvalidParameterError, match="background must be finite"):
            dshapley_density(DensityValueRequest(np.array([[0.3, 0.4]]), m=10), bg,
                             KernelSpec("gaussian", 0.5))

    def test_deterministic(self):
        bg = RandomStream(1).generator.uniform(size=5000)
        req = DensityValueRequest(s_star=np.array([[0.3], [0.7]]), m=100)
        kern = KernelSpec("uniform", 0.2)
        a = dshapley_density(req, bg, kern)
        b = dshapley_density(req, bg, kern)
        assert a.value == b.value and a.std_error == b.std_error

    def test_pair_difference_matches_closed_form(self):
        h, m = 0.2, 100
        kern = KernelSpec("uniform", h)
        bg = RandomStream(21).generator.uniform(size=20000)
        est_far = dshapley_density(DensityValueRequest(np.array([[0.3], [0.7]]), m=m), bg, kern)
        est_near = dshapley_density(DensityValueRequest(np.array([[0.49], [0.51]]), m=m), bg, kern)
        expected = coeff_A(2, m) * (1.0 / (2 * h) - 0.02 / (2 * h * h))
        got = est_far.value - est_near.value
        assert abs(got - expected) < 3.0 * np.hypot(est_far.std_error, est_near.std_error)

    def test_single_point_values_translation_invariant(self):
        # interior single points share the same closed-form value, so the
        # estimates may differ only by Monte-Carlo noise
        kern = KernelSpec("uniform", 0.2)
        bg = RandomStream(22).generator.uniform(size=20000)
        a = dshapley_density(DensityValueRequest(np.array([[0.5]]), m=100), bg, kern)
        b = dshapley_density(DensityValueRequest(np.array([[0.3]]), m=100), bg, kern)
        assert abs(a.value - b.value) < 3.0 * np.hypot(a.std_error, b.std_error)

    def test_bias_term_shrinks_quadratically_in_bandwidth(self):
        # quadrature oracle for the kernel-bias integral under a smooth density
        s_star = np.array([[0.4], [-0.9]])

        def bias_integral(h):
            kern = KernelSpec("gaussian", h)

            def integrand(z):
                phat = kde_evaluate(s_star, kern, np.array([z]))
                return phat * (norm.pdf(z) - norm.pdf(z, scale=np.sqrt(1.0 + h * h)))

            return integrate.quad(integrand, -12, 12, limit=200)[0]

        ratio = bias_integral(0.4) / bias_integral(0.2)
        assert 2.5 <= ratio <= 6.0

        # the estimator's second component tracks the same integral
        m = 100
        bg = RandomStream(5).generator.standard_normal(30000)
        kern = KernelSpec("gaussian", 0.4)
        req = DensityValueRequest(s_star=s_star, m=m)
        _, (_, bias_term) = dshapley_density(req, bg, kern, return_components=True)
        assert bias_term == pytest.approx(coeff_B(2, m) * bias_integral(0.4), rel=0.15)

    def test_empty_background_rejected(self):
        req = DensityValueRequest(np.array([[0.5]]), m=10)
        with pytest.raises(InvalidParameterError):
            dshapley_density(req, np.empty((0, 1)), KernelSpec("uniform", 0.2))


class TestDensityExpectation:
    @pytest.mark.parametrize("family, dim", [("gaussian", 3), ("gaussian", 10),
                                             ("uniform", 1), ("uniform", 10)])
    def test_matches_direct_sum(self, family, dim, monkeypatch):
        # a small block budget runs several blocks, the last one short
        monkeypatch.setattr(numerics, "_BLOCK_FLOATS", 63)
        rows, m = 50, 40
        assert block_sizes(rows, 3) == [21, 21, 8]
        gen = RandomStream(12).generator
        s_star = gen.uniform(0.3, 0.7, size=(3, dim))
        bg = gen.uniform(size=(rows, dim))
        kern = KernelSpec(family, BANDWIDTHS.get((family, dim), 0.3))
        est = dshapley_density(DensityValueRequest(s_star, m=m), bg, kern)

        to_set = bg[:, None, :] - s_star[None, :, :]
        p_hat = kern.evaluate(to_set).mean(axis=1)
        cross = kern.self_convolution(to_set).mean(axis=1)
        square = kern.self_convolution(s_star[:, None, :] - s_star[None, :, :]).mean()
        per_row = -coeff_A(3, m) * (square - 2.0 * p_hat) + coeff_B(3, m) * (p_hat - cross)
        assert est.value == pytest.approx(per_row.mean(), rel=1e-12)
        assert est.std_error == pytest.approx(per_row.std(ddof=1) / np.sqrt(rows), rel=1e-12)
        assert est.inner_iters_used == []
        _, (fit, bias) = dshapley_density(DensityValueRequest(s_star, m=m), bg, kern,
                                          return_components=True)
        assert fit == pytest.approx(np.mean(-coeff_A(3, m) * (square - 2.0 * p_hat)), rel=1e-12)
        assert bias == pytest.approx(np.mean(coeff_B(3, m) * (p_hat - cross)), rel=1e-12)
        assert fit + bias == pytest.approx(est.value, rel=1e-12)

    @pytest.mark.parametrize("family", ["gaussian", "uniform"])
    def test_one_background_row(self, family):
        # one row is the whole expectation: its term is the value, with no spread to report
        s_star = np.array([[[0.3, 0.5], [0.4, 0.6]], [[0.5, 0.5], [0.45, 0.55]]])
        row = np.array([[0.42, 0.52]])
        kern = KernelSpec(family, 0.3)
        est = dshapley_density(DensityValueRequest(s_star, m=30), row, kern)
        assert np.array_equal(est.std_error, np.zeros(2))
        for sets, value in zip(s_star, est.value):
            to_set = row - sets
            square = kern.self_convolution(sets[:, None, :] - sets[None, :, :]).mean()
            p_hat, cross = kern.evaluate(to_set).mean(), kern.self_convolution(to_set).mean()
            term = -coeff_A(2, 30) * (square - 2.0 * p_hat) + coeff_B(2, 30) * (p_hat - cross)
            assert value == pytest.approx(term, rel=1e-12)

    @pytest.mark.parametrize("size", [1, 2, 9])
    @pytest.mark.parametrize("family, dim", [("gaussian", 3), ("gaussian", 10),
                                             ("uniform", 1), ("uniform", 10)])
    def test_stack_matches_single_sets(self, family, dim, size, monkeypatch):
        # each set alone; the stack in one chunk of sets and one row block; in chunks of
        # three sets, the last one short; and in chunks of one set under a budget so small
        # that each set spans several row blocks, the last one short
        rows, k, m = 90, 7, 40
        gen = RandomStream(13).generator
        stack = gen.uniform(0.3, 0.7, size=(k, size, dim))
        bg = gen.uniform(size=(rows, dim))
        kern = KernelSpec(family, BANDWIDTHS.get((family, dim), 0.3))

        def value(sets):
            est, parts = dshapley_density(DensityValueRequest(sets, m=m), bg, kern,
                                          return_components=True)
            return [est.value, est.std_error, *parts]

        alone = [value(s) for s in stack]
        assert all(isinstance(x, float) for one in alone for x in one)
        # the fit and bias terms add up to the value
        assert all(fit + bias == pytest.approx(v, rel=1e-12) for v, _, fit, bias in alone)
        set_values, chunks = density._set_values, []

        def spy(kernel, sets, *rest):
            chunks.append(len(sets))
            return set_values(kernel, sets, *rest)

        monkeypatch.setattr(density, "_set_values", spy)
        for budget, expected in ((numerics._BLOCK_FLOATS, [7]), (1080, [3, 3, 1]), (70, [1] * 7)):
            monkeypatch.setattr(numerics, "_BLOCK_FLOATS", budget)
            chunks.clear()
            got = value(stack)
            assert chunks == expected
            assert got[0].shape == got[1].shape == (k,)
            assert [list(column) for column in got] == [list(x) for x in zip(*alone)]
        cuts = block_sizes(rows, size)
        assert len(cuts) > 1 and cuts[-1] < cuts[0]

    @pytest.mark.parametrize("dim", [1, 3, 10])
    def test_uniform_bits_match_the_difference_tensor(self, dim, monkeypatch):
        # the per-coordinate loop multiplies the factors in the order np.prod and np.all
        # reduce a (..., dim) tensor, and each set's mean still reduces its own n
        monkeypatch.setattr(numerics, "_BLOCK_FLOATS", 500)
        rows, k, size, h = 60, 4, 9, 0.9
        gen = RandomStream(16).generator
        stack = gen.uniform(0.3, 0.7, size=(k, size, dim))
        bg = gen.uniform(size=(rows, dim))
        kern = KernelSpec("uniform", h)
        p_hat, cross = density._kernel_means(kern, stack, bg[:, None, :],
                                             ("evaluate", "self_convolution"))
        square = density._mean_self_convolution(kern, stack)

        def overlap(diffs):
            return np.prod(np.maximum(h - np.abs(diffs), 0.0) / h ** 2, axis=-1)

        to_set = bg[None, :, None, :] - stack[:, None, :, :]  # (sets, rows, n, dim)
        inside = np.all(np.abs(to_set) <= h / 2.0, axis=-1) / h ** dim
        assert 0.0 < inside.mean() < 1.0 / h ** dim
        assert np.array_equal(p_hat, inside.mean(axis=2))
        assert np.array_equal(cross, overlap(to_set).mean(axis=2))
        pairs = stack[:, :, None, :] - stack[:, None, :, :]
        assert np.array_equal(square, overlap(pairs).mean(axis=2).mean(axis=1))

    @pytest.mark.parametrize("s_star", [np.empty((0, 2, 1)), np.empty((3, 0, 1)),
                                        np.empty((0, 1)), np.zeros((1, 1, 1, 1))])
    def test_empty_or_deeper_stack_rejected(self, s_star):
        with pytest.raises(InvalidParameterError, match="stack"):
            DensityValueRequest(s_star, m=10)

    def test_width_mismatch_rejected(self):
        bg = RandomStream(1).generator.uniform(size=50)
        req = DensityValueRequest(np.full((1, 3), 0.5), m=10)
        with pytest.raises(InvalidParameterError, match="width"):
            dshapley_density(req, bg, KernelSpec("gaussian", 0.3))


class TestSynergyScan:
    def test_deterministic(self):
        a = synergy_scan([0.1, 0.2], n_draws=500, rng=RandomStream(3))
        b = synergy_scan([0.1, 0.2], n_draws=500, rng=RandomStream(3))
        assert [(r.bandwidth, r.threshold, r.probability) for r in a.records] == \
               [(r.bandwidth, r.threshold, r.probability) for r in b.records]

    def test_no_synergy_reports_none(self):
        # a large shared constant inflates the two singles against the pair
        res = synergy_scan([0.2], C_den=500.0, n_draws=400, rng=RandomStream(1))
        assert res.records[0].threshold is None
        assert res.records[0].probability == 0.0

    def test_probabilities_and_thresholds_in_range(self):
        res = synergy_scan([0.05, 0.15, 0.3], n_draws=800, rng=RandomStream(2))
        for rec in res.records:
            assert 0.0 <= rec.probability <= 1.0
            if rec.threshold is not None:
                assert 0.0 <= rec.threshold <= 1.0

    def test_empty_grid(self):
        with pytest.raises(InvalidParameterError):
            synergy_scan([], rng=RandomStream(0))

    @pytest.mark.parametrize("c_den", [np.nan, np.inf, -np.inf])
    def test_nonfinite_c_den_rejected(self, c_den):
        with pytest.raises(InvalidParameterError, match="C_den"):
            synergy_scan([0.1], C_den=c_den, rng=RandomStream(0))

    @pytest.mark.parametrize("n_draws", [0, -4])
    def test_draw_count_below_one_rejected(self, n_draws):
        with pytest.raises(InvalidParameterError, match="n_draws"):
            synergy_scan([0.1], n_draws=n_draws, rng=RandomStream(0))
