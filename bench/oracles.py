"""Reference computations the benchmark checks distshap's outputs against.

Nothing here imports distshap: every expectation is rebuilt from the input
CSV with numpy and scipy, so a fault in the package cannot hide itself by
also being in its oracle.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial.legendre import leggauss

QUADRATURE_NODES = 400


def read_matrix(path) -> np.ndarray:
    """Numeric body of a CSV with one header row, as a 2-d float array."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def read_table(path) -> tuple[list, list]:
    """Columns and rows (as strings) of a CSV whose metadata lines start with '#'."""
    with open(path, encoding="utf-8") as handle:
        lines = [line for line in handle.read().splitlines()
                 if line and not line.startswith("#")]
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def read_values(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(index, value, std_error) columns of a values file."""
    columns, rows = read_table(path)
    at = {name: k for k, name in enumerate(columns)}
    index = np.array([int(r[at["index"]]) for r in rows], dtype=int)
    value = np.array([float(r[at["value"]]) for r in rows])
    std_error = np.array([float(r[at["std_error"]]) for r in rows])
    return index, value, std_error


def complement(n: int, index: np.ndarray) -> np.ndarray:
    """Row mask of the rows not valued: the background when the held-out size is 0."""
    mask = np.ones(n, dtype=bool)
    mask[index] = False
    return mask


def _stats():
    # scipy.stats takes ~1 s to import; setup_s must not pay for the oracles
    from scipy import stats
    return stats


def spearman(a, b) -> float:
    return float(_stats().spearmanr(a, b).statistic)


class RegressionOracle:
    """Full-sum Gaussian closed form of a point's distributional Shapley value.

    The value is ``-(1/m) * sum_{j=q-1}^{m-1} (j-1)/(j-p) * E[f(T_j)]`` with
    ``f(t) = (d*e2 + t*s2) / (d + t)^2`` and ``T_j ~ chi2(j - p + 1)``. Each
    expectation is Gauss-Legendre quadrature in the quantile domain,
    ``E[f(T)] = int_0^1 f(F^-1(u)) du``, so no size is truncated and no draw is
    random. ``d`` and ``e2`` come from an ordinary least-squares fit of the
    background made here: ``beta``, ``s2 = RSS / (N - p)`` and the inverse
    uncentred second moment ``(X^T X / N)^-1``.
    """

    def __init__(self, bx: np.ndarray, by: np.ndarray, m: int, q: int | None = None):
        n, p = bx.shape
        self.p, self.m = p, m
        self.q = p + 3 if q is None else q
        self.beta = np.linalg.lstsq(bx, by, rcond=None)[0]
        self.s2 = float(np.sum((by - bx @ self.beta) ** 2) / (n - p))
        self.sigma_inv = np.linalg.inv(bx.T @ bx / n)
        sizes = np.arange(self.q - 1, m, dtype=float)
        nodes, weights = leggauss(QUADRATURE_NODES)
        self.draws = _stats().chi2.ppf((nodes[None, :] + 1.0) / 2.0, (sizes - p + 1.0)[:, None])
        self.weights = ((sizes - 1.0) / (sizes - p))[:, None] * (weights / 2.0)[None, :]

    def statistics(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Squared Mahalanobis distances ``d`` and squared errors ``e2`` of points."""
        d = np.einsum("ij,jk,ik->i", x, self.sigma_inv, x)
        e2 = (y - x @ self.beta) ** 2
        return d, e2

    def expectation_one(self, d: float, e2: float) -> float:
        f = (d * e2 + self.draws * self.s2) / (d + self.draws) ** 2
        return -float(np.sum(self.weights * f)) / self.m

    def values(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        d, e2 = self.statistics(x, y)
        return np.array([self.expectation_one(di, ei) for di, ei in zip(d, e2)])


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    sq = np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1)[None, :] - 2.0 * (a @ b.T)
    return np.maximum(sq, 0.0)


def _gauss(sq: np.ndarray, h: float, dim: int) -> np.ndarray:
    """Gaussian kernel of bandwidth ``h`` in ``dim`` dimensions at squared distances."""
    with np.errstate(under="ignore"):
        return np.exp(-sq / (2.0 * h * h)) / (2.0 * np.pi * h * h) ** (dim / 2.0)


def density_coefficients(m: int) -> tuple[float, float]:
    """``A = (1/m) sum_{j=1}^m 1/j^2`` and ``B = (1/m) sum_{j=2}^m 2(j-1)/j^2``."""
    j = np.arange(1, m + 1, dtype=float)
    return float(np.sum(1.0 / j ** 2) / m), float(np.sum(2.0 * (j[1:] - 1.0) / j[1:] ** 2) / m)


def density_expectation(points: np.ndarray, background: np.ndarray, h: float,
                        m: int) -> np.ndarray:
    """Exact expectation of the sampled singleton KDE value of each point.

    For the set ``{s}``, ``E = -A*((4 pi h^2)^(-d/2) - 2*m1) + B*(m1 - m2)``,
    where ``m1`` and ``m2`` are the background means of the Gaussian kernel
    at ``s`` with bandwidths ``h`` and ``h*sqrt(2)``.
    """
    dim = points.shape[1]
    a_coef, b_coef = density_coefficients(m)
    sq = _sq_dists(points, background)
    m1 = _gauss(sq, h, dim).mean(axis=1)
    m2 = _gauss(sq, h * np.sqrt(2.0), dim).mean(axis=1)
    return -a_coef * ((4.0 * np.pi * h * h) ** (-dim / 2.0) - 2.0 * m1) + b_coef * (m1 - m2)


def lscv_scores(samples: np.ndarray, grid) -> np.ndarray:
    """Leave-one-out least-squares cross-validation score of each bandwidth.

    ``int p_hat^2 - (2/n) sum_i p_hat_{-i}(x_i)``, the integrated squared
    error up to a constant, for the Gaussian kernel.
    """
    n, dim = samples.shape
    sq = _sq_dists(samples, samples)
    scores = []
    for h in grid:
        square = _gauss(sq, h * np.sqrt(2.0), dim).sum() / n ** 2
        kernel = _gauss(sq, h, dim)
        np.fill_diagonal(kernel, 0.0)
        scores.append(square - 2.0 * kernel.sum() / (n * (n - 1)))
    return np.array(scores)


def lscv_argmin(samples: np.ndarray, grid) -> float:
    scores = lscv_scores(samples, grid)
    return float(list(grid)[int(np.argmin(scores))])
