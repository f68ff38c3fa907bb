"""The quadrature against a 30-digit reference on a grid of cells.

``quadrature_reference.json`` holds, per (m, q, d) at p = 10, the sums P and Q of the
chi-squared expectations over every admitted size (see ``make_quadrature_reference.py``,
which makes it with mpmath). A cell (sigma2, e2) of that grid is worth -(sigma2 P + d e2 Q) / m,
worked out here in 40-digit decimals.
"""

import json
import warnings
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest

from distshap import PointQuery, RegressionEnvironment, SpdMatrix, dshapley_regression_quadrature

REFERENCE = json.loads(Path(__file__).with_name("quadrature_reference.json").read_text())
P_DIM = REFERENCE["p"]
ERRORS = (0.0, 1.0, 1e4)
CASES = sorted({(cell["m"], cell["q"]) for cell in REFERENCE["cells"]})


def _reference(cell, sigma2, e2):
    """-(sigma2 P + d e2 Q) / m in 40-digit decimals; d Q is 0 at d = 0, where Q may diverge."""
    with localcontext() as ctx:
        ctx.prec = 40
        error = Decimal(cell["d"]) * Decimal(e2) * Decimal(cell["Q"]) if cell["d"] else 0
        return -(Decimal(sigma2) * Decimal(cell["P"]) + error) / cell["m"]


@pytest.mark.parametrize("sigma2", [0.0, 1.0])
@pytest.mark.parametrize("m, q", CASES)
def test_grid_against_the_reference(m, q, sigma2):
    cells = [cell for cell in REFERENCE["cells"] if (cell["m"], cell["q"]) == (m, q)]
    env = RegressionEnvironment(m=m, q=q, gamma=0.0, sigma2=sigma2,
                                beta_hat=np.zeros(P_DIM), sigma_inv=SpdMatrix(np.eye(P_DIM)))
    d = np.repeat([cell["d"] for cell in cells], len(ERRORS))
    e2 = np.tile(ERRORS, len(cells))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # m = q - 1: the empty sum's warning
        batch = dshapley_regression_quadrature(
            PointQuery(x_star=np.zeros((d.size, P_DIM)), y_star=np.zeros(d.size), e2=e2, d=d), env)
        alone = [dshapley_regression_quadrature(
            PointQuery(x_star=np.zeros(P_DIM), y_star=0.0, e2=e, d=t), env) for t, e in zip(d, e2)]
    for i, (t, e) in enumerate(zip(d, e2)):
        value, std_error = batch.value[i], batch.std_error[i]
        assert (alone[i].value, alone[i].std_error) == (value, std_error), (t, e)
        error = float(abs(Decimal(value) - _reference(cells[i // len(ERRORS)], sigma2, e)))
        assert error <= 3.0 * std_error, (t, e, value, error, std_error)
        assert std_error <= max(1e3 * error, 1e-13 * abs(value)), (t, e, value, error, std_error)
    # the price of squared error is never negative: the value does not rise with e2
    assert (np.diff(batch.value.reshape(len(cells), len(ERRORS)), axis=1) <= 0.0).all()
