"""Write ``quadrature_reference.json``, the reference of ``test_quadrature_grid.py``.

For each cell (m, q, d) at p = 10 it holds, to 30 significant digits, the two sums over the
admitted sizes j = q-1 .. m-1 (T ~ chi2(nu), nu = j - p + 1, coef = (j-1)/(j-p))::

    P = sum_j coef E[T / (d + T)^2]        Q = sum_j coef E[1 / (d + T)^2]

so the value of a point at (sigma2, e2) is -(sigma2 P + d e2 Q) / m. Each expectation is a
confluent hypergeometric U function, computed by mpmath at 50 digits::

    E[T / (d + T)^2] = nu / 4 U(2, 2 - nu/2, d/2)      E[1 / (d + T)^2] = 1/4 U(2, 3 - nu/2, d/2)

and at d = 0 by the chi-squared moments 1/(nu - 2) and 1/((nu - 2)(nu - 4)); Q is null at
d = 0 when a size has nu <= 4, where it diverges and d Q is 0. A few sizes are checked
against direct numerical integration of the chi-squared density. Needs mpmath (the
``reference`` extra); the test suite does not run this script. Run from the repository root::

    python tests/make_quadrature_reference.py
"""

import json
from pathlib import Path

import mpmath as mp

P_DIM = 10
GATES = (13, 40)  # q = p + 3, and a larger gate
HORIZON = 1000
DISTANCES = (0.0, 1e-40, 1e-36, 1e-34, 1e-8, 1e-3, 1.0, 100.0, 1e4, 1e6, 1e9)
OUT = Path(__file__).with_name("quadrature_reference.json")


def expectations(nu: int, d: float):
    """(E[T/(d+T)^2], E[1/(d+T)^2]) for T ~ chi2(nu); the second is None where infinite."""
    nu = mp.mpf(nu)
    if d == 0.0:
        return 1 / (nu - 2), (1 / ((nu - 2) * (nu - 4)) if nu > 4 else None)
    z = mp.mpf(d) / 2
    return nu / 4 * mp.hyperu(2, 2 - nu / 2, z), mp.hyperu(2, 3 - nu / 2, z) / 4


def by_density(nu: int, d: float):
    """The same two expectations by quadrature of the chi-squared density (d > 0)."""
    k = mp.mpf(nu) / 2

    def density(x):
        return x ** (k - 1) * mp.exp(-x / 2) / (2 ** k * mp.gamma(k))

    cuts = sorted({mp.mpf(0), mp.mpf(d), 10 * mp.mpf(d), mp.mpf(nu), 10 * mp.mpf(nu), mp.inf})
    return (mp.quad(lambda x: x / (d + x) ** 2 * density(x), cuts),
            mp.quad(lambda x: density(x) / (d + x) ** 2, cuts))


def main():
    mp.mp.dps = 50
    for nu in (3, 5, 400):
        for d in (1e-3, 1e4, 1e9):
            for a, b in zip(expectations(nu, d), by_density(nu, d)):
                assert abs(a - b) <= mp.mpf(10) ** -35 * abs(a), (nu, d)
    cells = []
    for q in GATES:
        for d in DISTANCES:
            # running sums over the sizes j = q-1 .. m-1, read off at each horizon m
            big_p, big_q = mp.mpf(0), mp.mpf(0)
            sums = {q - 1: (big_p, big_q)}
            for j in range(q - 1, HORIZON):
                e_p, e_q = expectations(j - P_DIM + 1, d)
                coef = mp.mpf(j - 1) / (j - P_DIM)
                big_p += coef * e_p
                big_q = None if big_q is None or e_q is None else big_q + coef * e_q
                if j + 1 in (q, HORIZON):
                    sums[j + 1] = (big_p, big_q)
            for m, (sum_p, sum_q) in sums.items():
                cells.append({"m": m, "q": q, "d": d, "P": mp.nstr(sum_p, 30),
                              "Q": None if sum_q is None else mp.nstr(sum_q, 30)})
    OUT.write_text(json.dumps({"p": P_DIM, "cells": cells}, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
