"""The benchmark's own numpy formulas for every generated spec.

Each function rebuilds a matrix (or vector, or entry) from the parameters
``workloads.py`` drew, independently of infmat's expression language.
"""

import numpy as np


def grid(m, n):
    return np.meshgrid(np.arange(1, m + 1, dtype=float), np.arange(1, n + 1, dtype=float),
                       indexing="ij")


def dense_matrix(spec, n):
    I, J = grid(n, n)
    p = spec.params
    eye = (I == J).astype(float)
    if spec.family == "poly":
        return eye + p["c"] / (I + J + p["a"]) ** p["p"]
    return eye + np.where(I == J, p["d"], p["c"]) * np.exp(-p["s"] * (I + J)) \
        / (I + J + p["a"]) ** p["p"]


def rhs(spec, n):
    return 1.0 / np.arange(1, n + 1, dtype=float) ** spec.params["b"]["q"]


def banded_matrix(spec, n):
    p = spec.params
    i = np.arange(1, n + 1, dtype=float)
    t = np.diag(p["s"] + p["c"] / i ** p["p"])
    for off, v in ((1, p["e"]), (2, p["f"])):
        if v:
            t += np.diag(np.full(n - off, v), off) + np.diag(np.full(n - off, v), -off)
    return t


def series_entry(spec, i, j):
    """Entry function of a series-sums spec, on numpy arrays or mpmath scalars."""
    p = spec.params
    if spec.family == "poly":
        return p["c"] / (i + j + p["a"]) ** p["p"]
    return p["c"] * p["r"] ** (i * j)
