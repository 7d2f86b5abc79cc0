"""Frozen hand-expanded null moments: the reference oracle for
`ecdkit.ecd.null_moments`.

This is the arithmetic of `null_moments` as it stood before the closed
form was written through one falling-factorial `share`: seven
relabeling probabilities spelled out factor by factor. Its argument
checks are left out, since the equality tests call it only on valid
splits. It is kept only so those tests can compare the production
formula with it bit for bit; nothing in the library imports it.
"""

import numpy as np

from ecdkit import NullMoments, degree_statistic


def reference_null_moments(g, n, m):
    big_n = n + m
    edges = float(g.n_edges)
    c = degree_statistic(g)
    nn = float(big_n)
    p2a = (n * (n - 1)) / (nn * (nn - 1))
    p2b = (m * (m - 1)) / (nn * (nn - 1))
    p3a = (n * (n - 1) * (n - 2)) / (nn * (nn - 1) * (nn - 2))
    p3b = (m * (m - 1) * (m - 2)) / (nn * (nn - 1) * (nn - 2))
    p4a = (n * (n - 1) * (n - 2) * (n - 3)) / (nn * (nn - 1) * (nn - 2) * (nn - 3))
    p4b = (m * (m - 1) * (m - 2) * (m - 3)) / (nn * (nn - 1) * (nn - 2) * (nn - 3))
    pcross = (n * (n - 1) * m * (m - 1)) / (nn * (nn - 1) * (nn - 2) * (nn - 3))
    mu1 = edges * p2a
    mu2 = edges * p2b
    disjoint_pairs = edges * (edges - 1.0) - 2.0 * c
    s11 = mu1 * (1.0 - mu1) + 2.0 * c * p3a + disjoint_pairs * p4a
    s22 = mu2 * (1.0 - mu2) + 2.0 * c * p3b + disjoint_pairs * p4b
    s12 = disjoint_pairs * pcross - mu1 * mu2
    sigma = np.array([[s11, s12], [s12, s22]])
    return NullMoments(mu1=mu1, mu2=mu2, sigma=sigma, c=c, n_edges=g.n_edges)
