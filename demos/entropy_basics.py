"""Conditional min-/max-entropy on small bipartite states.

Walks through the named states everyone uses to sanity-check an entropy
engine: a maximally entangled pair (conditional min-entropy -1), a
maximally mixed qubit next to anything (+1), and classically correlated
bits (0).  Then smooths: allowing an epsilon-ball in purified distance
around the state can only raise H_min and lower H_max.
"""

import numpy as np

from secrecy.entropy import EntropyQuery, h_max, h_max_smooth, h_min_smooth
from secrecy.quantum import (DensityOperator, maximally_entangled,
                             random_density)


def show(label, value, expect=None):
    """Print a value; with `expect`, also check it against its closed form."""
    print(f"  {label:<38s} {value:+.6f}")
    if expect is not None and abs(value - expect) > 1e-6:
        raise SystemExit(f"{label}: {value} is not the closed form {expect}")


def main():
    rng = np.random.default_rng(0)

    print("exact conditional entropies (A|B):")
    bell = maximally_entangled(2)
    show("H_min, maximally entangled pair", h_min_smooth(
        EntropyQuery(bell, (0,), (1,), 0.0)), -1.0)
    show("H_max, maximally entangled pair", h_max(
        EntropyQuery(bell, (0,), (1,), 0.0)), -1.0)

    sigma = random_density((2,), rng)
    product = DensityOperator(np.kron(np.eye(2) / 2, sigma.mat), (2, 2))
    show("H_min, I/2 (x) sigma", h_min_smooth(
        EntropyQuery(product, (0,), (1,), 0.0)), 1.0)

    corr = DensityOperator(np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex),
                           (2, 2))
    show("H_min, perfectly correlated bits", h_min_smooth(
        EntropyQuery(corr, (0,), (1,), 0.0)), 0.0)

    print("\nsmoothing monotonicity on a random two-qubit state:")
    rho = random_density((2, 2), rng, rank=3)
    rows = []
    for eps in (0.0, 0.05, 0.1, 0.2):
        lo = h_min_smooth(EntropyQuery(rho, (0,), (1,), eps))
        hi = h_max_smooth(EntropyQuery(rho, (0,), (1,), eps))
        print(f"  eps={eps:<5.2f}  H_min={lo:+.6f}  H_max={hi:+.6f}")
        rows.append((lo, hi))
    for (lo0, hi0), (lo1, hi1) in zip(rows, rows[1:]):
        if lo1 < lo0 - 1e-6 or hi1 > hi0 + 1e-6:
            raise SystemExit("smoothing is not monotone in eps")
    print("  (H_min^eps is non-decreasing and H_max^eps non-increasing in "
          "eps)")


if __name__ == "__main__":
    main()
