"""Independent oracle for the benchmark's output checks.

Everything here is restated from the source paper and the literature, not
imported from `starcurves`, so a fault in the program's own formulas cannot
hide a fault in its certificates:

- the piecewise closed form for dim S(d, l), the locus of plane curves of
  degree d through a star configuration of l lines, with the Luroth value
  13 at (d, l) = (4, 5);
- the P^n bound min{C(d+n,n) - 1, C(d+n,n) - C(l,n) + nl - 1};
- the Hilbert function of a plane star configuration,
  min{C(t+2,2), C(l,2)} (Geramita-Harbourne-Migliore, "Star
  configurations in P^n", J. Algebra 376, 2013);
- the ranks of the paper's explicit matrices.
"""

from __future__ import annotations

from math import comb

LUROTH_VALUE = 13

#: Published values of the paper's explicit computations, keyed by the label
#: `starcurves paper-examples` prints for each check.
PUBLISHED_REFERENCE = {
    "quartic case dim_k I_4": 14,
    "six-line 12x12 rank, d=5": 12,
    "six-line 12x12 rank, d=6": 12,
    "seven-line 14x14 block rank, d=6": 14,
}


def ambient_bound(d: int) -> int:
    """dim P(S_d) = C(d+2,2) - 1, the dimension of all plane curves of degree d."""
    return comb(d + 2, 2) - 1


def plane_dimension(d: int, l: int) -> int | None:
    """dim S(d, l) by the paper's main theorem; None when the locus is empty."""
    if d < l - 1:
        return None
    if l <= 4 or (l == 5 and d != 4):
        return ambient_bound(d)
    if l == 5:
        return LUROTH_VALUE
    return comb(d + 2, 2) - comb(l, 2) + 2 * l - 1


def pn_bound(n: int, d: int, l: int) -> int:
    """Upper bound on the locus of degree-d hypersurfaces of P^n through a
    star configuration of l hyperplanes."""
    total = comb(d + n, n)
    return min(total - 1, total - comb(l, n) + n * l - 1)


def star_hilbert(l: int, t: int) -> int:
    """Hilbert function in degree t of the C(l,2) points of a plane star
    configuration of l lines."""
    return min(comb(t + 2, 2), comb(l, 2))
