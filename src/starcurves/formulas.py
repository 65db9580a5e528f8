"""Closed-form dimension values and upper bounds for the locus S(d, l) of
degree-d plane curves containing a star configuration of l lines.

The one exceptional pair is (d, l) = (4, 5): quartics through an X(5) are
the Luroth quartics, a hypersurface, so the dimension drops by one below
the otherwise-expected value.  That external fact enters as a constant
with an explicit source tag, as does the generation of star-configuration
ideals that the tangent rank relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

LUROTH_BOUND = 13       # dim of the Luroth hypersurface in P^14
LUROTH_SOURCE = "luroth"

#: The products of the forms outside each (n-1)-subset span the ideal of a
#: star configuration in P^n in every degree d >= l - n + 1 (Geramita-
#: Harbourne-Migliore, "Star configurations in P^n", J. Algebra 376, 2013).
STAR_IDEAL_SOURCE = "star-ideal-generation"


@dataclass(frozen=True)
class TheoremValue:
    d: int
    l: int
    value: int | None     # None means the locus is empty
    branch: str

    @property
    def is_empty(self) -> bool:
        return self.value is None


def closed_form_dimension(d: int, l: int) -> TheoremValue:
    """Piecewise dimension of S(d, l); empty when d < l - 1."""
    if d < 0 or l < 2:
        raise ValueError("need d >= 0 and l >= 2")
    if d < l - 1:
        return TheoremValue(d, l, None, "empty")
    ambient = comb(d + 2, 2) - 1
    if l in (2, 3, 4):
        return TheoremValue(d, l, ambient, "dominant-small-l")
    if l == 5:
        if d == 4:
            return TheoremValue(d, l, ambient - 1, "luroth")
        return TheoremValue(d, l, ambient, "dominant-l5")
    return TheoremValue(d, l, comb(d + 2, 2) - comb(l, 2) + 2 * l - 1,
                        "incidence-bound-attained")


def upper_bounds(d: int, l: int) -> list[tuple[str, int]]:
    """All known upper bounds on dim S(d, l), tagged by source.

    Always contains the ambient bound C(d+2,2)-1 and the incidence-count
    bound C(d+2,2)-C(l,2)+2l-1; for (4, 5) additionally the Luroth bound.
    """
    if d < l - 1:
        raise ValueError("upper bounds only defined for d >= l - 1")
    bounds = [
        ("ambient", comb(d + 2, 2) - 1),
        ("incidence", comb(d + 2, 2) - comb(l, 2) + 2 * l - 1),
    ]
    if (d, l) == (4, 5):
        bounds.append((LUROTH_SOURCE, LUROTH_BOUND))
    return bounds


def min_upper_bound(d: int, l: int) -> int:
    return min(v for _, v in upper_bounds(d, l))


def pn_upper_bound(n: int, d: int, l: int) -> int:
    """Upper bound for hyperplane star configurations of points in P^n:
    min{C(d+n,n)-1, C(d+n,n)-C(l,n)+nl-1}."""
    if n < 2 or l < n or d < l - 1:
        raise ValueError("need n >= 2, l >= n, d >= l - 1")
    total = comb(d + n, n)
    return min(total - 1, total - comb(l, n) + n * l - 1)
