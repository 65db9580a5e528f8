"""Closed-form values and upper bounds for dim S(d, l), the locus of
degree-d hypersurfaces of P^n containing a star configuration of l
hyperplanes.  The paper's theorem gives the value for plane curves
(n = 2).  In P^n the ambient and incidence bounds are the same two counts,
and the `pn` rows test whether the least of them is attained.

The one exceptional pair is the plane's (d, l) = (4, 5): quartics through
an X(5) are the Luroth quartics, a hypersurface, so the dimension drops by
one below the otherwise-expected value.  That external fact enters as a
constant with an explicit source tag, as does the generation of
star-configuration ideals that the tangent rank relies on.
"""

from __future__ import annotations

from math import comb

LUROTH_BOUND = 13       # dim of the Luroth hypersurface in P^14
LUROTH_SOURCE = "luroth"

#: The products of the forms outside each (n-1)-subset span the ideal of a
#: star configuration in P^n in every degree d >= l - n + 1 (Geramita-
#: Harbourne-Migliore, "Star configurations in P^n", J. Algebra 376, 2013).
STAR_IDEAL_SOURCE = "star-ideal-generation"


def closed_form_dimension(d: int, l: int) -> int | None:
    """The theorem's dim S(d, l) in the plane: None (the locus is empty)
    when d < l - 1, else the least of `upper_bounds(d, l)`."""
    if d < 0 or l < 2:
        raise ValueError("need d >= 0 and l >= 2")
    if d < l - 1:
        return None
    return min(v for _, v in upper_bounds(d, l))


def upper_bounds(d: int, l: int, n: int = 2) -> list[tuple[str, int]]:
    """All known upper bounds on dim S(d, l) in P^n, tagged by source.

    Always contains the ambient bound C(d+n,n)-1 and the incidence-count
    bound C(d+n,n)-C(l,n)+nl-1; for the plane pair (4, 5) additionally the
    Luroth bound.
    """
    if n < 2 or l < n or d < l - 1:
        raise ValueError("upper bounds need n >= 2, l >= n, d >= l - 1")
    total = comb(d + n, n)
    bounds = [
        ("ambient", total - 1),
        ("incidence", total - comb(l, n) + n * l - 1),
    ]
    if (n, d, l) == (2, 4, 5):
        bounds.append((LUROTH_SOURCE, LUROTH_BOUND))
    return bounds
