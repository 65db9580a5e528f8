"""Experimental extension: star configurations of points in P^n cut out by
l general hyperplanes.

The configuration, its generators and the tangent span are the same code
as in the plane (`starconfig`, `tangent`), with n taken from the forms.
The tangent dimension gives a semicontinuity lower bound on the locus of
degree-d hypersurfaces containing such a configuration.  Its conjectured
equality with the bound of `formulas.upper_bounds` is reported, never
asserted: random data can confirm the formula but not refute it.
A lower bound above the upper bound is reported as a CONTRADICTION.
"""

from __future__ import annotations

from typing import Sequence

from .fields import Field
from .formulas import LUROTH_SOURCE, upper_bounds
from .starconfig import StarConfiguration
from .tangent import lower_bound_dim_S


def conjecture_row(n: int, d: int, l: int, fld: Field, trials: int = 3,
                   seed: int = 0,
                   stars: Sequence[StarConfiguration] | None = None) -> dict:
    """The `pn` report row of one (d, l): n, d, l, the lower bound, the
    formula (the least bound of `upper_bounds` from no outside fact, so
    the Luroth pair reads OPEN) and the status CONFIRMED, OPEN or
    CONTRADICTION; `stars` as in `lower_bound_dim_S`."""
    lower = lower_bound_dim_S(d, l, fld, trials=trials, seed=seed,
                              stars=stars, n=n).lower_bound
    formula = min(v for s, v in upper_bounds(d, l, n) if s != LUROTH_SOURCE)
    if lower > formula:
        status = "CONTRADICTION"
    elif lower == formula:
        status = "CONFIRMED"
    else:
        status = "OPEN"
    return {"n": n, "d": d, "l": l, "lower_bound": lower,
            "formula_min": formula, "status": status}
