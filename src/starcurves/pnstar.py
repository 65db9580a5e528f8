"""Experimental extension: star configurations of points in P^n cut out by
l general hyperplanes.

The configuration, its generators and the tangent span are the same code
as in the plane (`starconfig`, `tangent`), with n taken from the forms.
The tangent dimension gives a semicontinuity lower bound on the locus of
degree-d hypersurfaces containing such a configuration.  The conjectured
equality with the closed-form upper bound is reported, never asserted: a
lower bound from random data can confirm the formula but not refute it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import Field
from .formulas import pn_upper_bound
from .tangent import lower_bound_dim_S


@dataclass
class PnSweepRow:
    n: int
    d: int
    l: int
    lower_bound: int
    formula_min: int
    status: str       # CONFIRMED | OPEN


def conjecture_row(n: int, d: int, l: int, fld: Field, trials: int = 3,
                   seed: int = 0) -> PnSweepRow:
    lower = lower_bound_dim_S(d, l, fld, trials=trials, seed=seed,
                              n=n).lower_bound
    formula = pn_upper_bound(n, d, l)
    if lower > formula:
        raise AssertionError(
            f"lower bound {lower} exceeds the upper bound {formula} "
            f"at (n,d,l)=({n},{d},{l}); this should be impossible")
    status = "CONFIRMED" if lower == formula else "OPEN"
    return PnSweepRow(n, d, l, lower, formula, status)
