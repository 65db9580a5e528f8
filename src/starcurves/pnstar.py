"""Experimental extension: star configurations of points in P^n cut out by
l general hyperplanes.

The configuration, its generators and the tangent span are the same code
as in the plane (`starconfig`, `tangent`), with n taken from the forms,
and each row is read from the `tangent.certify` certificate of its (d, l).
The conjectured equality of its lower bound with the least of its
`formulas.upper_bounds` is reported, never asserted: random data can
confirm the formula but not refute it.  A lower bound above the upper
bound is reported as a CONTRADICTION.
"""

from __future__ import annotations

from typing import Sequence

from .fields import Field
from .formulas import LUROTH_SOURCE
from .starconfig import StarConfiguration
from .tangent import certify, verdict


def conjecture_row(n: int, d: int, l: int, fld: Field, trials: int = 3,
                   seed: int = 0,
                   stars: Sequence[StarConfiguration] | None = None) -> dict:
    """The `pn` report row of one (d, l), a view of `certify(..., n=n)`:
    n, d, l, the lower bound, the formula (the least of the certificate's
    upper bounds from no outside fact, so the Luroth pair reads OPEN) and
    its `verdict` as CONFIRMED, OPEN or CONTRADICTION; `stars` as in
    `certify`."""
    cert = certify(d, l, fld, trials=trials, seed=seed, stars=stars, n=n)
    if cert.verdict == "EMPTY":
        raise ValueError(f"the plane locus is empty at d < l - 1 = {l - 1}")
    formula = min(v for s, v in cert.upper_bounds if s != LUROTH_SOURCE)
    return {"n": n, "d": d, "l": l, "lower_bound": cert.lower_bound,
            "formula_min": formula,
            "status": verdict(cert.lower_bound, formula, "CONFIRMED", "OPEN")}
