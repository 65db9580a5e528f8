"""The explicit configurations behind the published rank computations.

These reproduce, with fixed data, the hand-checkable certificates: the
five-line quartic (Luroth) case and the block evaluation matrices of the
general pattern.  The 2l x 2l block matrix for l >= 6 lines extends the
published 12x12 matrix of six lines, its l = 6 member, which certifies
degrees 5 and 6; the seven-line 14x14 member certifies degree 6.
"""

from __future__ import annotations

import itertools

from .fields import Field, PrimeField
from .starconfig import (GenericityError, LinearForm, StarConfiguration,
                         build_star)
from .tangent import (evaluation_submatrix_rank, tangent_dim_direct,
                      structured_multipliers)

#: Coefficient vectors of the published lines: the first five certify
#: dim S(4,5) = 13, all six dim S(d,6) for d = 5, 6.
PUBLISHED_COEFFS = [
    (1, 0, 0),        # x0
    (0, 1, 0),        # x1
    (0, 0, 1),        # x2
    (1, 1, 1),        # x0 + x1 + x2
    (1, 2, 3),        # x0 + 2*x1 + 3*x2
    (1, 3, 10),       # x0 + 3*x1 + 10*x2
]

#: Column labels (r, t) = L_r * Q_t of the published 12x12 evaluation matrix.
TWELVE_COLUMNS = [(2, 4), (1, 4), (3, 5), (2, 5), (1, 6), (3, 6),
                  (6, 1), (3, 2), (6, 2), (6, 3), (4, 3), (5, 1)]

#: Row labels (points p_{i,j}) in the displayed-matrix order.
TWELVE_ROWS = [(1, 4), (2, 4), (2, 5), (3, 5), (3, 6), (1, 6),
               (1, 5), (2, 6), (2, 3), (3, 4), (4, 6), (1, 2)]


def published_star(fld: Field, l: int) -> StarConfiguration:
    """The first l published lines (l >= 5), past the sixth the lines
    x0 + a*x1 + a^2*x2 for a = 4, 5, ... that keep general position.

    Lines not in general position over `fld` are refused by name (six
    lines: mod 2, 3, 5, 7, 11), and so is a family that runs out.  The
    family lies on a conic in the dual plane, so each point is on at most
    two of its lines: over Q the search ends; over GF(p) each line is
    tried once, a = 4 .. p + 3.
    """
    if l < 5:
        raise ValueError("the published configurations have at least "
                         "five lines")
    forms = [LinearForm(fld, v) for v in PUBLISHED_COEFFS[:l]]
    try:
        star = build_star(forms)
    except GenericityError as exc:
        raise GenericityError(
            f"the published lines {exc.labels} are not in general position "
            f"over {fld!r}; use --field rational or another prime") from None
    candidates = iter(range(4, fld.p + 4) if isinstance(fld, PrimeField)
                      else itertools.count(4))
    while star.l < l:
        a = next(candidates, None)
        if a is None:
            raise GenericityError(
                f"the lines x0 + a*x1 + a^2*x2 extend the published lines to "
                f"at most {star.l} lines over {fld!r}, not {l}; use "
                f"--field rational or a larger prime")
        trial = LinearForm(fld, [a ** e for e in range(3)])
        try:
            star = build_star(star.forms + [trial])
        except GenericityError:
            pass
    return star


def luroth_case_dimension(fld: Field) -> int:
    """dim_k I_4 for the five fixed lines with unit multipliers (expect 14),
    by the coefficient-matrix rank, which needs no outside theorem."""
    ones = [[1] for _ in range(5)]
    return tangent_dim_direct(published_star(fld, 5), 4, ones)


def six_line_matrix_rank(fld: Field, d: int) -> int:
    """Rank of the published 12x12 matrix for the six fixed lines.

    The multipliers are `structured_multipliers`: 1 at d = 5, and M_i = G
    for a line G missing all fifteen points at d = 6.  Expected rank 12 in
    both cases.
    """
    return block_matrix_rank(fld, 6, d)


def block_matrix_rank(fld: Field, l: int, d: int) -> int:
    """Rank of the 2l x 2l block evaluation matrix for l >= 6: the 12x12
    matrix with the rows p_{1,i}, p_{2,i} and the columns L_2*Q_i, L_1*Q_i
    of each line i = 7..l."""
    if l < 6:
        raise ValueError("the block matrix starts from the six fixed lines")
    star = published_star(fld, l)
    new = range(7, l + 1)
    rows = TWELVE_ROWS + [(k, i) for i in new for k in (1, 2)]
    cols = TWELVE_COLUMNS + [(k, i) for i in new for k in (2, 1)]
    return evaluation_submatrix_rank(star, d, structured_multipliers(star, d),
                                     rows, cols)
