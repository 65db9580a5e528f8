"""The explicit configurations behind the published rank computations.

These reproduce, with fixed data, the three hand-checkable certificates:
the five-line quartic (Luroth) case, the six-line case at degrees 5 and 6
with its 12x12 evaluation matrix, and a seven-line block extension whose
14x14 matrix certifies the general pattern.
"""

from __future__ import annotations

from .fields import Field
from .starconfig import (GenericityError, LinearForm, StarConfiguration,
                         build_star)
from .tangent import (evaluation_submatrix_rank, tangent_dim_direct,
                      structured_multipliers)

#: Coefficient vectors of the five lines certifying dim S(4,5) = 13.
FIVE_LINE_COEFFS = [
    (1, 0, 0),        # x0
    (0, 1, 0),        # x1
    (0, 0, 1),        # x2
    (1, 1, 1),        # x0 + x1 + x2
    (1, 2, 3),        # x0 + 2*x1 + 3*x2
]

#: The five lines plus a sixth, certifying dim S(d,6) for d = 5, 6.
SIX_LINE_COEFFS = FIVE_LINE_COEFFS + [(1, 3, 10)]   # x0 + 3*x1 + 10*x2

#: Column labels (r, t) = L_r * Q_t of the published 12x12 evaluation matrix.
TWELVE_COLUMNS = [(2, 4), (1, 4), (3, 5), (2, 5), (1, 6), (3, 6),
                  (6, 1), (3, 2), (6, 2), (6, 3), (4, 3), (5, 1)]

#: Row labels (points p_{i,j}) in the displayed-matrix order.
TWELVE_ROWS = [(1, 4), (2, 4), (2, 5), (3, 5), (3, 6), (1, 6),
               (1, 5), (2, 6), (2, 3), (3, 4), (4, 6), (1, 2)]


def block_columns(l: int) -> list[tuple[int, int]]:
    """The 12 base columns extended by L_2*Q_i, L_1*Q_i for i = 7..l."""
    cols = list(TWELVE_COLUMNS)
    for i in range(7, l + 1):
        cols += [(2, i), (1, i)]
    return cols


def block_rows(l: int) -> list[tuple[int, int]]:
    """The 12 base rows extended by p_{1,i}, p_{2,i} for i = 7..l."""
    rows = list(TWELVE_ROWS)
    for i in range(7, l + 1):
        rows += [(1, i), (2, i)]
    return rows


def _published_star(fld: Field, coeffs) -> StarConfiguration:
    """The published lines with these coefficients, refused by name when
    not in general position over `fld` (six lines: mod 2, 3, 5, 7, 11)."""
    forms = [LinearForm(fld, [fld.from_int(c) for c in v]) for v in coeffs]
    try:
        return build_star(forms)
    except GenericityError as exc:
        raise GenericityError(
            f"the published lines {exc.labels} are not in general position "
            f"over {fld!r}; use --field rational or another prime") from None


def five_line_forms(fld: Field) -> list[LinearForm]:
    return _published_star(fld, FIVE_LINE_COEFFS).forms


def six_line_forms(fld: Field) -> list[LinearForm]:
    return _published_star(fld, SIX_LINE_COEFFS).forms


def extended_forms(fld: Field, l: int) -> list[LinearForm]:
    """The six fixed lines plus deterministically chosen extra general lines."""
    if l < 6:
        raise ValueError("extension starts from the six fixed lines")
    forms = six_line_forms(fld)
    candidate = 4
    while len(forms) < l:
        # lines x0 + a*x1 + a^2*x2 lie on a rational normal curve in the
        # dual plane, so small search suffices; genericity still checked
        trial = LinearForm(fld, [fld.from_int(1), fld.from_int(candidate),
                                 fld.from_int(candidate * candidate)])
        try:
            forms = build_star(forms + [trial]).forms
        except GenericityError:
            pass
        candidate += 1
        if candidate > 1000:
            raise RuntimeError("could not extend the fixed configuration")
    return forms


def luroth_case_dimension(fld: Field) -> int:
    """dim_k I_4 for the five fixed lines with unit multipliers (expect 14),
    by the coefficient-matrix rank, which needs no outside theorem."""
    star = _published_star(fld, FIVE_LINE_COEFFS)
    ones = [[fld.one()] for _ in range(5)]
    return tangent_dim_direct(star, 4, ones)


def six_line_matrix_rank(fld: Field, d: int) -> int:
    """Rank of the published 12x12 matrix for the six fixed lines.

    The multipliers are `structured_multipliers`: 1 at d = 5, and M_i = G
    for a line G missing all fifteen points at d = 6.  Expected rank 12 in
    both cases.
    """
    star = _published_star(fld, SIX_LINE_COEFFS)
    mult = structured_multipliers(star, d)
    return evaluation_submatrix_rank(star, d, mult, TWELVE_ROWS,
                                     TWELVE_COLUMNS)


def block_matrix_rank(fld: Field, l: int, d: int) -> int:
    """Rank of the 2l x 2l block evaluation matrix for l >= 7."""
    star = build_star(extended_forms(fld, l))
    mult = structured_multipliers(star, d)
    return evaluation_submatrix_rank(star, d, mult, block_rows(l),
                                     block_columns(l))
