"""The product rule for first-order perturbations of a product of forms,
kept as an independent oracle for the tangent forms of
`starcurves.tangent`, and the coordinate forms x_k it perturbs by."""

from __future__ import annotations

from typing import Sequence

from starcurves.fields import Field, check_same_field
from starcurves.polynomials import HomogeneousPoly


def variable(field: Field, nvars: int, k: int) -> HomogeneousPoly:
    """The coordinate form x_k: the term map {e_k: 1}."""
    return HomogeneousPoly(field, nvars, 1,
                           {tuple(int(i == k) for i in range(nvars)): 1})


def perturbation_coefficient(
        factors: Sequence[tuple[HomogeneousPoly, HomogeneousPoly]]) -> HomogeneousPoly:
    """First-order term of prod(base_i + t*direction_i) in t.

    By the product rule this is sum_j direction_j * prod_{i != j} base_i.
    Each pair must have base and direction of equal degree.
    """
    if not factors:
        raise ValueError("empty factor list")
    field = factors[0][0].field
    nvars = factors[0][0].nvars
    for base, direction in factors:
        if base.degree != direction.degree:
            raise ValueError("base and direction degrees differ")
        check_same_field(base.field, field)
    total_degree = sum(base.degree for base, _ in factors)
    # prefix[j] = prod of bases before j, suffix[j] = prod after j
    n = len(factors)
    prefix = [HomogeneousPoly.one(field, nvars)]
    for base, _ in factors[:-1]:
        prefix.append(prefix[-1] * base)
    suffix = [HomogeneousPoly.one(field, nvars)] * n
    acc = HomogeneousPoly.one(field, nvars)
    for j in range(n - 2, -1, -1):
        acc = factors[j + 1][0] * acc
        suffix[j] = acc
    result = HomogeneousPoly.zero(field, nvars, total_degree)
    for j, (_, direction) in enumerate(factors):
        if direction.is_zero():
            continue
        result = result + prefix[j] * direction * suffix[j]
    return result
