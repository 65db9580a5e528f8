"""The published lines and the block evaluation matrices built on them."""

import pytest

import starcurves.starconfig as starconfig_mod
from starcurves.cli import main
from starcurves.fields import PrimeField, QQ
from starcurves.reference_cases import block_matrix_rank, published_star
from starcurves.starconfig import GenericityError

GF = PrimeField()


@pytest.mark.parametrize("field", [QQ, GF])
@pytest.mark.parametrize("l", range(6, 11))
def test_block_matrix_has_full_rank(field, l):
    """The 2l x 2l block matrix has rank 2l at d = l - 1, l, l + 1: unit
    multipliers, M_i = G, and products of G with the lines G_1..G_5."""
    for d in (l - 1, l, l + 1):
        assert block_matrix_rank(field, l, d) == 2 * l


def test_too_few_lines_are_refused():
    with pytest.raises(ValueError):
        published_star(QQ, 4)
    with pytest.raises(ValueError):
        block_matrix_rank(QQ, 5, 4)


def test_extension_lines_are_the_first_general_ones():
    """Past the sixth line, x0 + a*x1 + a^2*x2 for the first a that keep
    general position: over GF(17), a = 4, 5, 6, 7."""
    forms = published_star(PrimeField(17), 10).forms
    assert [f.coefficients for f in forms[6:]] == [
        (1, 4, 16), (1, 5, 8), (1, 6, 2), (1, 7, 15)]


def test_extension_family_runs_out():
    """Over GF(13) no line of the family extends the seven lines: each is
    tried once and the search ends with a named refusal."""
    with pytest.raises(GenericityError, match="at most 7 lines over GF"):
        published_star(PrimeField(13), 8)
    with pytest.raises(GenericityError):
        block_matrix_rank(PrimeField(13), 8, 7)


def count_star_builds(monkeypatch):
    builds = []
    init = starconfig_mod.StarConfiguration.__init__

    def counted(self, forms):
        builds.append(len(forms))
        init(self, forms)
    monkeypatch.setattr(starconfig_mod.StarConfiguration, "__init__", counted)
    return builds


@pytest.mark.parametrize("argv, expected", [
    # quartic, two six-line checks, and six plus seven lines for the block
    (["paper-examples"], 5),
    (["paper-examples", "--field", "rational"], 5),
    (["verify", "--d", "5", "--l", "6", "--paper-forms", "--trials", "3"], 1),
])
def test_each_published_star_is_built_once(monkeypatch, capsys, argv,
                                           expected):
    builds = count_star_builds(monkeypatch)
    assert main(argv) == 0
    assert len(builds) == expected
