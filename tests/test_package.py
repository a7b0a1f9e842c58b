"""The lazy package namespace and the immutable record types."""

from fractions import Fraction

import pytest

import linespectra
from linespectra.fields import (
    FieldDescriptor,
    FieldError,
    cyclotomic_field,
    quadratic_field,
    rational_field,
)
from linespectra.inequalities import InequalityReport
from linespectra.projective import (
    Configuration,
    DuplicatePointError,
    LineSpectrum,
    ProjectivePoint,
)
from linespectra.search import SearchRecord


def test_every_public_name_resolves():
    for name in linespectra.__all__:
        value = getattr(linespectra, name)
        module = linespectra._MODULE_OF[name]
        assert value is getattr(getattr(linespectra, module), name)
    assert set(linespectra.__all__) <= set(dir(linespectra))
    from linespectra import spectrum, Configuration as C  # noqa: F401
    assert C is Configuration


def test_unknown_public_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        linespectra.nonexistent
    with pytest.raises(ImportError):
        from linespectra import nonexistent  # noqa: F401


# test_fields.test_field_descriptor_validation covers bad values of d and N
@pytest.mark.parametrize("kind,params", [
    ("rational", {"d": 2}),
    ("rational", {"N": 3}),
    ("quadratic", {}),
    ("quadratic", {"d": 2, "N": 3}),
    ("cyclotomic", {}),
    ("cyclotomic", {"N": 5, "d": 2}),
    ("octonion", {}),
])
def test_invalid_field_parameters_raise(kind, params):
    with pytest.raises(FieldError):
        FieldDescriptor(kind, **params)


def test_configuration_converts_triples_and_names_a_duplicate():
    # test_projective covers empty, duplicate and mixed-field configurations
    Q = rational_field()
    with pytest.raises(DuplicatePointError, match="index 2"):
        Configuration(Q, ((1, 0, 1), (0, 1, 1), (2, 0, 2)))
    c = Configuration(field=Q, points=[(1, 2, 1)], label="one")
    assert c.points == (ProjectivePoint((1, 2, 1)),) and c.label == "one"
    assert Configuration(Q, [(1, 2, 1)]).label == ""


def _spectrum():
    return LineSpectrum(n=3, ell={3: 1}, total_lines=1, incidences=3,
                        max_collinear=3, degrees=(1, 1, 1))


def _report():
    return InequalityReport(
        name="x", kind="identity", applicable=True, applicability_reason="",
        relation="==", lhs=Fraction(1), rhs=Fraction(1), slack=Fraction(0),
        satisfied=True, tight=True, strict=False)


def test_records_are_immutable():
    config = Configuration(rational_field(), [(1, 2, 1)])
    record = SearchRecord(best_config=config, objective=Fraction(1), best_value=1,
                          objective_kind="incidences", constraint=2, method="local",
                          iterations=1, seed=0, history=())
    for obj, name in [(rational_field(), "kind"), (config, "label"), (_spectrum(), "n"),
                      (_report(), "slack"), (record, "seed"), (config, "extra")]:
        with pytest.raises(AttributeError):
            setattr(obj, name, None)


def test_equal_fields_are_equal_and_hash_alike():
    for make in (rational_field, lambda: quadratic_field(-3), lambda: cyclotomic_field(12)):
        a, b = make(), make()
        assert a == b and hash(a) == hash(b)
    assert quadratic_field(2) != quadratic_field(3)
    assert rational_field() != cyclotomic_field(1)
    assert str(cyclotomic_field(12)) == "Q(zeta_12)"


def test_record_reprs_are_unchanged():
    assert repr(_spectrum()) == ("LineSpectrum(n=3, ell={3: 1}, total_lines=1, incidences=3, "
                                 "max_collinear=3, degrees=(1, 1, 1))")
    assert repr(quadratic_field(2)) == "FieldDescriptor(kind='quadratic', d=2, N=None)"
    assert _spectrum().count(3) == 1 and _spectrum().count(2) == 0


def test_records_are_tuples():
    assert tuple(quadratic_field(5)) == ("quadratic", 5, None)
    assert len(_report()) == 11
    assert _spectrum() == (3, {3: 1}, 1, 3, 3, (1, 1, 1))
