"""JSON and CSV encodings: round trips, validation, frozen shapes."""

import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from linespectra.cli import main
from linespectra.constructions import boroczky, fermat, grid
from linespectra.fields import cyclotomic_field, quadratic_field, rational_field
from linespectra.inequalities import all_reports
from linespectra.projective import Configuration, GeometryError, ProjectivePoint, spectrum
from linespectra.search import local_search
from linespectra.serialization import (
    SerializationError,
    config_from_json,
    config_to_json,
    dumps,
    element_from_json,
    element_to_json,
    field_from_json,
    field_to_json,
    frac_str,
    load_configuration,
    parse_frac,
    record_to_json,
    report_to_json,
    reports_to_csv,
    save_configuration,
    spectrum_to_csv,
    spectrum_to_json,
)


def test_fraction_strings():
    assert frac_str(Fraction(3, 4)) == "3/4"
    assert frac_str(Fraction(5)) == "5"
    assert frac_str(Fraction(-7, 2)) == "-7/2"
    assert parse_frac("3/4") == Fraction(3, 4)
    assert parse_frac("-7") == Fraction(-7)
    assert parse_frac(3) == Fraction(3)


@pytest.mark.parametrize("bad", [0.5, True, "abc", None, [1, 2], "1/0"])
def test_parse_frac_rejects_inexact_or_malformed(bad):
    with pytest.raises(SerializationError):
        parse_frac(bad)


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except SerializationError as exc:
        return "error", str(exc)


def _fraction_element(field, data):
    """element_from_json as it was before integer parsing: one Fraction per
    coefficient from parse_frac, and another in FieldDescriptor.element."""
    if field.kind == "rational":
        return field.element([parse_frac(data)])
    return field.element([parse_frac(c) for c in data])


LITERALS = [
    "7", "-7", "007", "-0", "0/5", "6/4", "-6/4", "12/-4", "3/-4", "1/0", "1/00",
    "1/05", "+3", " 4 ", "4 ", "1 / 2", "1.5", "2e3", "1E-2", ".5", "1_0", "1/1_0",
    "--1", "-", "", "/3", "3/", "1/2/3", "abc", "\u0661\u0662", "\u00b2",
    "\uff13/\uff14", 5, -5, 0, True, False, 1.5, 2.0, None, [1], {"p": 1},
    pytest.param("1" * 5000, id="5000-digit-numerator"),
    pytest.param("1/" + "1" * 5000, id="5000-digit-denominator"),
]


@pytest.mark.parametrize("literal", LITERALS)
def test_coefficient_parsing_matches_fractions(literal):
    # the int() fast path must accept, reject and report exactly as the
    # Fraction route it replaces, outcome for outcome
    for field in (rational_field(), quadratic_field(2), cyclotomic_field(5)):
        data = literal if field.degree == 1 else ["1/3", literal] + ["0"] * (field.degree - 2)
        assert _outcome(element_from_json, field, data) == _outcome(
            _fraction_element, field, data)
    point = {"field": {"kind": "rational"}, "points": [[literal, "1/2", 1]]}
    got = _outcome(config_from_json, point)
    want = _outcome(lambda: Configuration(rational_field(), (ProjectivePoint(
        [parse_frac(literal), Fraction(1, 2), 1]),)))
    assert got == want


def test_field_round_trips():
    for field in (rational_field(), quadratic_field(2), quadratic_field(-3),
                  __import__("linespectra.fields", fromlist=["cyclotomic_field"]).cyclotomic_field(7)):
        assert field_from_json(field_to_json(field)) == field


def test_field_from_json_rejects_unknown_kind():
    with pytest.raises(SerializationError):
        field_from_json({"kind": "sedenion"})
    with pytest.raises(SerializationError):
        field_from_json({"kind": "quadratic"})


@pytest.mark.parametrize("data", [
    {"kind": "rational", "d": 2},
    {"kind": "quadratic", "d": 2, "N": 7},
    {"kind": "cyclotomic", "N": 5, "d": 2},
], ids=str)
def test_field_from_json_rejects_a_parameter_of_another_kind(data):
    with pytest.raises(SerializationError, match="bad field descriptor"):
        field_from_json(data)


@pytest.mark.parametrize("data", [
    {"kind": "quadratic", "d": 2.9},
    {"kind": "cyclotomic", "N": 12.5},
    {"kind": "cyclotomic", "N": True},
    {"kind": "quadratic", "d": "2"},
    {"kind": "quadratic", "d": " 3 "},
    {"kind": "cyclotomic", "N": "12"},
], ids=str)
def test_field_from_json_rejects_inexact_parameters(data):
    with pytest.raises(SerializationError):
        field_from_json(data)


def test_element_round_trips():
    Q = rational_field()
    e = Q.from_rational(Fraction(-5, 3))
    assert element_from_json(Q, element_to_json(e)) == e
    F = quadratic_field(5)
    e = F.element([Fraction(1, 2), Fraction(-2, 7)])
    assert element_from_json(F, element_to_json(e)) == e
    from linespectra.fields import cyclotomic_field

    Z = cyclotomic_field(5)
    e = (Z.zeta() + Z.one()) ** 3
    assert element_from_json(Z, element_to_json(e)) == e


def test_element_from_json_checks_degree():
    F = quadratic_field(2)
    with pytest.raises(SerializationError):
        element_from_json(F, ["1", "2", "3"])
    with pytest.raises(SerializationError):
        element_from_json(F, "1/2")


def test_config_round_trips_across_field_kinds():
    F = quadratic_field(2)
    quad = Configuration(
        F,
        (
            ProjectivePoint((F.one(), F.sqrt_gen(), F.one()), F),
            ProjectivePoint((F.zero(), F.one(), F.one()), F),
            ProjectivePoint((F.one(), F.zero(), F.one()), F),
        ),
        label="by hand",
    )
    for config in (grid(3, 3), fermat(3), boroczky(3), quad):
        rebuilt = config_from_json(config_to_json(config))
        assert rebuilt == config
        assert rebuilt.label == config.label


def test_save_and_load_configuration(tmp_path):
    path = tmp_path / "config.json"
    config = boroczky(4)
    save_configuration(config, str(path))
    text = path.read_text()
    assert text.endswith("\n")
    assert json.loads(text)["label"] == "boroczky(m=4)"
    assert load_configuration(str(path)) == config


@pytest.mark.parametrize("field", [
    rational_field(), quadratic_field(2), quadratic_field(-1), quadratic_field(-3),
    cyclotomic_field(1), cyclotomic_field(2), cyclotomic_field(5), cyclotomic_field(12),
], ids=str)
def test_save_and_load_round_trips_every_field_kind(tmp_path, field):
    # every field the descriptor accepts names itself in a file that loads
    g = field.element([Fraction(1, 3)] + [1] * (field.degree - 1))
    config = Configuration(field, [(g, 1, 1), (0, g, 1), (1, 0, g)], label=str(field))
    path = tmp_path / "config.json"
    save_configuration(config, str(path))
    assert load_configuration(str(path)) == config


def test_dumps_is_indented_with_final_newline():
    assert dumps({"a": 1}) == '{\n  "a": 1\n}\n'


@pytest.mark.parametrize(
    "data",
    [
        {},
        {"field": {"kind": "rational"}},
        {"field": {"kind": "rational"}, "points": []},
        {"field": {"kind": "rational"}, "points": [["1", "0"]]},
        {"field": {"kind": "rational"}, "points": [["1", "0", "0"]], "label": 5},
        # coordinates over Q: each must be a JSON integer or an exact string
        {"field": {"kind": "rational"}, "points": [[0.5, "0", "1"]]},
        {"field": {"kind": "rational"}, "points": [[True, "0", "1"]]},
        {"field": {"kind": "rational"}, "points": [[None, "0", "1"]]},
        {"field": {"kind": "rational"}, "points": [[["1", "2"], "0", "1"]]},
        {"field": {"kind": "rational"}, "points": [["1/0", "0", "1"]]},
        {"field": {"kind": "rational"}, "points": [["abc", "0", "1"]]},
    ],
)
def test_config_from_json_validation(data):
    with pytest.raises(SerializationError):
        config_from_json(data)


def test_config_from_json_rejects_the_zero_triple():
    with pytest.raises(GeometryError):
        config_from_json({"field": {"kind": "rational"}, "points": [["0", "0", "0"]]})


def test_config_from_json_still_rejects_duplicates():
    data = {"field": {"kind": "rational"}, "points": [["1", "0", "1"], ["2", "0", "2"]]}
    with pytest.raises(GeometryError):
        config_from_json(data)


def _fraction_point(triple):
    """The rational point of a coordinate triple as it was loaded before the
    integer route: one Fraction per coordinate."""
    return ProjectivePoint([parse_frac(c) for c in triple])


_digits = st.integers(0, 10 ** 30)
_coordinate = st.one_of(
    st.integers(-10 ** 30, 10 ** 30),
    st.builds("{}/{}".format, _digits, _digits.filter(bool)),
    st.builds("-{}/{}".format, _digits, _digits.filter(bool)),
    st.sampled_from([0, "0", "-0", "0/3"]),
)
_triple = st.one_of(
    st.lists(_coordinate, min_size=3, max_size=3),
    st.tuples(_coordinate, _coordinate, st.sampled_from([0, "0", "0/7"])).map(list),
    st.tuples(_coordinate, st.sampled_from([0, "0"]), st.sampled_from([0, "-0/2"])).map(list),
)


@given(_triple)
def test_rational_load_gives_the_points_of_the_fraction_route(triple):
    # zeros, points at infinity and unreduced "p/q" literals included
    data = {"field": {"kind": "rational"}, "points": [triple]}
    try:
        want = _fraction_point(triple)
    except GeometryError as exc:
        with pytest.raises(GeometryError) as raised:
            config_from_json(data)
        assert (type(raised.value), str(raised.value)) == (type(exc), str(exc))
        return
    (got,) = config_from_json(data).points
    assert got == want and got.intvecs == want.intvecs


BAD_RATIONAL_POINTS = {
    "zero-triple": ([["0", "0/5", 0]], GeometryError),
    "duplicate": ([["1/2", "1", "1"], ["1", "2", "2"]], GeometryError),
    "float": ([[0.5, "1", "1"]], SerializationError),
    "bool": ([["1", False, "1"]], SerializationError),
    "non-canonical-literal": ([["1", "2", "1/00"]], SerializationError),
}


@pytest.mark.parametrize("name", sorted(BAD_RATIONAL_POINTS))
def test_rational_load_errors_are_the_fraction_routes(tmp_path, capsys, name):
    points, error = BAD_RATIONAL_POINTS[name]
    with pytest.raises(error) as want:
        Configuration(rational_field(), tuple(_fraction_point(t) for t in points))
    data = {"field": {"kind": "rational"}, "points": points}
    with pytest.raises(error) as got:
        config_from_json(data)
    assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    for command in ("analyze", "check"):
        assert main([command, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")


def test_spectrum_json_shape():
    payload = spectrum_to_json(spectrum(grid(2, 3)), real=True)
    assert payload == {
        "n": 6,
        "ell": {"2": 9, "3": 2},
        "total_lines": 11,
        "incidences": 24,
        "max_collinear": 3,
        "degrees": [4, 4, 4, 4, 4, 4],
        "degree_histogram": {"4": 6},
        "real": True,
    }
    assert "real" not in spectrum_to_json(spectrum(grid(2, 3)))


def test_spectrum_csv_shape():
    got = spectrum_to_csv(spectrum(grid(2, 3)), real=True)
    assert got == (
        "quantity,value\n"
        "n,6\n"
        "total_lines,11\n"
        "incidences,24\n"
        "max_collinear,3\n"
        "real,true\n"
        "ell_2,9\n"
        "ell_3,2\n"
    )
    assert "real" not in spectrum_to_csv(spectrum(grid(2, 3)))


def test_report_json_uses_fraction_strings():
    reports = all_reports(spectrum(grid(3, 3)), real=True)
    payload = report_to_json(reports[0])
    assert payload["name"] == "basic_line_count"
    assert payload["relation"] == "=="
    assert isinstance(payload["lhs"], str)
    assert parse_frac(payload["slack"]) == reports[0].slack
    assert set(payload) == {
        "name", "kind", "applicable", "applicability_reason", "relation",
        "lhs", "rhs", "slack", "satisfied", "tight", "strict",
    }


def test_reports_csv_shape():
    reports = all_reports(spectrum(grid(3, 3)), real=True)
    text = reports_to_csv(reports)
    lines = text.strip().split("\n")
    assert lines[0] == "name,kind,applicable,satisfied,tight,slack_decimal_approx"
    assert len(lines) == len(reports) + 1
    assert lines[1].startswith("basic_line_count,identity,true,true,")


def test_record_json_embeds_the_configuration():
    record = local_search(8, iterations=40, seed=1, restarts=1)
    payload = record_to_json(record)
    assert payload["method"] == "local"
    assert payload["best_value"] == record.best_value
    assert parse_frac(payload["objective"]) == record.objective
    assert payload["history"][0][0] == 1
    rebuilt = config_from_json(payload["best_config"])
    assert rebuilt == record.best_config
    assert json.dumps(payload)  # nothing non-serializable snuck in
