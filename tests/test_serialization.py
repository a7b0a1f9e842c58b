"""JSON and CSV encodings: round trips, validation, frozen shapes."""

import hashlib
import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import linespectra
from linespectra.cli import main
from linespectra import fields, projective
from linespectra.constructions import boroczky, fermat, grid, random_config, sylvester_cubic
from linespectra.fields import cyclotomic_field, quadratic_field, rational_field
from linespectra.inequalities import all_reports
from linespectra.projective import (
    Configuration,
    GeometryError,
    ProjectivePoint,
    apply_projective_map,
    spectrum,
)
from linespectra.search import local_search
from linespectra.serialization import (
    SerializationError,
    config_from_json,
    config_to_json,
    dumps,
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


def _fraction_config(data):
    """config_from_json as it was before integer parsing: over Q one
    Fraction per coordinate from parse_frac; elsewhere each coordinate
    checked in turn, one Fraction per coefficient from parse_frac, another
    in FieldDescriptor.element, and ProjectivePoint of the field elements."""
    field = field_from_json(data["field"])
    points = []
    for triple in data["points"]:
        if field.kind == "rational":
            points.append(ProjectivePoint([parse_frac(c) for c in triple]))
            continue
        coords = []
        for c in triple:
            if not isinstance(c, (list, tuple)):
                raise SerializationError(
                    f"{field.kind} element must be a coefficient array, got {c!r}")
            if len(c) != field.degree:
                raise SerializationError(
                    f"{field} element needs {field.degree} coefficients, got {len(c)}")
            coords.append(field.element([parse_frac(x) for x in c]))
        points.append(ProjectivePoint(coords, field))
    return Configuration(field, tuple(points))


def _literal_points(literal, pivot=False):
    # one configuration per field holding `literal` in one coordinate: over
    # Q beside 1/2 and 1; elsewhere as the second coefficient of a
    # coordinate beside 1/3, after (pivot) or before a coordinate 1
    yield {"field": {"kind": "rational"}, "points": [[literal, "1/2", 1]]}
    for field in (quadratic_field(2), cyclotomic_field(5)):
        one, zero = ["1"] + ["0"] * (field.degree - 1), ["0"] * field.degree
        element = ["1/3", literal] + ["0"] * (field.degree - 2)
        triple = [element, one, zero] if pivot else [one, element, zero]
        yield {"field": field_to_json(field), "points": [triple]}


def _assert_loads_as_the_fraction_route(data):
    assert _outcome(config_from_json, data) == _outcome(_fraction_config, data), data


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
    # Fraction route it replaces, outcome for outcome, over Q, Q(sqrt 2) and
    # Q(zeta_5), in the pivot coordinate and beside it
    for pivot in (False, True):
        for data in _literal_points(literal, pivot):
            _assert_loads_as_the_fraction_route(data)


def _misplaced_coordinates(degree):
    # triples over a field of this degree with a non-array coordinate, a
    # wrong coefficient count or a bad literal, alone and before or after
    # one another: the first error in coordinate order is the one reported
    one, zero = ["1"] + ["0"] * (degree - 1), ["0"] * degree
    bad = ["1"] + ["x"] * (degree - 1)
    return {
        "non-array": [one, "1/2", zero],
        "non-array-before-bad-literal": [7, bad, zero],
        "bad-literal-before-non-array": [bad, None, zero],
        "short-before-bad-literal": [one[:-1], bad, zero],
        "bad-literal-before-long": [bad, one + ["0"], zero],
        "long-before-non-array": [one + ["0"], {"re": 1}, zero],
        "bad-literal-last": [one, zero, ["1/0"] * degree],
        "valid": [zero, one, ["-2/4"] * degree],
    }


@pytest.mark.parametrize("field", [quadratic_field(2), cyclotomic_field(5)], ids=str)
@pytest.mark.parametrize("case", sorted(_misplaced_coordinates(2)))
def test_extension_load_errors_are_the_fraction_routes_in_order(field, case):
    triple = _misplaced_coordinates(field.degree)[case]
    _assert_loads_as_the_fraction_route({"field": field_to_json(field), "points": [triple]})


# digits, signs, separators, ASCII and Unicode spaces, a Unicode decimal
# digit and a superscript digit
_TOKENS = ["0", "1", "-", "+", "_", " ", "\u2003", ".", "e", "\u0661", "\u00b2"]
_PIECES = ["".join(t) for k in range(3) for t in itertools.product(_TOKENS, repeat=k)]


def test_coefficient_parsing_matches_fractions_on_every_short_text():
    # the outcomes of test_coefficient_parsing_matches_fractions on every
    # string of at most two tokens, and every two such strings around "/"
    for literal in _PIECES + [f"{a}/{b}" for a in _PIECES for b in _PIECES]:
        for data in _literal_points(literal):
            _assert_loads_as_the_fraction_route(data)


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


def _loaded_element(e):
    # e as the middle coordinate of the point (1 : e : 0), whose pivot is 1,
    # written by config_to_json and read back by config_from_json
    field = e.field
    config = Configuration(field, (ProjectivePoint((field.one(), e, field.zero()), field),))
    return config_from_json(config_to_json(config)).points[0].coords[1]


def test_element_round_trips():
    Q = rational_field()
    e = Q.from_rational(Fraction(-5, 3))
    assert _loaded_element(e) == e
    F = quadratic_field(5)
    e = F.element([Fraction(1, 2), Fraction(-2, 7)])
    assert _loaded_element(e) == e
    Z = cyclotomic_field(5)
    e = (Z.zeta() + Z.one()) ** 3
    assert _loaded_element(e) == e


def test_config_from_json_checks_coefficient_arrays():
    F = quadratic_field(2)
    for coordinate in (["1", "2", "3"], "1/2"):
        data = {"field": field_to_json(F), "points": [[["1", "0"], coordinate, ["0", "0"]]]}
        with pytest.raises(SerializationError):
            config_from_json(data)


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


_Q2 = quadratic_field(2)
_SQRT2_MAP = [[_Q2.sqrt_gen(), 1, 0], [0, _Q2.sqrt_gen(), 1], [1, 0, _Q2.sqrt_gen() + 2]]


def _sqrt2_image():
    """random_config(200, 3) read in Q(sqrt 2) from its int triples and moved
    by a fixed invertible matrix with sqrt 2 entries, built in advance."""
    embedded = Configuration(_Q2, [tuple(x for (x,) in p.intvecs)
                                   for p in random_config(200, 3).points])
    return apply_projective_map(embedded, _SQRT2_MAP)


# sha256 of the inputs the benchmark writes and checks at its full size, or
# (the Q(sqrt 2) image) of one like them
PINNED_SAVED = {
    "random(3000, 5)": (lambda: random_config(3000, 5),
                        "f9ab41764ee3afef327c10398fe6dd1b2bc801b565dc28b64b81a5474e1eba14"),
    "grid(20, 20)": (lambda: grid(20, 20),
                     "3395cef6879b5f9784ea61e5b33f824c5f744e6f0ccad0adfbd04682752efa8d"),
    "boroczky(30)": (lambda: boroczky(30),
                     "104f8643dd5afd785e453e25dc49a14a87bf09ad3cbf351b6d772d1f99c372d3"),
    "sylvester_cubic(20)": (lambda: sylvester_cubic(20),
                            "0ef4c3684182c5a3e6f9e07eefd049cccbe3f4a7df8a273e52eaa3b16cec637e"),
    "fermat(16)": (lambda: fermat(16),
                   "56e06cbe1ca8f46cd2280024a369ad3426203f4fbaa0e8b47337cd530421ccfb"),
    "sqrt2-image(200, 3)": (_sqrt2_image,
                            "2c2b85c906262772ed83d09cdb1f08215ce7a1f868c75809232d238f507fb046"),
}
RATIONAL_SAVED = ["grid(20, 20)", "random(3000, 5)"]
EXTENSION_SAVED = sorted(set(PINNED_SAVED) - set(RATIONAL_SAVED))


@pytest.mark.parametrize("name", sorted(PINNED_SAVED))
def test_saved_bytes_of_benchmark_size_are_pinned(tmp_path, name):
    make, digest = PINNED_SAVED[name]
    path = tmp_path / "config.json"
    save_configuration(make(), str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def _count_calls(monkeypatch, owner, key, calls):
    # record `key` in calls on every call of owner.key
    fn = getattr(owner, key)

    def wrapper(*args, **kwargs):
        calls.append(key)
        return fn(*args, **kwargs)
    monkeypatch.setattr(owner, key, wrapper)


@pytest.mark.parametrize("name", RATIONAL_SAVED)
def test_integer_configurations_are_built_and_written_from_integers(tmp_path, monkeypatch, name):
    # no field element, no _coerce_triple and no _canonical from the
    # generator to the saved file
    calls = []
    _count_calls(monkeypatch, fields.FieldElement, "__init__", calls)
    for key in ("_coerce_triple", "_canonical"):
        _count_calls(monkeypatch, projective, key, calls)
    save_configuration(PINNED_SAVED[name][0](), str(tmp_path / "config.json"))
    assert calls == []


@pytest.mark.parametrize("name", EXTENSION_SAVED)
def test_extension_configurations_are_built_moved_and_loaded_without_field_elements(
        tmp_path, monkeypatch, name):
    # the generators, apply_projective_map, the writer and the loader run
    # on integer vectors: no FieldElement is built from the call to the
    # loaded configuration
    calls = []
    _count_calls(monkeypatch, fields.FieldElement, "__init__", calls)
    config = PINNED_SAVED[name][0]()
    path = tmp_path / "config.json"
    save_configuration(config, str(path))
    assert load_configuration(str(path)) == config
    assert calls == []


@pytest.mark.parametrize("name", ["boroczky(30)", "sylvester_cubic(20)"])
def test_cyclotomic_families_are_built_without_a_norm(monkeypatch, name):
    # each point is built in the chart of its first coordinate, which is
    # rational, so its canonical form multiplies by no adjugate
    calls = []
    for owner in (fields, projective):
        _count_calls(monkeypatch, owner, "_adjugate", calls)
    PINNED_SAVED[name][0]()
    assert calls == []


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
    assert path.read_text() == dumps(config_to_json(config))
    assert load_configuration(str(path)) == config


@pytest.mark.parametrize("label", [
    'say "hi"', "back\\slash", "two\nlines", "Böröczky ζ_12 ✓", "", '"points": [',
    '"points": [\n    [\n      "1"', "\t\x00\u2028 end",
])
@pytest.mark.parametrize("field", [rational_field(), quadratic_field(-3), cyclotomic_field(5)],
                         ids=str)
def test_saved_label_is_escaped_as_json_dumps_escapes_it(tmp_path, field, label):
    config = Configuration(field, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 2, 3)], label=label)
    path = tmp_path / "config.json"
    save_configuration(config, str(path))
    assert path.read_bytes() == dumps(config_to_json(config)).encode()
    assert load_configuration(str(path)).label == label


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


BAD_FILES = {
    "not-json": ('{"field": {"kind": "rational"}, "points": [', "is not valid JSON"),
    "json-array": ('[["1", "0", "1"], ["0", "1", "1"]]', "configuration must be a JSON object"),
    "field-not-an-object": ('{"field": "rational", "points": [["1", "0", "1"]]}',
                            "field must be an object with a 'kind'"),
}


@pytest.mark.parametrize("name", sorted(BAD_FILES))
def test_unreadable_configuration_files_exit_1_with_one_error_line(tmp_path, capsys, name):
    text, message = BAD_FILES[name]
    path = tmp_path / "bad.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(SerializationError, match=message):
        load_configuration(str(path))
    for command in ("analyze", "check"):
        assert main([command, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert message in captured.err
    src = str(Path(linespectra.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    child = subprocess.run([sys.executable, "-m", "linespectra", "analyze", str(path)],
                           capture_output=True, text=True, env=env)
    assert child.returncode == 1 and child.stdout == ""
    assert child.stderr.startswith("error: ") and child.stderr.count("\n") == 1
    assert "Traceback" not in child.stderr


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
