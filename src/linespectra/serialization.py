"""JSON and CSV encodings for configurations, spectra, reports, records.

JSON is the lossless interchange format; every exact rational is carried as a
"p/q" (or "p") string so nothing ever rounds.  A configuration's points are
written from their canonical integer vectors (config_to_json) and read back
as integer vectors, over Q as int triples (_rational_point) and elsewhere as
coefficient vectors over one lcm (_point): no field element is built either
way.  CSV is a flat display-oriented view with decimal approximations,
clearly labeled as such.
"""

from __future__ import annotations

import io
import json
import math
from fractions import Fraction
from typing import TYPE_CHECKING, Dict, Optional, Sequence

from .fields import FieldDescriptor, FieldError, RATIONAL
from .projective import Configuration, LineSpectrum, ProjectivePoint

if TYPE_CHECKING:  # annotations only: loading serialization imports neither
    from .inequalities import InequalityReport
    from .search import SearchRecord


class SerializationError(ValueError):
    pass


def frac_str(x: Fraction) -> str:
    return str(Fraction(x))


def parse_frac(data) -> Fraction:
    if isinstance(data, bool) or isinstance(data, float):
        raise SerializationError(f"exact rational expected, got {data!r}")
    if isinstance(data, int):
        return Fraction(data)
    if isinstance(data, str):
        try:
            return Fraction(data)
        except (ValueError, ZeroDivisionError) as exc:
            raise SerializationError(f"bad rational literal {data!r}") from exc
    raise SerializationError(f"exact rational expected, got {type(data).__name__}")


def _parse_coeff(data) -> tuple:
    """(num, den), den > 0 and not always coprime, of the rational that
    parse_frac reads from `data`, with no Fraction built for a JSON int or
    a string int() reads.  Every string int() accepts ("7", "-7", " +1_0 ",
    Unicode decimal digits) is one Fraction accepts as the same integer, and
    so is "p/q" when p is such a string ending in a decimal digit and q is
    nonzero decimal digits: Fraction allows no space or sign around "/".
    Every other value goes through parse_frac, so the accepted inputs and
    the errors are parse_frac's."""
    if type(data) is str:
        num, slash, den = data.partition("/")
        try:
            if not slash:
                return int(data), 1
            if den.isdecimal() and num[-1:].isdecimal():
                q = int(den)
                if q:
                    return int(num), q
        except ValueError:  # not int()'s syntax, or beyond its digit limit
            pass
    elif type(data) is int:
        return data, 1
    f = parse_frac(data)
    return f.numerator, f.denominator


# ---------------------------------------------------------------------------
# Fields.

def field_to_json(field: FieldDescriptor) -> Dict:
    """The descriptor's fields that are set, in order: kind, then d or N."""
    return {k: v for k, v in field._asdict().items() if v is not None}


def field_from_json(data) -> FieldDescriptor:
    """The descriptor of a field object.  FieldDescriptor refuses an unknown
    kind and a parameter the kind does not take or lacks."""
    if not isinstance(data, dict) or "kind" not in data:
        raise SerializationError("field must be an object with a 'kind'")
    try:
        return FieldDescriptor(data["kind"], data.get("d"), data.get("N"))
    except FieldError as exc:
        raise SerializationError(f"bad field descriptor {data!r}: {exc}") from exc


def _coeff_str(n: int, den: int) -> str:
    """str(Fraction(n, den)) for den > 0, from one gcd."""
    g = math.gcd(n, den)
    return str(n // g) if g == den else f"{n // g}/{den // g}"


# ---------------------------------------------------------------------------
# Configurations.

def config_to_json(config: Configuration) -> Dict:
    """The configuration's JSON object.  Each point is written from its
    canonical integer vectors, every coefficient over the pivot (the first
    nonzero coordinate's first entry, a positive integer) in lowest terms:
    the coefficients of `coords`, with no field element built."""
    write = _rational_point_json if config.field.kind == RATIONAL else _point_json
    return {
        "field": field_to_json(config.field),
        "label": config.label,
        "points": [write(p.intvecs) for p in config.points],
    }


def _rational_point_json(vecs) -> list:
    """The "p/q" literals of a point over Q from its scalar vectors."""
    (a,), (b,), (c,) = vecs
    pivot = a or b or c
    return [_coeff_str(a, pivot), _coeff_str(b, pivot), _coeff_str(c, pivot)]


def _point_json(vecs) -> list:
    """The coefficient arrays of a point over an extension field."""
    pivot = next(v[0] for v in vecs if any(v))
    return [[_coeff_str(x, pivot) for x in v] for v in vecs]


def config_from_json(data) -> Configuration:
    if not isinstance(data, dict):
        raise SerializationError("configuration must be a JSON object")
    for key in ("field", "points"):
        if key not in data:
            raise SerializationError(f"configuration is missing {key!r}")
    field = field_from_json(data["field"])
    label = data.get("label", "")
    if not isinstance(label, str):
        raise SerializationError("label must be a string")
    raw_points = data["points"]
    if not isinstance(raw_points, list) or not raw_points:
        raise SerializationError("points must be a non-empty array")
    read = _rational_point if field.kind == RATIONAL else _point
    points = []
    for idx, triple in enumerate(raw_points):
        if not isinstance(triple, list) or len(triple) != 3:
            raise SerializationError(
                f"point {idx} must be an array of 3 coordinates")
        points.append(read(field, triple))
    return Configuration(field, tuple(points), label)


def _rational_point(field: FieldDescriptor, triple) -> ProjectivePoint:
    """The point of three rational coordinates: their _parse_coeff pairs
    over a common denominator, an int triple that ProjectivePoint makes
    primitive.  The same point as ProjectivePoint of their Fractions, with
    no Fraction built."""
    (a, p), (b, q), (c, r) = map(_parse_coeff, triple)
    den = math.lcm(p, q, r)
    return ProjectivePoint((a * (den // p), b * (den // q), c * (den // r)), field)


def _point(field: FieldDescriptor, triple) -> ProjectivePoint:
    """The point of three coefficient arrays over an extension field: their
    _parse_coeff pairs over one lcm, for ProjectivePoint._of_vectors.  Each
    array is checked and parsed in turn, so the point and the first error
    are those of ProjectivePoint of their field elements, with none built."""
    deg = field.degree
    pairs = []
    for c in triple:
        if not isinstance(c, (list, tuple)):
            raise SerializationError(
                f"{field.kind} element must be a coefficient array, got {c!r}")
        if len(c) != deg:
            raise SerializationError(f"{field} element needs {deg} coefficients, got {len(c)}")
        pairs += map(_parse_coeff, c)
    den = math.lcm(*[q for _, q in pairs])
    nums = [p if q == den else p * (den // q) for p, q in pairs]
    return ProjectivePoint._of_vectors(
        field, (tuple(nums[:deg]), tuple(nums[deg:-deg]), tuple(nums[-deg:])))


def dumps(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _points_text(config: Configuration) -> str:
    """The items of the "points" array as dumps writes them in a
    configuration object, from the literals of config_to_json and fixed
    separators: each bracket and literal on its own line, indented two
    spaces per level of nesting.  Each literal comes from _coeff_str, digits
    with an optional sign and "/", so none needs escaping."""
    if config.field.kind == RATIONAL:
        inner = ['",\n      "'.join(_rational_point_json(p.intvecs)) for p in config.points]
        return '    [\n      "' + '"\n    ],\n    [\n      "'.join(inner) + '"\n    ]'
    coeff, coord = '",\n        "', '"\n      ],\n      [\n        "'
    inner = [coord.join([coeff.join(v) for v in _point_json(p.intvecs)]) for p in config.points]
    return ('    [\n      [\n        "' + '"\n      ]\n    ],\n    [\n      [\n        "'.join(inner)
            + '"\n      ]\n    ]')


def save_configuration(config: Configuration, path: str) -> None:
    """Write dumps(config_to_json(config)): the field and label through
    dumps, which escapes the label, then in place of its closing brace the
    points from _points_text."""
    head = dumps({"field": field_to_json(config.field), "label": config.label})
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{head[:-3]},\n  "points": [\n{_points_text(config)}\n  ]\n}}\n')


def load_configuration(path: str) -> Configuration:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SerializationError(f"{path} is not valid JSON: {exc}") from exc
    return config_from_json(data)


# ---------------------------------------------------------------------------
# Spectra.

def spectrum_to_json(s: LineSpectrum, real: Optional[bool] = None) -> Dict:
    histogram: Dict[str, int] = {}
    for d in s.degrees:
        histogram[str(d)] = histogram.get(str(d), 0) + 1
    out = {
        "n": s.n,
        "ell": {str(i): s.ell[i] for i in sorted(s.ell)},
        "total_lines": s.total_lines,
        "incidences": s.incidences,
        "max_collinear": s.max_collinear,
        "degrees": list(s.degrees),
        "degree_histogram": {k: histogram[k] for k in sorted(histogram, key=int)},
    }
    if real is not None:
        out["real"] = real
    return out


def spectrum_to_csv(s: LineSpectrum, real: Optional[bool] = None) -> str:
    import csv
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["quantity", "value"])
    writer.writerow(["n", s.n])
    writer.writerow(["total_lines", s.total_lines])
    writer.writerow(["incidences", s.incidences])
    writer.writerow(["max_collinear", s.max_collinear])
    if real is not None:
        writer.writerow(["real", str(real).lower()])
    for i in sorted(s.ell):
        writer.writerow([f"ell_{i}", s.ell[i]])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Inequality reports.

def report_to_json(r: InequalityReport) -> Dict:
    return {
        "name": r.name,
        "kind": r.kind,
        "applicable": r.applicable,
        "applicability_reason": r.applicability_reason,
        "relation": r.relation,
        "lhs": frac_str(r.lhs),
        "rhs": frac_str(r.rhs),
        "slack": frac_str(r.slack),
        "satisfied": r.satisfied,
        "tight": r.tight,
        "strict": r.strict,
    }


def reports_to_csv(reports: Sequence[InequalityReport]) -> str:
    import csv
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["name", "kind", "applicable", "satisfied", "tight",
         "slack_decimal_approx"])
    for r in reports:
        writer.writerow([
            r.name, r.kind,
            str(r.applicable).lower(), str(r.satisfied).lower(),
            str(r.tight).lower(), repr(float(r.slack)),
        ])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Search records.

def record_to_json(record: SearchRecord) -> Dict:
    return {
        "method": record.method,
        "objective_kind": record.objective_kind,
        "objective": frac_str(record.objective),
        "best_value": record.best_value,
        "constraint": record.constraint,
        "iterations": record.iterations,
        "seed": record.seed,
        "history": [[it, frac_str(obj)] for it, obj in record.history],
        "best_config": config_to_json(record.best_config),
    }
