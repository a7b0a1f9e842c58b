"""JSON and CSV encodings for configurations, spectra, reports, records.

JSON is the lossless interchange format; every exact rational is carried as a
"p/q" (or "p") string so nothing ever rounds.  CSV is a flat display-oriented
view with decimal approximations, clearly labeled as such.
"""

from __future__ import annotations

import io
import json
import math
from fractions import Fraction
from typing import Dict, Optional, Sequence

from .fields import (
    FieldDescriptor,
    FieldElement,
    cyclotomic_field,
    quadratic_field,
    rational_field,
)
from .projective import Configuration, LineSpectrum, ProjectivePoint


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


def _is_ascii_digits(text: str) -> bool:
    return text.isascii() and text.isdigit()


def _parse_coeff(data) -> tuple:
    """(num, den), den > 0 and not always coprime, of the rational that
    parse_frac reads from `data`.  A JSON int or a canonical "p" or "p/q"
    literal (ASCII digits, a leading "-" at most, q > 0) is read with int();
    every other value goes through parse_frac, so the accepted inputs and
    the errors are parse_frac's."""
    if type(data) is int:
        return data, 1
    if type(data) is str:
        num, slash, den = data.partition("/")
        if (_is_ascii_digits(num[1:] if num[:1] == "-" else num)
                and (not slash or _is_ascii_digits(den) and den.strip("0"))):
            try:
                return int(num), int(den) if slash else 1
            except ValueError:  # beyond int()'s digit limit, like Fraction's
                pass
    f = parse_frac(data)
    return f.numerator, f.denominator


# ---------------------------------------------------------------------------
# Fields and elements.

def field_to_json(field: FieldDescriptor) -> Dict:
    if field.kind == "rational":
        return {"kind": "rational"}
    if field.kind == "quadratic":
        return {"kind": "quadratic", "d": field.d}
    return {"kind": "cyclotomic", "N": field.N}


def field_from_json(data) -> FieldDescriptor:
    if not isinstance(data, dict) or "kind" not in data:
        raise SerializationError("field must be an object with a 'kind'")
    kind = data["kind"]
    try:
        if kind == "rational":
            return rational_field()
        if kind == "quadratic":
            return quadratic_field(data["d"])
        if kind == "cyclotomic":
            return cyclotomic_field(data["N"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"bad field descriptor {data!r}: {exc}") from exc
    raise SerializationError(f"unknown field kind {kind!r}")


def _coeff_str(n: int, den: int) -> str:
    """str(Fraction(n, den)) for den > 0, from one gcd."""
    g = math.gcd(n, den)
    return str(n // g) if g == den else f"{n // g}/{den // g}"


def element_to_json(e: FieldElement):
    den = e.den
    if e.field.kind == "rational":
        return _coeff_str(e.nums[0], den)
    return [_coeff_str(n, den) for n in e.nums]


def element_from_json(field: FieldDescriptor, data) -> FieldElement:
    if field.kind == "rational":
        num, den = _parse_coeff(data)
        return FieldElement(field, (num,), den)
    if not isinstance(data, (list, tuple)):
        raise SerializationError(
            f"{field.kind} element must be a coefficient array, got {data!r}")
    if len(data) != field.degree:
        raise SerializationError(
            f"{field} element needs {field.degree} coefficients, got {len(data)}")
    pairs = [_parse_coeff(c) for c in data]
    den = math.lcm(*[q for _, q in pairs])
    return FieldElement(field, [p if q == den else p * (den // q) for p, q in pairs], den)


# ---------------------------------------------------------------------------
# Configurations.

def config_to_json(config: Configuration) -> Dict:
    return {
        "field": field_to_json(config.field),
        "label": config.label,
        "points": [
            [element_to_json(c) for c in p.coords] for p in config.points
        ],
    }


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
    points = []
    for idx, triple in enumerate(raw_points):
        if not isinstance(triple, list) or len(triple) != 3:
            raise SerializationError(
                f"point {idx} must be an array of 3 coordinates")
        if field.kind == "rational":  # ints and Fractions go straight into the points
            coords = [p if q == 1 else Fraction(p, q) for p, q in map(_parse_coeff, triple)]
        else:
            coords = [element_from_json(field, c) for c in triple]
        points.append(ProjectivePoint(coords, field))
    return Configuration(field, tuple(points), label)


def dumps(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def save_configuration(config: Configuration, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(dumps(config_to_json(config)))


def load_configuration(path: str) -> Configuration:
    try:
        with open(path) as fh:
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
