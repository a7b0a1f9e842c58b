"""The lazy package namespace, the immutable record types and the package
sources."""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
import typing
from collections import Counter
from fractions import Fraction
from pathlib import Path

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
    line_through,
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
    ("quadratic", {"d": 2.0}),
    ("quadratic", {"d": Fraction(2)}),
    ("cyclotomic", {"N": 4.0}),
    ("cyclotomic", {"N": True}),
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


def test_points_and_line_keys_refuse_setattr():
    p, q = ProjectivePoint((1, 2, 1)), ProjectivePoint((0, 1, 3))
    key = line_through(p, q)
    for obj in (p, key):
        assert not hasattr(obj, "__dict__") and not hasattr(obj, "__weakref__")
        before = (obj.field, obj.intvecs)
        for name, value in [("field", quadratic_field(2)), ("intvecs", ((1,), (0,), (0,))),
                            ("extra", None)]:
            with pytest.raises(AttributeError, match="immutable"):
                setattr(obj, name, value)
        assert (obj.field, obj.intvecs) == before


def test_field_elements_refuse_setattr():
    g = cyclotomic_field(12).element([Fraction(1, 2), 3, 0, -1])
    # __init__ still reduces to lowest terms through the slots' setters
    assert (g.nums, g.den) == ((1, 6, 0, -2), 2)
    assert not hasattr(g, "__dict__")
    before = (g.field, g.nums, g.den)
    for name, value in [("field", rational_field()), ("nums", (1,)), ("den", 3),
                        ("extra", None)]:
        with pytest.raises(AttributeError, match="immutable"):
            setattr(g, name, value)
    assert (g.field, g.nums, g.den) == before


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


def _unused_imports(source):
    # (line, name) of each name an import binds that the module never reads
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_package_has_no_unused_imports():
    assert _unused_imports("import os\nfrom x import y as z, w\nw()\n") == [(1, "os"), (2, "z")]
    package = Path(linespectra.__file__).parent
    unused = {path.name: _unused_imports(path.read_text()) for path in package.glob("*.py")}
    assert {name: found for name, found in unused.items() if found} == {}


def _names_read(node):
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def _unreferenced_private_definitions(sources):
    # (module, name) of each private module-level function or class, and each
    # private method, that no code outside its own body reads by name
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = sum((_names_read(tree) for tree in trees.values()), Counter())
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            for d in [node, *(node.body if isinstance(node, ast.ClassDef) else ())]:
                if (isinstance(d, (ast.FunctionDef, ast.ClassDef)) and d.name.startswith("_")
                        and not d.name.endswith("__")
                        and read[d.name] == _names_read(d)[d.name]):
                    found.append((module, d.name))
    return sorted(found)


def test_every_private_definition_is_referenced_in_the_package():
    # tests do not count: a helper that only tests call is a leftover
    sample = ("def _used(): pass\ndef _self(): return _self()\nclass _C:\n"
              "    def _m(self): pass\n    def __eq__(self, o): return _used()\n")
    assert _unreferenced_private_definitions({"m": sample}) == [
        ("m", "_C"), ("m", "_m"), ("m", "_self")]
    package = Path(linespectra.__file__).parent
    sources = {path.name: path.read_text() for path in package.glob("*.py")}
    assert _unreferenced_private_definitions(sources) == []


def _json_writes(source):
    # (line, call) of each json.dump or json.dumps the module calls or imports
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr in ("dump", "dumps")
                and getattr(node.value, "id", None) == "json"):
            found.append((node.lineno, f"json.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            found += [(node.lineno, f"json.{a.name}") for a in node.names
                      if a.name in ("dump", "dumps")]
    return sorted(found)


def test_only_serialization_writes_json():
    # every JSON document the package writes goes through serialization
    sample = ("import json\nfrom json import dumps as d, loads\n"
              "json.loads('1')\nf = json.dump\njson.dumps({})\n")
    assert _json_writes(sample) == [(2, "json.dumps"), (4, "json.dump"), (5, "json.dumps")]
    package = Path(linespectra.__file__).parent
    found = {path.name: _json_writes(path.read_text()) for path in package.glob("*.py")
             if path.name != "serialization.py"}
    assert len(found) == 9
    assert {name: calls for name, calls in found.items() if calls} == {}


KERNEL_INTERNALS = {"_screened_rows", "_tally_rows", "_fold_rows", "_slope_screen"}


def _kernel_names(source, internals=KERNEL_INTERNALS):
    # (line, name) of each of the internals the module names: read, imported
    # or reached as an attribute
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        found += [(node.lineno, name) for name in names if name in internals]
    return sorted(found)


def test_only_projective_names_the_kernel_internals():
    # spectrum and search count rows through projective._serial_spectrum;
    # the kernel's row, tally and fold functions stay inside projective
    sample = ("from .projective import _fold_rows, spectrum\n"
              "import linespectra.projective as p\np._tally_rows(1, [])\n")
    assert _kernel_names(sample) == [(1, "_fold_rows"), (3, "_tally_rows")]
    package = Path(linespectra.__file__).parent
    found = {path.name: _kernel_names(path.read_text()) for path in package.glob("*.py")
             if path.name != "projective.py"}
    assert len(found) == 9
    assert {name: names for name, names in found.items() if names} == {}


def test_only_fields_names_the_power_table():
    # fields._zeta_sum is the one reader of _powers: every other module
    # writes its sums of powers of zeta through it
    assert _kernel_names("from .fields import _powers\nf._powers(4)\n", {"_powers"}) == [
        (1, "_powers"), (2, "_powers")]
    package = Path(linespectra.__file__).parent
    found = {path.name: _kernel_names(path.read_text(), {"_powers"})
             for path in package.glob("*.py") if path.name != "fields.py"}
    assert len(found) == 9
    assert {name: names for name, names in found.items() if names} == {}


def test_every_mutant_target_occurs_once():
    # the mutation harness refuses to run if a target text is missing or
    # repeated; a refactor that strands a mutant fails here first
    path = Path(__file__).resolve().parent.parent / "mutants" / "run.py"
    spec = importlib.util.spec_from_file_location("mutants_run", path)
    harness = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(harness)
    assert len({m.name for m in harness.MUTANTS}) == len(harness.MUTANTS)
    for m in harness.MUTANTS:
        assert (harness.ROOT / m.path).read_text().count(m.old) == 1, m.name
        assert m.old != m.new and all((harness.ROOT / t).is_file() for t in m.tests), m.name


def _type_checking_names(module):
    # the names bound by the module's `if TYPE_CHECKING:` imports, imported
    # as a type checker reads them
    tree = ast.parse(Path(module.__file__).read_text())
    names = {}
    for node in tree.body:
        if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING":
            code = compile(ast.Module(node.body, type_ignores=[]), module.__file__, "exec")
            exec(code, {"__name__": module.__name__, "__package__": "linespectra"}, names)
    return names


def _annotated(module):
    # every function, class and method that the module defines
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield obj
        elif inspect.isclass(obj):
            yield obj
            for member in vars(obj).values():
                member = getattr(member, "__func__", getattr(member, "fget", member))
                if inspect.isfunction(member):
                    yield member


def test_every_annotation_in_the_package_resolves():
    # __main__ is left out: importing it runs the command line
    modules = [linespectra] + [importlib.import_module(f"linespectra.{info.name}")
                               for info in pkgutil.iter_modules(linespectra.__path__)
                               if info.name != "__main__"]
    assert len(modules) == 9
    checked = []
    for module in modules:
        namespace = {**vars(module), **_type_checking_names(module)}
        for obj in _annotated(module):
            typing.get_type_hints(obj, globalns=namespace)
            checked.append(obj.__qualname__)
    assert {"report_to_json", "reports_to_csv", "record_to_json",
            "FieldElement.__init__", "InequalityReport"} <= set(checked)
