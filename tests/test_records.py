"""The package's seven records and its cold import.

Every record is a ``NamedTuple``: it equals and hashes like the tuple of its
fields, keeps the repr that names each field, and refuses to set or delete a
field, a cached value or a new name, so a cache such as ``Fan2D.charts`` is
written once and every route reads the same table. A checked record's
``_make`` and ``_replace`` build through its constructor. Importing the
package and its CLI loads neither ``dataclasses`` nor ``inspect`` and its
``ast``/``dis``/``tokenize`` chain, which together cost more than a report."""

import ast
import copy
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from toricvol import (
    Fan2D,
    FanValidationError,
    OrbitDecomposition,
    Polygon,
    TorusDivisor,
    convex_hull_2d,
    fan_violations,
    hirzebruch_fan,
    okounkov_volume_report,
    standard_decomposition,
)
from toricvol.cli import InstanceDocument

SRC = Path(__file__).resolve().parents[1] / "src"

# each record's fields in order, and the cached values it keeps beside them
FIELDS = {
    "FanViolation": ("kind", "index", "message"),
    "Fan2D": ("rays",),
    "OrbitDecomposition": ("generic_owner", "ray_owner"),
    "TorusDivisor": ("fan", "coeffs"),
    "Polygon": ("vertices", "area"),
    "VolumeReport": ("twice", "display_flag", "per_flag", "diagnostics"),
    "InstanceDocument": ("rays", "divisor", "flag", "decomposition_variant"),
}
CACHES = {"Fan2D": ("charts",), "TorusDivisor": ("cocycle", "curve_degrees", "_section_polygon")}

F1 = ((1, 0), (0, 1), (-1, 1), (0, -1))
TRIANGLE = ((0, 0), (2, 0), (0, 2))


def record(name: str):
    """A fresh record of each kind, its caches not yet filled."""
    fan = Fan2D(F1)
    return {
        "FanViolation": lambda: fan_violations([(1, 0), (0, 1), (1, 1)])[0],
        "Fan2D": lambda: fan,
        "OrbitDecomposition": lambda: standard_decomposition(fan, "successor"),
        "TorusDivisor": lambda: TorusDivisor(fan, (0, 1, 2, 0)),
        "Polygon": lambda: convex_hull_2d(TRIANGLE),
        "VolumeReport": lambda: okounkov_volume_report(TorusDivisor(fan, (0, 1, 2, 0))),
        "InstanceDocument": lambda: InstanceDocument(F1, (0, 1, 2, 0)),
    }[name]()


def field_tuple(name: str, x) -> tuple:
    return tuple(getattr(x, f) for f in FIELDS[name])


class TestImmutable:
    @pytest.mark.parametrize("name", FIELDS)
    def test_nothing_can_be_set_or_deleted(self, name):
        x = record(name)
        cached = {c: getattr(x, c) for c in CACHES.get(name, ())}
        before = field_tuple(name, x)
        for attr in FIELDS[name] + tuple(cached) + ("foo",):
            with pytest.raises(AttributeError):
                setattr(x, attr, None)
            with pytest.raises(AttributeError):
                delattr(x, attr)
        assert field_tuple(name, x) == before
        assert all(getattr(x, c) is value for c, value in cached.items())
        assert not hasattr(x, "foo")

    def test_shared_chart_table_cannot_be_replaced(self):
        # every route reads fan.charts and D.cocycle: a replaced table would move them all
        D = TorusDivisor(hirzebruch_fan(1), (0, 1, 2, 0))
        table, cocycle = D.fan.charts, D.cocycle
        for target, attr, value in [(D.fan, "charts", {}), (D, "cocycle", ((0, 0),) * 4)]:
            with pytest.raises(AttributeError):
                setattr(target, attr, value)
        assert D.fan.charts is table and D.cocycle is cocycle
        assert okounkov_volume_report(D).agree


class TestChangedCopiesAreChecked:
    """``_replace`` and ``_make`` build through the constructor: a bad field raises
    its error, a good one gives the constructor's result."""

    def test_fan(self):
        fan = hirzebruch_fan(1)
        with pytest.raises(FanValidationError, match="cross"):
            fan._replace(rays=((1, 0), (0, 1), (1, 1)))
        with pytest.raises(FanValidationError, match="non-integer"):
            Fan2D._make([((1.0, 0), (0, 1), (-1, -1))])
        p2 = [[1, 0], [0, 1], [-1, -1]]
        assert fan._replace(rays=p2) == Fan2D._make([p2]) == Fan2D(p2)
        assert type(fan._replace(rays=p2).rays[0]) is tuple

    def test_decomposition(self):
        dec = standard_decomposition(hirzebruch_fan(1))
        with pytest.raises(ValueError, match="nonexistent cone 4"):
            dec._replace(generic_owner=4)
        with pytest.raises(ValueError, match="ray 1 assigned to cone 3"):
            dec._replace(ray_owner=(0, 3, 2, 3))
        with pytest.raises(TypeError):
            OrbitDecomposition._make([0.0, (0, 1, 2, 3)])
        assert dec._replace(generic_owner=2) == OrbitDecomposition._make([2, range(4)]) \
            == OrbitDecomposition(2, (0, 1, 2, 3))

    def test_divisor(self):
        D = TorusDivisor(hirzebruch_fan(1), (0, 1, 2, 0))
        cocycle = D.cocycle
        with pytest.raises(ValueError, match="3 coefficients for 4 rays"):
            D._replace(coeffs=(0, 1, 2))
        with pytest.raises(TypeError):
            TorusDivisor._make([D.fan, (0, 1.0, 2, 0)])
        E = D._replace(coeffs=[0, 2, 3, 0])
        assert E == TorusDivisor._make([D.fan, (0, 2, 3, 0)]) == TorusDivisor(D.fan, (0, 2, 3, 0))
        # the copy has its own cache, and the original's is untouched
        assert E.cocycle == TorusDivisor(D.fan, (0, 2, 3, 0)).cocycle != cocycle
        assert D.cocycle is cocycle

    def test_polygon(self):
        P = convex_hull_2d(TRIANGLE)
        with pytest.raises(ValueError, match="strictly convex"):
            P._replace(vertices=TRIANGLE[::-1])
        with pytest.raises(TypeError):
            P._replace(vertices=((0, 0), (Fraction(1, 2), 0), (0, 1)))
        Q = P._replace(vertices=[[0, 0], [1, 0], [0, 1]])
        assert Q == Polygon(((0, 0), (1, 0), (0, 1))) and Q.area == Fraction(1, 2)
        assert Polygon._make(tuple(P)) == P
        # the area is always the vertices' own: it cannot be given to a copy
        with pytest.raises(TypeError):
            P._replace(area=Fraction(7))
        with pytest.raises(ValueError, match="area 7 is not the area 2"):
            Polygon._make((TRIANGLE, Fraction(7)))

    @pytest.mark.parametrize("name", FIELDS)
    def test_copy_and_pickle_keep_the_record(self, name):
        x = record(name)
        for c in CACHES.get(name, ()):
            getattr(x, c)
        for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert type(y) is type(x) and y == x
            assert all(getattr(y, c) == getattr(x, c) for c in CACHES.get(name, ()))

    def test_copy_of_a_divided_polygon(self):
        half = convex_hull_2d(TRIANGLE).divided(2)
        for y in (copy.deepcopy(half), pickle.loads(pickle.dumps(half))):
            assert y == half and y.area == Fraction(1, 2)


class TestRecordContract:
    REPRS = {
        "FanViolation": "FanViolation(kind='bad-cross', index=1, "
                        "message='cross(ray 1, ray 2) = -1, expected 1')",
        "Fan2D": "Fan2D(rays=((1, 0), (0, 1), (-1, 1), (0, -1)))",
        "OrbitDecomposition": "OrbitDecomposition(generic_owner=0, ray_owner=(3, 0, 1, 2))",
        "TorusDivisor": "TorusDivisor(fan=Fan2D(rays=((1, 0), (0, 1), (-1, 1), (0, -1))), "
                        "coeffs=(0, 1, 2, 0))",
        "Polygon": "Polygon(vertices=((0, 0), (2, 0), (0, 2)), area=Fraction(2, 1))",
        "InstanceDocument": "InstanceDocument(rays=((1, 0), (0, 1), (-1, 1), (0, -1)), "
                            "divisor=(0, 1, 2, 0), flag=None, decomposition_variant=None)",
    }

    @pytest.mark.parametrize("name", REPRS)
    def test_repr(self, name):
        assert repr(record(name)) == self.REPRS[name]

    def test_repr_of_a_report_and_a_divided_polygon(self):
        report = okounkov_volume_report(TorusDivisor(hirzebruch_fan(1), (0, 1, 1, 0)))
        assert repr(report) == (
            "VolumeReport(twice=(), display_flag=TFlag(ray=0, cone=0), per_flag=(), "
            "diagnostics=(\"not ample: cone 0's local equation is not strictly inside "
            "ray 2's half-plane\",))")
        assert repr(convex_hull_2d(TRIANGLE).divided(2)) == (
            "Polygon(vertices=((Fraction(0, 1), Fraction(0, 1)), (Fraction(1, 1), Fraction(0, 1)), "
            "(Fraction(0, 1), Fraction(1, 1))), area=Fraction(1, 2))")
        assert str(record("FanViolation")) == "cross(ray 1, ray 2) = -1, expected 1"

    @pytest.mark.parametrize("name", FIELDS)
    def test_hash_is_the_field_tuple_hash(self, name):
        x, y = record(name), record(name)
        assert x == y and hash(x) == hash(y) == hash(field_tuple(name, x))

    @pytest.mark.parametrize("name", FIELDS)
    def test_record_equals_its_field_tuple(self, name):
        # the one change from frozen dataclasses, as TFlag and the chart records do
        x = record(name)
        assert x == field_tuple(name, x) == tuple(x) and x._fields == FIELDS[name]
        assert x._asdict() == dict(zip(FIELDS[name], field_tuple(name, x)))


GUARDED = {"dataclasses", "inspect", "ast", "dis", "tokenize"}


def loaded_modules(prelude: str) -> set[str]:
    """``sys.modules`` of a fresh isolated interpreter after ``prelude``."""
    out = subprocess.run([sys.executable, "-I", "-c", f"{prelude}\nimport sys\nprint(*sys.modules)"],
                         capture_output=True, text=True, check=True)
    return set(out.stdout.split())


@pytest.mark.parametrize("copy_of", ["src", "installed"])
def test_cold_import_loads_no_dataclasses_or_inspect(copy_of):
    """Compared with a bare interpreter, so modules that ``site`` loads do not count.
    "installed" imports the copy on the interpreter's own path, such as a
    ``pip install -e`` one, and skips where the package is not installed."""
    path = f"import sys; sys.path.insert(0, {str(SRC)!r})" if copy_of == "src" else ""
    if copy_of == "installed" and subprocess.run([sys.executable, "-I", "-c", "import toricvol"],
                                                 capture_output=True).returncode:
        pytest.skip("toricvol is not installed")
    added = loaded_modules(f"{path}\nimport toricvol, toricvol.cli") - loaded_modules("")
    assert "toricvol.cli" in added
    assert not added & GUARDED, sorted(added & GUARDED)


def test_no_package_module_imports_dataclasses():
    for path in (SRC / "toricvol").glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        names = {a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names}
        names |= {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
        assert not {"dataclasses"} & names, f"{path.name} imports dataclasses"
