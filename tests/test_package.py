"""Package surface: lazy exports, and the value semantics of the records."""

import copy
import importlib
import inspect
import pickle

import pytest

import kregular
from kregular import (BoundReport, BundleProfile, ComplexProj, DirectSum,
                      DualClassProfile, Euclid, ExistenceRecord, Product,
                      QuatProj, RealProj, RegularityReport, RegularQuery,
                      Sphere, SphereOneI, VandermondeMap, Witness)
from kregular.bundles import PieceRule, TableRow
from kregular.manifolds import DualClass
from kregular.record import Record
from kregular.series import GradedSeries, SeriesRing

# Every name the package exported when it imported all its submodules.
EXPORTS = {
    "bounds": ("BoundReport", "RegularQuery", "bound_disjoint",
               "bound_product_2regular", "main_theorem_1_closed_form",
               "main_theorem_2_closed_form", "upper_existence",
               "upper_existence_piece"),
    "bundles": ("COMPLEX", "REAL", "BundleProfile", "ExistenceRecord",
                "UnsupportedBundleError", "lambda_top",
                "projective_3regular_upper", "projective_table_matches"),
    "expr": ("ParseError", "parse_expression", "parse_manifold",
             "render_query"),
    "fields": ("digit_sum_base_p", "is_prime", "lucas_binom_mod_p"),
    "grassmann": ("GrassmannPresentation", "cached_presentation",
                  "chern_height_of_first_class"),
    "manifolds": ("ComplexProj", "DualClassProfile", "Euclid", "ManifoldSpec",
                  "Product", "QuatProj", "RealProj", "Sphere", "atoms",
                  "dual_sw", "floor_log2", "is_closed", "real_dimension",
                  "render", "top_dual_degree", "top_dual_degree_closed_form"),
    "sampler": ("DirectSum", "ExampleMap", "RegularityReport", "SphereOneI",
                "VandermondeMap", "Witness", "ambient_dim",
                "claimed_regularity", "integer_rank_bareiss", "parse_map",
                "render_map", "sample_check_regular"),
    "series": ("GradedSeries", "NonInvertibleError", "RingMismatchError",
               "SeriesRing"),
}


@pytest.mark.parametrize("module, name", [
    (module, name) for module, names in EXPORTS.items() for name in names])
def test_every_export_resolves(module, name):
    namespace: dict = {}
    exec(f"from kregular import {name}", namespace)
    source = importlib.import_module(f"kregular.{module}")
    assert namespace[name] is getattr(source, name)
    assert getattr(kregular, name) is getattr(source, name)
    assert name in dir(kregular)


def test_package_surface():
    assert kregular.__version__ == "0.1.0"
    assert sorted(kregular.__all__) == sorted(
        name for names in EXPORTS.values() for name in names)
    with pytest.raises(AttributeError, match="no_such_name"):
        kregular.no_such_name
    # A submodule's name is not an export, so the import system loads it.
    from kregular import bounds
    assert bounds is importlib.import_module("kregular.bounds")


# ---------------------------------------------------------------------------
# Records: one row per record class, with its fields by keyword in order.

def _matches_two(m):
    return m == 2


def _double(m):
    return 2 * m


RECORDS = [
    (Sphere, {"m": 3}, "Sphere(m=3)"),
    (RealProj, {"m": 5}, "RealProj(m=5)"),
    (ComplexProj, {"m": 2}, "ComplexProj(m=2)"),
    (QuatProj, {"m": 2}, "QuatProj(m=2)"),
    (Euclid, {"m": 1}, "Euclid(m=1)"),
    (Product, {"factors": (Sphere(2), RealProj(3))},
     "Product(factors=(Sphere(m=2), RealProj(m=3)))"),
    (DualClassProfile,
     {"spec": RealProj(5), "top_degree": 2, "method": "closed-form"},
     "DualClassProfile(spec=RealProj(m=5), top_degree=2, "
     "method='closed-form')"),
    (DualClass, {"names": ("a1", "b2"), "terms": ((0, 0), (1, 0), (0, 1))},
     "DualClass(names=('a1', 'b2'), terms=((0, 0), (1, 0), (0, 1)))"),
    (RegularQuery, {"pieces": ((Sphere(3), 2),), "regime": "complex"},
     "RegularQuery(pieces=((Sphere(m=3), 2),), regime='complex')"),
    (ExistenceRecord, {"ambient_dim": 5, "source": "x"},
     "ExistenceRecord(ambient_dim=5, source='x')"),
    (BoundReport, {"bound": 7, "theorem": "Main Theorem I", "breakdown": (),
                   "construction": ExistenceRecord(9, "y")},
     "BoundReport(bound=7, theorem='Main Theorem I', breakdown=(), "
     "construction=ExistenceRecord(ambient_dim=9, source='y'))"),
    (BundleProfile, {"spec": Euclid(2), "points": 2, "regime": "real",
                     "top_degree": 1, "contribution": 3,
                     "is_lower_bound": False, "source": "s",
                     "theorem": "t", "union": None},
     "BundleProfile(spec=Euclid(m=2), points=2, regime='real', "
     "top_degree=1, contribution=3, is_lower_bound=False, source='s', "
     "theorem='t', union=None)"),
    (TableRow, {"label": "m = 2", "matches": _matches_two,
                "ambient": _double},
     f"TableRow(label='m = 2', matches={_matches_two!r}, "
     f"ambient={_double!r})"),
    (PieceRule, {"regime": "real", "kinds": (Sphere,),
                 "points": _matches_two, "where": None, "refusal": "r",
                 "lower": None, "construct": _double, "theorem": "t",
                 "union": None},
     f"PieceRule(regime='real', kinds=({Sphere!r},), "
     f"points={_matches_two!r}, where=None, refusal='r', lower=None, "
     f"construct={_double!r}, theorem='t', union=None)"),
    (VandermondeMap, {"k": 3}, "VandermondeMap(k=3)"),
    (SphereOneI, {"m": 2}, "SphereOneI(m=2)"),
    (DirectSum, {"parts": (VandermondeMap(2), SphereOneI(3))},
     "DirectSum(parts=(VandermondeMap(k=2), SphereOneI(m=3)))"),
    (GradedSeries, {"ring": SeriesRing([("a", 1), ("b", 2)], 3),
                    "terms": frozenset({(0, 0), (1, 1)})},
     "<series 1 + a*b in SeriesRing(a:1, b:2; trunc=3)>"),
    (Witness, {"trial": 4, "points": (((1, 2),),)},
     "Witness(trial=4, points=(((1, 2),),))"),
    (RegularityReport, {"example": VandermondeMap(2), "tuple_sizes": (2,),
                        "trials": 5, "seed": 0, "violations": 0,
                        "witnesses": (), "verdict": "no-violation-found",
                        "expected_violation": False},
     "RegularityReport(example=VandermondeMap(k=2), tuple_sizes=(2,), "
     "trials=5, seed=0, violations=0, witnesses=(), "
     "verdict='no-violation-found', expected_violation=False)"),
]


@pytest.mark.parametrize("cls, fields, shown", RECORDS,
                         ids=[cls.__name__ for cls, _, _ in RECORDS])
def test_record_value_semantics(cls, fields, shown):
    record = cls(**fields)
    values = tuple(fields.values())
    # Positional arguments follow the field order.
    twin = cls(*values)
    assert record == twin and not record != twin and record is not twin
    assert hash(record) == hash(twin)
    assert len({record, twin}) == 1
    assert repr(record) == shown
    # A record never equals the tuple of its fields.
    assert record != values and values != record
    for name, value in fields.items():
        assert getattr(record, name) == value
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert cls(**fields) == record
    # Copies and pickles rebuild through the constructor.
    for copied in (copy.copy(record), copy.deepcopy(record),
                   pickle.loads(pickle.dumps(record))):
        assert copied == record and type(copied) is cls


@pytest.mark.parametrize("cls, fields, shown", RECORDS,
                         ids=[cls.__name__ for cls, _, _ in RECORDS])
def test_record_signature_lists_its_fields(cls, fields, shown):
    parameters = inspect.signature(cls).parameters.values()
    assert tuple(p.name for p in parameters) == cls._fields
    defaults = {p.name: p.default for p in parameters
                if p.default is not p.empty}
    assert defaults == cls._defaults


@pytest.mark.parametrize("cls, fields, shown", RECORDS,
                         ids=[cls.__name__ for cls, _, _ in RECORDS])
def test_record_constructor_refuses_bad_arguments(cls, fields, shown):
    values = tuple(fields.values())
    first = cls._fields[0]
    missing = {name: value for name, value in fields.items()
               if name != first}
    for args, named in (((), missing), (values + (None,), {}),
                        ((), {**fields, "bogus": 1}),
                        (values, {first: values[0]})):
        with pytest.raises(TypeError):
            cls(*args, **named)


def test_records_of_different_classes_differ():
    records = [cls(**fields) for cls, fields, _ in RECORDS]
    assert all(a != b for i, a in enumerate(records)
               for b in records[i + 1:])
    # Same field values, different classes.
    same_m = [Sphere(3), RealProj(3), ComplexProj(3), QuatProj(3), Euclid(3),
              SphereOneI(3)]
    assert all(a != b for i, a in enumerate(same_m) for b in same_m[i + 1:])
    assert ExistenceRecord(5, "x") != (5, "x")
    assert Witness(5, "x") != ExistenceRecord(5, "x")


def test_record_defaults():
    pieces = ((Sphere(3), 2),)
    assert RegularQuery(pieces).regime == "real"
    assert RegularQuery(pieces) == RegularQuery(pieces, "real")
    assert BoundReport(7, "t", ()).construction is None
    assert not BoundReport(7, "t", ()).tight
    assert BoundReport(7, "t", (), ExistenceRecord(7, "y")).tight
    rule = PieceRule("real", (Sphere,), _matches_two)
    optional = ("where", "refusal", "lower", "construct", "theorem", "union")
    assert all(getattr(rule, name) is None for name in optional)
    assert rule == PieceRule("real", (Sphere,), _matches_two,
                             *[None] * len(optional))
    assert PieceRule("real", (Sphere,), _matches_two,
                     theorem="t").theorem == "t"


class _Base(Record):
    __slots__ = ("a",)


class _Extended(_Base):
    __slots__ = ("b",)
    _defaults = {"b": 0}


def test_record_subclass_sets_inherited_and_new_fields():
    # The subclass's generated constructor sets the base's slot through the
    # inherited member descriptor and its own through its own.
    assert _Extended._fields == ("a", "b")
    assert tuple(inspect.signature(_Extended).parameters) == ("a", "b")
    record = _Extended(1, 2)
    assert (record.a, record.b) == (1, 2)
    assert _Extended(1).b == 0
    assert _Base(1).a == 1 and not hasattr(_Base(1), "b")
    assert record != _Base(1)
    assert repr(record) == "_Extended(a=1, b=2)"
    for name in ("a", "b"):
        with pytest.raises(AttributeError):
            setattr(record, name, 3)
    for copied in (copy.copy(record), copy.deepcopy(record),
                   pickle.loads(pickle.dumps(record))):
        assert copied == record and type(copied) is _Extended
        assert (copied.a, copied.b) == (1, 2)


def test_record_defaults_must_trail():
    with pytest.raises(TypeError, match="only trailing fields"):
        class Leading(Record):
            __slots__ = ("a", "b")
            _defaults = {"a": None}
    with pytest.raises(TypeError, match="only trailing fields"):
        class Unknown(Record):
            __slots__ = ("a",)
            _defaults = {"b": None}


def test_record_refuses_a_written_constructor():
    with pytest.raises(TypeError, match="Written writes its own __init__"):
        class Written(Record):
            __slots__ = ("a",)

            def __init__(self, a):
                pass
    # A _check needs a field to return.
    with pytest.raises(TypeError, match="Fieldless has no fields to _check"):
        class Fieldless(Record):
            __slots__ = ()

            def _check(self):
                return ()


class _Checked(_Base):
    __slots__ = ("b",)
    _defaults = {"b": ()}

    def _check(self, a, b):
        if a < 0:
            raise ValueError(f"negative a: {a}")
        return a, tuple(b)


def test_record_check_normalises_before_storing():
    # The generated constructor passes every field, defaults included, in
    # field order to _check and stores what it returns.
    assert tuple(inspect.signature(_Checked).parameters) == ("a", "b")
    record = _Checked(1, [2, 3])
    assert (record.a, record.b) == (1, (2, 3))
    assert record == _Checked(b=(2, 3), a=1) and _Checked(1).b == ()
    with pytest.raises(ValueError, match="negative a: -1"):
        _Checked(-1)
    assert copy.deepcopy(record) == record


def test_record_validation_is_unchanged():
    # Validation runs in the constructor and normalizes the containers.
    for pieces, regime, message in (
            ((), "real", "a query needs at least one piece"),
            (((Sphere(3), 1),), "real",
             "piece (S^3, 1): point count must be an integer >= 2"),
            (((Sphere(3), 2),), "octonionic", "unknown regime 'octonionic'"),
            (((3, 2),), "real", "not a manifold spec: 3")):
        with pytest.raises(ValueError) as info:
            RegularQuery(pieces, regime)
        assert str(info.value) == message
    assert RegularQuery([[Sphere(3), 2]]).pieces == ((Sphere(3), 2),)
    for factors, message in (((), "empty product"),
                             ((Sphere(2),), "a product needs at least two "
                                            "factors, got S^2 alone"),
                             ((Sphere(2), 3), "not a manifold spec: 3")):
        with pytest.raises(ValueError) as info:
            Product(factors)
        assert str(info.value) == message
    nested = Product((Product((Sphere(2), RealProj(3))), Euclid(1)))
    assert nested.factors == (Sphere(2), RealProj(3), Euclid(1))
    for parts, message in (((), "empty direct sum"),
                           ((Sphere(2),), "not a summable map: "
                                          "Sphere(m=2)")):
        with pytest.raises(ValueError) as info:
            DirectSum(parts)
        assert str(info.value) == message
    assert DirectSum([VandermondeMap(2)]).parts == (VandermondeMap(2),)
    with pytest.raises(ValueError, match="need an integer k >= 2, got 1"):
        VandermondeMap(1)
    with pytest.raises(ValueError, match="need an integer m >= 2, got 1"):
        SphereOneI(1)
