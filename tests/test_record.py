"""Every record class against a ``dataclasses`` twin of the same class body.

The twin is ``@dataclass(frozen=True[, order=True])`` applied to a copy of
the class without the methods `rtflab._record.record` generated.  Both are
built from the same field values, positionally, by keyword, and with the
defaulted fields left out, and must agree on the fields, ``==``, ``hash``,
ordering, ``repr`` and on refusing assignment and deletion.
"""

import dataclasses
import importlib
import itertools
import pkgutil

import numpy as np
import pytest

import rtflab
from rtflab import characters, checks, empirical, fields, lfunctions, local_factors, measures
from rtflab import quadrature

_GENERATED = {"__init__", "__setattr__", "__delattr__", "__eq__", "__hash__", "__repr__",
              "__lt__", "__le__", "__gt__", "__ge__"}
_ORDERED = {fields.ArchimedeanPlace, fields.FinitePlace}

P2 = fields.RATIONALS.place_for_prime(2)
P3 = fields.RATIONALS.place_for_prime(3)
CHI5 = characters.DirichletCharacter.quadratic(5)


def _samples():
    """Instances of each record class, two per class at least, built the way
    the library builds them."""
    level = fields.LevelIdeal.from_integer(360)
    real_quadratic = fields.FieldProfile(
        2, 5, (fields.ArchimedeanPlace("inf"), fields.ArchimedeanPlace("inf1")),
        (fields.FinitePlace("p2", 4), fields.FinitePlace("p5", 5, 1)),
    )
    return {
        characters._UnitGroup: [characters.unit_group(1), characters.unit_group(12),
                                characters.unit_group(40)],
        characters.DirichletCharacter: [CHI5, characters.DirichletCharacter(5, (6,)),
                                        characters.DirichletCharacter.trivial(),
                                        characters.DirichletCharacter.quadratic(8)],
        checks.CheckResult: [checks.CheckResult("a", True, 1e-17, 1e-12),
                             checks.CheckResult("b", False, 0.5, 0.1, "detail")],
        empirical.EmpiricalSample: [
            empirical.EmpiricalSample(np.array([1, 2]), np.array([2, 3]), np.array([0.5, -1.0]),
                                      np.array([1.0, 2.0])),
            empirical.EmpiricalSample(np.array([], dtype=np.int64), np.array([], dtype=np.int64),
                                      np.array([]), np.array([])),
        ],
        fields.ArchimedeanPlace: [fields.ArchimedeanPlace("inf"), fields.ArchimedeanPlace("inf1")],
        fields.FinitePlace: [P2, P3, fields.FinitePlace("p2", 4), fields.FinitePlace("p5", 5, 1)],
        fields.FieldProfile: [fields.RATIONALS, real_quadratic],
        fields.LevelIdeal: [level, fields.LevelIdeal.unit(), fields.LevelIdeal(tuple(reversed(level.factors)))],
        lfunctions.LaurentData: [lfunctions.laurent_at_1(characters.DirichletCharacter.trivial()),
                                 lfunctions.LaurentData(1.0, 0.5, -0.25)],
        lfunctions.EdgeCoefficients: [lfunctions.EdgeCoefficients(1.0, 0.5, -0.25),
                                      lfunctions.EdgeCoefficients(0.0, -0.0, 2.0)],
        local_factors.Spherical: [local_factors.Spherical(0.5 + 0.5j), local_factors.Spherical(1.0)],
        local_factors.Special: [local_factors.Special(1), local_factors.Special(-1)],
        local_factors.HigherConductor: [local_factors.HigherConductor(2), local_factors.HigherConductor(5)],
        measures.Density: [measures.sato_tate(), measures.plancherel(3, -1)],
        quadrature.QuadratureResult: [quadrature.QuadratureResult(1.0, 1e-12, 3),
                                      quadrature.QuadratureResult(0.5, 0.0, 0)],
    }


SAMPLES = _samples()
CLASSES = list(SAMPLES)


def _twin(cls):
    body = {k: v for k, v in vars(cls).items() if k not in _GENERATED | {"__dict__", "__weakref__"}}
    return dataclasses.dataclass(frozen=True, order=cls in _ORDERED)(type(cls.__name__, (), body))


TWINS = {cls: _twin(cls) for cls in CLASSES}


def _names(cls):
    return list(vars(cls)["__annotations__"])


def _values(obj):
    return [getattr(obj, n) for n in _names(type(obj))]


def _outcome(fn):
    """What ``fn()`` returns, or the type of what it raises (numpy fields
    make some hashes and comparisons raise, the same way for both)."""
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - the exception type is the outcome
        return type(exc)


def _pairs(cls):
    """(record, twin) instances built from each sample's field values."""
    twin = TWINS[cls]
    return [(cls(*_values(obj)), twin(*_values(obj))) for obj in SAMPLES[cls]]


def test_every_record_class_has_samples():
    found = set()
    for info in pkgutil.iter_modules(rtflab.__path__):
        module = importlib.import_module(f"rtflab.{info.name}")
        for obj in vars(module).values():
            init = getattr(obj, "__init__", None)
            if isinstance(obj, type) and getattr(init, "__code__", None) is not None \
                    and init.__code__.co_filename.startswith("<record "):
                found.add(obj)
    assert found == set(CLASSES)
    assert len(CLASSES) == 15


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
class TestAgainstDataclass:
    def test_construction(self, cls):
        twin = TWINS[cls]
        names = _names(cls)
        required = [n for n in names if n not in vars(cls)]
        for obj in SAMPLES[cls]:
            values = _values(obj)
            kwargs = dict(zip(names, values))
            built = [cls(*values), cls(**kwargs), cls(**{n: kwargs[n] for n in required})]
            twins = [twin(*values), twin(**kwargs), twin(**{n: kwargs[n] for n in required})]
            for rec, dc in zip(built, twins):
                assert repr(rec) == repr(dc)
                for a, b in zip(_values(rec), _values(dc)):
                    assert a is b or a == b
            assert repr(built[0]) == repr(obj)

    def test_construction_errors(self, cls):
        twin = TWINS[cls]
        if any(n not in vars(cls) for n in _names(cls)):
            assert _outcome(cls) is _outcome(twin) is TypeError
        values = _values(SAMPLES[cls][0])
        assert _outcome(lambda: cls(*values, None)) is _outcome(lambda: twin(*values, None)) is TypeError
        assert _outcome(lambda: cls(*values, bogus=1)) is _outcome(lambda: twin(*values, bogus=1))

    def test_eq_and_hash_within_the_class(self, cls):
        pairs = _pairs(cls)
        for (a, a_dc), (b, b_dc) in itertools.product(pairs, repeat=2):
            assert _outcome(lambda: a == b) == _outcome(lambda: a_dc == b_dc)
            assert _outcome(lambda: a != b) == _outcome(lambda: a_dc != b_dc)
        for rec, dc in pairs:
            assert _outcome(lambda: hash(rec)) == _outcome(lambda: hash(dc))
            assert rec.__eq__(dc) is NotImplemented and dc.__eq__(rec) is NotImplemented
            assert rec != dc

    def test_eq_across_classes(self, cls):
        rec, dc = _pairs(cls)[0]
        for other in CLASSES:
            if other is cls:
                continue
            other_rec, other_dc = _pairs(other)[0]
            assert (rec == other_rec) is (dc == other_dc) is False
            assert rec.__eq__(other_rec) is NotImplemented

    def test_order(self, cls):
        pairs = _pairs(cls)
        rec, dc = pairs[0]
        for (a, a_dc), (b, b_dc) in itertools.product(pairs, repeat=2):
            for op in ("__lt__", "__le__", "__gt__", "__ge__"):
                assert _outcome(lambda: getattr(a, op)(b)) == _outcome(lambda: getattr(a_dc, op)(b_dc))
        other_rec, other_dc = _pairs(fields.LevelIdeal if cls is not fields.LevelIdeal else local_factors.Special)[0]
        assert _outcome(lambda: rec < other_rec) is _outcome(lambda: dc < other_dc) is TypeError
        if cls in _ORDERED:
            index = range(len(pairs))
            assert sorted(index, key=lambda i: pairs[i][0]) == sorted(index, key=lambda i: pairs[i][1])

    def test_frozen(self, cls):
        for rec, dc in _pairs(cls):
            for name in (_names(cls)[0], "not_a_field"):
                for obj in (rec, dc):
                    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                        setattr(obj, name, 1)
                    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                        delattr(obj, name)
            assert repr(rec) == repr(dc)
