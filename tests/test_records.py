"""The contract of the library's immutable records.

Every record compares equal to a record of the same class with equal
fields and hashes alike, differs from its field tuple and from records of
other classes, refuses assignment and deletion, and keeps the shape and
consistency checks of its constructor.
"""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction

import pytest

from arrlevels import faces
from arrlevels.config import VectorConfig, gen_cocyclic, gen_cyclic, new_config
from arrlevels.errors import DimensionError, InconsistentInputError
from arrlevels.exactnum import Mat, _Record
from arrlevels.faces import FMatrix, FStarMatrix
from arrlevels.gmatrix import GMatrix, SmallGMatrix
from arrlevels.motion import MotionPath, MutationEvent
from arrlevels.poly2 import BiPoly
from arrlevels.relations import RelationReport
from arrlevels.span import SpanReport
from arrlevels.unipoly import UniPoly

_EVENT = ((1, 2, 3), (Fraction(1, 4), Fraction(1, 2)), (1, 1), (1, -1))

# record class -> (its field names, a function building a fresh record)
RECORDS = {
    Mat: (("nrows", "ncols", "entries"), lambda: Mat.from_rows([[1, 2], ["1/2", 4]])),
    UniPoly: (("coeffs",), lambda: UniPoly.make([1, -5, 6])),
    VectorConfig: (("r", "n", "mat"), lambda: gen_cyclic(5, 3)),
    FMatrix: (("d", "n", "rows"), lambda: FMatrix(1, 2, ((1, 2, 3), (4, 5, 6)))),
    FStarMatrix: (("r", "n", "rows"), lambda: FStarMatrix(1, 1, ((0, 0), (1, 2)))),
    RelationReport: (("relation", "holds", "witness"), lambda: RelationReport("ds", False, "row 1")),
    BiPoly: (("terms",), lambda: BiPoly({(1, 0): Fraction(1), (0, 2): Fraction(-3, 2)})),
    GMatrix: (("r", "n", "rows"), lambda: GMatrix(2, 4, ((0, 1, 0), (0, 0, 0), (0, -1, 0)))),
    SmallGMatrix: (("r", "n", "rows"), lambda: SmallGMatrix(3, 6, ((0, 0), (1, 2)))),
    MutationEvent: (("subset", "interval", "type_jk", "sign_flip"), lambda: MutationEvent(*_EVENT)),
    MotionPath: (
        ("start", "end", "events"),
        lambda: MotionPath(gen_cocyclic(5, 3), gen_cyclic(5, 3), (MutationEvent(*_EVENT),)),
    ),
    SpanReport: (
        ("n", "r", "mode", "samples_used", "achieved_rank", "theoretical_dim", "basis_seeds"),
        lambda: SpanReport(7, 3, "general", 10, 4, 4, ("1", "2", "3", "4")),
    ),
}

CLASSES = list(RECORDS)


def test_all_twelve_records_are_covered():
    assert len(CLASSES) == 12


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_record_contract(cls):
    names, make = RECORDS[cls]
    a, b = make(), make()
    assert type(a) is cls and a is not b
    # equal fields: equal records with equal hashes
    assert a == b and not a != b
    assert hash(a) == hash(b)
    # neither the field tuple nor a record of another class is equal
    fields = tuple(getattr(a, name) for name in names)
    assert a != fields and fields != a
    other = RECORDS[CLASSES[(CLASSES.index(cls) + 1) % len(CLASSES)]][1]()
    assert a != other and other != a
    # no field can be assigned or deleted
    for name in names:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(b, name))
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == b
    # the repr lists the fields, and pickling rebuilds an equal record
    assert repr(a) == f"{cls.__name__}(" + ", ".join(f"{n}={getattr(a, n)!r}" for n in names) + ")"
    assert pickle.loads(pickle.dumps(a)) == a


def test_records_with_equal_fields_but_different_classes_differ():
    rows = ((0, 0), (1, 2))
    assert FMatrix(1, 1, rows) != FStarMatrix(1, 1, rows)


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: Mat(-1, 0, ()), DimensionError),
        (lambda: Mat(2, 1, ((Fraction(1),),)), DimensionError),
        (lambda: Mat(2, 2, ((Fraction(1), Fraction(2)), (Fraction(3),))), DimensionError),
        (lambda: FMatrix(1, 2, ((1, 2, 3),)), DimensionError),
        (lambda: FMatrix(1, 2, ((1, 2, 3), (4, 5))), DimensionError),
        (lambda: FStarMatrix(2, 2, ((0, 0), (0, 0))), DimensionError),
        (lambda: GMatrix(2, 4, ((0, 0, 0), (0, 0, 0))), DimensionError),
        (lambda: SmallGMatrix(3, 6, ((0, 0),)), DimensionError),
        (lambda: RelationReport("ds", True, "row 1"), InconsistentInputError),
        (lambda: SpanReport(7, 3, "general", 10, 5, 4, ()), InconsistentInputError),
    ],
)
def test_constructor_checks_raise_typed_errors(build, error):
    with pytest.raises(error):
        build()


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_positional_and_keyword_construction_agree(cls):
    names, make = RECORDS[cls]
    a = make()
    fields = [getattr(a, name) for name in names]
    assert cls(*fields) == a
    assert cls(**dict(reversed(list(zip(names, fields))))) == a  # keywords in any order
    assert cls(*fields[:1], **dict(zip(names[1:], fields[1:]))) == a
    # an unknown field, by keyword or by position, is a TypeError
    with pytest.raises(TypeError):
        cls(*fields, extra=None)
    with pytest.raises(TypeError):
        cls(*fields, None)
    # so is a missing one; BiPoly alone defaults its only field
    if cls is not BiPoly:
        with pytest.raises(TypeError):
            cls(**dict(zip(names[1:], fields[1:])))


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: Mat(2, 1, ((Fraction(1),),)), DimensionError),
        (lambda: FMatrix(1, 2, ((1, 2, 3),)), DimensionError),
        (lambda: FStarMatrix(2, 2, ((0, 0), (0, 0))), DimensionError),
        (lambda: GMatrix(2, 4, ((0, 0, 0), (0, 0, 0))), DimensionError),
        (lambda: SmallGMatrix(3, 6, ((0, 0),)), DimensionError),
        (lambda: RelationReport("ds", True, "row 1"), InconsistentInputError),
        (lambda: SpanReport(7, 3, "general", 10, 5, 4, ()), InconsistentInputError),
    ],
)
def test_checks_raise_before_any_field_is_stored(monkeypatch, build, error):
    stored = []
    monkeypatch.setattr(_Record, "__init__", lambda self, *args, **kwargs: stored.append(args))
    with pytest.raises(error):
        build()
    assert stored == []


def test_defaults_and_keyword_construction():
    assert RelationReport("totals", True) == RelationReport("totals", True, None)
    assert RelationReport("totals", True).witness is None
    assert BiPoly().terms == {} and BiPoly() == BiPoly.zero()
    # zero coefficients are dropped on construction
    assert BiPoly({(0, 0): Fraction(0), (1, 0): Fraction(2)}).terms == {(1, 0): Fraction(2)}
    v, w = gen_cocyclic(5, 3), gen_cyclic(5, 3)
    path = MotionPath(start=v, end=w, events=())
    assert (path.start, path.end, path.events) == (v, w, ())
    assert path == MotionPath(v, w, ())


def test_f_matrix_cache_hits_an_equal_distinct_configuration():
    entries = [[1, 0], [0, 1], [1, 1], [1, 2]]  # columns
    v, w = new_config(2, 4, entries), new_config(2, 4, entries)
    assert v == w and v is not w and hash(v) == hash(w)
    fm = faces.f_matrix(v)
    hits = faces.f_matrix.cache_info().hits
    assert faces.f_matrix(w) is fm
    assert faces.f_matrix.cache_info().hits == hits + 1


def test_configuration_hash_is_stored_once_and_survives_pickle_and_copy(monkeypatch):
    v, w = gen_cyclic(5, 3), gen_cyclic(5, 3)
    h = hash(v)
    assert hash(w) == h
    # the stored hash is read back without hashing the matrix again
    monkeypatch.setattr(Mat, "__hash__", lambda self: 1 / 0)
    assert hash(v) == h
    monkeypatch.undo()
    for u in (pickle.loads(pickle.dumps(v)), copy.copy(v), copy.deepcopy(v)):
        assert u == v and hash(u) == h
    assert VectorConfig.__slots__ == ("r", "n", "mat")
