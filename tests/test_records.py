"""The library's frozen record classes, each built by ``records.record``.

Every record keeps the behaviour it had as a frozen dataclass: positional
construction, validation, equality and hashing over the field tuple, a
``Name(field=value, ...)`` repr, and read-only fields.  Keyword arguments
and field defaults are gone: every field is passed, in order.
"""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

from copocert.census import Candidate, CensusRecord, EquivalenceReport
from copocert.copositivity import CopositivityVerdict, Zero, is_copositive
from copocert.extremality import ExtremalityCertificate, ExtremalitySystem
from copocert.linalg import AffineSolutionSet, SymMatrix
from copocert.scaling import DiagonalScaling, ScalingDecomposition
from copocert.structure_graph import ComponentReport, GraphComponent, StructureGraph

F = Fraction

SRC = Path(__file__).resolve().parents[1] / "src" / "copocert"

PAIR = ((1, -1), (-1, 1))
SYSTEM_FIELDS = (2, ((0, 0), (0, 1)), (((0, 1), (1, 1)), ((1, 1), (2, 1))))
SYSTEM = ExtremalitySystem(*SYSTEM_FIELDS)
SCALING = DiagonalScaling((F(1), F(2)))
COMPONENT = GraphComponent(((0, 0), (0, 1)), True, (((0, 0),), ((0, 1),)))

# class, field names, the fields of one instance, and further instances
# that differ from it in at least one field (in every field between them)
CASES = [
    (SymMatrix, ("integer_form",), ((PAIR, 1),),
     [((((1, 0), (0, 1)), 1),), ((PAIR, 2),)]),
    (AffineSolutionSet, ("dimension", "particular", "kernel"),
     (1, (F(0), F(0)), ((F(1), F(1)),)),
     [(2, (F(0), F(0)), ((F(1), F(1)),)), (1, None, ((F(1), F(1)),)),
      (1, (F(0), F(0)), ((F(1), F(-1)),))]),
    (Zero, ("point",), ((1, 1),), [((1, 2),)]),
    (CopositivityVerdict, ("copositive", "violator", "simplex_minimum", "zeros"),
     (True, None, F(0), (Zero((1, 1)),)),
     [(False, None, F(0), (Zero((1, 1)),)),
      (True, (F(1), F(0)), F(0), (Zero((1, 1)),)),
      (True, None, F(1), (Zero((1, 1)),)), (True, None, F(0), ())]),
    (ExtremalitySystem, ("order", "gates", "rows"), SYSTEM_FIELDS,
     [(3,) + SYSTEM_FIELDS[1:], (2, ((0, 1), (0, 0)), SYSTEM_FIELDS[2]),
      (2, SYSTEM_FIELDS[1], ((0, 1),))]),
    (ExtremalityCertificate, ("nullity", "extremal", "system", "minimal_zeros"),
     (1, True, SYSTEM, (Zero((1, 1)),)),
     [(2, True, SYSTEM, (Zero((1, 1)),)), (1, False, SYSTEM, (Zero((1, 1)),)),
      (1, True, ExtremalitySystem(2, (), ()), (Zero((1, 1)),)),
      (1, True, SYSTEM, ())]),
    (DiagonalScaling, ("entries",), ((F(1), F(2)),), [((F(1), F(3)),)]),
    (ScalingDecomposition, ("pattern", "scaling"),
     (SymMatrix.from_integer_rows(PAIR), SCALING),
     [(SymMatrix.from_integer_rows(PAIR), None),
      (SymMatrix.from_integer_rows([[1, 0], [0, 1]]), SCALING)]),
    (StructureGraph, ("order", "edges"), (2, (((0, 0), (0, 1)),)),
     [(3, (((0, 0), (0, 1)),)), (2, ())]),
    (GraphComponent, ("vertices", "bipartite", "classes"),
     (((0, 0), (0, 1)), True, (((0, 0),), ((0, 1),))),
     [(((0, 0), (1, 1)), True, (((0, 0),), ((0, 1),))),
      (((0, 0), (0, 1)), False, (((0, 0),), ((0, 1),))),
      (((0, 0), (0, 1)), True, None)]),
    (ComponentReport, ("order", "components", "bipartite_count"),
     (2, (COMPONENT,), 1),
     [(3, (COMPONENT,), 1), (2, (), 1), (2, (COMPONENT,), 0)]),
    (Candidate, ("order", "offdiag"), (2, (-1,)),
     [(2, (0,)), (3, (0, 0, 0))]),
    (CensusRecord, ("order", "canonical_offdiag", "copositive", "extremal",
                    "minimal_supports", "orbit_size"),
     (2, (-1,), True, True, ((0, 1),), 1),
     [(3, (-1,), True, True, ((0, 1),), 1), (2, (0,), True, True, ((0, 1),), 1),
      (2, (-1,), False, True, ((0, 1),), 1), (2, (-1,), True, False, ((0, 1),), 1),
      (2, (-1,), True, True, (), 1), (2, (-1,), True, True, ((0, 1),), 2)]),
    (EquivalenceReport, ("order", "supports", "pair_supports", "decomposition",
                         "pattern_nullity", "scaled_extremal_pattern"),
     (2, ((0, 1),), True, None, None, True),
     [(3, ((0, 1),), True, None, None, True), (2, (), True, None, None, True),
      (2, ((0, 1),), False, None, None, True),
      (2, ((0, 1),), True, ScalingDecomposition(
          SymMatrix.from_integer_rows(PAIR), None), None, True),
      (2, ((0, 1),), True, None, 1, True), (2, ((0, 1),), True, None, None, False)]),
]

IDS = [case[0].__name__ for case in CASES]


def _record_classes():
    """The name of every class in the library decorated with ``@record``."""
    return {node.name for path in SRC.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ClassDef)
            and any(isinstance(d, ast.Name) and d.id == "record"
                    for d in node.decorator_list)}


def test_every_record_class_is_covered():
    assert set(IDS) == _record_classes()
    assert len(IDS) == len(set(IDS))
    for cls, names, fields, others in CASES:
        assert len(names) == len(fields)
        assert all(len(other) == len(fields) for other in others)
        # between them the other instances change every field
        assert {i for other in others for i, (a, b)
                in enumerate(zip(fields, other)) if a != b} == set(range(len(names)))


@pytest.mark.parametrize("cls, names, fields, others", CASES, ids=IDS)
class TestRecord:
    def test_positional_and_keyword_construction(self, cls, names, fields, others):
        # positional construction only: keywords, for every field or for
        # the last one after the others, are refused
        obj = cls(*fields)
        assert tuple(getattr(obj, name) for name in names) == fields
        with pytest.raises(TypeError, match="keyword argument"):
            cls(**dict(zip(names, fields)))
        with pytest.raises(TypeError, match="keyword argument"):
            cls(*fields[:-1], **{names[-1]: fields[-1]})

    def test_equality_and_hash_follow_class_and_fields(self, cls, names, fields,
                                                       others):
        obj = cls(*fields)
        twin = cls(*fields)
        assert obj == twin and not obj != twin
        # the hash of the field tuple, as it was under dataclasses, so sets
        # of records iterate in the same order
        assert hash(obj) == hash(twin) == hash(fields)
        for other in others:
            assert obj != cls(*other) and not obj == cls(*other)
        sub = type("Sub", (cls,), {})(*fields)
        assert obj != sub and sub != obj
        assert obj != fields and fields != obj

    def test_repr_names_every_field(self, cls, names, fields, others):
        text = ", ".join(f"{name}={value!r}" for name, value in zip(names, fields))
        assert repr(cls(*fields)) == f"{cls.__qualname__}({text})"

    def test_fields_are_read_only(self, cls, names, fields, others):
        obj = cls(*fields)
        for name in (*names, "new_attribute"):
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
            with pytest.raises(AttributeError):
                delattr(obj, name)
        assert tuple(getattr(obj, name) for name in names) == fields

    def test_wrong_arguments_raise_type_error(self, cls, names, fields, others):
        with pytest.raises(TypeError, match="positional arguments"):
            cls(*fields, None)
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            cls(*fields, no_such_field=None)
        with pytest.raises(TypeError, match="keyword argument"):
            cls(*fields, **{names[0]: fields[0]})
        with pytest.raises(TypeError, match="positional argument"):
            cls(*fields[:-1])
        with pytest.raises(TypeError, match="positional argument"):
            cls()


def test_verdict_zeros_default_to_empty():
    # no field default: every verdict without zeros is built with (), by
    # the prefilter, on a violator and on a positive minimum
    for rows in ([[-1]], [[1, -2], [-2, 1]], [[1, 0], [0, 1]]):
        verdict = is_copositive(SymMatrix.from_rows(rows))
        assert verdict.zeros == ()
    with pytest.raises(TypeError):
        CopositivityVerdict(True, None, F(0))


@pytest.mark.parametrize("build", [
    lambda: SymMatrix((((1,), (1,)), 1)),       # not square
    lambda: SymMatrix((((1, 2), (3, 1)), 1)),   # asymmetric
    lambda: SymMatrix((((2, 0), (0, 2)), 2)),   # not in lowest terms
    lambda: SymMatrix((((F(1),),), 1)),         # not int entries
    lambda: Candidate(3, (0, 0)),               # too few entries
    lambda: Candidate(2, (2,)),                 # outside the alphabet
    lambda: DiagonalScaling((F(1), F(0))),      # not positive
    lambda: DiagonalScaling((F(-1),)),          # negative
])
def test_validation_still_raises_value_error(build):
    with pytest.raises(ValueError):
        build()

