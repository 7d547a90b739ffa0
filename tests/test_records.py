"""The value classes are frozen records: ``dataclasses.fields`` and
``replace``, which the bench's tracer and the tests use, answer as on the
frozen dataclass of the same fields, assignment and deletion raise
``AttributeError``, copying and pickling raise ``TypeError``, and
equality, hashing and ``repr`` read the fields."""

import copy
import dataclasses
import pickle
from fractions import Fraction as F
from functools import lru_cache
from types import SimpleNamespace

import pytest

from brocard.checks import Assertion, CheckResult, SuiteReport, run_suite
from brocard.geom import Circle, ComplexScalar, InverseSimilarity, Line, Point, Triangle
from brocard.pipeline import ClassicalOverlay, Configuration, compute_configuration
from brocard.scene import KwonScene, Scene, SceneParams, classical_brocard_scene, generate_scene, kwon_scene


@lru_cache(maxsize=None)
def values():
    """One value of each record class, from a generated and a classical scene."""
    scene = generate_scene(SceneParams(seed=7))
    cfg = compute_configuration(scene)
    report = run_suite(scene)
    result = report.results[1]
    return {
        Point: Point(F(1, 2), -3),
        ComplexScalar: ComplexScalar(2, F(-5, 7)),
        Line: Line(2, -4, 6),
        Circle: Circle(F(1, 3), 0, -2),
        Triangle: scene.triangle,
        InverseSimilarity: cfg.similarity,
        Scene: scene,
        SceneParams: SceneParams(seed=7, radius="3/2"),
        KwonScene: kwon_scene(7),
        Configuration: cfg,
        ClassicalOverlay: compute_configuration(classical_brocard_scene(0, 1, 3)).overlay,
        Assertion: result.assertions[0],
        CheckResult: result,
        SuiteReport: report,
    }


RECORDS = [
    Point, ComplexScalar, Line, Circle, Triangle, InverseSimilarity, Scene, SceneParams,
    KwonScene, Configuration, ClassicalOverlay, Assertion, CheckResult, SuiteReport,
]

#: The classes whose constructor takes views of the stored tuple, not the field.
VIEW_CONSTRUCTED = (Point, ComplexScalar, Circle)

#: The classes that print their own form instead of the dataclass one.
OWN_REPR = (Point, Line, Circle)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_keeps_the_dataclass_protocol(cls):
    value = values()[cls]
    assert type(value) is cls
    names = [f.name for f in dataclasses.fields(value)]
    assert names == list(cls.__annotations__) == [f.name for f in dataclasses.fields(cls)]

    if issubclass(cls, VIEW_CONSTRUCTED):
        with pytest.raises(TypeError):
            dataclasses.replace(value)
        same = cls(*(getattr(value, view) for view in ("x", "y", "re", "im", "d", "e", "f") if hasattr(value, view)))
    else:
        same = dataclasses.replace(value)
    assert same == value and same is not value and hash(same) == hash(value)
    stored = tuple(getattr(value, name) for name in names)
    assert hash(value) == hash(stored) and value != SimpleNamespace(**dict(zip(names, stored)))

    for name in names:
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError, match="cannot delete"):
            delattr(value, name)
        assert getattr(value, name) == getattr(same, name)

    if cls in OWN_REPR:
        assert repr(value).startswith(f"{cls.__name__}(") and "=" not in repr(value)
    else:
        fields = ", ".join(f"{name}={getattr(value, name)!r}" for name in names)
        assert repr(value) == f"{cls.__qualname__}({fields})"


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_refuses_copy_and_pickle(cls):
    """A record is an immutable value, shared rather than copied: a copy of
    a slotted record would go through the frozen ``__setattr__``, and one of
    a ``__dict__`` record would carry its caches."""
    value = values()[cls]
    message = f"^{cls.__qualname__} is an immutable value: share it instead of copying or pickling it$"
    for duplicate in (copy.copy, copy.deepcopy, pickle.dumps):
        with pytest.raises(TypeError, match=message):
            duplicate(value)


@pytest.mark.parametrize(
    "cls", [cls for cls in RECORDS if not issubclass(cls, VIEW_CONSTRUCTED)], ids=lambda cls: cls.__name__
)
def test_record_constructor_rejects_bad_arguments(cls):
    """A missing, unknown or repeated field, or one positional argument too
    many, is a ``TypeError``, as for the dataclass constructor."""
    value = values()[cls]
    fields = {f.name: getattr(value, f.name) for f in dataclasses.fields(cls)}
    first = next(iter(fields))
    assert cls(**fields) == value
    with pytest.raises(TypeError):
        cls(**{name: v for name, v in fields.items() if name != first})
    with pytest.raises(TypeError):
        cls(**fields, no_such_field=1)
    with pytest.raises(TypeError):
        cls(fields[first], **fields)
    with pytest.raises(TypeError):
        cls(*fields.values(), None)


def test_scene_params_default_center_and_post_init():
    """A ``SceneParams`` without a center is centered at the origin, its
    ``__post_init__`` coerces the radius to a Fraction, and a nonpositive
    radius is a ``ValueError``."""
    params = SceneParams(seed=1)
    assert params.center == Point(0, 0) and params.radius == 1 and type(params.radius) is F
    center = next(f for f in dataclasses.fields(SceneParams) if f.name == "center")
    assert center.default == Point(0, 0)
    assert SceneParams(seed=1, radius="1/2").radius == F(1, 2)
    with pytest.raises(ValueError, match="radius must be positive"):
        SceneParams(seed=1, radius=0)
