"""Tests for the exception hierarchy."""

import pytest

from repro import errors


def test_all_errors_derive_from_base():
    base = errors.GraphittiError
    for name in dir(errors):
        obj = getattr(errors, name)
        if isinstance(obj, type) and issubclass(obj, Exception):
            assert issubclass(obj, base), name


def test_subsystem_hierarchy():
    assert issubclass(errors.XmlParseError, errors.XmlStoreError)
    assert issubclass(errors.XPathError, errors.XmlStoreError)
    assert issubclass(errors.CoordinateSystemError, errors.SpatialError)
    assert issubclass(errors.UnknownTermError, errors.OntologyError)
    assert issubclass(errors.UnknownNodeError, errors.AGraphError)
    assert issubclass(errors.QuerySyntaxError, errors.QueryError)
    assert issubclass(errors.UnknownObjectError, errors.AnnotationError)


def test_catch_base_catches_all():
    for exc_type in (
        errors.UnknownObjectError,
        errors.XPathError,
        errors.SpatialError,
        errors.OntologyError,
        errors.QuerySyntaxError,
    ):
        with pytest.raises(errors.GraphittiError):
            raise exc_type("boom")


def test_distinct_subsystems_are_unrelated():
    assert not issubclass(errors.XmlStoreError, errors.SpatialError)
    assert not issubclass(errors.QueryError, errors.OntologyError)
