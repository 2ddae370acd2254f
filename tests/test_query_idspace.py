"""Tests for the dense annotation-id interner."""

from repro.query.idspace import AnnotationIdSpace


def test_intern_assigns_dense_slots():
    space = AnnotationIdSpace()
    assert space.intern("a") == 0
    assert space.intern("b") == 1
    assert space.intern("a") == 0  # idempotent
    assert len(space) == 2
    assert "a" in space and "c" not in space
    assert space.slot("b") == 1
    assert space.id_at(1) == "b"
    assert space.id_at(99) is None


def test_release_recycles_slots():
    space = AnnotationIdSpace()
    for name in "abc":
        space.intern(name)
    assert space.release("b") is True
    assert space.release("b") is False
    assert space.slot("b") is None
    assert space.id_at(1) is None
    # The freed slot is reused before new slots are appended.
    assert space.intern("d") == 1
    assert space.intern("e") == 3


def test_membership_tracks_intern_and_release():
    space = AnnotationIdSpace()
    for name in "abcd":
        space.intern(name)
    assert len(space) == 4
    space.release("c")
    assert len(space) == 3
    assert [name for name in "abcd" if name in space] == ["a", "b", "d"]
