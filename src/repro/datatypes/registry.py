"""Registry of data objects known to a Graphitti instance.

"The search window [contains] a menu button for each kind of data registered
to the system."  The :class:`DataTypeRegistry` is that catalogue: it stores
every registered :class:`~repro.datatypes.base.DataObject`, indexes them by
type, and knows the coordinate domain/space each object's marks live in so the
core manager can route substructure marks to the right index.
"""

from __future__ import annotations

from typing import Iterator

from repro.datatypes.base import DataObject, DataType
from repro.errors import UnknownObjectError


class DataTypeRegistry:
    """Catalogue of registered data objects, grouped by :class:`DataType`."""

    def __init__(self) -> None:
        self._objects: dict[str, DataObject] = {}
        self._by_type: dict[DataType, set[str]] = {data_type: set() for data_type in DataType}

    def __len__(self) -> int:
        return len(self._objects)

    def __contains__(self, object_id: str) -> bool:
        return object_id in self._objects

    def __iter__(self) -> Iterator[DataObject]:
        return iter(self._objects.values())

    def register(self, obj: DataObject) -> DataObject:
        """Register a data object (raises on duplicate id)."""
        if obj.object_id in self._objects:
            raise UnknownObjectError(f"data object {obj.object_id!r} already registered")
        self._objects[obj.object_id] = obj
        self._by_type[obj.data_type].add(obj.object_id)
        return obj

    def unregister(self, object_id: str) -> DataObject:
        """Remove a registered data object and return it (raises when absent).

        Only the catalogue entry is dropped; callers (the manager's
        ``delete_object``) are responsible for cascading through annotations
        and the metadata row.
        """
        obj = self._objects.pop(object_id, None)
        if obj is None:
            raise UnknownObjectError(f"no data object {object_id!r} registered")
        self._by_type[obj.data_type].discard(object_id)
        return obj

    def get(self, object_id: str) -> DataObject:
        """The registered object with id *object_id* (raises when absent)."""
        try:
            return self._objects[object_id]
        except KeyError:
            raise UnknownObjectError(f"no data object {object_id!r} registered") from None

    def of_type(self, data_type: DataType) -> list[DataObject]:
        """All registered objects of a given type."""
        return [self._objects[object_id] for object_id in sorted(self._by_type[data_type])]

    def types_present(self) -> list[DataType]:
        """Data types that have at least one registered object."""
        return [data_type for data_type, ids in self._by_type.items() if ids]

    def count_by_type(self) -> dict[DataType, int]:
        """Number of registered objects per type."""
        return {data_type: len(ids) for data_type, ids in self._by_type.items() if ids}

    def object_ids(self) -> tuple[str, ...]:
        """Ids of every registered object."""
        return tuple(self._objects)
