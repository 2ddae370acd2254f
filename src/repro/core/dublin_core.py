"""Dublin Core metadata for annotation contents.

"The annotation content produced by Graphitti is an XML document whose
elements consist of Dublin core attributes and other user-defined tags."
This module models the 15 Dublin Core elements and renders them as the
``dc:*`` elements of an annotation content document.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.xmlstore.document import XmlElement

#: The 15 Dublin Core Metadata Element Set terms.
DC_ELEMENTS = (
    "title",
    "creator",
    "subject",
    "description",
    "publisher",
    "contributor",
    "date",
    "type",
    "format",
    "identifier",
    "source",
    "language",
    "relation",
    "coverage",
    "rights",
)


@dataclass
class DublinCore:
    """Dublin Core metadata for one annotation content.

    Each attribute maps to a ``dc:<element>`` tag.  ``subject`` and
    ``contributor`` are lists because an annotation commonly carries several
    keywords / contributors; the rest are single-valued.
    """

    title: str = ""
    creator: str = ""
    subject: list[str] = field(default_factory=list)
    description: str = ""
    publisher: str = ""
    contributor: list[str] = field(default_factory=list)
    date: str = ""
    type: str = "annotation"
    format: str = "text/xml"
    identifier: str = ""
    source: str = ""
    language: str = "en"
    relation: str = ""
    coverage: str = ""
    rights: str = ""

    def keywords(self) -> list[str]:
        """The subject keywords (a common query target)."""
        return list(self.subject)

    def populated(self) -> list[tuple[str, str]]:
        """``(element name, text)`` of every populated value, in render order."""
        items: list[tuple[str, str]] = []
        for name in DC_ELEMENTS:
            value = getattr(self, name)
            if isinstance(value, list):
                items.extend((name, str(item)) for item in value if item)
            elif value:
                items.append((name, str(value)))
        return items

    def to_elements(self) -> list[XmlElement]:
        """Render the populated elements as ``dc:*`` XML elements."""
        return [XmlElement(f"dc:{name}", text=text) for name, text in self.populated()]

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible representation."""
        return {name: getattr(self, name) for name in DC_ELEMENTS}

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "DublinCore":
        """Reconstruct Dublin Core metadata from :meth:`to_dict` output.

        Unknown keys are ignored and missing keys keep their defaults, so the
        codec tolerates payloads written by older snapshot versions.
        """
        core = cls()
        for name in DC_ELEMENTS:
            value = payload.get(name)
            if value is None:
                continue
            if isinstance(getattr(core, name), list):
                if isinstance(value, str):  # a scalar where a list is expected
                    value = [value]
                setattr(core, name, [str(item) for item in value])
            else:
                setattr(core, name, str(value))
        return core

    @classmethod
    def from_elements(cls, elements: list[XmlElement]) -> "DublinCore":
        """Reconstruct Dublin Core metadata from ``dc:*`` elements."""
        core = cls()
        for element in elements:
            if not element.tag.startswith("dc:"):
                continue
            name = element.tag[3:]
            if name not in DC_ELEMENTS:
                continue
            current = getattr(core, name)
            if isinstance(current, list):
                current.append(element.text)
            else:
                setattr(core, name, element.text)
        return core
