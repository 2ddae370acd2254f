"""The Graphitti core: the annotation model and the manager facade.

This package is the paper's primary contribution.  It defines:

* :mod:`repro.core.dublin_core` -- the Dublin Core metadata used in
  annotation contents,
* :mod:`repro.core.annotation` -- the annotation *content*, the *referents*,
  and the *linker* object that ties content to referents,
* :mod:`repro.core.manager` -- the :class:`Graphitti` facade that registers
  data objects, routes substructure marks to the spatial indexes, stores
  annotation contents in the XML collection, wires the a-graph, and exposes
  the annotate / search / explore workflow the GUI drives in the paper.
"""

from repro.core.dublin_core import DublinCore
from repro.core.annotation import Annotation, AnnotationContent, Referent
from repro.core.manager import Graphitti
from repro.core.admin import Administrator, IntegrityReport
from repro.core.persistence import snapshot

__all__ = [
    "DublinCore",
    "Annotation",
    "AnnotationContent",
    "Referent",
    "Graphitti",
    "Administrator",
    "IntegrityReport",
    "snapshot",
]
