"""Graphitti: an annotation management system for heterogeneous objects.

A from-scratch Python reproduction of the ICDE 2008 demonstration paper
"Graphitti: An Annotation Management System for Heterogeneous Objects" by
Sandeep Gupta, Christopher Condit and Amarnath Gupta (San Diego Supercomputer
Center).

The public entry point is :class:`repro.core.Graphitti`.  See ``README.md``
for the architecture and the measured results, and ``ROADMAP.md`` for what
is open.
"""

from repro.core import Annotation, AnnotationContent, DublinCore, Graphitti, Referent
from repro.errors import GraphittiError
from repro.service import GraphittiService, ServiceConfig
from repro.shard import ShardedGraphittiService

__version__ = "1.2.0"

__all__ = [
    "Graphitti",
    "GraphittiService",
    "ShardedGraphittiService",
    "ServiceConfig",
    "Annotation",
    "AnnotationContent",
    "Referent",
    "DublinCore",
    "GraphittiError",
    "__version__",
]
