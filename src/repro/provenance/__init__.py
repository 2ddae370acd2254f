"""Derivations between data objects (paper extension).

:mod:`repro.provenance.derivation` records how a derived data object (a
subsequence crop, an image crop) relates to its source and maps source
substructures into the derived object's coordinate frame.
"""

from repro.provenance.derivation import Derivation, DerivationKind

__all__ = ["Derivation", "DerivationKind"]
