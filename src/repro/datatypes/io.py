"""Native-format I/O for data objects (FASTA, BED-like feature tables).

The paper stores "the raw actual data ... in their native formats".  This
module reads and writes the two formats Graphitti's sequence data objects
would use in practice:

* **FASTA** -- one or more sequences, each a ``>header`` line followed by
  residue lines,
* **BED-like feature tables** -- tab/space separated ``name start end label``
  rows describing intervals to annotate on a sequence.

The FASTA reader infers the sequence flavour (DNA / RNA / protein) from the
alphabet, and :func:`load_features` turns a feature table into mark ranges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.datatypes.sequence import DnaSequence, ProteinSequence, RnaSequence, Sequence
from repro.errors import WorkloadError

_DNA = set("ACGTN")
_RNA = set("ACGUN")


def _infer_sequence(object_id: str, residues: str, domain: str | None) -> Sequence:
    upper = residues.upper()
    letters = set(upper)
    if letters <= _DNA:
        return DnaSequence(object_id, upper, domain=domain)
    if letters <= _RNA:
        return RnaSequence(object_id, upper, domain=domain)
    return ProteinSequence(object_id, upper, domain=domain)


def parse_fasta(text: str, domain: str | None = None) -> list[Sequence]:
    """Parse FASTA text into a list of sequence data objects.

    The sequence id is the first whitespace-delimited token of each header.
    The flavour (DNA/RNA/protein) is inferred from the residue alphabet.
    """
    sequences: list[Sequence] = []
    header: str | None = None
    residues: list[str] = []

    def flush() -> None:
        if header is not None:
            object_id = header.split()[0] if header.split() else header
            sequences.append(_infer_sequence(object_id, "".join(residues), domain))

    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line:
            continue
        if line.startswith(">"):
            flush()
            header = line[1:].strip()
            residues = []
        else:
            if header is None:
                raise WorkloadError("FASTA residue line before any header")
            residues.append(line)
    flush()
    if not sequences:
        raise WorkloadError("no sequences found in FASTA text")
    return sequences


def write_fasta(sequences: Iterable[Sequence], width: int = 60) -> str:
    """Serialize sequences to FASTA text, wrapping residues at *width*."""
    lines: list[str] = []
    for sequence in sequences:
        lines.append(f">{sequence.object_id}")
        residues = sequence.residues
        for start in range(0, len(residues), width):
            lines.append(residues[start:start + width])
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Feature:
    """One parsed feature-table row: a labelled interval on an object."""

    object_id: str
    start: int
    end: int
    label: str = ""


def parse_features(text: str) -> list[Feature]:
    """Parse a BED-like feature table (``object start end [label]`` per row)."""
    features: list[Feature] = []
    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) < 3:
            raise WorkloadError(f"feature row {line_number} has fewer than 3 columns: {raw_line!r}")
        object_id = parts[0]
        try:
            start = int(parts[1])
            end = int(parts[2])
        except ValueError as exc:
            raise WorkloadError(f"feature row {line_number} has non-integer bounds") from exc
        label = parts[3] if len(parts) > 3 else ""
        features.append(Feature(object_id, start, end, label))
    return features


def load_features(manager, text: str, creator: str = "feature-import", keyword: str = "feature") -> list[str]:
    """Import a feature table as one annotation per feature on a manager.

    Each feature row becomes an annotation whose single referent is the marked
    interval.  Returns the created annotation ids.  The referenced sequences
    must already be registered with *manager*.
    """
    created: list[str] = []
    for index, feature in enumerate(parse_features(text)):
        if feature.object_id not in manager.registry:
            raise WorkloadError(f"feature references unregistered object {feature.object_id!r}")
        builder = manager.new_annotation(
            f"feat-{feature.object_id}-{index}",
            creator=creator,
            keywords=[keyword] + ([feature.label] if feature.label else []),
            body=f"Imported feature {feature.label or index} on {feature.object_id}.",
        )
        builder.mark_sequence(feature.object_id, feature.start, feature.end, label=feature.label or None)
        created.append(builder.commit().annotation_id)
    return created
