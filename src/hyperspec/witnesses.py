"""Result types of the reduction and the provenance they carry.

Every eigenvalue that the reduction reports names the matrix it came from: a
connected vertex subset, a phase assignment of k-th roots of unity and the
matrix kind.  Spectra and spectral radii carry those witnesses together with
the enumeration's completeness and budget.  ``hyperspec.reduction`` builds
them and re-exports every name here.
"""

from __future__ import annotations

from dataclasses import dataclass

from hyperspec.linalg import SpectrumSet

__all__ = [
    "KIND_LETTER",
    "normalize_kind",
    "PhaseAssignment",
    "ReductionWitness",
    "SpectrumReport",
    "RhoResult",
]

KIND_LETTER = {"adjacency": "A", "laplacian": "L", "signless": "Q"}
_LETTER_KIND = {v: k for k, v in KIND_LETTER.items()}


def normalize_kind(kind: str) -> str:
    if kind in KIND_LETTER:
        return kind
    if kind in _LETTER_KIND:
        return _LETTER_KIND[kind]
    raise ValueError(f"unknown matrix kind {kind!r}")


@dataclass(frozen=True)
class PhaseAssignment:
    """Integer phases l_u in [0, k) encoding the diagonal of k-th roots of unity."""

    k: int
    phases: tuple[int, ...]

    def __post_init__(self):
        if self.k < 2 or self.k % 2:
            raise ValueError("phase assignments need an even k >= 2")
        k = self.k  # a local: the check runs for every witness a spectrum reports
        for p in self.phases:
            if not 0 <= p < k:
                raise ValueError(f"phase {p} out of range [0, {k})")


@dataclass(frozen=True)
class ReductionWitness:
    """Provenance of one reduced-matrix eigenvalue: the subset and phases."""

    subset: tuple[int, ...]
    phase: PhaseAssignment
    kind: str
    eigenvalue: complex

    def to_json_dict(self) -> dict:
        return {
            "subset": list(self.subset),
            "k": self.phase.k,
            "phases": list(self.phase.phases),
            "kind": KIND_LETTER[self.kind],
            "eigenvalue": [self.eigenvalue.real, self.eigenvalue.imag],
        }


@dataclass(frozen=True)
class SpectrumReport:
    """Deduplicated spectrum plus enumeration provenance."""

    kind: str
    k: int
    spectrum: SpectrumSet
    complete: bool
    budget_used: int

    @property
    def values(self) -> tuple[complex, ...]:
        return self.spectrum.values

    def to_json_dict(self) -> dict:
        witnesses = []
        for w in self.spectrum.witnesses:
            witnesses.append(w.to_json_dict() if w is not None else None)
        return {
            "kind": KIND_LETTER[self.kind],
            "k": self.k,
            "values": [[v.real, v.imag] for v in self.spectrum.values],
            "witnesses": witnesses,
            "complete": self.complete,
            "budget_used": self.budget_used,
        }


@dataclass(frozen=True)
class RhoResult:
    """Spectral radius over the enumerated reduction, with its witness.

    ``complete`` False marks a lower bound obtained under an exhausted budget.
    """

    value: float
    witness: ReductionWitness
    complete: bool
    budget_used: int

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "witness": self.witness.to_json_dict(),
            "complete": self.complete,
            "budget_used": self.budget_used,
        }

