"""Result types of the reduction and the provenance they carry.

Every eigenvalue that the reduction reports names the matrix it came from: a
connected vertex subset, a phase assignment of k-th roots of unity and the
matrix kind.  Spectra and spectral radii carry those witnesses together with
the enumeration's completeness and budget.  ``hyperspec.reduction`` builds
them and re-exports every name here.

Dedup keeps one witness per reported value: ``SpectrumSet.sources`` names
its input, and ``_witness_table`` gathers those inputs from the solved blocks
into one ``WitnessTable`` of index arrays, which the JSON output reads as
``SpectrumReport.witnesses``.  Witness objects are built only when the table
is iterated.

``SpectrumReport.json_parts`` writes a report's canonical JSON straight from
the table, in slices and with the bytes of its ``to_json_dict``: it formats
each distinct float magnitude once and each witness matrix's subset and
phases once, and builds no dict per witness.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from hyperspec.linalg import SpectrumSet

__all__ = [
    "KIND_LETTER",
    "normalize_kind",
    "PhaseAssignment",
    "ReductionWitness",
    "SpectrumReport",
    "RhoResult",
    "WitnessTable",
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


# a subset and its rows of phases, one row per matrix
Block = tuple[tuple[int, ...], np.ndarray]


class WitnessTable:
    """The witnesses of a run of eigenvalues, as one index table.

    ``blocks`` holds the witness matrices: a subset and its phase rows, one
    row per matrix, block after block.  ``matrix[i]`` is the position among
    those rows of the matrix of eigenvalue i, and ``eigenvalues[i]`` the
    value.  Iterating yields one ReductionWitness per value, built then.
    """

    def __init__(
        self, k: int, kind: str, blocks: list[Block], matrix: np.ndarray, eigenvalues: np.ndarray
    ) -> None:
        self.k, self.kind, self.blocks = k, kind, blocks
        self.matrix, self.eigenvalues = matrix, eigenvalues

    def __len__(self) -> int:
        return len(self.matrix)

    def matrix_keys(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """(subset, phases) of every witness matrix, in table order."""
        return [(subset, tuple(row)) for subset, phases in self.blocks for row in phases.tolist()]

    def _by_matrix(self, per_matrix: list) -> zip:
        # (per_matrix[j], eigenvalue) for each value, j the position of its matrix
        return zip(map(per_matrix.__getitem__, self.matrix.tolist()), self.eigenvalues.tolist())

    def __iter__(self):
        keys = self.matrix_keys()
        assigns = [(subset, PhaseAssignment(self.k, phases)) for subset, phases in keys]
        for (subset, assign), value in self._by_matrix(assigns):
            yield ReductionWitness(subset, assign, self.kind, value)

    def json_dicts(self) -> list[dict]:
        """``[w.to_json_dict() for w in self]``, built straight from the table;
        the dicts of one matrix's values share its subset and phases lists."""
        k, letter = self.k, KIND_LETTER[self.kind]
        lists = [(list(subset), list(phases)) for subset, phases in self.matrix_keys()]
        return [
            {
                "subset": subset,
                "k": k,
                "phases": phases,
                "kind": letter,
                "eigenvalue": [value.real, value.imag],
            }
            for (subset, phases), value in self._by_matrix(lists)
        ]


def _witness_table(
    k: int,
    kind: str,
    blocks: list[Block],
    rows: np.ndarray,
    values: np.ndarray,
    indices: np.ndarray,
) -> WitnessTable:
    """The witnesses of the values at ``indices``, as one table.

    ``rows[i]`` is the position of the matrix of ``values[i]`` among the
    phase rows of ``blocks``, block after block.  The table keeps one block
    per block with a witness, holding only the phase rows of its witness
    matrices, in plan order.
    """
    counts = np.array([len(phases) for _, phases in blocks])
    firsts = np.cumsum(counts) - counts
    matrix = rows[indices]
    # every phase row, and every block, marked where it witnesses a value
    marked = np.zeros(counts.sum(), bool)
    marked[matrix] = True
    used = np.zeros(len(blocks), bool)
    used[np.searchsorted(firsts, matrix, side="right") - 1] = True
    kept = []
    for b in np.flatnonzero(used).tolist():
        subset, phases = blocks[b]
        kept.append((subset, phases[marked[firsts[b] : firsts[b] + counts[b]]]))
    position = np.cumsum(marked) - 1
    return WitnessTable(k, kind, kept, position[matrix], values[indices])


# list items that a JSON writer encodes at a time
JSON_SLICE = 256


def _float_texts(z: np.ndarray) -> tuple[list[str], np.ndarray]:
    """The JSON text of each part of the finite complex entries ``z``: the
    real part of ``z[i]`` is ``texts[index[2 * i]]`` and its imaginary part
    ``texts[index[2 * i + 1]]``.

    Each distinct magnitude is formatted once; a "-" goes in front where
    the sign bit is set, so -0.0 keeps its sign.
    """
    floats = np.ascontiguousarray(z, complex).view(np.float64)
    magnitudes, inverse = np.unique(np.abs(floats), return_inverse=True)
    reprs = list(map(float.__repr__, magnitudes.tolist()))
    return reprs + ["-" + text for text in reprs], inverse + len(reprs) * np.signbit(floats)


@dataclass(frozen=True)
class SpectrumReport:
    """Deduplicated spectrum, the witness of each value, and enumeration provenance."""

    kind: str
    k: int
    spectrum: SpectrumSet
    witnesses: WitnessTable
    complete: bool
    budget_used: int

    @property
    def values(self) -> tuple[complex, ...]:
        return self.spectrum.values

    def to_json_dict(self) -> dict:
        return {
            "kind": KIND_LETTER[self.kind],
            "k": self.k,
            "values": [[v.real, v.imag] for v in self.spectrum.values],
            "witnesses": self.witnesses.json_dicts(),
            "complete": self.complete,
            "budget_used": self.budget_used,
        }

    def json_parts(self) -> Iterator[str]:
        """``json.dumps(self.to_json_dict(), sort_keys=True, separators=(",",
        ":"))`` and a newline, in pieces.

        Values and witnesses are written ``JSON_SLICE`` at a time, so no piece
        holds more than one slice of either list.  Every float is formatted
        once per distinct magnitude (``_float_texts``), and the keys after
        "eigenvalue" of each witness matrix are one string, shared by the
        witnesses of all its values.
        """
        table, letter = self.witnesses, KIND_LETTER[self.kind]
        head = {
            "budget_used": self.budget_used,
            "complete": self.complete,
            "k": self.k,
            "kind": letter,
        }
        yield json.dumps(head, sort_keys=True, separators=(",", ":"))[:-1] + ',"values":['
        n = len(self.values)
        texts, index = _float_texts(np.concatenate([self.values, table.eigenvalues]))

        def pairs(lo: int, hi: int) -> list[str]:
            # "[re,im]" of entries lo to hi - 1 of the values followed by the
            # witness eigenvalues
            floats = iter(map(texts.__getitem__, index[2 * lo : 2 * hi].tolist()))
            return [f"[{re},{im}]" for re, im in zip(floats, floats)]

        for lo in range(0, n, JSON_SLICE):
            yield ("," if lo else "") + ",".join(pairs(lo, min(lo + JSON_SLICE, n)))
        yield '],"witnesses":['
        tails = [
            f',"k":{self.k},"kind":"{letter}","phases":[{",".join(map(str, phases))}],'
            f'"subset":[{",".join(map(str, subset))}]}}'
            for subset, phases in table.matrix_keys()
        ]
        for lo in range(0, len(table), JSON_SLICE):
            rows = map(tails.__getitem__, table.matrix[lo : lo + JSON_SLICE].tolist())
            witnesses = zip(pairs(n + lo, n + lo + JSON_SLICE), rows)
            yield ("," if lo else "") + ",".join(
                [f'{{"eigenvalue":{pair}{tail}' for pair, tail in witnesses]
            )
        yield "]}\n"


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

