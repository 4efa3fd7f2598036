"""Flag presentations: the data (D, block shape m, degree tuple g).

A presentation describes the graded flag F(D,m,g) whose i-th space is the span
of the first n_i shifted copies of D, and therefore the graded algebra of flag
endomorphisms that every decision procedure here operates on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

from .division import GradedDivisionAlgebra, _as_index, shift_conjugate
from .errors import InvalidInput, _listed
from .groups import Group

__all__ = [
    "BlockShape",
    "FlagPresentation",
    "make_presentation",
    "shift_presentation",
]


@dataclass(frozen=True)
class BlockShape:
    """Block sizes (m_1, ..., m_s); rows/cols 0..n-1 are grouped accordingly."""

    blocks: tuple[int, ...]
    _hash: int = field(init=False, repr=False, compare=False)  # computed once: memos key on it

    def __post_init__(self):
        blocks = tuple(self.blocks)
        for pos, b in enumerate(blocks):
            if not isinstance(b, int) or isinstance(b, bool):
                raise InvalidInput(
                    f"block sizes must be integers, got {_listed(blocks, pos)}", code="bad-blocks"
                )
        # every size is an int already; int() only turns subclasses such as IntEnum plain
        blocks = tuple(map(int, blocks))
        object.__setattr__(self, "blocks", blocks)
        pos = next((pos for pos, b in enumerate(blocks) if b < 1), 0)
        if not blocks or blocks[pos] < 1:
            raise InvalidInput(
                f"block sizes must be positive, got {_listed(blocks, pos)}", code="bad-blocks"
            )
        object.__setattr__(self, "_hash", hash((blocks,)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def n(self) -> int:
        return sum(self.blocks)

    @property
    def s(self) -> int:
        return len(self.blocks)

    def block_of(self, i: int) -> int:
        """Block index of row/column i (0-based)."""
        acc = 0
        for b, m in enumerate(self.blocks):
            acc += m
            if i < acc:
                return b
        raise InvalidInput(f"position {i} outside shape {self.blocks}", code="bad-blocks")

    def block_positions(self) -> list[range]:
        out, start = [], 0
        for m in self.blocks:
            out.append(range(start, start + m))
            start += m
        return out

    def cells(self) -> tuple[tuple[int, int, int], ...]:
        """(i, j, block(j) - block(i)) for each position pair with block(i) <= block(j),
        ordered by (row block, column block, i, j): the cell layout of every basis."""
        return self._cells

    @cached_property
    def _cells(self) -> tuple[tuple[int, int, int], ...]:
        blocks = self.block_positions()
        return tuple(
            (i, j, b - a)
            for a, rows in enumerate(blocks)
            for b in range(a, len(blocks))
            for i in rows
            for j in blocks[b]
        )

    @cached_property
    def cell_number(self) -> dict[tuple[int, int], int]:
        """(i, j) -> the index of cell (i, j) in cells(); shared by every caller,
        so it must never be written to."""
        return {(i, j): c for c, (i, j, _) in enumerate(self._cells)}


@dataclass(frozen=True)
class FlagPresentation:
    """The input datum of every decision: division part, shape, degree tuple."""

    division: GradedDivisionAlgebra
    shape: BlockShape
    degrees: tuple[int, ...]  # element indices g_1..g_n, by position

    @property
    def group(self) -> Group:
        return self.division.group

    def degree_names(self) -> tuple[str, ...]:
        return tuple(self.group.name_of(d) for d in self.degrees)


def make_presentation(
    division: GradedDivisionAlgebra, blocks: Sequence[int] | BlockShape, degrees: Sequence
) -> FlagPresentation:
    shape = blocks if isinstance(blocks, BlockShape) else BlockShape(tuple(blocks))
    grp = division.group
    entries = tuple(_as_index(grp, d) for d in degrees)
    if len(entries) != shape.n:
        raise InvalidInput(
            f"length mismatch: tuple has {len(entries)} entries, blocks sum to {shape.n}",
            code="length-mismatch",
        )
    return FlagPresentation(division, shape, entries)


def shift_presentation(p: FlagPresentation, g) -> FlagPresentation:
    """Shift the flag by g: entries right-multiplied, division part conjugated."""
    grp = p.group
    gi = _as_index(grp, g)
    return FlagPresentation(
        shift_conjugate(p.division, gi),
        p.shape,
        tuple(grp.mul(d, gi) for d in p.degrees),
    )
