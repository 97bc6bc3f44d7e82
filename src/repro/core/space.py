"""Design space enumeration (paper Sec. VI-B).

The explored space matches the paper's description — "a few thousand design
points that can be solved within a few seconds":

* ``nc_NTT`` in {2, 4, 8} (the Table I design choices);
* KeySwitch and Rescale intra-parallelism in 1..L and inter-parallelism in
  1..max_inter;
* elementwise modules pinned to parallelism 1 — the paper observes "the
  parallelism of the CCmult operation is set to be only 1 ... due to the
  extremely low frequency of CCmult operations" (Sec. VII-D), and CCadd
  uses no DSP at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from ..optypes import HeOp
from .design_point import DesignPoint, OpParallelism

#: Modules whose (intra, inter) parallelism the search varies, in scan
#: order after ``nc_NTT``; every other module stays at parallelism 1.
VARIED_OPS = (HeOp.KEY_SWITCH, HeOp.RESCALE)


@dataclass(frozen=True)
class DesignSpace:
    """Bounds of the exhaustive search."""

    nc_ntt_choices: tuple[int, ...] = (2, 4, 8)
    max_intra: int = 7  # bounded by the level L: more copies sit idle
    max_inter: int = 4

    def __post_init__(self) -> None:
        if self.max_intra < 1 or self.max_inter < 1:
            raise ValueError("parallelism bounds must be >= 1")

    @cached_property
    def _choices(self) -> tuple[np.ndarray, np.ndarray]:
        """``P_intra`` and ``P_inter`` of one varied module's choices,
        intra-major."""
        intra, inter = np.divmod(
            np.arange(self.max_intra * self.max_inter), self.max_inter
        )
        return intra + 1, inter + 1

    def nc_ntt_grid(self) -> np.ndarray:
        """``nc_NTT`` of every scan-grid point, shaped to broadcast over
        :meth:`shape`."""
        return np.array(self.nc_ntt_choices, dtype=np.int64).reshape(
            (-1,) + (1,) * len(VARIED_OPS)
        )

    def parallelism_grid(self, op: HeOp) -> OpParallelism:
        """``op``'s parallelism at every scan-grid point, as integer arrays
        shaped to broadcast over :meth:`shape` (serial ints for a module
        the search does not vary)."""
        if op not in VARIED_OPS:
            return OpParallelism()
        shape = [1] * (1 + len(VARIED_OPS))
        shape[1 + VARIED_OPS.index(op)] = -1
        intra, inter = self._choices
        return OpParallelism(intra.reshape(shape), inter.reshape(shape))

    def shape(self) -> tuple[int, ...]:
        """The scan grid: ``nc_NTT`` outermost, then one axis of
        ``(P_intra, P_inter)`` choices, intra-major, per module of
        :data:`VARIED_OPS`.  The scan walks it in row-major order."""
        per_op = self.max_intra * self.max_inter
        return (len(self.nc_ntt_choices),) + (per_op,) * len(VARIED_OPS)

    def size(self) -> int:
        return math.prod(self.shape())

    def point(self, index: int) -> DesignPoint:
        """The design point at position ``index`` of the scan."""
        nc, *choices = np.unravel_index(index, self.shape())
        intra, inter = self._choices
        return DesignPoint(
            nc_ntt=self.nc_ntt_choices[nc],
            ops={
                op: OpParallelism(int(intra[c]), int(inter[c]))
                for op, c in zip(VARIED_OPS, choices)
            },
        )

    def points(self) -> Iterator[DesignPoint]:
        """Enumerate every candidate design point, in scan order."""
        return map(self.point, range(self.size()))
