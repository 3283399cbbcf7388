"""``ShardedInterest`` — per-block CSC storage of ``mu`` behind the interest protocol.

Rows (users) are partitioned by a :class:`~repro.shard.plan.ShardPlan` into
fixed-size blocks; each block owns a scipy CSC candidate matrix and a CSC
competing matrix with float64 data, so every gather returns the bits an
unsharded sparse matrix holds for the same rows.

The global accessor protocol (``event_column_entries`` & co.) matches
:class:`repro.core.interest.InterestMatrix`, so instances, engines, live
views and serializers consume a sharded matrix unchanged; the additional
``block_*`` accessors are what :class:`repro.shard.engine.ShardedEngine`'s
per-block sub-engines gather from without ever touching global state.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np
from scipy import sparse as _sp

from repro.core.errors import InstanceValidationError
from repro.core.interest import InterestMatrix, accumulate_entries, slice_entries
from repro.shard.plan import ShardPlan

__all__ = ["ShardedInterest", "check_block"]

_EMPTY_ROWS = np.zeros(0, dtype=np.intp)
_EMPTY_VALUES = np.zeros(0)


def check_block(block: Any, name: str) -> None:
    """Raise :class:`InstanceValidationError` unless ``block`` is a float64
    CSC matrix whose stored values lie in ``[0, 1]``."""
    if getattr(block, "format", None) != "csc" or block.dtype != np.float64:
        raise InstanceValidationError(
            f"{name} must be a float64 CSC matrix; "
            "ShardedInterest.from_blocks converts other inputs"
        )
    data = block.data
    if data.size == 0:
        return
    if np.isnan(data).any():
        raise InstanceValidationError(f"{name} contains NaN entries")
    lo, hi = float(data.min()), float(data.max())
    if lo < 0.0 or hi > 1.0:
        raise InstanceValidationError(
            f"{name} entries must lie in [0, 1]; observed range [{lo}, {hi}]"
        )


def _to_csc(block: Any) -> Any:
    """A canonical float64 CSC copy of ``block`` (scipy sparse or dense)."""
    csc = _sp.csc_matrix(block, dtype=np.float64, copy=True)
    csc.sum_duplicates()
    csc.eliminate_zeros()
    csc.sort_indices()
    return csc


class ShardedInterest:
    """Immutable, block-partitioned storage of ``mu``.

    The constructor takes float64 CSC blocks and checks their shapes and
    values.  Build with :meth:`from_interest` (reshard an existing matrix)
    or :meth:`from_blocks` (per-block construction that never materializes
    a global matrix — the 10^6-user synthesis path).
    """

    __slots__ = (
        "_plan",
        "_candidate_blocks",
        "_competing_blocks",
        "_n_events",
        "_n_competing",
    )

    def __init__(
        self,
        plan: ShardPlan,
        candidate_blocks: Sequence[Any],
        competing_blocks: Sequence[Any],
    ) -> None:
        if len(candidate_blocks) != plan.n_blocks:
            raise InstanceValidationError(
                f"expected {plan.n_blocks} candidate blocks, "
                f"got {len(candidate_blocks)}"
            )
        if len(competing_blocks) != plan.n_blocks:
            raise InstanceValidationError(
                f"expected {plan.n_blocks} competing blocks, "
                f"got {len(competing_blocks)}"
            )
        n_events = int(candidate_blocks[0].shape[1])
        n_competing = int(competing_blocks[0].shape[1])
        for block_index in range(plan.n_blocks):
            lo, hi = plan.block_bounds(block_index)
            for name, blocks, width in (
                ("candidate", candidate_blocks, n_events),
                ("competing", competing_blocks, n_competing),
            ):
                block = blocks[block_index]
                if block.shape != (hi - lo, width):
                    raise InstanceValidationError(
                        f"{name} block {block_index} has shape {block.shape}; "
                        f"expected {(hi - lo, width)}"
                    )
                check_block(block, f"{name} block {block_index}")
        self._plan = plan
        self._candidate_blocks = tuple(candidate_blocks)
        self._competing_blocks = tuple(competing_blocks)
        self._n_events = n_events
        self._n_competing = n_competing

    # ------------------------------------------------------------------
    # shape / identity
    # ------------------------------------------------------------------
    @property
    def backend(self) -> str:
        """Always ``"sharded"`` — distinct from the flat backends."""
        return "sharded"

    @property
    def plan(self) -> ShardPlan:
        return self._plan

    @property
    def n_users(self) -> int:
        return self._plan.n_users

    @property
    def n_events(self) -> int:
        return self._n_events

    @property
    def n_competing(self) -> int:
        return self._n_competing

    # ------------------------------------------------------------------
    # per-block accessors (the sharded-engine gather surface)
    # ------------------------------------------------------------------
    def block_candidate_entries(
        self, block: int, event: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Nonzero ``(local_rows, values)`` of one candidate column."""
        return self._block_entries(self._candidate_blocks[block], event)

    def block_competing_entries(
        self, block: int, competing: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Nonzero ``(local_rows, values)`` of one competing column."""
        return self._block_entries(self._competing_blocks[block], competing)

    def candidate_block(self, block: int) -> Any:
        """The candidate CSC matrix of one block."""
        return self._candidate_blocks[block]

    def competing_block(self, block: int) -> Any:
        """The competing CSC matrix of one block."""
        return self._competing_blocks[block]

    @staticmethod
    def _block_entries(block: Any, column: int) -> tuple[np.ndarray, np.ndarray]:
        start, stop = block.indptr[column], block.indptr[column + 1]
        rows = block.indices[start:stop].astype(np.intp, copy=False)
        return rows, block.data[start:stop]

    # ------------------------------------------------------------------
    # global accessor protocol (InterestMatrix-compatible)
    # ------------------------------------------------------------------
    def event_column_entries(self, event: int) -> tuple[np.ndarray, np.ndarray]:
        return self._global_entries(self._candidate_blocks, event)

    def competing_column_entries(
        self, competing: int
    ) -> tuple[np.ndarray, np.ndarray]:
        return self._global_entries(self._competing_blocks, competing)

    def _global_entries(
        self, blocks: tuple[Any, ...], column: int
    ) -> tuple[np.ndarray, np.ndarray]:
        row_parts: list[np.ndarray] = []
        value_parts: list[np.ndarray] = []
        for block_index, block in enumerate(blocks):
            rows, values = self._block_entries(block, column)
            if rows.size:
                lo, _ = self._plan.block_bounds(block_index)
                row_parts.append(rows + lo)
                value_parts.append(values)
        if not row_parts:
            return _EMPTY_ROWS, _EMPTY_VALUES
        return np.concatenate(row_parts), np.concatenate(value_parts)

    def competing_mass_entries(
        self, rivals: Sequence[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """``K_t`` as a sparse vector (see ``InterestMatrix``); rivals order."""
        return accumulate_entries(
            (self.competing_column_entries(rival) for rival in rivals),
            self.n_users,
        )

    def event_column(self, event: int) -> np.ndarray:
        return self._dense_column(self._candidate_blocks, event)

    def competing_column(self, competing: int) -> np.ndarray:
        return self._dense_column(self._competing_blocks, competing)

    def _dense_column(self, blocks: tuple[Any, ...], column: int) -> np.ndarray:
        out = np.zeros(self.n_users)
        rows, values = self._global_entries(blocks, column)
        out[rows] = values
        return out

    def mu_event(self, user: int, event: int) -> float:
        block = self._plan.block_of_user(user)
        lo, _ = self._plan.block_bounds(block)
        return float(self._candidate_blocks[block][user - lo, event])

    def mu_competing(self, user: int, competing: int) -> float:
        block = self._plan.block_of_user(user)
        lo, _ = self._plan.block_bounds(block)
        return float(self._competing_blocks[block][user - lo, competing])

    # ------------------------------------------------------------------
    # dense / sparse escape hatches (serialization, parity tests)
    # ------------------------------------------------------------------
    @property
    def candidate(self) -> np.ndarray:
        """Dense candidate matrix — materializes; not a hot path."""
        return self.candidate_sparse.toarray()

    @property
    def competing(self) -> np.ndarray:
        return self.competing_sparse.toarray()

    @property
    def candidate_sparse(self) -> Any:
        return self._stacked(self._candidate_blocks)

    @property
    def competing_sparse(self) -> Any:
        return self._stacked(self._competing_blocks)

    @staticmethod
    def _stacked(blocks: tuple[Any, ...]) -> Any:
        stacked = _sp.vstack(blocks, format="csc")
        stacked.sort_indices()
        return stacked

    def candidate_coo(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Canonical ``(rows, cols, values)`` — column-major, zeros dropped."""
        return InterestMatrix._coo(self.candidate_sparse)

    def competing_coo(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return InterestMatrix._coo(self.competing_sparse)

    # ------------------------------------------------------------------
    # derived statistics
    # ------------------------------------------------------------------
    def nnz_candidate(self) -> int:
        return sum(int(block.nnz) for block in self._candidate_blocks)

    def sparsity(self) -> float:
        size = self.n_users * self.n_events
        if size == 0:
            return 1.0
        return float((size - self.nnz_candidate()) / size)

    def mean_positive_interest(self) -> float:
        total, count = 0.0, 0
        for block in self._candidate_blocks:
            positive = block.data[block.data > 0]
            total += float(positive.sum())
            count += int(positive.size)
        return total / count if count else 0.0

    # ------------------------------------------------------------------
    # constructors / conversion
    # ------------------------------------------------------------------
    @classmethod
    def from_interest(cls, interest: Any, plan: ShardPlan) -> "ShardedInterest":
        """Reshard an existing interest matrix (or any accessor-protocol duck)."""
        if interest.n_users != plan.n_users:
            raise InstanceValidationError(
                f"plan covers {plan.n_users} users but interest has "
                f"{interest.n_users}"
            )
        candidate_blocks = cls._slice_blocks(
            interest, plan, interest.n_events, competing=False
        )
        competing_blocks = cls._slice_blocks(
            interest, plan, interest.n_competing, competing=True
        )
        return cls.from_blocks(plan, candidate_blocks, competing_blocks)

    @staticmethod
    def _slice_blocks(
        interest: Any, plan: ShardPlan, width: int, *, competing: bool
    ) -> list[Any]:
        source = getattr(
            interest, "competing_sparse" if competing else "candidate_sparse", None
        )
        if source is not None:
            blocks = []
            for block_index in range(plan.n_blocks):
                lo, hi = plan.block_bounds(block_index)
                blk = _sp.csc_matrix(source[lo:hi])
                blk.sort_indices()
                blocks.append(blk)
            return blocks
        # Generic duck path: gather every column's entries once, localize.
        entries_of = (
            interest.competing_column_entries
            if competing
            else interest.event_column_entries
        )
        columns = [entries_of(column) for column in range(width)]
        blocks = []
        for block_index in range(plan.n_blocks):
            lo, hi = plan.block_bounds(block_index)
            rows_parts, value_parts, indptr = [], [], [0]
            for rows, values in columns:
                local, vals = slice_entries(rows, values, lo, hi)
                rows_parts.append(local)
                value_parts.append(vals)
                indptr.append(indptr[-1] + local.size)
            blocks.append(
                _sp.csc_matrix(
                    (
                        np.concatenate(value_parts) if value_parts else _EMPTY_VALUES,
                        np.concatenate(rows_parts) if rows_parts else _EMPTY_ROWS,
                        np.asarray(indptr),
                    ),
                    shape=(hi - lo, width),
                )
            )
        return blocks

    @classmethod
    def from_blocks(
        cls,
        plan: ShardPlan,
        candidate_blocks: Sequence[Any],
        competing_blocks: Sequence[Any],
    ) -> "ShardedInterest":
        """Build from per-block matrices (scipy sparse or dense arrays),
        each copied into canonical float64 CSC storage."""
        return cls(
            plan,
            [_to_csc(block) for block in candidate_blocks],
            [_to_csc(block) for block in competing_blocks],
        )

    def to_interest(self, backend: str = "sparse") -> InterestMatrix:
        """Collapse to a flat :class:`InterestMatrix` (parity tests)."""
        if backend == "sparse":
            return InterestMatrix.from_scipy(
                self.candidate_sparse, self.competing_sparse
            )
        return InterestMatrix.from_arrays(
            self.candidate, self.competing, backend="dense"
        )

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedInterest(users={self.n_users}, events={self.n_events}, "
            f"competing={self.n_competing}, blocks={self._plan.n_blocks})"
        )
