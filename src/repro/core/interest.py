"""The interest function ``mu : U x (E u C) -> [0, 1]`` (paper Section II).

The paper models a user's affinity for both candidate and competing events
with one function ``mu``.  We store it as two matrices — ``candidate`` of
shape ``(n_users, n_events)`` and ``competing`` of shape
``(n_users, n_competing)`` — behind one of two interchangeable *backends*:

* ``"sparse"`` — scipy CSC matrices holding only the nonzero entries; the
  default for generated workloads.  Jaccard-mined Meetup interest is
  overwhelmingly sparse (a user shares tags with a tiny fraction of 16K
  events), so CSC storage is what lets the scoring stack reach full
  Meetup scale without ``O(|U| * |E|)`` memory.
* ``"dense"`` — contiguous ``float64`` numpy arrays.  For workloads where
  most pairs carry interest, and for the reference oracle, which reads
  ``mu`` one element at a time.

Both backends answer the same accessor protocol, which is all the engines
consume:

* **column gather** — :meth:`InterestMatrix.event_column_entries` /
  :meth:`~InterestMatrix.competing_column_entries` return a column's
  nonzero ``(rows, values)`` pair;
* **per-interval mass accumulation** —
  :meth:`~InterestMatrix.competing_mass_entries` sums a set of competing
  columns into one sparse vector (``K_t`` of Eq. 1).  Every store
  (this one, :class:`~repro.core.live.LiveInterest` and the shard
  stores) answers through :func:`accumulate_entries`: the columns are
  added into one dense scratch vector in rivals order, whose sorted
  nonzero entries come back;
* **masked ratio reduction** — :func:`masked_ratio` implements the
  ``0 / 0 = 0`` divide every equation needs.  The sparse engine's Eq. 4
  kernel skips the mask where it provably cannot fire — on intervals
  with no scheduled event, because stored values are never zero — and
  keeps it where a subtraction residue can make a denominator ``<= 0``.

Constructors cover the ways interest arises in practice:

* :meth:`InterestMatrix.from_arrays` — you already have the numbers;
* :meth:`InterestMatrix.from_function` — a callable ``mu(user, event)``;
* :meth:`InterestMatrix.from_sparse` — ``{(user, event): value}`` dicts with
  an implicit zero default, the natural shape of EBSN-mined affinities;
* :meth:`InterestMatrix.from_scipy` — ready-made scipy sparse matrices
  (what :func:`repro.ebsn.jaccard.jaccard_matrix_sparse` produces).

The EBSN pipeline (``repro.ebsn.jaccard``) produces these matrices from tag
sets via Jaccard similarity, exactly as the paper's Section IV.A prescribes;
with ``interest_backend="sparse"`` the pipeline never materializes a dense
``(users, events)`` array at any point.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence
from typing import Any

import numpy as np

from repro.core.errors import InstanceValidationError
from repro.utils.validation import check_probability_matrix

try:  # scipy is a declared dependency; dense-only paths run without it
    from scipy import sparse as _sp
except ImportError:  # pragma: no cover - exercised only without scipy
    _sp = None

__all__ = [
    "InterestMatrix",
    "INTEREST_BACKENDS",
    "accumulate_entries",
    "masked_ratio",
    "slice_entries",
]

#: Supported storage backends.
INTEREST_BACKENDS = ("dense", "sparse")

_EMPTY_ROWS = np.zeros(0, dtype=np.intp)
_EMPTY_VALUES = np.zeros(0)


def _require_scipy() -> None:
    if _sp is None:  # pragma: no cover - exercised only without scipy
        raise ImportError(
            "the 'sparse' interest backend requires scipy; install it "
            "(pip install scipy) or use backend='dense'"
        )


def masked_ratio(numerator: np.ndarray, denominator: np.ndarray) -> np.ndarray:
    """Elementwise ``numerator / denominator`` with the ``0 / 0 = 0`` rule.

    The shared reduction of Eq. 1–4: wherever the denominator is zero the
    numerator is necessarily zero too (all masses are non-negative), and the
    paper defines the ratio as 0 there.
    """
    return np.divide(
        numerator,
        denominator,
        out=np.zeros_like(numerator, dtype=float),
        where=denominator > 0.0,
    )


def accumulate_entries(
    columns: Iterable[tuple[np.ndarray, np.ndarray]], n_rows: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sum sparse columns into one canonical sparse vector.

    Each column's ``(rows, values)`` is added into a dense scratch vector
    of ``n_rows`` zeros, in the order given, so every row's sum runs
    ``0 + v1 + v2 + ...`` in column order.  Returns the scratch vector's
    sorted nonzero ``(rows, values)``: the canonical form of the sparse
    engine's competing mass ``K_t``.
    """
    total = np.zeros(n_rows)
    for rows, values in columns:
        total[rows] += values
    rows = np.flatnonzero(total)
    return rows, total[rows]


def slice_entries(
    rows: np.ndarray, values: np.ndarray, lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray]:
    """Restrict a sorted sparse-vector entry list to the row window ``[lo, hi)``.

    Rows come back *local* to the window (shifted by ``-lo``) — the gather
    primitive behind user-axis sharding: a global column's entries localize
    to each shard's block with two binary searches and no copy of ``values``
    beyond the window itself.
    """
    start, stop = np.searchsorted(rows, (lo, hi), side="left")
    if start == stop:
        return _EMPTY_ROWS, _EMPTY_VALUES
    local = rows[start:stop].astype(np.intp, copy=True)
    local -= lo
    return local, values[start:stop]


def _validate_sparse_matrix(matrix: Any, name: str) -> Any:
    """Canonicalize a scipy matrix to CSC and range-check its entries."""
    _require_scipy()
    csc = _sp.csc_matrix(matrix, copy=True)
    csc.sum_duplicates()
    csc.eliminate_zeros()
    csc.sort_indices()
    data = csc.data
    if np.isnan(data).any():
        raise InstanceValidationError(f"{name} contains NaN entries")
    if data.size and (data.min() < 0.0 or data.max() > 1.0):
        raise InstanceValidationError(
            f"{name} entries must lie in [0, 1]; observed range "
            f"[{data.min()}, {data.max()}]"
        )
    data.setflags(write=False)
    return csc


class InterestMatrix:
    """Storage of ``mu`` over candidate and competing events.

    Instances are immutable; dense arrays are set non-writeable and sparse
    data buffers likewise, so a matrix can safely be shared between
    engines and schedules.

    Parameters
    ----------
    candidate, competing:
        numpy arrays or scipy sparse matrices of shapes
        ``(n_users, n_events)`` / ``(n_users, n_competing)``.
    backend:
        ``"dense"`` or ``"sparse"``; inputs are converted to the requested
        storage.  Scipy inputs default the backend to ``"sparse"``.
    """

    __slots__ = ("_backend", "_candidate", "_competing")

    def __init__(
        self, candidate: Any, competing: Any, backend: str | None = None
    ) -> None:
        if backend is None:
            backend = (
                "sparse"
                if _sp is not None
                and (_sp.issparse(candidate) or _sp.issparse(competing))
                else "dense"
            )
        if backend not in INTEREST_BACKENDS:
            raise ValueError(
                f"unknown interest backend {backend!r}; "
                f"choose from {INTEREST_BACKENDS}"
            )

        if backend == "sparse":
            candidate = _validate_sparse_matrix(candidate, "candidate interest")
            competing = _validate_sparse_matrix(competing, "competing interest")
        else:
            if _sp is not None and _sp.issparse(candidate):
                candidate = candidate.toarray()
            if _sp is not None and _sp.issparse(competing):
                competing = competing.toarray()
            candidate = check_probability_matrix(candidate, "candidate interest")
            competing = check_probability_matrix(competing, "competing interest")
            if candidate.ndim != 2:
                raise InstanceValidationError(
                    f"candidate interest must be 2-D, got shape {candidate.shape}"
                )
            if competing.ndim != 2:
                raise InstanceValidationError(
                    f"competing interest must be 2-D, got shape {competing.shape}"
                )
            candidate = np.ascontiguousarray(candidate)
            competing = np.ascontiguousarray(competing)
            candidate.setflags(write=False)
            competing.setflags(write=False)

        if competing.shape[0] != candidate.shape[0]:
            raise InstanceValidationError(
                "candidate and competing interest must agree on the user axis: "
                f"{candidate.shape[0]} vs {competing.shape[0]}"
            )
        self._backend = backend
        self._candidate = candidate
        self._competing = competing

    # ------------------------------------------------------------------
    # backend + shape accessors
    # ------------------------------------------------------------------
    @property
    def backend(self) -> str:
        """``"dense"`` or ``"sparse"`` — how ``mu`` is stored."""
        return self._backend

    @property
    def candidate(self) -> np.ndarray:
        """Candidate interest as a dense read-only array.

        For the sparse backend this **materializes** a fresh
        ``(n_users, n_events)`` array on every call — an escape hatch for
        dense-only consumers, not something to call in a hot loop.
        """
        if self._backend == "dense":
            return self._candidate
        dense = self._candidate.toarray()
        dense.setflags(write=False)
        return dense

    @property
    def competing(self) -> np.ndarray:
        """Competing interest as a dense read-only array (see :attr:`candidate`)."""
        if self._backend == "dense":
            return self._competing
        dense = self._competing.toarray()
        dense.setflags(write=False)
        return dense

    @property
    def candidate_sparse(self) -> Any:
        """Candidate interest as a canonical scipy CSC matrix."""
        if self._backend == "sparse":
            return self._candidate
        _require_scipy()
        return _sp.csc_matrix(self._candidate)

    @property
    def competing_sparse(self) -> Any:
        """Competing interest as a canonical scipy CSC matrix."""
        if self._backend == "sparse":
            return self._competing
        _require_scipy()
        return _sp.csc_matrix(self._competing)

    @property
    def n_users(self) -> int:
        return self._candidate.shape[0]

    @property
    def n_events(self) -> int:
        return self._candidate.shape[1]

    @property
    def n_competing(self) -> int:
        return self._competing.shape[1]

    # ------------------------------------------------------------------
    # element accessors
    # ------------------------------------------------------------------
    def mu_event(self, user: int, event: int) -> float:
        """``mu(u, e)`` for a candidate event."""
        return float(self._candidate[user, event])

    def mu_competing(self, user: int, competing: int) -> float:
        """``mu(u, c)`` for a competing event."""
        return float(self._competing[user, competing])

    def event_column(self, event: int) -> np.ndarray:
        """All users' interest in candidate ``event`` as a dense vector."""
        return self._dense_column(self._candidate, event)

    def competing_column(self, competing: int) -> np.ndarray:
        """All users' interest in competing event ``competing``."""
        return self._dense_column(self._competing, competing)

    def _dense_column(self, matrix: Any, column: int) -> np.ndarray:
        if self._backend == "dense":
            return matrix[:, column]
        out = np.zeros(matrix.shape[0])
        start, stop = matrix.indptr[column], matrix.indptr[column + 1]
        out[matrix.indices[start:stop]] = matrix.data[start:stop]
        return out

    # ------------------------------------------------------------------
    # accessor protocol: column gather + mass accumulation
    # ------------------------------------------------------------------
    def event_column_entries(self, event: int) -> tuple[np.ndarray, np.ndarray]:
        """Nonzero ``(rows, values)`` of one candidate column (sorted rows)."""
        return self._column_entries(self._candidate, event)

    def competing_column_entries(
        self, competing: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Nonzero ``(rows, values)`` of one competing column (sorted rows)."""
        return self._column_entries(self._competing, competing)

    def _column_entries(
        self, matrix: Any, column: int
    ) -> tuple[np.ndarray, np.ndarray]:
        if self._backend == "sparse":
            start, stop = matrix.indptr[column], matrix.indptr[column + 1]
            return (
                matrix.indices[start:stop].astype(np.intp, copy=False),
                matrix.data[start:stop],
            )
        dense = matrix[:, column]
        rows = np.flatnonzero(dense)
        return rows.astype(np.intp, copy=False), dense[rows]

    def competing_mass_entries(
        self, rivals: Sequence[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """``K_t`` as a sparse vector: sum of the given competing columns.

        This is the per-interval mass accumulation of Eq. 1's denominator,
        returned as canonical sorted ``(rows, values)`` with zeros dropped.
        Values are accumulated in ``rivals`` order per user, matching the
        reference :func:`repro.core.attendance.luce_denominator` loop.
        """
        return accumulate_entries(
            (self.competing_column_entries(rival) for rival in rivals),
            self.n_users,
        )

    # ------------------------------------------------------------------
    # canonical export (serialization)
    # ------------------------------------------------------------------
    def candidate_coo(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Canonical ``(rows, cols, values)`` of the candidate matrix.

        Entries are emitted column-major (CSC order: sorted by column, then
        row) with explicit zeros dropped, so two equal matrices always
        serialize identically regardless of construction history.
        """
        return self._coo(self.candidate_sparse)

    def competing_coo(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Canonical ``(rows, cols, values)`` of the competing matrix."""
        return self._coo(self.competing_sparse)

    @staticmethod
    def _coo(csc: Any) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        coo = csc.tocoo()
        return (
            coo.row.astype(np.intp, copy=False),
            coo.col.astype(np.intp, copy=False),
            np.asarray(coo.data, dtype=float),
        )

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_arrays(
        cls,
        candidate: np.ndarray,
        competing: np.ndarray | None = None,
        backend: str | None = None,
    ) -> "InterestMatrix":
        """Build from ready-made arrays; ``competing=None`` means no rivals.

        ``backend=None`` auto-detects: scipy sparse inputs stay sparse,
        numpy arrays stay dense.
        """
        if _sp is None or not _sp.issparse(candidate):
            candidate = np.asarray(candidate, dtype=float)
        if competing is None:
            competing = np.zeros((candidate.shape[0], 0))
        elif _sp is None or not _sp.issparse(competing):
            competing = np.asarray(competing, dtype=float)
        return cls(candidate=candidate, competing=competing, backend=backend)

    @classmethod
    def from_scipy(
        cls,
        candidate: Any,
        competing: Any = None,
    ) -> "InterestMatrix":
        """Build a sparse-backed matrix from scipy sparse inputs."""
        _require_scipy()
        if competing is None:
            competing = _sp.csc_matrix((candidate.shape[0], 0))
        return cls(candidate=candidate, competing=competing, backend="sparse")

    @classmethod
    def from_function(
        cls,
        n_users: int,
        n_events: int,
        n_competing: int,
        event_interest: Callable[[int, int], float],
        competing_interest: Callable[[int, int], float] | None = None,
        backend: str = "dense",
    ) -> "InterestMatrix":
        """Materialize ``mu`` by evaluating callables over every pair."""
        candidate = np.empty((n_users, n_events))
        for user in range(n_users):
            for event in range(n_events):
                candidate[user, event] = event_interest(user, event)
        competing = np.zeros((n_users, n_competing))
        if competing_interest is not None:
            for user in range(n_users):
                for rival in range(n_competing):
                    competing[user, rival] = competing_interest(user, rival)
        return cls(candidate=candidate, competing=competing, backend=backend)

    @classmethod
    def from_sparse(
        cls,
        n_users: int,
        n_events: int,
        n_competing: int,
        event_entries: Mapping[tuple[int, int], float],
        competing_entries: Mapping[tuple[int, int], float] | None = None,
        backend: str = "dense",
    ) -> "InterestMatrix":
        """Build from ``{(user, event): mu}`` mappings; absent pairs are 0.

        With ``backend="sparse"`` the entries go straight into CSC storage
        and no dense ``(n_users, n_events)`` array ever exists.
        """
        if backend == "sparse":
            _require_scipy()
            candidate = cls._coo_from_entries(event_entries, (n_users, n_events))
            competing = cls._coo_from_entries(
                competing_entries or {}, (n_users, n_competing)
            )
            return cls(candidate=candidate, competing=competing, backend="sparse")
        candidate = np.zeros((n_users, n_events))
        for (user, event), value in event_entries.items():
            candidate[user, event] = value
        competing = np.zeros((n_users, n_competing))
        for (user, rival), value in (competing_entries or {}).items():
            competing[user, rival] = value
        return cls(candidate=candidate, competing=competing, backend=backend)

    @staticmethod
    def _coo_from_entries(
        entries: Mapping[tuple[int, int], float], shape: tuple[int, int]
    ) -> Any:
        if not entries:
            return _sp.csc_matrix(shape)
        rows = np.fromiter((pair[0] for pair in entries), dtype=np.intp)
        cols = np.fromiter((pair[1] for pair in entries), dtype=np.intp)
        values = np.fromiter(entries.values(), dtype=float)
        return _sp.coo_matrix((values, (rows, cols)), shape=shape)

    # ------------------------------------------------------------------
    # column edits (streaming change ops) — backend preserving
    # ------------------------------------------------------------------
    def _as_column(self, column: Any) -> "np.ndarray":
        column = np.asarray(column, dtype=float)
        if column.shape != (self.n_users,):
            raise InstanceValidationError(
                f"interest column must have shape ({self.n_users},), "
                f"got {column.shape}"
            )
        return column

    def _stack(self, matrix: Any, column: np.ndarray) -> Any:
        if self._backend == "sparse":
            return _sp.hstack(
                [matrix, _sp.csc_matrix(column.reshape(-1, 1))], format="csc"
            )
        return np.column_stack([matrix, column])

    def with_event_column(self, column: Any) -> "InterestMatrix":
        """A copy with ``column`` appended as a new candidate event.

        The storage backend is preserved: a sparse matrix stays CSC (the
        column is appended in O(nnz)), so streaming arrivals never silently
        densify a Meetup-scale instance.
        """
        column = self._as_column(column)
        return InterestMatrix(
            candidate=self._stack(self._candidate, column),
            competing=self._competing,
            backend=self._backend,
        )

    def without_event_column(self, event: int) -> "InterestMatrix":
        """A copy with candidate ``event``'s column removed (backend kept)."""
        if not 0 <= event < self.n_events:
            raise ValueError(
                f"cannot drop event column {event}; matrix has "
                f"{self.n_events} events"
            )
        keep = [e for e in range(self.n_events) if e != event]
        return InterestMatrix(
            candidate=self._candidate[:, keep],
            competing=self._competing,
            backend=self._backend,
        )

    def with_replaced_event_column(
        self, event: int, column: Any
    ) -> "InterestMatrix":
        """A copy with candidate ``event``'s column replaced (backend kept)."""
        if not 0 <= event < self.n_events:
            raise ValueError(
                f"cannot replace event column {event}; matrix has "
                f"{self.n_events} events"
            )
        column = self._as_column(column)
        if self._backend == "sparse":
            parts = [
                self._candidate[:, :event],
                _sp.csc_matrix(column.reshape(-1, 1)),
                self._candidate[:, event + 1 :],
            ]
            candidate = _sp.hstack(parts, format="csc")
        else:
            candidate = np.array(self._candidate)
            candidate[:, event] = column
        return InterestMatrix(
            candidate=candidate, competing=self._competing, backend=self._backend
        )

    def with_competing_column(self, column: Any) -> "InterestMatrix":
        """A copy with ``column`` appended as a new competing event."""
        column = self._as_column(column)
        return InterestMatrix(
            candidate=self._candidate,
            competing=self._stack(self._competing, column),
            backend=self._backend,
        )

    # ------------------------------------------------------------------
    # backend conversion / restriction
    # ------------------------------------------------------------------
    def to_backend(self, backend: str) -> "InterestMatrix":
        """This matrix with ``backend`` storage (``self`` if already there)."""
        if backend not in INTEREST_BACKENDS:
            raise ValueError(
                f"unknown interest backend {backend!r}; "
                f"choose from {INTEREST_BACKENDS}"
            )
        if backend == self._backend:
            return self
        if backend == "sparse":
            return InterestMatrix.from_scipy(
                self.candidate_sparse, self.competing_sparse
            )
        return InterestMatrix(
            candidate=self.candidate, competing=self.competing, backend="dense"
        )

    def restrict_users(self, n_users: int) -> "InterestMatrix":
        """The first ``n_users`` rows of both matrices, backend preserved."""
        if not 0 <= n_users <= self.n_users:
            raise ValueError(
                f"cannot restrict to {n_users} users; matrix has {self.n_users}"
            )
        return InterestMatrix(
            candidate=self._candidate[:n_users],
            competing=self._competing[:n_users],
            backend=self._backend,
        )

    # ------------------------------------------------------------------
    # derived statistics (used by reports and calibration)
    # ------------------------------------------------------------------
    def nnz_candidate(self) -> int:
        """Number of stored nonzero candidate-interest entries."""
        if self._backend == "sparse":
            return int(self._candidate.nnz)
        return int(np.count_nonzero(self._candidate))

    def sparsity(self) -> float:
        """Fraction of exactly-zero candidate-interest entries."""
        size = self.n_users * self.n_events
        if size == 0:
            return 1.0
        return float((size - self.nnz_candidate()) / size)

    def mean_positive_interest(self) -> float:
        """Mean of the strictly positive candidate-interest values (0 if none)."""
        if self._backend == "sparse":
            positive = self._candidate.data[self._candidate.data > 0]
        else:
            positive = self._candidate[self._candidate > 0]
        return float(positive.mean()) if positive.size else 0.0

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"InterestMatrix(users={self.n_users}, events={self.n_events}, "
            f"competing={self.n_competing}, backend={self._backend!r})"
        )
