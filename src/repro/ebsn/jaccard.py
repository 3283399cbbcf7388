"""Jaccard tag interest — the paper's ``mu`` construction (Section IV.A).

"In order to define the interest of a user to an event, we associate the
events with the tags of the group who organize it.  Then, we compute the
likeness value using Jaccard similarity over the user-event tags."

This module implements exactly that: ``mu(u, e) = |T_u ∩ T_e| / |T_u ∪ T_e|``
with the empty-union convention ``mu = 0``.  The bulk builder vectorizes
over a tag-index encoding so it scales to the full Meetup-CA shape
(42,444 users x 16K events) without quadratic Python loops.

Two bulk builders share that encoding:

* :func:`jaccard_matrix` — dense output, fine up to a few thousand users;
* :func:`jaccard_matrix_sparse` — CSC output holding only the nonzero
  similarities.  Jaccard is nonzero exactly where the tag intersection is
  nonzero, so the sparse intersection product ``U @ E.T`` already carries
  the exact support; the division happens entry-wise on stored values and
  a dense ``(users, events)`` array never exists.  Requires scipy.

Both produce bit-identical values on the stored entries (same membership
encoding, same ``inter / (|T_u| + |T_e| - inter)`` arithmetic), which the
test suite pins.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

try:  # scipy is an optional dependency (the "sparse" extra)
    from scipy import sparse as _sp
except ImportError:  # pragma: no cover - exercised only without scipy
    _sp = None

__all__ = ["jaccard", "jaccard_matrix", "jaccard_matrix_sparse"]


def jaccard(left: frozenset[str] | set[str], right: frozenset[str] | set[str]) -> float:
    """Jaccard similarity of two tag sets; 0 when both are empty."""
    if not left and not right:
        return 0.0
    intersection = len(left & right)
    if intersection == 0:
        return 0.0
    return intersection / (len(left) + len(right) - intersection)


def _tag_vocabulary(
    users: list[frozenset[str]], events: list[frozenset[str]]
) -> dict[str, int]:
    """Deterministic tag -> column-index encoding shared by both builders."""
    vocabulary: dict[str, int] = {}
    for tagset in users:
        for tag in tagset:
            vocabulary.setdefault(tag, len(vocabulary))
    for tagset in events:
        for tag in tagset:
            vocabulary.setdefault(tag, len(vocabulary))
    return vocabulary


def jaccard_matrix(
    user_tagsets: Sequence[Iterable[str]],
    event_tagsets: Sequence[Iterable[str]],
) -> np.ndarray:
    """All-pairs Jaccard similarities as an ``(n_users, n_events)`` matrix.

    Tags are mapped to indices and each side becomes a sparse 0/1
    membership matrix; then ``intersection = U @ E.T`` and the union
    follows from set-size sums, so the whole computation is three BLAS-able
    operations instead of ``n_users * n_events`` Python-level set ops.
    """
    users = [frozenset(tags) for tags in user_tagsets]
    events = [frozenset(tags) for tags in event_tagsets]
    vocabulary = _tag_vocabulary(users, events)

    if not vocabulary or not users or not events:
        return np.zeros((len(users), len(events)))

    user_membership = np.zeros((len(users), len(vocabulary)), dtype=np.float64)
    for row, tagset in enumerate(users):
        for tag in tagset:
            user_membership[row, vocabulary[tag]] = 1.0
    event_membership = np.zeros((len(events), len(vocabulary)), dtype=np.float64)
    for row, tagset in enumerate(events):
        for tag in tagset:
            event_membership[row, vocabulary[tag]] = 1.0

    intersection = user_membership @ event_membership.T
    user_sizes = user_membership.sum(axis=1, keepdims=True)
    event_sizes = event_membership.sum(axis=1, keepdims=True).T
    union = user_sizes + event_sizes - intersection
    return np.divide(
        intersection,
        union,
        out=np.zeros_like(intersection),
        where=union > 0.0,
    )


def _membership_csr(tagsets: list[frozenset[str]], vocabulary: dict[str, int]):
    """0/1 membership as a CSR matrix of shape ``(len(tagsets), |vocab|)``."""
    rows = np.fromiter(
        (row for row, tags in enumerate(tagsets) for _ in tags), dtype=np.intp
    )
    cols = np.fromiter(
        (vocabulary[tag] for tags in tagsets for tag in tags), dtype=np.intp
    )
    return _sp.csr_matrix(
        (np.ones(rows.size), (rows, cols)),
        shape=(len(tagsets), len(vocabulary)),
    )


def jaccard_matrix_sparse(
    user_tagsets: Sequence[Iterable[str]],
    event_tagsets: Sequence[Iterable[str]],
):
    """All-pairs Jaccard similarities as a scipy CSC matrix.

    ``jaccard(u, e) > 0`` iff the tag sets intersect, so the sparse
    intersection count ``U @ E.T`` already has exactly the right support;
    each stored count ``inter`` becomes ``inter / (|T_u| + |T_e| - inter)``
    in place.  Values equal :func:`jaccard_matrix` bit-for-bit; memory is
    O(nnz) instead of O(users * events).
    """
    if _sp is None:  # pragma: no cover - exercised only without scipy
        raise ImportError(
            "jaccard_matrix_sparse requires scipy; install it "
            "(pip install scipy) or use jaccard_matrix"
        )
    users = [frozenset(tags) for tags in user_tagsets]
    events = [frozenset(tags) for tags in event_tagsets]
    vocabulary = _tag_vocabulary(users, events)

    if not vocabulary or not users or not events:
        return _sp.csc_matrix((len(users), len(events)))

    user_membership = _membership_csr(users, vocabulary)
    event_membership = _membership_csr(events, vocabulary)
    user_sizes = np.asarray([len(tags) for tags in users], dtype=np.float64)
    event_sizes = np.asarray([len(tags) for tags in events], dtype=np.float64)

    intersection = (user_membership @ event_membership.T).tocoo()
    union = user_sizes[intersection.row] + event_sizes[intersection.col]
    union -= intersection.data
    similarity = _sp.coo_matrix(
        (intersection.data / union, (intersection.row, intersection.col)),
        shape=(len(users), len(events)),
    ).tocsc()
    similarity.sort_indices()
    return similarity
