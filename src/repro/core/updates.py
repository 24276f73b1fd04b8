"""Insertion of new sets and new tokens (Section 6).

Closed universe: a new set goes to the group with the highest similarity
upper bound, breaking ties towards the smallest group (matching the balance
property of Section 4).  Open universe: unseen tokens are interned first,
the target group is chosen from the previously-seen portion ``PS = S ∩ T``
(smallest group when ``PS`` is empty), then the TGM grows new columns and
all the set's bits are flipped.
"""

from __future__ import annotations

from typing import Hashable, Sequence

import numpy as np

from repro.core.dataset import Dataset, is_text_token
from repro.core.sets import SetRecord
from repro.core.tgm import TokenGroupMatrix

__all__ = ["choose_group", "insert_set", "remove_set"]


def choose_group(tgm: TokenGroupMatrix, known_ids: Sequence[int], set_size: int) -> int:
    """Pick the insertion group for a set whose known token ids are given.

    Highest upper bound wins; among equal bounds the group with the fewest
    members wins (Section 6).  The bound is the TGM's size-aware one, so a
    set tends to join a group whose members are about its size, which
    keeps the groups' size ranges narrow.  With no known tokens the
    smallest group wins.
    """
    sizes = np.array([len(members) for members in tgm.group_members], dtype=np.int64)
    if not known_ids:
        return int(sizes.argmin())
    bounds = tgm.upper_bounds(known_ids, set_size)
    best_bound = bounds.max()
    tied = np.flatnonzero(bounds == best_bound)
    return int(tied[sizes[tied].argmin()])


def insert_set(
    dataset: Dataset,
    tgm: TokenGroupMatrix,
    tokens: Sequence[Hashable],
    intern: bool = True,
) -> tuple[int, int]:
    """Insert a new set given by raw tokens; return ``(record_index, group_id)``.

    With ``intern=True`` unseen tokens extend the universe (open-universe
    insertion); with ``intern=False`` unseen tokens raise ``KeyError``
    (strictly closed universe).  A token the text dataset format cannot
    carry (:func:`~repro.core.dataset.is_text_token`) raises
    ``ValueError`` before anything is mutated.
    """
    if not tokens:
        raise ValueError("cannot insert an empty set")
    for token in tokens:
        if not is_text_token(token):
            raise ValueError(
                f"cannot insert the token {token!r}: a stored token must be "
                "non-empty and free of whitespace (dataset.txt could not carry it)"
            )
    # Sorted so the candidate-id order never inherits set hash order:
    # downstream consumers are order-insensitive today, but bit-identity
    # across processes must not depend on that staying true.
    previously_seen = sorted(
        token_id
        for token in set(tokens)
        if (token_id := dataset.universe.get_id(token)) is not None
        and token_id < tgm.universe_size
    )
    group_id = choose_group(tgm, previously_seen, len(tokens))

    if intern:
        token_ids = dataset.universe.intern_all(tokens)
    else:
        token_ids = [dataset.universe.id_of(token) for token in tokens]
    record = SetRecord(token_ids)
    record_index = dataset.append(record)
    tgm.register(group_id, record_index, record)
    return record_index, group_id


def remove_set(tgm: TokenGroupMatrix, record_index: int) -> int:
    """Logically delete a set: searches no longer return it.

    The record stays in the dataset (indices are stable) but leaves its
    group's membership; its token bits remain until a rebuild, which keeps
    the TGM sound (bounds can only be looser).  Returns the group id the
    record left.
    """
    return tgm.unregister(record_index)
