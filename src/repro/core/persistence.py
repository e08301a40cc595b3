"""Warm-start snapshots of prepared TagDM sessions.

Preparing a :class:`~repro.core.framework.TagDM` session is the
expensive half of every run: candidate-group enumeration walks the whole
dataset, the topic model is fitted on every group's tag document, and
the signature matrix is vectorised from scratch.  A server process that
restarts -- or a benchmark that re-runs -- pays that cost again even
though nothing changed.

This module persists everything :meth:`TagDM.prepare` produced so a new
process warm-starts in milliseconds:

* the candidate-group descriptions and tuple-index lists (member sets,
  user/item coverage and tag multisets are rebuilt from the dataset --
  cheap and guaranteed consistent with it);
* the signature matrix, bit-for-bit;
* the fitted topic-model state (vocabulary / idf table / Gibbs counts,
  depending on the backend);
* the LSH sign-bit matrices cached on the session's current solve view
  (:meth:`~repro.core.incremental.SessionView.signature_lsh`), so
  warm-started SM-LSH solves skip even the projection matmuls.

A warm load restores the signature matrix and the LSH indexes into the
restored session's first view, which later views inherit until an
insert invalidates them.

Snapshot format (documented in ``PERSISTENCE.md``): a single pickle file
holding one versioned dict with the fields above plus a dataset
fingerprint; :func:`load_session` refuses a snapshot whose fingerprint
does not match the dataset it is given.  Pickle is trusted input -- load
only snapshots your own deployment wrote, exactly as you would treat a
database file.
"""

from __future__ import annotations

import os
import pickle
import zlib
from dataclasses import asdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.enumeration import GroupEnumerationConfig
from repro.core.framework import TagDM
from repro.core.groups import GroupDescription, TaggingActionGroup
from repro.core.signatures import GroupSignatureBuilder
from repro.dataset.store import TaggingDataset

__all__ = [
    "SNAPSHOT_VERSION",
    "CHECKSUM_SAMPLE_SIZE",
    "dataset_fingerprint",
    "read_snapshot",
    "read_snapshot_fingerprint",
    "save_session",
    "load_session",
    "session_from_snapshot",
]

#: Bump when the snapshot dict layout changes; checked on load.
#: v2 added ``action_checksum`` to the dataset fingerprint.
SNAPSHOT_VERSION = 2

#: Upper bound on the number of action rows the fingerprint checksum
#: touches, keeping :func:`dataset_fingerprint` O(1)-ish at any corpus
#: size.
CHECKSUM_SAMPLE_SIZE = 64


def _action_checksum(dataset: TaggingDataset) -> int:
    """Order-insensitive CRC over a bounded sample of action keys.

    Samples up to :data:`CHECKSUM_SAMPLE_SIZE` rows spread evenly across
    the corpus (always including the first and last row) and XOR-combines
    the CRC32 of each row's ``user\\x1fitem\\x1ftags`` key.  XOR makes the
    digest independent of the order the sampled keys are visited in, and
    CRC32 (unlike builtin ``hash``) is stable across processes, so a
    snapshot written by one process checks out in another.
    """
    n = dataset.n_actions
    if n == 0:
        return 0
    if n <= CHECKSUM_SAMPLE_SIZE:
        rows: List[int] = list(range(n))
    else:
        step = n / CHECKSUM_SAMPLE_SIZE
        rows = sorted({int(i * step) for i in range(CHECKSUM_SAMPLE_SIZE)} | {n - 1})
    digest = 0
    for row in rows:
        key = "\x1f".join(
            (dataset.user_of(row), dataset.item_of(row), ",".join(dataset.tags_of(row)))
        )
        digest ^= zlib.crc32(key.encode("utf-8"))
    return digest


def dataset_fingerprint(dataset: TaggingDataset) -> Dict[str, object]:
    """A cheap identity check tying a snapshot to its corpus.

    Deliberately not a full content hash: fingerprinting must stay
    O(1)-ish so warm loads do not re-read the whole dataset.  On top of
    the name/shape/schema identity, ``action_checksum`` folds in a
    bounded sample of actual action content, so a *different* corpus
    that happens to have identical user/item/action counts (the false
    accept the count-only fingerprint allowed) is rejected too.
    """
    return {
        "name": dataset.name,
        "n_actions": dataset.n_actions,
        "n_users": dataset.n_users,
        "n_items": dataset.n_items,
        "user_schema": list(dataset.user_schema),
        "item_schema": list(dataset.item_schema),
        "action_checksum": _action_checksum(dataset),
    }


def read_snapshot(path: Union[str, Path]) -> Dict[str, object]:
    """Deserialise a snapshot file into its version-checked dict.

    The serving layer reads the snapshot *once*, inspects its
    fingerprint to decide between a direct warm start and a tail
    replay, then materialises the session from the same dict with
    :func:`session_from_snapshot` -- no second deserialisation.  Raises
    ``ValueError`` for snapshots of a different :data:`SNAPSHOT_VERSION`.
    """
    with Path(path).open("rb") as handle:
        snapshot = pickle.load(handle)
    version = snapshot.get("snapshot_version")
    if version != SNAPSHOT_VERSION:
        raise ValueError(
            f"{path} is a v{version} snapshot; this library reads v{SNAPSHOT_VERSION}"
        )
    return snapshot


def read_snapshot_fingerprint(path: Union[str, Path]) -> Dict[str, object]:
    """The dataset fingerprint a snapshot was taken against.

    Tells a caller how far a snapshot lags the durable store
    (``n_actions`` / ``n_users`` / ``n_items`` at snapshot time)
    without committing to a session restore.
    """
    return dict(read_snapshot(path)["dataset_fingerprint"])


def _group_payload(groups: List[TaggingActionGroup]) -> List[Tuple[Tuple, Tuple[int, ...]]]:
    """Serialise groups as (predicates, tuple_indices) pairs."""
    return [(group.description.predicates, group.tuple_indices) for group in groups]


def _rebuild_groups(
    payload: List[Tuple[Tuple, Tuple[int, ...]]],
    dataset: TaggingDataset,
    signatures: np.ndarray,
) -> List[TaggingActionGroup]:
    """Materialise groups from the snapshot payload against ``dataset``.

    User/item coverage and tag multisets are recomputed from the tuple
    indices (identical to what enumeration produced, since the dataset is
    the same corpus the fingerprint check admitted), and each group gets
    its signature row restored bit-for-bit.
    """
    groups: List[TaggingActionGroup] = []
    for position, (predicates, tuple_indices) in enumerate(payload):
        indices = tuple(int(i) for i in tuple_indices)
        group = TaggingActionGroup(
            description=GroupDescription(
                predicates=tuple((str(c), str(v)) for c, v in predicates)
            ),
            tuple_indices=indices,
            user_ids=frozenset(dataset.users_for_indices(indices)),
            item_ids=frozenset(dataset.items_for_indices(indices)),
            tags=tuple(dataset.tags_for_indices(indices)),
        )
        group.signature = signatures[position].copy()
        groups.append(group)
    return groups


def save_session(session: TagDM, path: Union[str, Path]) -> Path:
    """Snapshot a prepared session to ``path`` (atomically).

    The snapshot is written to a sibling temporary file and renamed into
    place with :func:`os.replace`, so a crash mid-write leaves either the
    previous snapshot or the new one at ``path`` -- never a torn file.
    The snapshot-rotation policy of the serving layer
    (:mod:`repro.serving.policy`) relies on this.

    Raises ``NotFittedError`` (via the session) when :meth:`TagDM.prepare`
    has not run -- there is nothing worth snapshotting before that.
    """
    view = session.current_view()  # raises NotFittedError when unprepared
    lsh_payload = [
        {
            "n_tables": n_tables,
            "n_bits": index.n_bits,
            "seed": index.seed,
            "bit_cache": [np.asarray(bits, dtype=bool) for bits in index.bit_cache],
        }
        for n_tables, index in sorted(view.lsh_indexes().items())
    ]
    snapshot = {
        "snapshot_version": SNAPSHOT_VERSION,
        "dataset_fingerprint": dataset_fingerprint(session.dataset),
        "enumeration": asdict(session.enumeration),
        "signature_backend": session.signature_backend,
        "signature_dimensions": session.signature_builder.n_dimensions,
        "seed": session.seed,
        "groups": _group_payload(view.groups),
        "signatures": np.asarray(view.signatures, dtype=float),
        "topic_model": session.signature_builder.topic_model,
        "lsh": lsh_payload,
    }
    path = Path(path)
    staging = path.with_name(f"{path.name}.tmp-{os.getpid()}")
    try:
        with staging.open("wb") as handle:
            pickle.dump(snapshot, handle, protocol=pickle.HIGHEST_PROTOCOL)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(staging, path)
    except BaseException:
        staging.unlink(missing_ok=True)
        raise
    return path


def load_session(
    path: Union[str, Path],
    dataset: TaggingDataset,
    function_suite=None,
) -> TagDM:
    """Warm-start a :class:`TagDM` session from a snapshot file.

    ``dataset`` must be the corpus the snapshot was prepared over --
    typically just reloaded from the SQLite store
    (:meth:`~repro.dataset.sqlite_store.SqliteTaggingStore.to_dataset`).
    The returned session is prepared: groups, topic model and -- on its
    current view -- signatures and LSH indexes are restored without
    enumeration, fitting or projection, so ``solve`` results are
    identical to the session that was saved.
    """
    return session_from_snapshot(
        read_snapshot(path), dataset, function_suite=function_suite, source=str(path)
    )


def session_from_snapshot(
    snapshot: Dict[str, object],
    dataset: TaggingDataset,
    function_suite=None,
    source: str = "snapshot",
) -> TagDM:
    """Materialise a warm session from an already-deserialised snapshot.

    The fingerprint check against ``dataset`` still applies; ``source``
    only labels error messages (the file path when coming through
    :func:`load_session`).
    """
    expected = snapshot["dataset_fingerprint"]
    actual = dataset_fingerprint(dataset)
    if expected != actual:
        mismatched = sorted(
            key for key in expected if expected[key] != actual.get(key)
        )
        raise ValueError(
            f"snapshot {source} was prepared over a different dataset "
            f"(mismatched: {', '.join(mismatched)})"
        )

    session = TagDM(
        dataset,
        enumeration=GroupEnumerationConfig(**snapshot["enumeration"]),
        signature_builder=GroupSignatureBuilder.from_fitted(snapshot["topic_model"]),
        function_suite=function_suite,
        seed=snapshot["seed"],
    )
    session.signature_backend = snapshot["signature_backend"]
    signatures = np.asarray(snapshot["signatures"], dtype=float)
    session._groups = _rebuild_groups(snapshot["groups"], dataset, signatures)

    from repro.index.lsh import CosineLshIndex  # lazy: keep import cost off cold paths

    session.freeze().restore(
        signatures,
        {
            entry["n_tables"]: CosineLshIndex.from_cached_bits(
                signatures, entry["bit_cache"], seed=entry["seed"]
            )
            for entry in snapshot["lsh"]
        },
    )
    return session
