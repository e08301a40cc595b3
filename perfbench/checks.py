"""Output checks: served results against in-process references.

Each check returns a list of failure messages (empty when the check
passes); the run counts every message as one failed operation.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from repro.api.diff import ResultDiff, apply_diff, comparable_payload, payloads_equal
from repro.api.errors import SpecValidationError


def result_payload(result) -> Optional[Dict[str, object]]:
    """A :class:`MiningResult`'s payload without its volatile fields."""
    return comparable_payload(result.to_dict())


def check_responses(
    responses: Sequence[tuple], reference: Sequence[Mapping[str, object]]
) -> List[str]:
    """Every ``(spec index, payload)`` response equals its reference payload."""
    failures = []
    for index, payload in responses:
        if not payloads_equal(payload, reference[index]):
            failures.append(f"response to spec {index} differs from the in-process reference")
    return failures


def ledger_gaps(seqs: Sequence[int]) -> Dict[str, int]:
    """Lost and duplicated sequence numbers of a diff ledger read from seq 1."""
    highest = max(seqs) if seqs else 0
    return {
        "lost": len(set(range(1, highest + 1)) - set(seqs)),
        "dup": len(seqs) - len(set(seqs)),
    }


def compose_diffs(diffs: Sequence[Mapping[str, object]]) -> Optional[Dict[str, object]]:
    """Fold a subscription's delivered diffs, oldest first, into a payload."""
    state = None
    for entry in diffs:
        state = apply_diff(ResultDiff.from_dict(entry["diff"]), state)
    return state


def check_subscription(
    subscription_id: str,
    diffs: Sequence[Mapping[str, object]],
    final_payload: Mapping[str, object],
) -> List[str]:
    """The ledger is dense and its composed diff chain equals the final solve."""
    failures = []
    seqs = [int(entry["seq"]) for entry in diffs]
    gaps = ledger_gaps(seqs)
    if gaps["lost"] or gaps["dup"] or seqs != sorted(seqs):
        failures.append(
            f"subscription {subscription_id}: ledger not dense "
            f"(lost={gaps['lost']}, dup={gaps['dup']})"
        )
    try:
        composed = compose_diffs(diffs)
    except SpecValidationError as exc:
        return failures + [f"subscription {subscription_id}: diff chain does not apply: {exc}"]
    if not payloads_equal(composed, final_payload):
        failures.append(
            f"subscription {subscription_id}: composed diff chain differs from the final solve"
        )
    return failures
