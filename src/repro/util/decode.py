"""Checked decoding of the JSON documents the program reads back.

Plans and learning results return from provenance stores and files, so
their parsers check each field rather than coerce it, and raise
:class:`~repro.util.validate.ValidationError` naming the field.  These
helpers live apart from :mod:`repro.util.validate`, which nearly every
module imports, so that only the parsers load them.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Tuple

from repro.util.validate import ValidationError

__all__ = ["check_index", "json_field", "unique_keys", "decode_id_map"]


def check_index(name: str, value: int) -> int:
    """Validate an ``int`` (never a bool) in ``[0, 2**63)`` and return it.

    Activation and VM ids, episode numbers and step counts are indices;
    the upper bound is what a packed ``array("q")`` holds.
    """
    if (
        isinstance(value, bool)
        or not isinstance(value, int)
        or not 0 <= value < 2**63
    ):
        raise ValidationError(
            f"{name} must be an integer in [0, 2**63), got {value!r:.60}"
        )
    return value


def json_field(data: Mapping[str, Any], name: str) -> Any:
    """``data[name]``; a missing field raises :class:`ValidationError`."""
    if name not in data:
        raise ValidationError(f"missing field {name!r}")
    return data[name]


def unique_keys(pairs: List[Tuple[str, Any]]) -> Dict[str, Any]:
    """A ``json.loads`` ``object_pairs_hook`` that rejects a repeated key.

    Plain ``json.loads`` keeps the last of two equal keys, which would
    merge two entries of an id map into one.
    """
    obj: Dict[str, Any] = {}
    for key, value in pairs:
        if key in obj:
            raise ValidationError(f"repeated key {key!r}")
        obj[key] = value
    return obj


def decode_id_map(name: str, data: Any) -> Dict[int, int]:
    """Decode a JSON ``{"<id>": <id>}`` object, keeping its order.

    Each key must be a string of at most 19 ASCII digits and each value
    pass :func:`check_index`.  A key that repeats another once decoded
    (``"1"`` and ``"01"``) is rejected rather than merged.
    """
    if not isinstance(data, Mapping):
        raise ValidationError(f"{name} must be an object, got {data!r:.60}")
    decoded: Dict[int, int] = {}
    for key, value in data.items():
        if not (
            isinstance(key, str)
            and key.isascii()
            and key.isdigit()
            and len(key) <= 19
        ):
            raise ValidationError(
                f"{name} key must be an integer in [0, 2**63), got {key!r:.60}"
            )
        index = check_index(f"{name} key", int(key))
        if index in decoded:
            raise ValidationError(f"{name} repeats key {index} (as {key!r})")
        decoded[index] = check_index(f"{name}[{key}]", value)
    return decoded
