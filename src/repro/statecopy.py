"""The deep copy shared by the components' ``snapshot_state`` /
``restore_state`` pairs, for values whose shape a component does not fix
itself (DESIGN.md §15 describes the state protocol)."""

from __future__ import annotations

import dataclasses
from collections import Counter, defaultdict

from repro.hart.stats import TrapEvent

#: Exact types that are immutable scalars: returned as they are.
_SCALARS = frozenset({int, str, bool, float, type(None)})


def copy_state(value):
    """Deep-copy a state value so a saved state never aliases live state.

    Handles exactly the types monitor state is made of; unknown types are
    assumed to be immutable scalars (ints, strs, enums, None) and pass
    through.
    """
    cls = type(value)
    if cls in _SCALARS:
        return value
    if cls is list:  # register files: lists of ints
        return [v if type(v) in _SCALARS else copy_state(v) for v in value]
    if isinstance(value, TrapEvent):
        return dataclasses.replace(value)
    if isinstance(value, Counter):
        return Counter(value)
    if isinstance(value, defaultdict):
        return defaultdict(value.default_factory,
                           {k: copy_state(v) for k, v in value.items()})
    if isinstance(value, dict):
        return {k: copy_state(v) for k, v in value.items()}
    if isinstance(value, list):
        return [copy_state(v) for v in value]
    if isinstance(value, tuple):
        return tuple(copy_state(v) for v in value)
    if isinstance(value, (bytes, bytearray)):
        return bytearray(value)
    if isinstance(value, set):
        return set(value)
    if hasattr(value, "clone"):  # LatencyHistogram
        return value.clone()
    return value
