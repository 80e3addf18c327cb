"""First-class checkpoint/restore of the simulated machine.

See :mod:`repro.snapshot.checkpoint` for the model.  The package serves
three consumers: the watchdog's activation retries
(:mod:`repro.snapshot.activation`), phased chaos cells (boot once per
worker to a named phase, fork every later cell from the checkpoint), and
triage's checkpoint-bisect (binary-search the first diverging step).
"""

from repro.snapshot.activation import capture_activation, restore_activation
from repro.snapshot.checkpoint import (
    PAGE_SIZE,
    SNAPSHOT_SCHEMA,
    Checkpoint,
    SnapshotError,
    capture,
    restore,
)
from repro.snapshot.store import (
    checkpoint_filename,
    diff_checkpoints,
    load_checkpoint,
    save_checkpoint,
)

__all__ = [
    "PAGE_SIZE",
    "SNAPSHOT_SCHEMA",
    "Checkpoint",
    "SnapshotError",
    "capture",
    "capture_activation",
    "checkpoint_filename",
    "diff_checkpoints",
    "load_checkpoint",
    "restore",
    "restore_activation",
    "save_checkpoint",
]
