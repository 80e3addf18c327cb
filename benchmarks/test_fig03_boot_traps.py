"""Figure 3: distribution of M-mode trap causes over the Linux boot.

Runs the modelled VisionFive 2 boot flow and buckets trap causes into
500 ms windows.  Paper findings reproduced here:

* five causes (time read, timer set, misaligned, IPI, remote fence)
  account for 99.98% of all traps;
* the boot-time trap rate is in the thousands per second (paper: 5 500/s);
* with fast-path offloading, world switches drop to ~1 per second
  (paper: 1.17/s).
"""

from __future__ import annotations

from collections import Counter

from benchmarks.conftest import once
from repro.bench.tables import render_table
from repro.hart.cycles import TIMEBASE_FREQUENCY
from repro.os_model.bootflow import run_boot_flow
from repro.spec.platform import VISIONFIVE2
from repro.system import build_virtualized

SCALE = 0.01  # simulate 1/100 of the 48 s boot; rates are preserved
WINDOW_MTIME = int(0.5 * SCALE * TIMEBASE_FREQUENCY)  # a scaled 500 ms window

CAUSE_LABELS = {
    "time-read": ("offload:time-read", "emulate:time-read"),
    "set-timer": ("offload:set-timer", "sbi:timer.0", "offload:timer-interrupt"),
    "ipi": ("offload:ipi", "sbi:ipi.0", "offload:ipi-interrupt"),
    "rfence": ("offload:rfence", "sbi:rfence.0"),
    "misaligned": ("offload:misaligned", "emulate:misaligned"),
}


def classify(detail: str) -> str:
    for label, needles in CAUSE_LABELS.items():
        if any(detail.startswith(needle) for needle in needles):
            return label
    return "other"


def run_boot():
    box = {}

    def workload(kernel, ctx):
        box["result"] = run_boot_flow(kernel, ctx, scale=SCALE)

    system = build_virtualized(VISIONFIVE2, workload=workload)
    system.run()
    return system, box["result"]


#: Handler annotations marking vM-side activity (the firmware's own
#: emulated instructions); Figure 3 counts traps *from the OS* only.
_FIRMWARE_SIDE = ("emulate:csr", "emulate:mret", "emulate:sret",
                  "emulate:wfi", "emulate:fence", "emulate:ecall",
                  "vclint", "vm-")


def test_figure3_trap_distribution(benchmark, show):
    system, boot = once(benchmark, run_boot)
    # The figure reads the whole log: the boot must fit in the ring.
    assert system.machine.stats.dropped == 0
    events = [
        e for e in system.machine.stats.events
        if e.detail and not any(e.detail.startswith(p) for p in _FIRMWARE_SIDE)
    ]
    assert events

    # Bucket causes into windows (the figure's x axis).
    end = max(event.mtime for event in events)
    windows = [Counter() for _ in range(end // WINDOW_MTIME + 1)]
    totals = Counter()
    for event in events:
        label = classify(event.detail)
        windows[event.mtime // WINDOW_MTIME][label] += 1
        totals[label] += 1

    labels = ["time-read", "set-timer", "ipi", "rfence", "misaligned", "other"]
    rows = []
    for index, window in enumerate(windows):
        window_total = sum(window.values()) or 1
        rows.append(
            [f"{index * 0.5:.1f}s"]
            + [f"{100 * window[label] / window_total:.1f}%" for label in labels]
        )
    show(render_table(
        "Figure 3: trap causes per 500 ms boot window (scaled boot)",
        ["window"] + labels, rows,
    ))

    dominant = sum(totals[label] for label in labels[:-1])
    coverage = dominant / sum(totals.values())
    trap_rate = boot.trap_rate_per_s
    switch_rate = boot.world_switch_rate_per_s
    show(render_table(
        "Figure 3 aggregates",
        ("metric", "paper", "measured"),
        [
            ("five-cause coverage", "99.98%", f"{coverage * 100:.2f}%"),
            ("boot trap rate", "5500/s", f"{trap_rate:.0f}/s"),
            ("world switches (offload)", "1.17/s", f"{switch_rate:.2f}/s"),
        ],
    ))
    assert coverage > 0.99
    assert 1_000 < trap_rate < 20_000
    assert switch_rate < 20  # orders below the trap rate

    # Phase structure is visible: the early (bootloader) windows carry a
    # higher misaligned share than the late (idle) windows.
    early = windows[0]
    late = windows[-1] if sum(windows[-1].values()) else windows[-2]
    early_share = early["misaligned"] / max(1, sum(early.values()))
    late_share = late["misaligned"] / max(1, sum(late.values()))
    assert early_share > late_share
