"""Command-line interface: ``python -m repro <command>``.

Subcommands:

* ``boot`` — assemble and boot a deployment, print trap statistics.
* ``attack`` — run one of the adversarial-firmware attacks natively or
  under the sandbox, and report containment.
* ``verify`` — run the §6 verification tasks and print the report
  (sharded across workers with ``--workers``).
* ``fuzz`` — run a native-vs-virtualized differential fuzzing campaign.
* ``campaign`` — run the verif/fuzz/chaos families as one sharded,
  parallel campaign with a deterministic aggregate report.
* ``trace`` — inspect a trace file written by ``boot --trace=FILE``.
* ``replay`` — re-execute a repro bundle deterministically; exits 0
  only when the replayed failure signature matches byte-for-byte.
* ``shrink`` — delta-debug a repro bundle down to a 1-minimal repro.
"""

from __future__ import annotations

import argparse
import sys

from repro.spec.platform import PLATFORMS, VISIONFIVE2


def _add_platform_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--platform", choices=sorted(PLATFORMS), default="visionfive2",
        help="simulated platform (default: visionfive2)",
    )


def _demo_workload(kernel, ctx):
    t0 = kernel.read_time(ctx)
    kernel.print(ctx, f"[kernel] up at time={t0}\n")
    ctx.compute(20_000)
    kernel.sbi_send_ipi(ctx, 0b1, 0)
    ctx.compute(100)
    kernel.print(ctx, f"[kernel] time={kernel.read_time(ctx)} "
                      f"ssi={kernel.software_interrupts}\n")


#: Halt reasons that indicate the boot failed rather than completed.
def _diagnose_halt(reason: str):
    """One-line diagnosis if ``reason`` is a failure halt, else None."""
    if reason.startswith("firmware panic"):
        return f"firmware panicked: {reason}"
    if reason.startswith("miralis:"):
        return f"monitor stopped the machine: {reason}"
    if reason.startswith("kernel:"):
        return f"kernel fault: {reason}"
    if "violation" in reason:
        return f"policy violation: {reason}"
    return None


def _make_tracer(args):
    """A Tracer when ``--trace`` was given (with or without a file)."""
    if getattr(args, "trace", None) is None:
        return None
    from repro.trace import Tracer

    return Tracer()


def _finish_trace(args, tracer) -> None:
    if tracer is None:
        return
    from repro.trace import dump_trace, trace_summary

    print(trace_summary(tracer))
    if args.trace:  # --trace=FILE writes the Chrome trace document
        dump_trace(tracer, args.trace)
        print(f"trace written:    {args.trace}")


def command_chaos(args: argparse.Namespace) -> int:
    from repro.faults import run_chaos

    tracer = _make_tracer(args)
    result = run_chaos(
        args.firmware,
        plan=args.chaos_plan,
        seed=args.chaos_seed,
        platform=PLATFORMS[args.platform],
        tracer=tracer,
        harts=args.harts,
        quantum=args.quantum,
        smp_jitter=args.smp_jitter,
    )
    if result.console:
        print(result.console)
    print(result.report())
    if args.bundle and (not result.ok or result.quarantined
                        or result.error is not None):
        from repro.triage import bundle_from_chaos, save_bundle

        bundle = bundle_from_chaos(
            result, platform=args.platform, harts=args.harts,
            quantum=args.quantum, smp_jitter=args.smp_jitter,
            source="boot:chaos", tracer=tracer,
        )
        save_bundle(bundle, args.bundle)
        print(f"bundle written:   {args.bundle} "
              f"(signature {bundle['signature']['digest'][:12]})")
    _finish_trace(args, tracer)
    return 0 if result.ok else 1


def command_boot(args: argparse.Namespace) -> int:
    from repro.hart.program import MachineHalted, ProtocolError
    from repro.perf import StepMeter, cache_stats, profile_report
    from repro.system import build_native, build_virtualized
    from repro.policy import DefaultPolicy, FirmwareSandboxPolicy

    if args.harts is not None and args.harts < 1:
        print("--harts must be at least 1")
        return 2
    if args.chaos:
        if args.profile:
            print("--profile does not apply to --chaos (its recoveries: "
                  "line reports the watchdog's decisions)")
            return 2
        return command_chaos(args)
    if args.firmware in ("zephyr", "malicious"):
        print(f"--firmware={args.firmware} requires --chaos "
              f"(see also the 'attack' command)")
        return 2
    firmware_class = None  # platform vendor default
    if args.firmware == "rustsbi":
        from repro.firmware.rustsbi import RustSbiFirmware

        firmware_class = RustSbiFirmware
    platform = PLATFORMS[args.platform]
    smp = args.harts is not None
    if smp:
        import dataclasses

        platform = dataclasses.replace(platform, num_harts=args.harts)
    # Pick the workloads.  --smp-workload selects a cross-hart generator;
    # the demo workload stays the single-stream default.
    primary, secondary = _demo_workload, None
    if args.smp_workload is not None:
        from repro.os_model.workloads import SMP_WORKLOADS

        primary, secondary = SMP_WORKLOADS[args.smp_workload]()
    # Snapshot the process-lifetime cache counters so --profile reports
    # this run only, even when several boots share one process.
    baseline = cache_stats()
    build_kwargs = dict(
        workload=primary,
        secondary_workload=secondary,
        firmware_class=firmware_class,
        start_secondaries=smp and platform.num_harts > 1,
    )
    if args.native:
        system = build_native(platform, **build_kwargs)
    else:
        policy = (
            FirmwareSandboxPolicy(
                extra_allowed_regions=[(platform.uart_base, 0x100)]
            )
            if args.policy == "sandbox"
            else DefaultPolicy()
        )
        system = build_virtualized(
            platform, policy=policy, offload=not args.no_offload,
            **build_kwargs,
        )
    tracer = _make_tracer(args)
    system.machine.tracer = tracer
    meter = StepMeter()
    try:
        with meter:
            if smp:
                reason = system.run_smp(
                    quantum=args.quantum, seed=args.smp_seed,
                    jitter=args.smp_jitter,
                )
            else:
                reason = system.run()
    except (MachineHalted, ProtocolError) as exc:
        # Normally ``boot`` returns the halt reason; an exception escaping
        # here means the run died mid-dispatch (e.g. a wedged firmware).
        print(system.console_output)
        print(f"boot failed: {exc}")
        return 1
    meter.add_steps(sum(hart.instret for hart in system.machine.harts))
    print(system.console_output)
    print(f"halt:             {reason}")
    stats = system.machine.stats
    print(f"traps to M-mode:  {stats.total_traps}")
    print(f"simulated time:   {system.machine.elapsed_seconds * 1000:.3f} ms")
    if system.virtualized:
        print(f"world switches:   {stats.world_switches}")
        print(f"emulated instrs:  {stats.firmware_emulations}")
        print(f"fast-path hits:   {dict(system.miralis.offload.hits)}")
    scheduler = system.machine.scheduler
    if scheduler is not None:
        print(f"smp slices:       {scheduler.slices} "
              f"(quantum={scheduler.quantum}, seed={scheduler.seed}, "
              f"jitter={scheduler.jitter})")
        print(f"smp steps/hart:   {scheduler.steps}")
    if args.profile:
        print(profile_report(system.machine, meter, baseline))
    _finish_trace(args, tracer)
    diagnosis = _diagnose_halt(reason)
    if diagnosis is not None:
        print(f"boot failed: {diagnosis}")
        return 1
    return 0


def command_attack(args: argparse.Namespace) -> int:
    from repro.firmware.malicious import ATTACKS, MaliciousFirmware, TRIGGER_EID
    from repro.policy import FirmwareSandboxPolicy
    from repro.system import build_native, build_virtualized, memory_regions

    if args.list:
        for attack in ATTACKS:
            print(attack)
        return 0
    platform = PLATFORMS[args.platform]
    regions = memory_regions(platform)
    secret = regions["kernel"].base + 0x2000

    def workload(kernel, ctx):
        ctx.store(secret, 0x5EC12E7, size=8)
        kernel.sbi_call(ctx, TRIGGER_EID, 0)

    kwargs = dict(
        firmware_class=MaliciousFirmware,
        workload=workload,
        firmware_kwargs={
            "attack": args.name,
            "os_secret_address": secret,
            "monitor_address": regions["miralis"].base + 0x100,
        },
    )
    if args.native:
        system = build_native(platform, **kwargs)
    else:
        system = build_virtualized(
            platform,
            policy=FirmwareSandboxPolicy(
                extra_allowed_regions=[(platform.uart_base, 0x100)]
            ),
            offload=False,
            **kwargs,
        )
    reason = system.run()
    outcome = system.firmware.outcome
    print(f"deployment: {'native' if args.native else 'miralis+sandbox'}")
    print(f"attack:     {args.name}")
    print(f"attempted:  {outcome.attempted}")
    print(f"succeeded:  {outcome.succeeded}")
    print(f"note:       {outcome.note}")
    print(f"halt:       {reason}")
    return 1 if outcome.succeeded and not args.native else 0


def _parse_shard(spec):
    """``--shard I/M`` -> (index, count), or None."""
    if spec is None:
        return None
    try:
        index_text, _, count_text = spec.partition("/")
        index, count = int(index_text), int(count_text)
    except ValueError:
        raise SystemExit(f"bad --shard {spec!r}; expected I/M, e.g. 0/4")
    if not 0 <= index < count:
        raise SystemExit(f"bad --shard {spec!r}; need 0 <= I < M")
    return index, count


def _filter_shard(cells, shard):
    if shard is None:
        return cells
    from repro.campaign import shard_of

    index, count = shard
    return [cell for cell in cells if shard_of(cell.key, count) == index]


def command_verify(args: argparse.Namespace) -> int:
    from repro.campaign import (
        merged_check_reports,
        run_campaign,
        verif_cells,
    )

    # The verification sweep runs through the campaign runner: the same
    # cells at any worker count, merged into one report per Table 2 task.
    cells = _filter_shard(
        verif_cells(platform=args.platform, states=args.states),
        _parse_shard(args.shard),
    )
    campaign = run_campaign(cells, workers=args.workers)
    failed = False
    for result in campaign.results:
        if result.status in ("error", "timeout", "skipped"):
            failed = True
            print(f"{result.key}: {result.status.upper()} ({result.error})")
    for report in merged_check_reports(campaign.results):
        print(report.summary())
        if not report.passed:
            failed = True
            print(report.first_failures())
    return 1 if failed else 0


def _run_sweep(cells, budget_seconds=None):
    """Run one command's cells serially through the campaign runner and
    merge them.  ^C drains like ``repro campaign``: the cell in flight
    finishes, the rest are skipped, and the report is partial (exit 3)."""
    from repro.campaign import merge_campaign, run_campaign

    campaign = run_campaign(cells, budget_seconds=budget_seconds,
                            handle_sigint=True)
    aggregate = merge_campaign(campaign)
    if campaign.interrupted:
        print("campaign interrupted (SIGINT): in-flight cells drained, "
              "remaining cells skipped")
    for failure in aggregate["failures"]:
        if failure["status"] in ("error", "timeout"):
            print(f"  {failure['key']}: {failure['status'].upper()} "
                  f"({failure['error']})")
    return campaign, aggregate


def _finding_line(finding: dict) -> str:
    """A payload finding as ``str(FuzzFinding)`` prints it: the diff in
    the observation's field order, which the bundle's ``native`` keeps."""
    from repro.verif.fuzz import describe_finding

    bundle = finding["bundle"]
    diff = {key: finding["diff"][key] for key in bundle["failure"]["native"]
            if key in finding["diff"]}
    return describe_finding(bundle["seeds"]["seed"], finding["offload"],
                            diff, finding["steps"])


def command_fuzz(args: argparse.Namespace) -> int:
    from repro.campaign import exit_code, fuzz_cells

    if args.cov:
        return _command_fuzz_guided(args)
    # One seed per cell: the campaign budget falls between seeds, and
    # the seeds it cuts off are reported skipped.
    campaign, aggregate = _run_sweep(
        fuzz_cells(start=args.start, count=args.count, length=args.length,
                   platform=args.platform, offload=not args.no_offload,
                   chunk=1),
        budget_seconds=args.budget,
    )
    fuzz = aggregate.get("fuzz", {"seeds_run": [], "seeds_skipped": [],
                                  "findings": []})
    print(f"{len(fuzz['seeds_run'])} scenarios, "
          f"{len(fuzz['findings'])} divergence(s)")
    for finding in fuzz["findings"]:
        print(" ", _finding_line(finding))
    if args.bundle_dir:
        _save_campaign_bundles(campaign, args.bundle_dir)
    skipped = fuzz["seeds_skipped"]
    if skipped:
        cause = ""
        if aggregate["counts"]["skipped"] and not campaign.interrupted:
            cause = (f"campaign budget hit after "
                     f"{campaign.wall_seconds:.1f}s: ")
        print(f"{cause}{len(skipped)} seed(s) skipped "
              f"({skipped[0]}..{skipped[-1]})")
    return exit_code(aggregate)


def _command_fuzz_guided(args: argparse.Namespace) -> int:
    """``repro fuzz --cov``: one covfuzz cell over the corpus; its kept
    inputs fold into ``--corpus`` after the run."""
    from repro.campaign import covfuzz_cells, exit_code, fold_kept

    campaign, aggregate = _run_sweep(covfuzz_cells(
        cells=1, cases=args.count, length=args.length,
        platform=args.platform, offload=not args.no_offload,
        seed=args.start, corpus_dir=args.corpus,
    ))
    if any(failure["status"] != "fail" for failure in aggregate["failures"]):
        return exit_code(aggregate)  # the guided run did not finish
    covfuzz = aggregate["covfuzz"]
    before, after = fold_kept(aggregate, args.corpus)
    report = covfuzz["report"]
    print(f"guided fuzz: {covfuzz['replayed']} corpus input(s) replayed, "
          f"{covfuzz['executed']} mutation(s) run, "
          f"{len(covfuzz['kept'])} kept "
          f"({before} -> {after} corpus entries)")
    print(f"coverage: {report['bitmap_bits']} bitmap bits, "
          f"{report['paths']} exact paths, "
          f"{report['pairs_covered']}/{report['pairs_total']} trap paths "
          f"(digest {covfuzz['coverage_digest'][:12]})")
    print(f"{len(covfuzz['findings'])} divergence(s)")
    for finding in covfuzz["findings"]:
        print(" ", _finding_line(finding))
    if args.bundle_dir:
        _save_campaign_bundles(campaign, args.bundle_dir)
    return exit_code(aggregate)


def command_cov_report(args: argparse.Namespace) -> int:
    """``repro cov report``: replay a corpus, print trap-path coverage.

    The replay is a covfuzz cell with no mutations: it runs every corpus
    entry and folds its coverage in under the entry's digest.
    """
    import os

    from repro.campaign import covfuzz_cells, exit_code
    from repro.coverage import CoverageMap

    # Loading a corpus creates its directory; a report must not.
    if not os.path.isdir(args.corpus):
        print(f"no corpus directory {args.corpus!r}")
        return 2
    campaign, aggregate = _run_sweep(covfuzz_cells(
        cells=1, cases=0, platform=args.platform,
        offload=not args.no_offload, corpus_dir=args.corpus,
    ))
    if any(failure["status"] != "fail" for failure in aggregate["failures"]):
        return exit_code(aggregate)  # the replay did not finish
    covfuzz = aggregate["covfuzz"]
    report = covfuzz["report"]
    print(f"corpus: {covfuzz['replayed']} input(s) ({args.corpus})")
    print(f"coverage: {report['records']} trap(s) recorded, "
          f"{report['bitmap_bits']} bitmap bits, "
          f"{report['paths']} exact paths")
    print(f"trap paths covered: "
          f"{report['pairs_covered']}/{report['pairs_total']}")
    for world in sorted(report["worlds"]):
        stats = report["worlds"][world]
        keys = ",".join(f"{key:#x}" for key in stats["cause_keys"])
        print(f"  {world:8s} {stats['covered']:2d}/{stats['total']:2d}"
              + (f"  [{keys}]" if keys else ""))
    print(f"digest: {covfuzz['coverage_digest']}")
    if covfuzz["findings"]:
        print(f"warning: {len(covfuzz['findings'])} corpus input(s) "
              f"diverge on replay")
    if args.json:
        with open(args.json, "w") as handle:
            handle.write(
                CoverageMap.from_doc(covfuzz["coverage"]).canonical_json())
        print(f"coverage document written: {args.json}")
    # A diverging entry is a warning here, not a failed report.
    return 3 if campaign.interrupted else 0


def _parse_list(text: str) -> list[str]:
    return [item for item in (part.strip() for part in text.split(","))
            if item]


def _chaos_seed(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(
            f"--chaos-seeds: {text!r} is not an integer") from None


def command_campaign(args: argparse.Namespace) -> int:
    import json

    from repro.campaign import (
        CLI_FAMILIES,
        chaos_cells,
        covfuzz_cells,
        exit_code,
        fold_kept,
        fuzz_cells,
        merge_campaign,
        merged_check_reports,
        run_campaign,
        verif_cells,
    )

    families = _parse_list(args.families)
    unknown = [f for f in families if f not in CLI_FAMILIES]
    if unknown:
        print(f"unknown families: {', '.join(unknown)} "
              f"(choose from {', '.join(CLI_FAMILIES)})")
        return 2
    cells = []
    if "verif" in families:
        cells += verif_cells(platform=args.platform, states=args.states)
    if "fuzz" in families:
        cells += fuzz_cells(
            start=args.fuzz_start, count=args.fuzz_count,
            length=args.fuzz_length, platform=args.platform,
            offload=not args.no_offload, chunk=args.fuzz_chunk,
        )
    if "covfuzz" in families:
        cells += covfuzz_cells(
            cells=args.covfuzz_cells, cases=args.covfuzz_cases,
            length=args.covfuzz_length, platform=args.platform,
            offload=not args.no_offload, seed=args.covfuzz_seed,
            corpus_dir=args.corpus,
        )
    if "chaos" in families:
        try:
            cells += chaos_cells(
                firmwares=_parse_list(args.chaos_firmwares),
                plans=_parse_list(args.chaos_plans),
                seeds=[_chaos_seed(s) for s in _parse_list(args.chaos_seeds)],
                platform=args.platform,
                harts=args.chaos_harts, trace_dir=args.chaos_trace_dir,
                phase=args.chaos_phase,
            )
        except ValueError as exc:
            print(f"campaign: {exc}")
            return 2
        if args.chaos_trace_dir is not None:
            import os

            # Created once here: every cell writes its dump into it.
            os.makedirs(args.chaos_trace_dir, exist_ok=True)
    cells = _filter_shard(cells, _parse_shard(args.shard))
    if not cells:
        print("campaign: no cells selected")
        return 2
    print(f"campaign: {len(cells)} cells across "
          f"{len(set(c.family for c in cells))} families, "
          f"workers={args.workers}")
    # ^C drains in-flight cells, marks the rest skipped, and still
    # writes the partial aggregate below (exit 3, never a lost run).
    campaign = run_campaign(
        cells, workers=args.workers, timeout=args.timeout,
        budget_seconds=args.budget, handle_sigint=True,
    )
    aggregate = merge_campaign(campaign)
    if campaign.interrupted:
        print("campaign interrupted (SIGINT): in-flight cells drained, "
              "remaining cells skipped")
    for family, stats in sorted(aggregate["families"].items()):
        extra = ""
        if family == "fuzz":
            fuzz = aggregate["fuzz"]
            extra = (f", {len(fuzz['findings'])} finding(s)"
                     + (f", {len(fuzz['seeds_skipped'])} seed(s) skipped"
                        if fuzz["seeds_skipped"] else ""))
        elif family == "covfuzz":
            covfuzz = aggregate["covfuzz"]
            report = covfuzz["report"]
            extra = (f", {len(covfuzz['findings'])} finding(s), "
                     f"{len(covfuzz['kept'])} kept, "
                     f"{report['pairs_covered']}/{report['pairs_total']} "
                     f"trap paths")
        print(f"  {family}: {stats['cells']} cells, {stats['ok']} ok, "
              f"{stats['cells'] - stats['ok']} not ok{extra}")
    for report in merged_check_reports(campaign.results):
        print(report.summary())
        if not report.passed:
            print(report.first_failures())
    for finding in aggregate.get("fuzz", {}).get("findings", ()):
        print(f"  fuzz divergence seed={finding['seed']} "
              f"offload={finding['offload']}: {finding['diff']}")
    for finding in aggregate.get("covfuzz", {}).get("findings", ()):
        print(f"  covfuzz divergence "
              f"offload={finding['offload']}: {finding['diff']}")
    if "covfuzz" in aggregate and args.corpus:
        before, after = fold_kept(aggregate, args.corpus)
        print(f"corpus: {before} -> {after} entries ({args.corpus})")
    for failure in aggregate["failures"]:
        print(f"  {failure['key']}: {failure['status'].upper()}"
              + (f" ({failure['error']})" if failure["error"] else ""))
    groups = aggregate["failure_groups"]
    if groups:
        from repro.triage.dedup import summarize_groups

        print(f"deduplicated: {summarize_groups(groups)}")
        for group in groups:
            cause = (group.get("material") or {}).get("cause", "")
            print(f"  {group['signature'][:12]} x{group['count']}: "
                  f"{len(group['cells'])} cell(s)"
                  + (f" — {cause}" if cause else ""))
    if args.bundle_dir:
        _save_campaign_bundles(campaign, args.bundle_dir)
    counts = aggregate["counts"]
    timing = aggregate["timing"]
    print(f"aggregate: {counts['ok']}/{counts['total']} ok "
          f"(fail={counts['fail']} error={counts['error']} "
          f"timeout={counts['timeout']} skipped={counts['skipped']}) "
          f"in {timing['wall_seconds']:.2f}s "
          f"({timing['cells_per_second']:.1f} cells/s)")
    if args.profile:
        print(_campaign_profile(aggregate, campaign))
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(aggregate, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"aggregate written:  {args.json}")
    return exit_code(aggregate)


def _save_campaign_bundles(campaign, bundle_dir: str) -> int:
    """Write every repro bundle the campaign's cells captured and print
    how many files that made.  Bundles are named by signature, so
    identical failures share one file; returns the file count."""
    import os

    from repro.triage.bundle import bundle_filename, save_bundle

    bundles = {}
    for result in campaign.results:
        payload = result.payload if isinstance(result.payload, dict) else {}
        found = [payload.get("bundle")] + [
            finding.get("bundle") for finding in payload.get("findings", ())]
        for bundle in found:
            if bundle is not None:
                bundles[os.path.join(bundle_dir,
                                     bundle_filename(bundle))] = bundle
    if bundles:
        os.makedirs(bundle_dir, exist_ok=True)
        for path, bundle in bundles.items():
            save_bundle(bundle, path)
        print(f"bundles written: {len(bundles)} -> {bundle_dir}/")
    return len(bundles)


def _snapshot_summary(checkpoint) -> str:
    state = checkpoint.state
    return (f"platform:  {checkpoint.platform}\n"
            f"phase:     {checkpoint.phase or '-'}\n"
            f"harts:     {state['num_harts']}\n"
            f"cycles:    {state['machine']['cycles']}\n"
            f"ram pages: {len(checkpoint.pages)}\n"
            f"digest:    {checkpoint.digest()}")


def command_snapshot(args: argparse.Namespace) -> int:
    """``repro snapshot save/load/diff``: the checkpoint store."""
    from repro.snapshot import (
        SnapshotError,
        capture,
        diff_checkpoints,
        load_checkpoint,
        restore,
        save_checkpoint,
    )

    if args.snapshot_command == "save":
        from repro.faults.chaos import _build_sbi_system, capture_kernel_entry

        platform = PLATFORMS[args.platform]
        system, _ = _build_sbi_system(platform, args.firmware)
        checkpoint = capture_kernel_entry(system)
        if checkpoint is None:
            print("boot halted before kernel-entry: "
                  f"{system.machine.halt_reason or 'halted'}")
            return 1
        path = save_checkpoint(checkpoint, args.dir)
        print(_snapshot_summary(checkpoint))
        print(f"saved:     {path}")
        return 0

    if args.snapshot_command == "load":
        try:
            checkpoint = load_checkpoint(args.file)
        except (OSError, ValueError, SnapshotError) as exc:
            print(f"cannot load checkpoint {args.file!r}: {exc}")
            return 2
        print(_snapshot_summary(checkpoint))
        if args.check:
            # Round-trip proof: restore into a fresh machine and
            # re-capture; a faithful restore reproduces the digest.
            from repro.faults.chaos import _build_sbi_system

            platform = PLATFORMS[args.platform]
            system, _ = _build_sbi_system(platform, args.firmware)
            try:
                restore(system.machine, checkpoint)
            except SnapshotError as exc:
                print(f"restore failed: {exc}")
                return 1
            recaptured = capture(system.machine, phase=checkpoint.phase)
            if recaptured.digest() == checkpoint.digest():
                print("check:     restore round-trip reproduces the digest")
                return 0
            print("check:     FAILED — restore+capture digest mismatch")
            return 1
        return 0

    if args.snapshot_command == "diff":
        try:
            a = load_checkpoint(args.a)
            b = load_checkpoint(args.b)
        except (OSError, ValueError, SnapshotError) as exc:
            print(f"cannot load checkpoint: {exc}")
            return 2
        differences = diff_checkpoints(a, b, limit=args.limit)
        if not differences:
            print("checkpoints are identical")
            return 0
        def _short(value) -> str:
            text = repr(value)
            # RAM pages render as 8 KiB hex strings; keep diffs readable.
            return text if len(text) <= 96 else f"{text[:93]}..."

        for entry in differences:
            if entry["missing"] == "a":
                print(f"  {entry['path']}: only in b = {_short(entry['b'])}")
            elif entry["missing"] == "b":
                print(f"  {entry['path']}: only in a = {_short(entry['a'])}")
            else:
                print(f"  {entry['path']}: "
                      f"{_short(entry['a'])} -> {_short(entry['b'])}")
        print(f"{len(differences)} difference(s)"
              + (" (truncated)" if len(differences) >= args.limit else ""))
        return 1

    print(f"unknown snapshot command {args.snapshot_command!r}")
    return 2


def command_replay(args: argparse.Namespace) -> int:
    from repro.triage import load_bundle, replay_bundle

    try:
        bundle = load_bundle(args.bundle)
    except (OSError, ValueError) as exc:
        print(f"cannot load bundle {args.bundle!r}: {exc}")
        return 2
    print(f"replaying {bundle['kind']} bundle "
          f"(signature {bundle['signature']['digest'][:12]}, "
          f"source {bundle.get('source', '?')})")
    if args.bisect:
        from repro.triage import bisect_divergence

        try:
            result = bisect_divergence(bundle)
        except ValueError as exc:
            print(f"cannot bisect: {exc}")
            return 2
        print(result.report())
        return 0 if result.reproduced else 1
    replay = replay_bundle(bundle)
    print(replay.report())
    return 0 if replay.matches else 1


def command_shrink(args: argparse.Namespace) -> int:
    from repro.triage import load_bundle, save_bundle, shrink_bundle

    try:
        bundle = load_bundle(args.bundle)
    except (OSError, ValueError) as exc:
        print(f"cannot load bundle {args.bundle!r}: {exc}")
        return 2
    outcome = shrink_bundle(
        bundle, workers=args.workers, timeout=args.timeout,
        progress=lambda line: print(f"  {line}"),
    )
    print(outcome.report())
    out_path = args.output or args.bundle
    save_bundle(outcome.bundle, out_path)
    print(f"shrunk bundle written: {out_path}")
    return 0


def _campaign_profile(aggregate: dict, campaign) -> str:
    """Per-family timing profile (``campaign --profile``)."""
    per_family: dict[str, list[float]] = {}
    for result in campaign.results:
        per_family.setdefault(result.family, []).append(
            result.elapsed_seconds
        )
    lines = ["campaign profile:"]
    for family, elapsed in sorted(per_family.items()):
        busy = sum(elapsed)
        lines.append(
            f"  {family:8s} {len(elapsed):4d} cells  "
            f"{busy:7.2f}s busy  "
            f"{busy / len(elapsed) * 1000:8.1f} ms/cell"
        )
    wall = aggregate["timing"]["wall_seconds"]
    busy_total = sum(sum(e) for e in per_family.values())
    lines.append(f"  wall {wall:.2f}s, busy {busy_total:.2f}s, "
                 f"utilization {busy_total / wall / campaign.workers:.0%} "
                 f"of {campaign.workers} worker(s)")
    slowest = sorted(campaign.results, key=lambda r: -r.elapsed_seconds)[:3]
    for result in slowest:
        lines.append(f"  slowest: {result.key} "
                     f"{result.elapsed_seconds * 1000:.1f} ms "
                     f"(attempts={result.attempts})")
    return "\n".join(lines)


def command_trace(args: argparse.Namespace) -> int:
    from repro.trace import (
        cause_table, load_trace, render_timeline, validate_chrome_trace,
    )

    try:
        doc = load_trace(args.file)
    except (OSError, ValueError) as exc:
        print(f"cannot read trace {args.file!r}: {exc}")
        return 2
    errors = validate_chrome_trace(doc)
    if args.validate:
        if errors:
            print(f"{args.file}: INVALID ({len(errors)} problem(s))")
            for error in errors:
                print(f"  - {error}")
            return 1
        print(f"{args.file}: valid ({len(doc.get('traceEvents', []))} events)")
        return 0
    if errors:
        print(f"warning: trace failed validation ({len(errors)} problem(s); "
              f"run with --validate for details)")
    if args.timeline:
        print(render_timeline(doc, last=args.last))
    else:
        print(cause_table(doc))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Virtual firmware monitor reproduction (Miralis, SOSP'25)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    boot = sub.add_parser("boot", help="boot a deployment and show stats")
    _add_platform_argument(boot)
    boot.add_argument("--native", action="store_true",
                      help="classical deployment (firmware in M-mode)")
    boot.add_argument("--no-offload", action="store_true",
                      help="disable fast-path offloading")
    boot.add_argument("--policy", choices=["default", "sandbox"],
                      default="sandbox")
    boot.add_argument("--profile", action="store_true",
                      help="print a hot-path profile (cache hit rates, "
                           "steps/sec) after the run; not with --chaos")
    boot.add_argument("--chaos", action="store_true",
                      help="boot under a fault-injection plan with the "
                           "firmware watchdog armed")
    boot.add_argument("--chaos-plan", default="random",
                      help="fault plan name, or 'random' to compose one "
                           "from the seed (default: random)")
    boot.add_argument("--chaos-seed", type=int, default=0,
                      help="seed for the deterministic fault injector")
    boot.add_argument("--bundle", default=None, metavar="FILE",
                      help="with --chaos: write a self-contained repro "
                           "bundle if the run fails or quarantines "
                           "(replay with 'repro replay FILE')")
    boot.add_argument("--firmware",
                      choices=["opensbi", "rustsbi", "zephyr", "malicious"],
                      default="opensbi",
                      help="firmware payload (zephyr/malicious need --chaos)")
    boot.add_argument("--trace", nargs="?", const="", default=None,
                      metavar="FILE",
                      help="record trap-level trace events; with FILE, "
                           "write a Chrome trace_event JSON document")
    boot.add_argument("--harts", type=int, default=None, metavar="N",
                      help="run N harts under the deterministic SMP "
                           "scheduler (secondaries started, round-robin "
                           "interleaving); default: single-stream boot")
    boot.add_argument("--quantum", type=int, default=50,
                      help="SMP slice length in checkpoints (default 50)")
    boot.add_argument("--smp-seed", type=int, default=0,
                      help="seed for the SMP schedule (default 0)")
    boot.add_argument("--smp-jitter", type=int, default=0,
                      help="seeded slice-length jitter for schedule "
                           "fuzzing (default 0)")
    boot.add_argument("--smp-workload",
                      choices=["ipi-pingpong", "rfence-storm",
                               "timer-contention"],
                      default=None,
                      help="cross-hart workload instead of the demo "
                           "workload (pair with --harts)")
    boot.set_defaults(func=command_boot)

    attack = sub.add_parser("attack", help="run an adversarial firmware")
    _add_platform_argument(attack)
    attack.add_argument("name", nargs="?", default="read_os_memory")
    attack.add_argument("--native", action="store_true")
    attack.add_argument("--list", action="store_true",
                        help="list available attacks")
    attack.set_defaults(func=command_attack)

    verify = sub.add_parser("verify", help="run the §6 verification tasks")
    _add_platform_argument(verify)
    verify.add_argument("--states", type=int, default=16,
                        help="machine states per instruction (default 16)")
    verify.add_argument("--workers", type=int, default=1,
                        help="shard the sweep across N worker processes "
                             "(default 1: serial in-process)")
    verify.add_argument("--shard", default=None, metavar="I/M",
                        help="run only shard I of M (for splitting the "
                             "sweep across CI jobs)")
    verify.set_defaults(func=command_verify)

    fuzz = sub.add_parser("fuzz", help="differential fuzzing campaign")
    _add_platform_argument(fuzz)
    fuzz.add_argument("--start", type=int, default=0)
    fuzz.add_argument("--count", type=int, default=20)
    fuzz.add_argument("--length", type=int, default=30)
    fuzz.add_argument("--no-offload", action="store_true")
    fuzz.add_argument("--budget", type=float, default=None, metavar="S",
                      help="campaign wall-clock budget in seconds; on "
                           "expiry remaining seeds are reported as "
                           "skipped (exit 3) instead of running unbounded")
    fuzz.add_argument("--bundle-dir", default=None, metavar="DIR",
                      help="write a repro bundle per divergence into DIR")
    fuzz.add_argument("--cov", action="store_true",
                      help="coverage-guided mode: mutate corpus inputs and "
                           "keep those reaching new trap paths (--start "
                           "seeds the mutation stream, --count is the "
                           "mutation budget)")
    fuzz.add_argument("--corpus", default=None, metavar="DIR",
                      help="with --cov: persistent corpus directory "
                           "(loaded before the run, kept inputs folded "
                           "in after it; omit for an in-memory corpus)")
    fuzz.set_defaults(func=command_fuzz)

    cov = sub.add_parser("cov", help="trap-path coverage tooling")
    cov_sub = cov.add_subparsers(dest="cov_command", required=True)
    cov_report = cov_sub.add_parser(
        "report",
        help="replay a corpus and report covered/total trap paths",
    )
    _add_platform_argument(cov_report)
    cov_report.add_argument("--corpus", required=True, metavar="DIR",
                            help="corpus directory to replay")
    cov_report.add_argument("--no-offload", action="store_true")
    cov_report.add_argument("--json", default=None, metavar="FILE",
                            help="write the full coverage document here")
    cov_report.set_defaults(func=command_cov_report)

    campaign = sub.add_parser(
        "campaign",
        help="sharded parallel campaign over verif/fuzz/covfuzz/chaos cells",
    )
    _add_platform_argument(campaign)
    campaign.add_argument("--families", default="verif,fuzz,chaos",
                          help="comma list of cell families to run "
                               "(default: verif,fuzz,chaos; covfuzz is "
                               "available opt-in)")
    campaign.add_argument("--workers", type=int, default=1,
                          help="worker processes (default 1: serial; the "
                               "aggregate is identical at any count)")
    campaign.add_argument("--timeout", type=float, default=120.0,
                          help="per-cell wall timeout in seconds; a hung "
                               "cell is killed, retried once, then "
                               "reported (default 120)")
    campaign.add_argument("--budget", type=float, default=None, metavar="S",
                          help="campaign wall-clock budget; unfinished "
                               "cells are reported as skipped")
    campaign.add_argument("--shard", default=None, metavar="I/M",
                          help="run only shard I of M of the cell matrix")
    campaign.add_argument("--json", default=None, metavar="FILE",
                          help="write the aggregate report as JSON")
    campaign.add_argument("--profile", action="store_true",
                          help="print a per-family timing profile")
    campaign.add_argument("--states", type=int, default=8,
                          help="verif: machine states (default 8)")
    campaign.add_argument("--fuzz-start", type=int, default=0)
    campaign.add_argument("--fuzz-count", type=int, default=8)
    campaign.add_argument("--fuzz-length", type=int, default=30)
    campaign.add_argument("--fuzz-chunk", type=int, default=2,
                          help="fuzz seeds per cell (default 2)")
    campaign.add_argument("--no-offload", action="store_true",
                          help="fuzz: disable fast-path offloading")
    campaign.add_argument("--covfuzz-cells", type=int, default=4,
                          help="covfuzz: guided cells (default 4)")
    campaign.add_argument("--covfuzz-cases", type=int, default=8,
                          help="covfuzz: mutations per cell (default 8)")
    campaign.add_argument("--covfuzz-length", type=int, default=8,
                          help="covfuzz: fresh-scenario length (default 8)")
    campaign.add_argument("--covfuzz-seed", type=int, default=0,
                          help="covfuzz: base mutation seed (default 0)")
    campaign.add_argument("--corpus", default=None, metavar="DIR",
                          help="covfuzz: seed cells from this corpus and "
                               "fold kept inputs back in after the merge")
    campaign.add_argument("--chaos-firmwares",
                          default="opensbi,rustsbi,zephyr,malicious")
    campaign.add_argument("--chaos-plans", default="random",
                          help="comma list of fault plans (default: random)")
    campaign.add_argument("--chaos-seeds", default="0",
                          help="comma list of chaos seeds (default: 0)")
    campaign.add_argument("--chaos-harts", type=int, default=None,
                          metavar="N",
                          help="run chaos cells at N harts under the SMP "
                               "scheduler")
    campaign.add_argument("--chaos-phase", default=None,
                          choices=["kernel-entry"],
                          help="start chaos fault injection at a named boot "
                               "phase (the boot up to it runs fault-free)")
    campaign.add_argument("--chaos-trace-dir", default=None, metavar="DIR",
                          help="write a Chrome trace dump per chaos cell "
                               "into DIR (created if missing)")
    campaign.add_argument("--bundle-dir", default=None, metavar="DIR",
                          help="write every captured repro bundle into DIR "
                               "(named by failure signature)")
    campaign.set_defaults(func=command_campaign)

    replay = sub.add_parser(
        "replay",
        help="re-execute a repro bundle; exit 0 only on a byte-for-byte "
             "signature match",
    )
    replay.add_argument("--bisect", action="store_true",
                        help="binary-search the minimal diverging step "
                             "prefix of a fuzz bundle (O(log n) replays) "
                             "instead of replaying it whole")
    replay.add_argument("bundle", help="bundle JSON written by --bundle / "
                                       "--bundle-dir / shrink")
    replay.set_defaults(func=command_replay)

    shrink = sub.add_parser(
        "shrink",
        help="delta-debug a repro bundle to a 1-minimal repro "
             "(same failure signature, fewest fault specs / input steps)",
    )
    shrink.add_argument("bundle", help="bundle JSON to minimize")
    shrink.add_argument("-o", "--output", default=None, metavar="FILE",
                        help="write the shrunk bundle here instead of "
                             "overwriting the input")
    shrink.add_argument("--workers", type=int, default=2,
                        help="campaign-pool workers for candidate replays "
                             "(default 2; 1 = serial, no per-candidate "
                             "timeout)")
    shrink.add_argument("--timeout", type=float, default=60.0,
                        help="per-candidate replay timeout in seconds "
                             "(default 60)")
    shrink.set_defaults(func=command_shrink)

    snapshot = sub.add_parser(
        "snapshot",
        help="capture, inspect, and diff machine checkpoints "
             "(content-addressed store)",
    )
    snapshot_sub = snapshot.add_subparsers(dest="snapshot_command",
                                           required=True)
    snap_save = snapshot_sub.add_parser(
        "save", help="boot to the kernel-entry phase and save a checkpoint")
    snap_save.add_argument("dir", help="checkpoint store directory")
    snap_save.add_argument("--firmware", default="opensbi",
                           choices=["opensbi", "rustsbi"],
                           help="SBI firmware to boot (default: opensbi)")
    _add_platform_argument(snap_save)
    snap_load = snapshot_sub.add_parser(
        "load", help="load a checkpoint file, verify its content address, "
                     "and print a summary")
    snap_load.add_argument("file", help="checkpoint JSON (cp-<digest>.json)")
    snap_load.add_argument("--check", action="store_true",
                           help="also restore into a fresh machine and "
                                "verify the re-captured digest matches")
    snap_load.add_argument("--firmware", default="opensbi",
                           choices=["opensbi", "rustsbi"],
                           help="with --check: firmware to assemble the "
                                "fresh machine with (default: opensbi)")
    _add_platform_argument(snap_load)
    snap_diff = snapshot_sub.add_parser(
        "diff", help="path-labelled state diff between two checkpoints")
    snap_diff.add_argument("a", help="first checkpoint file")
    snap_diff.add_argument("b", help="second checkpoint file")
    snap_diff.add_argument("--limit", type=int, default=200,
                           help="max differences to print (default 200)")
    snapshot.set_defaults(func=command_snapshot)

    trace = sub.add_parser("trace", help="inspect a --trace=FILE document")
    trace.add_argument("file", help="trace JSON written by boot --trace=FILE")
    trace.add_argument("--timeline", action="store_true",
                       help="print the event timeline instead of the "
                            "per-cause breakdown")
    trace.add_argument("--last", type=int, default=None, metavar="N",
                       help="with --timeline, only the last N events")
    trace.add_argument("--validate", action="store_true",
                       help="validate the document against the "
                            "repro-trace-v1 schema (exit 1 on failure)")
    trace.set_defaults(func=command_trace)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
