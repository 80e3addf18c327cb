"""Coverage-guided scheduling for the differential fuzzer.

The classic greybox loop, specialized to differential trap-path
coverage: replay the corpus to seed a global :class:`CoverageMap`, then
repeatedly pick a parent input, mutate its decoded (action, operand)
sequence, run the differential case with coverage attached, and keep the
mutant iff it lights up bitmap bits or exact trap paths the global map
has not seen.

Everything is a pure function of ``(seed, corpus contents)``: parent
selection draws from the corpus's sorted digest list, mutation draws
from one ``random.Random(seed)`` stream, and the coverage map itself is
deterministic — two runs with the same seed over the same corpus keep
byte-identical entries and produce byte-identical coverage documents.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Optional

from repro.coverage.corpus import Corpus, steps_digest
from repro.coverage.map import CoverageMap
from repro.spec.platform import PlatformConfig, VISIONFIVE2
from repro.verif.fuzz import (
    ALL_ACTIONS,
    FuzzFinding,
    Scenario,
    canonical_steps,
    fuzz_scenario,
)

#: Weight-expanded action names the mutators draw from.  Unlike the seed
#: decoder this includes :data:`~repro.verif.fuzz.EXTENDED_ACTIONS` —
#: mutation is how the guided fuzzer reaches inputs no seed encodes.
GUIDED_NAMES = tuple(name for name, weight in ALL_ACTIONS
                     for _ in range(weight))

#: Step-sequence length cap; splicing could otherwise grow inputs
#: without bound.
MAX_STEPS = 64

#: Probability of generating a fresh random scenario instead of mutating
#: a corpus parent — keeps exploration alive once a corpus exists.
FRESH_RATE = 0.15

MUTATION_OPS = ("havoc", "bitflip", "substitute", "splice")

U32 = (1 << 32) - 1


def mutate_steps(steps, rng: random.Random, splice_with=None,
                 ) -> tuple[tuple[str, int], ...]:
    """Apply one mutation operator to a canonical step sequence.

    ``rng`` is the single deterministic stream driving the whole guided
    run; ``splice_with`` is the second parent for the splice operator
    (splice falls back to havoc without one).
    """
    steps = list(canonical_steps(steps))
    if not steps:
        steps = [(rng.choice(GUIDED_NAMES), rng.getrandbits(32))]
    op = rng.choice(MUTATION_OPS)
    if op == "splice" and splice_with:
        other = list(canonical_steps(splice_with))
        cut = rng.randrange(len(steps) + 1)
        cut_other = rng.randrange(len(other) + 1)
        steps = (steps[:cut] + other[cut_other:]) or steps
    elif op == "bitflip":
        index = rng.randrange(len(steps))
        action, operand = steps[index]
        steps[index] = (action, (operand ^ (1 << rng.randrange(32))) & U32)
    elif op == "substitute":
        for _ in range(1 + rng.randrange(2)):
            index = rng.randrange(len(steps))
            _action, operand = steps[index]
            steps[index] = (rng.choice(GUIDED_NAMES), operand)
    else:  # havoc (also the splice fallback)
        for _ in range(1 + rng.randrange(3)):
            index = rng.randrange(len(steps))
            action, _operand = steps[index]
            steps[index] = (action, rng.getrandbits(32))
    return canonical_steps(steps[:MAX_STEPS])


@dataclasses.dataclass
class GuidedFuzzResult:
    """Outcome of one guided run (replay pass plus mutation loop)."""

    replayed: int = 0
    executed: int = 0
    kept: list[str] = dataclasses.field(default_factory=list)
    findings: list[FuzzFinding] = dataclasses.field(default_factory=list)
    coverage: CoverageMap = dataclasses.field(default_factory=CoverageMap)
    #: 1-based mutation-loop index of the first divergence, if any —
    #: the guided-vs-blind benchmark's figure of merit.
    first_finding_case: Optional[int] = None


def run_guided_fuzz(corpus: Corpus, *, seed: int = 0, cases: int = 50,
                    length: int = 8,
                    platform: PlatformConfig = VISIONFIVE2,
                    offload: bool = True,
                    ) -> GuidedFuzzResult:
    """Run ``cases`` guided mutations over (and into) ``corpus``.

    The corpus is first replayed in canonical order to seed the global
    coverage map (so "new coverage" means new relative to everything
    already kept, not just this run), then mutated.  Kept inputs are
    written through to the corpus — persistent if it has a root
    directory, in-memory otherwise.
    """
    rng = random.Random(seed)
    result = GuidedFuzzResult()

    def run_case(steps) -> tuple[CoverageMap, Optional[FuzzFinding]]:
        case_cov = CoverageMap()
        finding = fuzz_scenario(
            0, length=length, platform=platform, offload=offload,
            steps=steps, coverage=case_cov,
        )
        return case_cov, finding

    for digest, steps in corpus.iter_steps():
        case_cov, finding = run_case(steps)
        # Attribute by content digest: replaying the same entry again —
        # a later guided run, another campaign cell — folds to a no-op,
        # so aggregated record counts stay honest.
        result.coverage.absorb(case_cov, source=digest)
        result.replayed += 1
        if finding is not None:
            result.findings.append(finding)

    while result.executed < cases:
        digests = corpus.digests()
        if not digests or rng.random() < FRESH_RATE:
            parent = None
            steps = canonical_steps(
                Scenario(seed=rng.getrandbits(32), length=length,
                         platform=platform).actions()
            )
        else:
            parent = rng.choice(digests)
            splice_with = corpus.steps_of(rng.choice(digests))
            steps = mutate_steps(corpus.steps_of(parent), rng,
                                 splice_with=splice_with)
        case_cov, finding = run_case(steps)
        result.executed += 1
        new_bits, new_paths = result.coverage.absorb(
            case_cov, source=steps_digest(steps))
        if new_bits or new_paths:
            digest = corpus.add(
                steps, parent=parent,
                origin="guided-fresh" if parent is None else "guided-mutant",
                new_bits=new_bits, new_paths=new_paths,
            )
            result.kept.append(digest)
        if finding is not None:
            result.findings.append(finding)
            if result.first_finding_case is None:
                result.first_finding_case = result.executed
    return result
