"""The guided scheduler: deterministic mutation, coverage-driven keeps.

Two runs with the same (seed, corpus) must keep byte-identical entries
and produce byte-identical coverage documents — that is what lets the
campaign runner shard guided fuzzing and still merge deterministically —
and mutation must be the only road to the extended action alphabet, so
existing seed decodes stay stable.
"""

from __future__ import annotations

import random

from repro.core.bugs import seeded
from repro.coverage import Corpus, mutate_steps, run_guided_fuzz
from repro.coverage.guided import GUIDED_NAMES, MAX_STEPS
from repro.verif.fuzz import (
    ACTIONS,
    EXTENDED_ACTIONS,
    Scenario,
    canonical_steps,
)

PARENT = (("read_time", 5), ("send_ipi", 1), ("compute", 300),
          ("set_timer", 60))
OTHER = (("misaligned_load", 3), ("putchar", 65))


class TestMutateSteps:
    def test_deterministic_in_the_rng(self):
        a = [mutate_steps(PARENT, random.Random(7), splice_with=OTHER)
             for _ in range(5)]
        b = [mutate_steps(PARENT, random.Random(7), splice_with=OTHER)
             for _ in range(5)]
        assert a != [PARENT] * 5  # it does mutate
        assert a == b

    def test_output_is_canonical(self):
        rng = random.Random(3)
        for _ in range(50):
            mutant = mutate_steps(PARENT, rng, splice_with=OTHER)
            assert mutant == canonical_steps(mutant)
            assert 0 < len(mutant) <= MAX_STEPS

    def test_length_is_capped(self):
        rng = random.Random(1)
        long_parent = tuple(("compute", i) for i in range(MAX_STEPS))
        for _ in range(40):
            mutant = mutate_steps(long_parent, rng, splice_with=long_parent)
            assert len(mutant) <= MAX_STEPS

    def test_empty_parent_produces_a_step(self):
        assert len(mutate_steps((), random.Random(0))) >= 1

    def test_guided_alphabet_includes_extended_actions(self):
        for name, _weight in EXTENDED_ACTIONS:
            assert name in GUIDED_NAMES

    def test_seed_decoder_alphabet_is_unchanged(self):
        # The blind decoder must not see the extended actions: adding
        # them to ACTIONS would silently remap every existing seed's
        # decode (findings, corpora, bundles all key on those decodes).
        base_names = {name for name, _weight in ACTIONS}
        for name, _weight in EXTENDED_ACTIONS:
            assert name not in base_names
        decoded = {action for action, _operand
                   in Scenario(seed=1234, length=200).actions()}
        assert decoded <= base_names


class TestGuidedRunDeterminism:
    def _run(self):
        return run_guided_fuzz(Corpus(), seed=11, cases=8, length=4)

    def test_same_seed_same_everything(self):
        a, b = self._run(), self._run()
        assert a.kept == b.kept
        assert a.executed == b.executed == 8
        assert a.coverage.canonical_json() == b.coverage.canonical_json()

    def test_kept_inputs_land_in_the_corpus(self):
        corpus = Corpus()
        result = run_guided_fuzz(corpus, seed=11, cases=8, length=4)
        assert result.kept  # something always lights up an empty map
        for digest in result.kept:
            assert digest in corpus.entries
        origins = {corpus.entries[d]["origin"] for d in result.kept}
        assert origins <= {"guided-fresh", "guided-mutant"}

    def test_replay_pass_covers_the_whole_corpus(self):
        corpus = Corpus()
        corpus.add((("read_time", 1),))
        corpus.add((("compute", 400), ("send_ipi", 1)))
        result = run_guided_fuzz(corpus, seed=2, cases=1, length=4)
        assert result.replayed == 2
        # The replay pass seeds the global map, so coverage the corpus
        # already has cannot be "new" for a mutant.
        assert result.coverage.records > 0


class TestGuidedReachesTheCanary:
    def test_guided_finds_the_seeded_ipi_hole(self):
        # The canary is only reachable through the extended alphabet
        # (a direct CLINT msip store), so blind decoding never finds it;
        # guided mutation does, at a deterministic case number.  The
        # pinned (seed, cases) pair is the same one BENCH_cov.json uses.
        with seeded("os_ipi_write_dropped"):
            result = run_guided_fuzz(Corpus(), seed=3, cases=16, length=4)
        assert result.first_finding_case is not None
        assert result.first_finding_case <= 16
        finding = result.findings[0]
        assert "ssi" in finding.diff()
        assert any(action == "clint_access" for action, _ in finding.steps)
