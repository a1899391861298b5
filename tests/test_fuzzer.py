"""The fuzz subsystem itself: grammar soundness, coverage tracking,
guided-beats-random under a fixed budget, and the full catch → minimize →
persist pipeline against an injected miscompilation."""

import ast
import random

import pytest

from repro.fuzz import (FULL_FEATURES, LEGACY_FEATURES, BranchCoverage,
                        DiffRunner, FuzzSession, load_entries, mutate,
                        random_spec, render, replay_entry)
from repro.fuzz.grammar import spec_from_dict, spec_to_dict
from repro.fuzz.runner import divergence_signature

from tests.conftest import requires_cc

#: fixed session seed — every test below is deterministic
SEED = 20140207


class TestGrammar:
    def test_many_seeds_render_valid_python(self):
        rng = random.Random(SEED)
        for _ in range(150):
            src = render(random_spec(rng, FULL_FEATURES))
            ast.parse(src)  # would raise on malformed rendering

    def test_rendering_is_deterministic(self):
        spec = random_spec(random.Random(3), FULL_FEATURES)
        assert render(spec) == render(spec)

    def test_mutation_chain_stays_valid(self):
        rng = random.Random(SEED)
        spec = random_spec(rng, FULL_FEATURES)
        for _ in range(40):
            spec = mutate(rng, spec)
            ast.parse(render(spec))

    def test_full_grammar_reaches_new_constructs(self):
        """Across many seeds the full grammar must emit constructs the
        legacy harness never generated (while, boolean ops, i64 locals)."""
        rng = random.Random(SEED)
        full = "".join(render(random_spec(rng, FULL_FEATURES))
                       for _ in range(60))
        assert "while " in full
        assert " and " in full or " or " in full
        assert "m = " in full
        # folded constants an emitter can misspell: a negative base under
        # ** with a runtime exponent, and a product that overflows to inf
        assert "self.a ** float(" in full
        assert "1e308 * 10.0" in full
        legacy = "".join(render(random_spec(rng, LEGACY_FEATURES))
                         for _ in range(60))
        assert "while " not in legacy
        assert " and " not in legacy and " or " not in legacy
        assert "1e308" not in legacy and "self.a **" not in legacy

    def test_spec_round_trips_through_json_dict(self):
        spec = random_spec(random.Random(5), FULL_FEATURES)
        assert spec_from_dict(spec_to_dict(spec)) == spec


class TestCoverage:
    def test_arcs_recorded_only_for_tracked_files(self, tmp_path):
        import sys

        mod_path = tmp_path / "cov_probe_mod.py"
        mod_path.write_text(
            "def probe(flag):\n"
            "    if flag:\n"
            "        return 1\n"
            "    return 2\n")
        sys.path.insert(0, str(tmp_path))
        try:
            import cov_probe_mod

            cov = BranchCoverage(files={cov_probe_mod.__file__: "probe"})
            cov.begin_run()
            cov_probe_mod.probe(True)
            first = cov.end_run()
            assert first and all(a[0] == "probe" for a in first)
            # same path again: nothing new
            cov.begin_run()
            cov_probe_mod.probe(True)
            assert cov.end_run() == set()
            # the other branch is a new arc
            cov.begin_run()
            cov_probe_mod.probe(False)
            assert cov.end_run()
            assert cov.by_file() == {"probe": cov.count()}
        finally:
            sys.path.remove(str(tmp_path))
            sys.modules.pop("cov_probe_mod", None)

    def test_pipeline_compilation_produces_arcs(self, tmp_path):
        cov = BranchCoverage()
        runner = DiffRunner(workdir=tmp_path, backends=["py"], coverage=cov)
        res = runner.run_spec(random_spec(random.Random(1), FULL_FEATURES))
        assert res.ok
        assert res.new_arcs > 0
        assert {"lower", "opt", "py-emit"} <= set(cov.by_file())


class TestDifferentialRunner:
    def test_clean_spec_runs_all_legs(self, tmp_path):
        runner = DiffRunner(workdir=tmp_path, backends=["py"])
        res = runner.run_spec(random_spec(random.Random(2), FULL_FEATURES))
        assert res.ok and not res.divergent and res.crash is None
        assert [leg.name for leg in res.legs] == ["py/opt0", "py/opt1"]
        assert divergence_signature(res) is None

    @requires_cc
    def test_c_runs_its_own_pass_set_as_a_third_leg(self, tmp_path,
                                                    monkeypatch):
        """C's default (cse alone) is a pass set of its own, so it gets a
        leg; under REPRO_OMP=1 the default is all six passes again, a leg
        already run."""
        spec = random_spec(random.Random(2), FULL_FEATURES)
        for knob in ("REPRO_OMP", "REPRO_BOUNDS"):
            monkeypatch.delenv(knob, raising=False)
        res = DiffRunner(workdir=tmp_path, backends=["c"]).run_spec(spec)
        assert res.ok
        assert [leg.name for leg in res.legs] == [
            "c/opt0", "c/opt1", "c/optdefault"]
        monkeypatch.setenv("REPRO_OMP", "1")
        res = DiffRunner(workdir=tmp_path, backends=["c"]).run_spec(spec)
        assert res.ok
        assert [leg.name for leg in res.legs] == ["c/opt0", "c/opt1"]

    def test_soak_no_false_positives(self, tmp_path):
        """A seeded batch of full-grammar programs runs divergence-free —
        the generator's numeric-safety rules hold."""
        runner = DiffRunner(workdir=tmp_path, backends=["py"])
        rng = random.Random(SEED)
        for _ in range(25):
            res = runner.run_spec(random_spec(rng, FULL_FEATURES))
            assert divergence_signature(res) is None, res.source


class TestHostStep:
    @staticmethod
    def _specs(step):
        from repro.fuzz.grammar import host_step

        rng = random.Random(SEED)
        while True:
            spec = random_spec(rng, FULL_FEATURES)
            if host_step(spec) == step:
                return spec

    @pytest.mark.parametrize("step", ["rebind", "swap"])
    def test_host_step_runs_clean_on_every_backend(self, tmp_path, step):
        runner = DiffRunner(workdir=tmp_path)
        res = runner.run_spec(self._specs(step))
        assert res.ok, (res.crash, res.divergent,
                        [leg.error for leg in res.host])
        assert [leg.name for leg in res.host] == [
            f"{b}/host-{step}" for b in runner.backends]

    def test_stale_capture_is_caught(self, tmp_path, monkeypatch):
        """A memo that ignored array rebinds would serve the swapped
        receiver the artifact bound to the old array."""
        from repro.lang import seal

        monkeypatch.setattr(seal, "epoch", lambda: 0)
        res = DiffRunner(workdir=tmp_path, backends=["py"]).run_spec(
            self._specs("swap"))
        assert res.divergent == ["py/host-swap"]

    def test_unsealed_rebind_is_caught(self, tmp_path, monkeypatch):
        from repro.lang import seal

        monkeypatch.setattr(seal, "seal", lambda obj: False)
        res = DiffRunner(workdir=tmp_path, backends=["py"]).run_spec(
            self._specs("rebind"))
        assert divergence_signature(res) == "leg-error:py/host-rebind"


class TestGuidedVsRandom:
    def test_guided_reaches_more_arcs_under_same_budget(self, tmp_path):
        budget = 20
        guided = FuzzSession(seed=SEED, budget=budget, mode="guided",
                             backends=["py"], workdir=tmp_path / "g",
                             minimize=False).run()
        rand = FuzzSession(seed=SEED, budget=budget, mode="random",
                           backends=["py"], workdir=tmp_path / "r",
                           minimize=False).run()
        assert guided.executed == rand.executed == budget
        assert not guided.findings and not rand.findings
        assert guided.arcs_total > rand.arcs_total
        # at least as many branches in every tracked pipeline stage (small
        # stages — the dataflow solver's fixpoint machinery — saturate
        # under this budget regardless of mode, so ties are legitimate;
        # the total above must still be strictly better)
        for label, n in rand.arcs_by_file.items():
            assert guided.arcs_by_file[label] >= n


class TestFaultInjection:
    @pytest.fixture
    def broken_py_backend(self, monkeypatch):
        """Miscompile f64 subtraction to addition in the Python backend —
        the class of bug the fuzzer exists to catch."""
        import repro.backends.pybackend.emit as pyemit
        from repro.frontend import ir

        orig = pyemit._FuncEmitter._emit_raw

        def broken(self, e):
            if isinstance(e, ir.BinOp) and e.op == "-":
                return f"({self.emit(e.left)} + {self.emit(e.right)})"
            return orig(self, e)

        monkeypatch.setattr(pyemit._FuncEmitter, "_emit_raw", broken)

    def test_injected_bug_is_caught_minimized_and_saved(
            self, tmp_path, broken_py_backend):
        corpus = tmp_path / "corpus"
        stats = FuzzSession(seed=3, budget=25, mode="guided",
                            backends=["py"], corpus_dir=corpus,
                            workdir=tmp_path / "w").run()
        assert stats.findings, "the injected miscompilation went unnoticed"
        assert all(f.signature.startswith("diverge:")
                   for f in stats.findings)
        entries = load_entries(corpus)
        assert entries, "no reproducer was persisted"
        # minimization pruned the program down to a focused reproducer
        saved = [f for f in stats.findings if f.path is not None]
        assert saved and min(f.minimized_lines for f in saved) < 45
        # while the bug is live, replaying the reproducer still fails
        runner = DiffRunner(workdir=tmp_path / "rep", backends=["py"])
        res = replay_entry(runner, entries[0])
        assert not res.ok and res.divergent

    def test_corpus_replays_clean_on_healthy_backend(self, tmp_path):
        """Reproducers saved under the broken backend replay green once
        the bug is gone (the corpus entry is self-contained)."""
        corpus = tmp_path / "corpus"
        import repro.backends.pybackend.emit as pyemit
        from repro.frontend import ir

        orig = pyemit._FuncEmitter._emit_raw

        def broken(self, e):
            if isinstance(e, ir.BinOp) and e.op == "-":
                return f"({self.emit(e.left)} + {self.emit(e.right)})"
            return orig(self, e)

        pyemit._FuncEmitter._emit_raw = broken
        try:
            FuzzSession(seed=3, budget=25, mode="guided", backends=["py"],
                        corpus_dir=corpus, workdir=tmp_path / "w").run()
        finally:
            pyemit._FuncEmitter._emit_raw = orig
        entries = load_entries(corpus)
        assert entries
        runner = DiffRunner(workdir=tmp_path / "rep", backends=["py"])
        for entry in entries:
            res = replay_entry(runner, entry)
            assert res.ok, f"{entry.name} still failing on healthy backend"
