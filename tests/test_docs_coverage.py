"""Release-quality gates: every public item is documented, exports resolve,
and the repository ships the promised artifacts."""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import repro

ROOT = Path(repro.__file__).resolve().parent
REPO = ROOT.parents[1]


def _iter_modules():
    for info in pkgutil.walk_packages([str(ROOT)], prefix="repro."):
        yield importlib.import_module(info.name)


class TestDocstrings:
    def test_every_module_documented(self):
        undocumented = [
            m.__name__ for m in _iter_modules() if not (m.__doc__ or "").strip()
        ]
        assert not undocumented, undocumented

    def test_every_public_class_and_function_documented(self):
        missing = []
        for mod in _iter_modules():
            exported = getattr(mod, "__all__", None)
            for name, obj in vars(mod).items():
                if name.startswith("_"):
                    continue
                if exported is not None and name not in exported:
                    continue
                if not (inspect.isclass(obj) or inspect.isfunction(obj)):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue  # re-export; documented at its home
                if not (obj.__doc__ or "").strip():
                    missing.append(f"{mod.__name__}.{name}")
        assert not missing, missing


class TestExports:
    def test_package_all_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_subpackage_alls_resolve(self):
        for mod in _iter_modules():
            for name in getattr(mod, "__all__", []):
                assert hasattr(mod, name), f"{mod.__name__}.{name}"


class TestKnobInventory:
    _KNOB = re.compile(r"REPRO_[A-Z0-9_]+")

    #: every ``REPRO_*`` name read under src/
    _PINNED = frozenset({
        "REPRO_BLAS", "REPRO_BOUNDS", "REPRO_CACHE_DIR", "REPRO_DISK_CACHE",
        "REPRO_DISK_CACHE_MAX_MB", "REPRO_OMP", "REPRO_OMP_REDUCTIONS",
        "REPRO_OPT_PASSES", "REPRO_PAPER_SIZES", "REPRO_RESULTS_DIR",
        "REPRO_TRACE", "REPRO_TRACE_FILE",
    })

    def test_knob_set_is_pinned(self):
        """Adding or removing a knob is a deliberate edit of this set
        (and of the docs that list it), never a side effect."""
        assert sorted(self._used()) == sorted(self._PINNED)

    def _used(self):
        return {k for p in ROOT.rglob("*.py")
                for k in self._KNOB.findall(p.read_text())}

    def _documented(self):
        docs = [REPO / "README.md", *(REPO / "docs").glob("*.md")]
        return {k for p in docs for k in self._KNOB.findall(p.read_text())}

    def test_every_env_knob_is_documented(self):
        """Every ``REPRO_*`` variable the source names appears in README.md
        or docs/*.md — an undocumented knob is an untested configuration."""
        missing = self._used() - self._documented()
        assert not missing, sorted(missing)

    def test_every_documented_knob_is_read(self):
        """The other direction: a ``REPRO_*`` name in README.md or
        docs/*.md that no file under src/ reads documents a knob that
        does nothing."""
        stale = self._documented() - self._used()
        assert not stale, sorted(stale)


class TestShippedArtifacts:
    @pytest.mark.parametrize(
        "path",
        [
            "README.md",
            "DESIGN.md",
            "EXPERIMENTS.md",
            "docs/CACHING.md",
            "docs/CFG.md",
            "docs/COMPILE_FARM.md",
            "docs/FUZZING.md",
            "docs/GUEST_LANGUAGE.md",
            "docs/JIT_SERVICE.md",
            "docs/OBSERVABILITY.md",
            "docs/OPTIMIZER.md",
            "docs/PARALLEL_CPU.md",
            "docs/SIMULATION.md",
            "examples/quickstart.py",
            "pyproject.toml",
        ],
    )
    def test_file_exists(self, path):
        assert (REPO / path).exists(), path

    def test_design_covers_every_experiment(self):
        text = (REPO / "DESIGN.md").read_text()
        for exp in ("Fig 3", "Fig 4", "Fig 5", "Fig 6", "Fig 7", "Fig 9",
                    "Fig 10", "Fig 11", "Fig 12", "Fig 17", "Fig 18",
                    "Table 3", "Figs 13–16"):
            assert exp in text, exp

    def test_benchmarks_cover_every_experiment(self):
        names = {p.name for p in (REPO / "benchmarks").glob("bench_*.py")}
        for exp in ("fig03", "fig04", "fig05", "fig06", "fig07", "fig09",
                    "fig10", "fig11", "fig12", "fig17", "fig18", "fig19",
                    "fig20", "fig21", "table3", "table1_2", "fig13_16"):
            assert any(exp in n for n in names), exp
