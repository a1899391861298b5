"""Bench harness plumbing: tables, series, workloads, comparator rows."""

import os

import pytest

from repro.bench.harness import Series, render_table, save_series
from repro.bench.workloads import CI, PAPER, current, paper_sizes


class TestRenderTable:
    def test_alignment_and_rows(self):
        text = render_table(["a", "bb"], [[1, 2.5], [333, 0.000004]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        assert "4.000e-06" in text

    def test_empty(self):
        text = render_table(["x"], [])
        assert "x" in text


class TestSeries:
    def test_render_and_column(self):
        s = Series("figX", "demo", ["ranks", "t"], [[1, 0.5], [2, 0.25]],
                   notes="note here")
        out = s.render()
        assert "figX" in out and "note here" in out
        assert s.column("t") == [0.5, 0.25]

    def test_save(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        s = Series("figY", "demo", ["a"], [[1]])
        path = save_series(s)
        assert path.read_text().startswith("== figY")


class TestReport:
    def test_hand_recorded_sections_survive(self, tmp_path, monkeypatch):
        """The report rewrites only its generated prefix: every section
        from the first hand-recorded heading on is kept byte for byte."""
        from repro.bench import figures, report

        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "results"))
        monkeypatch.setattr(
            figures, "all_experiments",
            lambda w: [Series("figZ", "fresh", ["a"], [[2]])])
        fresh = tmp_path / "new.md"  # no report yet: all of it is generated
        report.main(str(fresh))
        assert fresh.read_text().startswith("# EXPERIMENTS")
        hand = ("## cold process: where 330 ms went (recorded by hand at "
                "PR 18; not regenerated by `repro.bench.report`)\n\n"
                "| phase | µs |\n|---|---|\n| import | 42 |\n\n"
                "## figQ: a later heading stays too\n").encode()
        out = tmp_path / "EXPERIMENTS.md"
        out.write_bytes(b"# old header\n\n## figZ: stale\n\nold rows\n\n"
                        + hand)
        report.main(str(out))
        new = out.read_bytes()
        assert new == fresh.read_bytes() + hand
        assert b"old rows" not in new


class TestWorkloads:
    def test_env_switch(self, monkeypatch):
        monkeypatch.delenv("REPRO_PAPER_SIZES", raising=False)
        assert not paper_sizes()
        assert current() is CI
        monkeypatch.setenv("REPRO_PAPER_SIZES", "1")
        assert paper_sizes()
        assert current() is PAPER

    def test_structural_divisibility(self):
        for w in (CI, PAPER):
            for p in w.diff_weak_ranks:
                assert w.diff_weak_nzl >= 2
            for p in w.mm_ranks:
                q = int(round(p ** 0.5))
                assert q * q == p, "Fox needs square rank counts"
                assert w.mm_weak_m % 1 == 0
            for p in w.diff_strong_ranks:
                if w.diff_strong_nzg % p == 0:
                    assert w.diff_strong_nzg // p >= 1

    def test_paper_sizes_match_the_paper(self):
        assert (PAPER.diff_nx, PAPER.diff_ny, PAPER.diff_nzg) == (128, 128, 128)
        assert PAPER.mm_n == 1024       # Fig 18
        assert PAPER.diff_gpu_nx == 384  # Fig 6


class TestComparators:
    def test_variant_table_covers_paper(self):
        from repro.baselines import VARIANTS

        assert set(VARIANTS) == {
            "java", "cpp", "template", "template-novirt", "wootinj", "c-ref"
        }

    def test_checksums_agree_across_variants(self):
        from repro.backends.cbackend import compiler_available
        from repro.baselines import diffusion_single

        if not compiler_available():
            pytest.skip("no cc")
        rows = [diffusion_single(v, 10, 10, 8, 2)
                for v in ("c-ref", "wootinj", "cpp")]
        sums = [r.checksum for r in rows]
        assert max(sums) - min(sums) < 1e-2

    def test_scaling_row_fields(self):
        from repro.backends.cbackend import compiler_available
        from repro.baselines import diffusion_scaling

        if not compiler_available():
            pytest.skip("no cc")
        row = diffusion_scaling("wootinj", 10, 10, 4, 2, 2)
        assert row.seconds > 0
        assert row.work == 8 * 8 * 4 * 2 * 2

    def test_fox_requires_square_ranks(self):
        from repro.baselines import matmul_scaling

        with pytest.raises(ValueError, match="square"):
            matmul_scaling("wootinj", 8, 3)


class TestCRefKernels:
    def test_diff3d_sweep_matches_numpy(self):
        import numpy as np

        from repro.backends.cbackend import compiler_available
        from repro.baselines import c_ref
        from repro.library.stencil.config import diffusion_coefficients

        if not compiler_available():
            pytest.skip("no cc")
        cc, cw, ch, cd = diffusion_coefficients()
        nx, ny, nz = 6, 5, 4
        rng = np.random.default_rng(1)
        a = rng.random(nx * ny * nz).astype(np.float32)
        b = np.zeros_like(a)
        c_ref.diff3d_sweep(a, b, nx, ny, nz, cc, cw, ch, cd)
        A = a.reshape(nz, ny, nx)
        ref = (np.float32(cc) * A[1:-1, 1:-1, 1:-1]
               + np.float32(cw) * (A[1:-1, 1:-1, :-2] + A[1:-1, 1:-1, 2:])
               + np.float32(ch) * (A[1:-1, :-2, 1:-1] + A[1:-1, 2:, 1:-1])
               + np.float32(cd) * (A[:-2, 1:-1, 1:-1] + A[2:, 1:-1, 1:-1]))
        got = b.reshape(nz, ny, nx)[1:-1, 1:-1, 1:-1]
        assert np.allclose(got, ref, atol=1e-6)

    def test_mm_ikj_matches_numpy(self):
        import numpy as np

        from repro.backends.cbackend import compiler_available
        from repro.baselines import c_ref

        if not compiler_available():
            pytest.skip("no cc")
        rng = np.random.default_rng(2)
        n = 12
        a = rng.random((n, n))
        b = rng.random((n, n))
        c = np.zeros((n, n))
        c_ref.mm_ikj(a.ravel(), b.ravel(), c.reshape(-1), n)
        assert np.allclose(c, a @ b)

    def test_fill_sine_matches_generator(self):
        import numpy as np

        from repro.backends.cbackend import compiler_available
        from repro.baselines import c_ref

        from tests.conftest import sine_field

        if not compiler_available():
            pytest.skip("no cc")
        nx, ny, nzl = 6, 7, 4
        a = np.zeros(nx * ny * (nzl + 2), np.float32)
        c_ref.fill_sine(a, nx, ny, nzl, 1, 0)
        assert np.allclose(
            a.reshape(nzl + 2, ny, nx), sine_field(nx, ny, nzl), atol=1e-6
        )
