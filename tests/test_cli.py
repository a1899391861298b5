"""The ``python -m repro`` command-line interface."""

import re

import pytest

from repro.__main__ import main


class TestCli:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "WootinJ" in out
        assert "C compiler" in out

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for exp in ("fig03", "fig17", "table3"):
            assert exp in out

    def test_run_unknown(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_run_table(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        assert main(["run", "table1_2"]) == 0
        out = capsys.readouterr().out
        assert "compiler options" in out
        assert (tmp_path / "table1_2.txt").exists()

    def test_translate_demo(self, capsys):
        assert main(["translate-demo", "--backend", "py"]) == 0
        out = capsys.readouterr().out
        assert "wj_StencilCPU3D_run" in out

    def test_cache_clear_reports_removed_count(self, capsys, tmp_path,
                                               monkeypatch):
        from repro import jit
        from repro.jit.engine import clear_code_cache
        from tests.guestlib import ScaleAddSolver, Sweeper

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cli-cache"))
        clear_code_cache()
        jit(Sweeper(ScaleAddSolver(0.5), 19), "run", 2, backend="py")
        assert main(["cache", "clear"]) == 0
        assert "removed 1 cache entry" in capsys.readouterr().out
        assert main(["cache", "clear"]) == 0
        assert "removed 0 cache entries" in capsys.readouterr().out

    def test_cache_stats_hit_age_is_marker_mtime(self, capsys, tmp_path,
                                                 monkeypatch):
        import json
        import os
        import time

        from repro import jit
        from repro.jit import cache as code_cache
        from repro.jit.engine import clear_code_cache
        from tests.guestlib import ScaleAddSolver, Sweeper

        root = tmp_path / "cli-cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
        clear_code_cache()
        jit(Sweeper(ScaleAddSolver(0.5), 21), "run", 2, backend="py")
        (marker,) = root.glob("*.json")
        then = time.time() - 500.0
        os.utime(marker, (then, then))
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        age = re.search(r"^hit age        : (\d+) s \(hottest\) \.\. (\d+) s "
                        r"\(coldest\)$", out, re.M)
        assert age and 500 <= int(age[1]) == int(age[2]) <= 505, out
        assert "recorded hits" not in out
        # a disk hit is what makes the entry young again
        code_cache.clear_memory()
        jit(Sweeper(ScaleAddSolver(0.5), 21), "run", 2, backend="py")
        assert main(["cache", "stats", "--json"]) == 0
        st = json.loads(capsys.readouterr().out)
        assert "disk_hits_recorded" not in st
        assert st["disk_hits"] >= 1
        assert 0.0 <= st["hit_age_max_s"] < 60.0

    def test_jit_stats(self, capsys):
        from repro import jit
        from repro.jit import service
        from tests.guestlib import ScaleAddSolver, Sweeper

        service.reset()
        jit(Sweeper(ScaleAddSolver(0.5), 20), "run", 2, backend="py")
        assert main(["jit", "stats"]) == 0
        out = capsys.readouterr().out
        assert "build workers" in out
        assert "dedup hits" in out
        assert "compiles          : 1" in out or "compiles         : 1" in out
        service.reset()
