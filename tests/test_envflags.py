"""``env_flag`` and the knobs routed through it.

The historical parser was ``os.environ.get(NAME) is not None`` (or a bare
truthiness check of the string), which treated ``REPRO_BOUNDS=false`` and
``REPRO_BOUNDS=no`` as *enabled*.  ``env_flag`` gives every boolean knob
one spelling table; these tests pin the table and check each routed knob
actually honors it.
"""

from __future__ import annotations

import pytest

from repro.env import env_flag

TRUTHY = ["1", "true", "True", "TRUE", "yes", "Yes", "on", "ON", " on "]
FALSY = ["0", "false", "False", "no", "NO", "off", "Off", "", "  "]


class TestEnvFlag:
    @pytest.mark.parametrize("raw", TRUTHY)
    def test_truthy(self, raw, monkeypatch):
        monkeypatch.setenv("REPRO_X", raw)
        assert env_flag("REPRO_X") is True
        assert env_flag("REPRO_X", default=True) is True

    @pytest.mark.parametrize("raw", FALSY)
    def test_falsy(self, raw, monkeypatch):
        monkeypatch.setenv("REPRO_X", raw)
        assert env_flag("REPRO_X") is False
        assert env_flag("REPRO_X", default=True) is False

    def test_unset_gives_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_X", raising=False)
        assert env_flag("REPRO_X") is False
        assert env_flag("REPRO_X", default=True) is True

    @pytest.mark.parametrize("raw", ["2", "enable", "tru", "y"])
    def test_unrecognized_gives_default(self, raw, monkeypatch):
        monkeypatch.setenv("REPRO_X", raw)
        assert env_flag("REPRO_X") is False
        assert env_flag("REPRO_X", default=True) is True


class TestRoutedKnobs:
    def test_bounds_checks(self, monkeypatch):
        from repro.backends.cbackend.backend import CBackend

        monkeypatch.setenv("REPRO_BOUNDS", "false")
        assert CBackend().bounds_checks is False  # the old parser said True
        monkeypatch.setenv("REPRO_BOUNDS", "yes")
        assert CBackend().bounds_checks is True
        monkeypatch.delenv("REPRO_BOUNDS")
        assert CBackend().bounds_checks is False

    def test_disk_cache(self, monkeypatch):
        from repro.jit.cache import disk_enabled

        monkeypatch.setenv("REPRO_DISK_CACHE", "off")
        assert disk_enabled() is False
        monkeypatch.setenv("REPRO_DISK_CACHE", "on")
        assert disk_enabled() is True
        monkeypatch.delenv("REPRO_DISK_CACHE")
        assert disk_enabled() is True  # defaults on

    def test_tiered(self, monkeypatch):
        from repro.jit.service import tiered_default

        monkeypatch.setenv("REPRO_TIERED", "no")
        assert tiered_default() is False
        monkeypatch.setenv("REPRO_TIERED", "YES")
        assert tiered_default() is True

    def test_trace(self, monkeypatch):
        from repro.obs.trace import _env_truthy

        monkeypatch.setenv("REPRO_TRACE", "off")
        assert _env_truthy("REPRO_TRACE") is False
        monkeypatch.setenv("REPRO_TRACE", "1")
        assert _env_truthy("REPRO_TRACE") is True

    def test_paper_sizes(self, monkeypatch):
        from repro.bench.workloads import paper_sizes

        monkeypatch.setenv("REPRO_PAPER_SIZES", "false")
        assert paper_sizes() is False
        monkeypatch.setenv("REPRO_PAPER_SIZES", "true")
        assert paper_sizes() is True
