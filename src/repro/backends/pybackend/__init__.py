"""Python backend: emit flat specialized Python source and exec it."""

from repro.backends.pybackend.backend import PyBackend

__all__ = ["PyBackend"]
