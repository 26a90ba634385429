"""Tests for ``repro.kernels.codegen``, the retired C code generator's stub.

``perfbench/run.py`` records ``codegen.available()`` among its environment
facts, so the stub must import cleanly and always report ``False``.
"""

from __future__ import annotations

from repro.kernels import codegen


class TestAvailability:
    def test_env_off_disables(self):
        assert codegen.available() is False
        public = [n for n in vars(codegen) if not n.startswith("_")]
        assert public == ["available"]

    def test_missing_compiler_reports_unavailable(self, monkeypatch):
        monkeypatch.setenv("CC", "/nonexistent/bin/definitely-not-a-cc")
        assert codegen.available() is False
