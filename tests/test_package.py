"""Tests for the package's public surface."""

import types

import subalg


def test_all_exports_no_modules():
    modules = [name for name in subalg.__all__ if isinstance(getattr(subalg, name), types.ModuleType)]
    assert modules == []
