"""The traced benchmark replaces program functions by module attribute.

``bench/spans.py`` looks each hooked function up by name; a renamed or
deleted one makes ``Tracer.install()`` raise and the traced run fail.
This test installs and removes every hook, so such a change fails here.
"""
from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench"))

import spans  # noqa: E402


def test_tracer_hooks_install_and_restore():
    tracer = spans.Tracer()
    try:
        tracer.install()
        patched = list(tracer._patches)
    finally:
        tracer.uninstall()
    assert patched
    left = [f"{owner.__name__}.{attr}" for owner, attr, original in patched
            if owner.__dict__[attr] is not original]
    assert left == []
