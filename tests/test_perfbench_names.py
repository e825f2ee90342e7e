"""The benchmark's tracer (perfbench/tracing.py) patches library functions
by attribute and fails on a name that is gone, so a change to the library
that drops or renames one breaks the traced benchmark run.  This test
installs the tracer and checks that every name resolves and is restored."""

import importlib
import os

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def _raw(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_tracer_patches_and_restores_every_name(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    tracing = importlib.import_module("tracing")
    from qmdkit import cli, morse, specseq
    before = (morse.classify, specseq.page, cli.main)
    with tracing.Tracer() as tr:
        patched = list(tr._restore)
        assert (morse.classify, specseq.page, cli.main) != before
        assert all(_raw(owner, attr) is not raw for owner, attr, raw in patched)
    assert (morse.classify, specseq.page, cli.main) == before
    assert all(_raw(owner, attr) is raw for owner, attr, raw in patched)
