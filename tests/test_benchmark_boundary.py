"""The benchmark's tracer patches named functions of the package; these
tests fail when a change deletes or moves one of those names, which the
benchmark's smoke run would otherwise be the first to notice."""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    return tracer


def test_boundary_names_exist(tracer):
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in tracer.BOUNDARY if attr not in owner.__dict__]
    assert missing == []


def test_install_and_uninstall_restore_every_name(tracer):
    """install wraps each boundary name wherever a subdiv module holds it,
    and uninstall puts every original back."""
    modules = [m for n, m in sys.modules.items() if n == "subdiv" or n.startswith("subdiv.")]
    owners = [owner for owner, *_ in tracer.BOUNDARY] + modules
    before = [dict(vars(owner)) for owner in owners]
    t = tracer.Tracer()
    t.install()
    try:
        assert all(owner.__dict__[attr] is not before[i][attr]
                   for i, (owner, attr, *_) in enumerate(tracer.BOUNDARY))
    finally:
        t.uninstall()
    after = [dict(vars(owner)) for owner in owners]
    for old, new in zip(before, after):
        assert new.keys() == old.keys()
        assert all(new[key] is old[key] for key in old)
