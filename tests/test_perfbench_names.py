"""The benchmark's traced pass wraps package functions by name.

``perfbench/tracing.py`` replaces each of its call sites (``sim.run``, the
``comm`` casts, the verdicts, ...) with a timing wrapper for one pass and
puts the originals back afterwards; a name it cannot find is an error. This
test installs and removes the wrappers, so that renaming or deleting one of
those names fails here rather than in ``perfbench/run.py --trace 1``.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_wraps_and_restores_every_call_site(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    from congestspan import comm, sim

    sites = [(owner, attr) for owner, attr, *_ in tracing._call_sites()
             if owner is not None]
    before = [getattr(owner, attr) for owner, attr in sites]
    with tracing.installed(tracing.Tracer()):
        during = [getattr(owner, attr) for owner, attr in sites]
    assert all(getattr(fn, "__wrapped__", None) is orig
               for fn, orig in zip(during, before))
    assert [getattr(owner, attr) for owner, attr in sites] == before
    assert (sim, "run") in sites
    assert any(owner is comm for owner, _ in sites)
