from __future__ import annotations

import gc
import time

import pytest

from gwcurves import build_tables, enumerate_curves, gw, p2, quartic_chain, preset, wallcross


@pytest.fixture(autouse=True)
def cold_base_counts():
    """Every test starts with an empty base-count cache, so that each table it
    builds counts its levels and no entry of an earlier test can stand in for
    a count, or mask a patched one."""
    wallcross._canonical_count.cache_clear()


@pytest.fixture
def gw_calls(monkeypatch):
    """A function that patches the named functions of ``gw`` with spies for
    this test, and returns the dict of their call counts, by name."""

    def spy_on(*names: str) -> dict[str, int]:
        calls = dict.fromkeys(names, 0)
        for name in names:
            real = getattr(gw, name)

            def spy(*args, name=name, real=real):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(gw, name, spy)
        return calls

    return spy_on


@pytest.fixture
def gc_state():
    """Restores the collector's state after a test that sets it."""
    was = gc.isenabled()
    yield
    (gc.enable if was else gc.disable)()


@pytest.fixture(scope="session")
def quartic_enum():
    return enumerate_curves(p2(4))


@pytest.fixture(scope="session")
def blowup_enums():
    return {name: enumerate_curves(preset(name)) for name in ("f1_4_2e", "blf1", "bl2f1")}


@pytest.fixture(scope="session")
def quartic_bases(quartic_enum, blowup_enums):
    return {
        0: quartic_enum.invariants().canonical,
        1: blowup_enums["f1_4_2e"].invariants().canonical,
        2: blowup_enums["blf1"].invariants().canonical,
        3: blowup_enums["bl2f1"].invariants().canonical,
    }


@pytest.fixture(scope="session")
def quartic_tables():
    return build_tables(quartic_chain())


@pytest.fixture(scope="session")
def quintic_run():
    """``p2:5`` enumerated once, with its wall time."""
    start = time.perf_counter()
    enum = enumerate_curves(p2(5))
    return enum, time.perf_counter() - start
