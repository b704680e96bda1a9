from __future__ import annotations

import gc
import time

import pytest

from gwcurves import build_tables, enumerate_curves, p2, quartic_chain, preset, wallcross


@pytest.fixture(autouse=True)
def cold_base_counts():
    """Every test starts with an empty base-count cache, so that each table it
    builds counts its levels and no entry of an earlier test can stand in for
    a count, or mask a patched one."""
    wallcross._canonical_count.cache_clear()


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
