"""Compile cache, fingerprints and the stats counters."""

import functools
import pathlib
import re

import numpy as np
import pytest

import kernel_zoo as zoo
from repro import LaunchOptions
from repro.codegen import (
    cache_size,
    clear_cache,
    fingerprint_kernel,
    get_compiled,
    lower_kernel,
    stats_snapshot,
)
from repro.codegen.cache import STATS
from repro.codegen.runtime import _FIELDS
from repro.engine import Grid, launch
from repro.parallel import procpool, shard
from repro.resilience import guard


@pytest.fixture(autouse=True)
def _isolated_cache():
    clear_cache()
    yield
    clear_cache()


def _fn(kernel_fn):
    return kernel_fn.fn, kernel_fn.module


class TestFingerprint:
    def test_stable_for_same_kernel(self):
        fn, mod = _fn(zoo.square_map)
        assert fingerprint_kernel(fn, mod) == fingerprint_kernel(fn, mod)

    def test_distinct_kernels_differ(self):
        sq, sq_mod = _fn(zoo.square_map)
        bs, bs_mod = _fn(zoo.black_scholes)
        assert fingerprint_kernel(sq, sq_mod) != fingerprint_kernel(bs, bs_mod)

    def test_covers_reachable_device_functions(self):
        # black_scholes reaches cnd/bs_body; their bodies are part of the
        # fingerprint, so two kernels with identical top-level bodies but
        # different callees cannot collide.
        from repro.codegen.fingerprint import reachable_device_functions

        fn, mod = _fn(zoo.black_scholes)
        names = [f.name for f in reachable_device_functions(fn, mod)]
        assert "cnd" in names and "bs_body" in names


class TestCompileCache:
    def test_hit_returns_same_object_and_counts(self):
        fn, mod = _fn(zoo.square_map)
        grid = Grid.for_elements(128)
        base = stats_snapshot()
        first = get_compiled(fn, mod, grid, True)
        second = get_compiled(fn, mod, grid, True)
        assert first is second
        now = stats_snapshot()
        assert now["compiles"] == base["compiles"] + 1
        assert now["cache_hits"] == base["cache_hits"] + 1
        assert now["source_bytes"] > base["source_bytes"]
        assert now["compile_seconds"] > base["compile_seconds"]

    def test_grid_shape_class_is_part_of_the_key(self):
        fn, mod = _fn(zoo.square_map)
        get_compiled(fn, mod, Grid.for_elements(128), True)
        assert cache_size() == 1
        get_compiled(fn, mod, Grid.for_image(16, 8), True)
        assert cache_size() == 2
        # Another 1-D grid shape reuses the 1-D specialization.
        get_compiled(fn, mod, Grid.for_elements(4096), True)
        assert cache_size() == 2

    def test_bounds_check_is_part_of_the_key(self):
        fn, mod = _fn(zoo.square_map)
        checked = get_compiled(fn, mod, Grid.for_elements(64), True)
        unchecked = get_compiled(fn, mod, Grid.for_elements(64), False)
        assert checked is not unchecked
        assert cache_size() == 2

    def test_clear_cache(self):
        fn, mod = _fn(zoo.square_map)
        get_compiled(fn, mod, Grid.for_elements(64), True)
        assert cache_size() == 1
        clear_cache()
        assert cache_size() == 0

    def test_compiled_kernel_carries_inspectable_source(self):
        fn, mod = _fn(zoo.black_scholes)
        compiled = get_compiled(fn, mod, Grid.for_elements(64), True)
        assert f"def _kernel_{fn.name}" in compiled.source
        assert "def _dev_cnd" in compiled.source
        assert compiled.fingerprint == fingerprint_kernel(fn, mod)
        assert compiled.grid_class == "1d"

    def test_launches_share_one_compile(self):
        base = stats_snapshot()
        n = 128
        for _ in range(5):
            args = [
                np.zeros(n, np.float32),
                np.ones(n, np.float32),
                np.int32(n),
            ]
            launch(
                zoo.square_map,
                Grid.for_elements(n),
                args,
                options=LaunchOptions(backend="codegen"),
            )
        now = stats_snapshot()
        assert now["compiles"] == base["compiles"] + 1
        assert now["cache_hits"] == base["cache_hits"] + 4


class TestLowering:
    def test_lower_kernel_returns_compilable_source(self):
        fn, mod = _fn(zoo.square_map)
        source, exec_globals, entry, info = lower_kernel(fn, mod)
        assert entry == f"_kernel_{fn.name}"
        assert set(info) == {
            "cast_elisions", "planned_sites", "slots", "merges_elided", "reused_exprs",
        }
        compile(source, "<test>", "exec")  # must be valid Python
        assert "np.errstate" in source

    def test_stats_snapshot_shape(self):
        snap = stats_snapshot()
        assert set(snap) >= {
            "compiles",
            "cache_hits",
            "compile_seconds",
            "source_bytes",
            "fallbacks",
        }
        assert STATS.snapshot() == stats_snapshot()


#: The four module-level counter groups, by registry prefix.
_GROUPS = {
    "codegen": _FIELDS,
    "shard": shard._FIELDS,
    "procpool": procpool._FIELDS,
    "guard": guard._FIELDS,
}


@functools.lru_cache(maxsize=None)
def _documented():
    """Every ``repro_*`` family named in the first cell of a
    docs/OBSERVABILITY.md table row (a row may name two)."""
    doc = pathlib.Path(__file__).resolve().parents[2] / "docs" / "OBSERVABILITY.md"
    names = set()
    for line in doc.read_text(encoding="utf-8").splitlines():
        if line.startswith("| `repro_"):
            names.update(re.findall(r"`(repro_[a-z_]+)`", line.split("|")[1]))
    return frozenset(names)


class TestFamilyTable:
    """docs/OBSERVABILITY.md has one row for each family the four
    module-level counter groups register, and no row for any other."""

    @pytest.mark.parametrize(
        "family",
        [f"repro_{group}_{k}" for group, fields in _GROUPS.items() for k in fields],
    )
    def test_every_family_has_a_row(self, family):
        assert family in _documented()

    @pytest.mark.parametrize("group", sorted(_GROUPS))
    def test_every_row_names_a_family(self, group):
        prefix = f"repro_{group}_"
        rows = {name for name in _documented() if name.startswith(prefix)}
        stale = rows - {prefix + k for k in _GROUPS[group]}
        assert not stale
