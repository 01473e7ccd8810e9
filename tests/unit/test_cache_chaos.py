"""Cache failure semantics under injected I/O errors: puts fail cleanly
(no partial entry ever visible), orphaned temp files are swept, and a
sweep whose puts fail still completes and returns its results.

The failures are injected by monkeypatching the calls the cache really
makes — ``os.fsync``, ``os.replace`` and its atomic write — so no
test-only hook lives in the package.
"""

import errno
import importlib
import os

import pytest

from repro.runs.cache import ResultCache
from repro.runs.orchestrate import run_specs
from repro.runs.spec import simulation_spec

cache_mod = importlib.import_module("repro.runs.cache")

FINGERPRINT = "test-fingerprint"


def make_cache(tmp_path):
    return ResultCache(tmp_path / "cache", fingerprint=FINGERPRINT)


def spec_for(seed=1):
    return simulation_spec("ccnvm", "lbm", 40, seed)


def fail_once(monkeypatch, module, name, code):
    """Make ``module.name`` raise ``OSError(code)`` on its next call only."""
    real = getattr(module, name)
    calls = {"count": 0}

    def failing(*args, **kwargs):
        calls["count"] += 1
        if calls["count"] == 1:
            raise OSError(code, f"injected {errno.errorcode[code]} in {name}")
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, failing)


def fail_entry_writes(monkeypatch, cache):
    """Every write of a result entry fails with EIO (stats writes pass)."""
    real = cache_mod._atomic_write_text

    def write(path, text):
        if path.parent.parent == cache.results_dir:
            raise OSError(errno.EIO, "injected EIO writing a cache entry")
        real(path, text)

    monkeypatch.setattr(cache_mod, "_atomic_write_text", write)


class TestPutFailures:
    @pytest.mark.parametrize(
        "call,code",
        [
            # The rename that publishes the entry fails...
            pytest.param("replace", errno.EIO, id="cache.put_eio"),
            # ...or the disk fills before the bytes are durable.
            pytest.param("fsync", errno.ENOSPC, id="cache.put_enospc"),
        ],
    )
    def test_put_raises_cleanly_with_no_partial_entry(
        self, tmp_path, monkeypatch, call, code
    ):
        cache = make_cache(tmp_path)
        spec = spec_for()
        fail_once(monkeypatch, os, call, code)
        with pytest.raises(OSError) as failure:
            cache.put(spec, {"value": 1})
        assert failure.value.errno == code
        # Nothing visible, nothing half-written.
        assert not cache.path_for(spec).exists()
        assert cache.get(spec) is None
        gen_dir = cache.results_dir / FINGERPRINT
        assert list(gen_dir.glob("*.json")) == []
        assert list(gen_dir.glob("*.tmp")) == []
        # The failure was transient; the retried put lands normally.
        assert cache.put(spec, {"value": 1}).is_file()
        assert cache.get(spec) == {"value": 1}

    def test_put_torn_orphans_tmp_and_gc_sweeps_it(self, tmp_path):
        cache = make_cache(tmp_path)
        spec = spec_for()
        # A writer killed mid-put leaves its partial temp file behind;
        # the entry itself was never renamed into place.
        path = cache.path_for(spec)
        path.parent.mkdir(parents=True)
        orphan = path.parent / f"{path.name}abc123.tmp"
        orphan.write_text('{"torn":', encoding="utf-8")
        assert cache.get(spec) is None
        # gc always sweeps writer orphans, even in the current generation.
        swept = cache.gc()
        assert swept["reclaimed_bytes"] >= len('{"torn":')
        assert list(path.parent.glob("*.tmp")) == []
        # A later clean put is unaffected.
        cache.put(spec, {"value": 2})
        assert cache.get(spec) == {"value": 2}


class TestSweepTolerance:
    def test_failed_puts_are_counted_not_fatal(self, tmp_path, monkeypatch):
        # Every entry write fails; the sweep still completes, counts each
        # failed put once and returns every result.  Nothing was made
        # durable, so a rerun re-executes those specs.
        cache = make_cache(tmp_path)
        specs = [spec_for(1), spec_for(2)]
        fail_entry_writes(monkeypatch, cache)
        report = run_specs(specs, jobs=1, cache=cache)
        assert report.failed == 0
        assert report.executed == 2
        assert report.cache_put_errors == 2
        assert not any(cache.path_for(spec).exists() for spec in specs)

        monkeypatch.undo()  # the disk recovers for the rerun
        rerun = run_specs(specs, jobs=1, cache=cache)
        assert (rerun.executed, rerun.cache_hits) == (2, 0)
        assert rerun.cache_put_errors == 0
        for spec in specs:
            assert rerun.payload(spec) == report.payload(spec)
            assert cache.get(spec) == report.payload(spec)
