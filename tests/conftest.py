"""Shared test fixtures.

The persistent disk cache (:mod:`repro.sim.diskcache`) is process-global
state: the experiment CLI enables it, and a stale cache could replay
results recorded before a simulator change — exactly what tests must not
do. Every test therefore runs with the cache disabled and pointed at a
throwaway directory; tests that exercise the cache enable it themselves.
"""

import pytest

import repro.sim.diskcache as diskcache


@pytest.fixture(autouse=True)
def _isolated_diskcache(monkeypatch, tmp_path):
    """Disable the disk cache and sandbox its directory for each test."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro_cache"))
    monkeypatch.setattr(diskcache, "_enabled", False)
    monkeypatch.setattr(diskcache, "_cache_dir", None)
    yield


@pytest.fixture(autouse=True)
def _no_ambient_jobs(monkeypatch):
    """Keep REPRO_JOBS / CLI job defaults from leaking into tests."""
    import repro.sim.parallel as parallel

    monkeypatch.delenv("REPRO_JOBS", raising=False)
    monkeypatch.setattr(parallel, "_default_jobs", None)
    yield


@pytest.fixture(autouse=True)
def _isolated_resilience(monkeypatch):
    """Reset retry defaults and the harness event trace per test."""
    import repro.obs.harness as obs_harness
    import repro.sim.parallel as parallel

    for var in ("REPRO_RETRIES", "REPRO_RUN_TIMEOUT", "REPRO_BACKOFF"):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setattr(parallel, "_default_retry", None)
    obs_harness.reset_harness()
    yield
    obs_harness.reset_harness()


@pytest.fixture(autouse=True)
def _isolated_engine(monkeypatch):
    """Reset engine selection (CLI default, env) per test."""
    import repro.sim.engine as engine

    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    monkeypatch.setattr(engine, "_default_engine", None)
    yield
