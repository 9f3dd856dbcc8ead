import os

import pytest
from hypothesis import settings

import pumpsim as ps
from pumpsim import dynamics

# HYPOTHESIS_PROFILE=ci draws the same examples on every run, so a failure
# seen in CI reproduces locally under the same profile.
settings.register_profile(
    "ci", derandomize=True,
    max_examples=settings.get_profile("default").max_examples,
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def default_scenario():
    return ps.load_scenario("default")


@pytest.fixture(scope="session")
def params(default_scenario):
    return default_scenario.params


@pytest.fixture(scope="session")
def drive(default_scenario):
    return default_scenario.drive


@pytest.fixture(scope="session")
def base_config(default_scenario):
    return default_scenario.sim_config()


@pytest.fixture(scope="session")
def base_trace(base_config):
    return ps.simulate(base_config)


@pytest.fixture(scope="session")
def pumped_config(default_scenario):
    return default_scenario.sim_config(
        pump=ps.PumpScenario(p_pump=1.6e-3, eps_opt=0.1)
    )


@pytest.fixture(scope="session")
def pumped_trace(pumped_config):
    return ps.simulate(pumped_config)


@pytest.fixture
def kernel(request, monkeypatch):
    """The RK4 loop that a test runs under, for every integration: the one
    ``dynamics._lanes`` loads (``_rk4.c``'s, where a C compiler builds it),
    or, parametrized indirectly with ``"python"``, its twin
    ``dynamics._chunk_lanes``, which steps each lane through the Python loop
    ``dynamics._chunk`` that the compiled loop is held to and falls back
    to.  The swap holds for the whole test, so hypothesis tests that use it
    suppress the function-scoped fixture health check."""
    if getattr(request, "param", "compiled") == "python":
        lanes = dynamics._chunk_lanes
    else:
        lanes = dynamics._lanes()
    monkeypatch.setattr(dynamics, "_lanes", lambda: lanes)
    return lanes


@pytest.fixture
def writer(request, monkeypatch):
    """The row writer of the CSV files that a test writes: the one
    ``dynamics._writer`` loads (``_rk4.c``'s, where a C compiler builds
    it), or, parametrized indirectly with ``"printf"``, the ``%.12g`` per
    value of ``dynamics._write_rows``, that the compiled writer is held to
    and falls back to.  Tables of one block or more use it (shorter ones
    always take ``_write_rows``), and the swap holds for the whole test, so
    hypothesis tests that use it suppress the function-scoped fixture health
    check."""
    if getattr(request, "param", "compiled") == "printf":
        write_rows = dynamics._write_rows
    else:
        write_rows = dynamics._writer()
    monkeypatch.setattr(dynamics, "_writer", lambda: write_rows)
    return write_rows
