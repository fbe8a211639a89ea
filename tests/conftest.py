import pytest

from ikwave import solve_critical


@pytest.fixture(scope="session")
def critical_point():
    return solve_critical()


@pytest.fixture(scope="session")
def profile_cache():
    """Memoized profiles; integration dominates test runtime."""
    # imported here, so that the cold-start tests collect without numpy
    from ikwave import solve_solitary

    cache = {}

    def get(delta):
        if delta not in cache:
            cache[delta] = solve_solitary(delta)
        return cache[delta]

    return get
