import pytest

from ikwave import solve_critical, solve_solitary


@pytest.fixture(scope="session")
def critical_point():
    return solve_critical()


@pytest.fixture(scope="session")
def profile_cache():
    """Memoized profiles; integration dominates test runtime."""
    cache = {}

    def get(delta):
        if delta not in cache:
            cache[delta] = solve_solitary(delta)
        return cache[delta]

    return get
