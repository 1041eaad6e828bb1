import pytest

from zonal.quadric import build_cone_basis


class BasisCache:
    """Memoized Monte Carlo bases; several test files reuse the same (n, k).

    A basis does not depend on the other degrees built with it, so the
    degrees a test needs are built in one pass and cached one by one.
    """

    def __init__(self):
        self._store = {}

    def get_many(self, n, ks, samples=200_000, seed=20250819):
        missing = [k for k in ks if (n, k, samples, seed) not in self._store]
        if missing:
            for basis in build_cone_basis(n, missing, samples, seed):
                self._store[(n, basis.k, samples, seed)] = basis
        return [self._store[(n, k, samples, seed)] for k in ks]

    def get(self, n, k, samples=200_000, seed=20250819):
        return self.get_many(n, (k,), samples, seed)[0]


@pytest.fixture(scope="session")
def basis_cache():
    return BasisCache()
