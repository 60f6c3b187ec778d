import numpy as np
import pytest

from biharm_lab import _stripes, biharmonic
from biharm_lab.grids import RadialGrid

# Golden values computed with a 50-digit arbitrary-precision oracle
# (see tests/test_verify.py for the expressions they freeze).
GOLD_U0 = 0.7128343062413696263812715172823366953284
GOLD_DU0 = 2.1385029187241088791438145518470100859853
GOLD_B0 = 2.7607953966781422906544143056632269615969        # 15^(3/8)
GOLD_THM_MARGIN0 = 0.4478679172025776529296709839984735850830
GOLD_WEAK_MARGIN0 = 0.5445569532745037834657808630347503707821
GOLD_CMP_MARGIN0 = 1.0162654963092294725604104867569551435054
GOLD_SCAL0 = -23.6158760551851650224707264513782814932772    # -12 * 15^(1/4)
GOLD_CONCAVITY_HALF = 0.0606601717798212866012665431572735589273


@pytest.fixture
def force_stripes(monkeypatch):
    """force(w) deals forked work (sweep families, artifact row blocks) to w
    processes, one a job at most, whatever the CPUs."""
    def force(w):
        monkeypatch.setattr(_stripes, "stripes", lambda jobs: min(w, jobs))
    return force


@pytest.fixture(scope="session")
def exact_fine():
    """Closed-form reference profile on the fourth-order-check grid."""
    return biharmonic.exact_solution(RadialGrid.uniform(3, 10.0, 32768))


@pytest.fixture(scope="session")
def exact_coarse():
    return biharmonic.exact_solution(RadialGrid.uniform(3, 10.0, 2048))


@pytest.fixture(scope="session")
def shot_exact():
    """Shooting run started on the closed-form initial data."""
    c = biharmonic.EXACT_AMPLITUDE
    return biharmonic.shoot(3, 7.0, c, 3.0 * c, 10.0, num_intervals=2048)


def rng(seed=20260810):
    return np.random.default_rng(seed)
