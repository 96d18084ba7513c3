import pytest

from ucvrp import tsp
from ucvrp.instance import gen_instance, line3, validate_instance


@pytest.fixture
def inst_line3():
    return line3()


@pytest.fixture
def walks(monkeypatch):
    """The customers of every tour walked off a Held-Karp table, in order."""
    walked = []
    real = tsp._walk

    def counting(*args):
        tour = real(*args)
        walked.append(tour.customers)
        return tour

    monkeypatch.setattr(tsp, "_walk", counting)
    return walked


def instance_mix(count, max_n=9, max_k=4, seed_base=0):
    """Deterministic mixed bag of generated instances."""
    out = []
    for i in range(count):
        kind = "euclidean" if i % 2 else "random_metric"
        law = "uniform" if i % 3 else "heavy"
        n = 1 + (i * 7) % max_n
        k = 1 + (i * 3) % max_k
        out.append(gen_instance(kind, n, k, law, seed=seed_base + i))
    return out
