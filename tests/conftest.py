import numpy as np
import pytest

from latentlab import LatentGraph, Mask, fixture_path, load_graph


@pytest.fixture(scope="session")
def fig4():
    return load_graph(fixture_path("fig4"))


@pytest.fixture(scope="session")
def fig2():
    return load_graph(fixture_path("fig2"))


@pytest.fixture(scope="session")
def bench3():
    return load_graph(fixture_path("bench3"))


def random_hierarchy(
    rng: np.random.Generator,
    max_latents: int = 8,
    max_observables: int = 10,
    min_latents: int = 2,
) -> LatentGraph:
    """A random valid graph: latent-to-latent edges respect a fixed order,
    observables are sinks with 1-3 latent parents, one exogenous per node."""
    n_lat = int(rng.integers(min_latents, max_latents + 1))
    n_obs = int(rng.integers(2, max_observables + 1))
    latents = [f"z{i}" for i in range(1, n_lat + 1)]
    observables = [f"x{j}" for j in range(1, n_obs + 1)]
    edges = []
    for i in range(n_lat):
        for j in range(i + 1, n_lat):
            if rng.random() < 0.35:
                edges.append((latents[i], latents[j]))
    for obs in observables:
        k = int(rng.integers(1, min(3, n_lat) + 1))
        for z in rng.choice(latents, size=k, replace=False):
            edges.append((str(z), obs))
    nodes = [(z, "latent") for z in latents] + [(x, "observable") for x in observables]
    for v, _ in list(nodes):
        nodes.append((f"eps_{v}", "exogenous"))
        edges.append((f"eps_{v}", v))
    return LatentGraph(nodes, edges, observables)


def random_mask(rng: np.random.Generator, g: LatentGraph) -> Mask:
    n_obs = len(g.observables)
    k = int(rng.integers(1, n_obs))
    chosen = rng.choice(sorted(g.observables), size=k, replace=False)
    return Mask(str(v) for v in chosen)
