"""Seeded job generation for the benchmark workloads.

Every job is one ``diffnet`` subcommand run on one generated config file.
All randomness (topology, model, link-noise and trial seeds, Kalman
observation geometry) is drawn from the workload seed, so one seed always
yields byte-identical configs.  ``diffnet`` only ever sees the config files.

Topologies are generated here, not by ``diffnet``'s Bernoulli generator, so
that every seed gets the same edge count: the RLS and Kalman steps loop over
neighbours, and a varying edge count would make their cost vary with the
seed rather than with the code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# edges per node; every topology is a random spanning tree plus uniformly
# drawn extra edges up to exactly EDGE_FACTOR * N edges
EDGE_FACTOR = 2

LMS_MU = 0.02
RLS_LAMBDA = 0.995
KALMAN_EPSILON = 0.05


@dataclass(frozen=True)
class Job:
    """One ``diffnet`` invocation and the facts the gates need about it."""

    name: str
    command: str  # diffnet subcommand
    config: dict
    nodes: int
    steps: int  # trials * iterations of simulated time steps (0 for analyze)
    perfect_exchange: bool  # theory is checked against the oracle
    gap_valid: bool  # msd_gap_db in summary.json compares like with like

    @property
    def node_steps(self) -> int:
        return self.steps * self.nodes

    @property
    def outputs(self) -> tuple[str, ...]:
        return OUTPUTS[self.command]


OUTPUTS = {
    "simulate": ("learning_curve.csv", "steady_state.csv", "summary.json"),
    "analyze": ("theory.json",),
    "rls": ("rls_curve.csv", "rls.json"),
    "kalman": ("kalman_curve.csv", "kalman.json"),
}


def _seed(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


def random_topology(n: int, rng) -> dict:
    """Connected graph with exactly EDGE_FACTOR * n edges, 1-based pairs."""
    order = rng.permutation(n)
    edges = set()
    for idx in range(1, n):
        a, b = int(order[idx]), int(order[rng.integers(0, idx)])
        edges.add((min(a, b), max(a, b)))
    free = [(a, b) for a in range(n) for b in range(a + 1, n) if (a, b) not in edges]
    target = min(EDGE_FACTOR * n, n * (n - 1) // 2)
    for pick in rng.choice(len(free), target - len(edges), replace=False):
        edges.add(free[int(pick)])
    return {"n": n, "edges": [[a + 1, b + 1] for a, b in sorted(edges)]}


def _lms_config(rng, n, m, trials, iterations, strategy) -> dict:
    return {
        "seed": _seed(rng),
        "trials": trials,
        "iterations": iterations,
        "topology": random_topology(n, rng),
        "model": {"generator": {"seed": _seed(rng), "N": n, "M": m}},
        "strategy": strategy,
    }


def _atc(mu=LMS_MU, c=None) -> dict:
    return {"variant": "atc", "a": {"rule": "metropolis"}, "c": c or {"rule": "metropolis"}, "mu": mu}


def lms_atc(rng) -> list[Job]:
    jobs = []
    for n, m, trials, iterations in ((10, 2, 20, 1000), (20, 5, 20, 1000)):
        cfg = _lms_config(rng, n, m, trials, iterations, _atc())
        jobs.append(Job(f"atc_n{n}_m{m}", "simulate", cfg, n, trials * iterations, True, True))
    return jobs


def lms_variants(rng) -> list[Job]:
    n, m, trials, iterations = 20, 5, 10, 1000
    noisy = _atc()
    noisy["link_noise"] = {"seed": _seed(rng), "psi_scale": 1e-3, "d_scale": 1e-3}
    adaptive = _atc(c="identity")
    adaptive["adaptive_weights"] = {"nu": 0.05}
    consensus = {"variant": "consensus_lms", "a": {"rule": "metropolis"}, "mu": LMS_MU}
    tsa = _atc()
    tsa["smoothing"] = {"order": "TSA", "f": [[0.5, 0.3, 0.2]], "q": 1.0}
    specs = (
        ("noisy_links", noisy, False, True),
        ("adaptive_weights", adaptive, True, False),
        ("consensus_lms", consensus, True, False),
        ("smoothing_tsa", tsa, True, False),
    )
    return [
        Job(name, "simulate", _lms_config(rng, n, m, trials, iterations, strat), n,
            trials * iterations, perfect, gap_valid)
        for name, strat, perfect, gap_valid in specs
    ]


def theory(rng) -> list[Job]:
    jobs = []
    # NM = 64 takes the dense Kronecker path, NM = 200 the matrix series
    for name, n, m, mu, noisy in (
        ("dense_n16_m4", 16, 4, LMS_MU, False),
        ("dense_n16_m4_noisy", 16, 4, LMS_MU, True),
        ("series_n40_m5_mu0.02", 40, 5, LMS_MU, False),
        ("series_n40_m5_mu0.005", 40, 5, 0.005, False),
    ):
        strat = _atc(mu=mu)
        if noisy:
            strat["link_noise"] = {"seed": _seed(rng), "psi_scale": 1e-3, "d_scale": 1e-3}
        cfg = _lms_config(rng, n, m, 1, 0, strat)
        jobs.append(Job(name, "analyze", cfg, n, 0, not noisy, False))
    return jobs


def filters(rng) -> list[Job]:
    n, m, trials, iterations = 20, 4, 2, 300
    rls_cfg = _lms_config(rng, n, m, trials, iterations, {
        "rls": {"lambda": RLS_LAMBDA, "a": {"rule": "metropolis"}, "c": {"rule": "metropolis"}},
    })
    kf_trials, kf_iterations = 2, 100
    angles = rng.uniform(0.0, np.pi, n)
    kalman_cfg = {
        "seed": _seed(rng),
        "trials": kf_trials,
        "iterations": kf_iterations,
        "topology": random_topology(n, rng),
        "strategy": {"kalman": {
            "f": [[0.99, 0.1], [0.0, 0.95]],
            "g": [[0.0], [1.0]],
            "h": [[[float(np.cos(a)), float(np.sin(a))]] for a in angles],
            "q": [[0.01]],
            "r": [[[float(r)]] for r in np.exp(rng.uniform(np.log(0.1), np.log(1.0), n))],
            "pi0": [[1.0, 0.0], [0.0, 1.0]],
            "a": {"rule": "metropolis"},
            "epsilon": KALMAN_EPSILON,
        }},
    }
    return [
        Job("rls_n20_m4", "rls", rls_cfg, n, trials * iterations, False, False),
        Job("kalman_n20", "kalman", kalman_cfg, n, kf_trials * kf_iterations, False, False),
    ]


WORKLOADS = {"lms_atc": lms_atc, "lms_variants": lms_variants, "theory": theory, "filters": filters}


def make_jobs(workload: str, seed: int) -> list[Job]:
    """The workload's jobs; the same (workload, seed) gives the same configs."""
    index = list(WORKLOADS).index(workload)
    rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
    return WORKLOADS[workload](rng)
