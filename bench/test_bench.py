"""Tests of the benchmark's own parts: oracle, job generation, gates, tracer.

Run from the repository root with ``PYTHONPATH=src python -m pytest bench``.
"""

import json

import numpy as np
import pytest

import gates
import jobs
import oracle


def _random_inputs(rng, n, m, atc=True):
    """Random stochastic combination matrices on a dense support."""
    a = rng.random((n, n)) + 0.1
    a /= a.sum(axis=0, keepdims=True)  # left-stochastic
    c = rng.random((n, n)) + 0.1
    c /= c.sum(axis=1, keepdims=True)  # right-stochastic
    a1 = np.eye(n) if atc else a
    ru = []
    for _ in range(n):
        q, _ = np.linalg.qr(rng.standard_normal((m, m)))
        ru.append((q * rng.uniform(0.5, 2.0, m)) @ q.T)
    return {
        "model": {"ru": np.array(ru).tolist(), "sigma2_v": rng.uniform(1e-3, 1e-2, n).tolist()},
        "a1": a1.tolist(), "a2": a.tolist(), "c": c.tolist(),
        "mu": rng.uniform(0.01, 0.05, n).tolist(),
    }


@pytest.mark.parametrize("n, m, atc", [(5, 2, True), (4, 4, False), (10, 2, True), (20, 1, False)])
def test_lyapunov_oracle_matches_dense_kronecker_solve(n, m, atc):
    inputs = _random_inputs(np.random.default_rng(n * 10 + m), n, m, atc)
    b, y = oracle.assemble(inputs)
    assert np.abs(np.linalg.eigvals(b)).max() < 1.0
    lyap = oracle.lyapunov_msd(b, y, n)
    assert lyap == pytest.approx(oracle.kronecker_msd(b, y, n), rel=1e-10)
    assert lyap == oracle.reference_msd(inputs)


@pytest.mark.parametrize("workload", sorted(jobs.WORKLOADS))
def test_jobs_are_a_function_of_the_seed(workload):
    first = jobs.make_jobs(workload, 7)
    assert [j.config for j in first] == [j.config for j in jobs.make_jobs(workload, 7)]
    assert [j.config for j in first] != [j.config for j in jobs.make_jobs(workload, 8)]
    for job in first:
        json.dumps(job.config)  # plain JSON, nothing numpy-typed


def test_topology_is_connected_with_fixed_edge_count():
    rng = np.random.default_rng(3)
    for n in (10, 20, 40):
        topo = jobs.random_topology(n, rng)
        assert len(topo["edges"]) == jobs.EDGE_FACTOR * n
        seen, frontier = {1}, [1]
        while frontier:
            k = frontier.pop()
            for a, b in topo["edges"]:
                for x, y in ((a, b), (b, a)):
                    if x == k and y not in seen:
                        seen.add(y)
                        frontier.append(y)
        assert seen == set(range(1, n + 1))


def _small_simulate_job(tmp_path):
    from diffnet import cli

    config = {
        "seed": 1, "trials": 2, "iterations": 50,
        "topology": jobs.random_topology(4, np.random.default_rng(0)),
        "model": {"generator": {"seed": 2, "N": 4, "M": 2}},
        "strategy": {"variant": "atc", "a": {"rule": "metropolis"}, "c": {"rule": "metropolis"}, "mu": 0.02},
        "outputs": str(tmp_path),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert cli.main(["simulate", "--config", str(path)]) == 0
    job = jobs.Job("small", "simulate", config, 4, 100, True, True)
    files = {name: (tmp_path / name).read_bytes() for name in job.outputs}
    return job, files


def test_gates_pass_real_outputs_and_oracle_agrees(tmp_path):
    job, files = _small_simulate_job(tmp_path)
    problems, summary = gates.check_outputs(job, files)
    assert problems == []
    ref = oracle.reference_msd(summary["inputs"])
    assert abs(summary["msd_theory"] - ref) / ref < gates.THEORY_REL_TOL


def test_gates_flag_broken_outputs(tmp_path):
    job, files = _small_simulate_job(tmp_path)
    assert gates.check_outputs(job, {**files, "summary.json": None})[0] == ["summary.json missing"]
    assert "does not parse" in gates.check_outputs(job, {**files, "summary.json": b"{"})[0][0]

    summary = json.loads(files["summary.json"])
    for key, value, expect in (
        ("msd_theory", "nan", "non-finite msd_theory"),
        ("diverged_trials", 1, "trials diverged"),
    ):
        broken = json.dumps({**summary, key: value}).encode()
        problems = gates.check_outputs(job, {**files, "summary.json": broken})[0]
        assert any(expect in p for p in problems), problems


def test_tracer_wraps_every_binding_and_restores_them(tmp_path):
    from diffnet import cli, datamodel, diffusion

    import spans

    original = datamodel.sample_snapshot
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert diffusion.sample_snapshot is not original
        assert cli.sample_snapshot is diffusion.sample_snapshot
        job, _ = _small_simulate_job(tmp_path)
    finally:
        tracer.uninstall()
    assert diffusion.sample_snapshot is original and cli.sample_snapshot is original

    agg = tracer.aggregate()
    assert agg["datamodel.sample_snapshot"][0] == job.steps
    assert agg["diffusion.simulate_trial"][0] == job.config["trials"]
    calls, total, self_time = agg["cli.main"]
    assert calls == 1 and 0.0 < self_time < total
    assert tracer.counts == {"analysis.performance_report.linear_solve": 1}
