import json
import os
import subprocess
import sys
from pathlib import Path

import filter_oracles as oracle
import numpy as np
import pytest

import diffnet
from diffnet import cli, diffusion, kalman
from diffnet.datamodel import sample_snapshot


def base_config(outdir, **extra):
    doc = {
        "seed": 11,
        "trials": 3,
        "iterations": 200,
        "topology": {"n": 4, "edges": [[1, 2], [2, 3], [3, 4], [4, 1]]},
        "model": {"generator": {"seed": 5, "N": 4, "M": 2}},
        "strategy": {"variant": "atc", "a": {"rule": "metropolis"}, "c": "identity", "mu": 0.02},
        "emit": ["learning_curve", "steady_state", "theory"],
        "outputs": str(outdir),
    }
    doc.update(extra)
    return doc


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_simulate_outputs_and_determinism(tmp_path):
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    cfg1 = write_config(tmp_path, base_config(out1), "c1.json")
    cfg2 = write_config(tmp_path, base_config(out2), "c2.json")
    assert cli.main(["simulate", "--config", cfg1]) == 0
    assert cli.main(["simulate", "--config", cfg2]) == 0
    for name in ("learning_curve.csv", "steady_state.csv", "summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    summary = json.loads((out1 / "summary.json").read_text())
    assert summary["stable_ms"] is True
    assert "rho_b" in summary and summary["rho_b"] < 1.0
    # every theory number is reproducible from the logged inputs
    assert "model" in summary["inputs"] and "a2" in summary["inputs"]
    header = (out1 / "learning_curve.csv").read_text().splitlines()[0]
    assert header == "i,emse_sim_db,emse_theory_db,msd_sim_db,msd_theory_db"


def test_theory_numbers_reproducible_from_logged_inputs(tmp_path):
    out = tmp_path / "run"
    cfg = write_config(tmp_path, base_config(out))
    cli.main(["simulate", "--config", cfg])
    summary = json.loads((out / "summary.json").read_text())
    from diffnet import analysis, diffusion
    from diffnet.datamodel import model_from_dict
    from diffnet.graph import topology_from_dict
    from diffnet.stochmat import CombinationMatrix, identity_combination

    t = topology_from_dict(summary["inputs"]["topology"])
    model = model_from_dict(summary["inputs"]["model"])
    a2 = CombinationMatrix(np.asarray(summary["inputs"]["a2"]), "left", supported_on=t)
    cfg_obj = diffusion.atc_config(a2, identity_combination(t.n, t), np.asarray(summary["inputs"]["mu"]))
    moments = analysis.build_moments(model, cfg_obj)
    rep = analysis.performance_report(analysis.variance_constructs(moments, cfg_obj), moments)
    assert rep.msd_network == pytest.approx(summary["msd_theory"], rel=1e-12)


def test_zero_iterations_yields_empty_curves(tmp_path):
    out = tmp_path / "run"
    doc = base_config(out, trials=1, iterations=0)
    cfg = write_config(tmp_path, doc)
    assert cli.main(["simulate", "--config", cfg]) == 0
    lines = (out / "learning_curve.csv").read_text().splitlines()
    assert len(lines) == 1  # header only
    assert (out / "summary.json").exists()


def test_missing_seed_is_validation_error(tmp_path):
    doc = base_config(tmp_path / "x")
    del doc["seed"]
    cfg = write_config(tmp_path, doc)
    assert cli.main(["simulate", "--config", cfg]) == 2


def test_bad_emit_is_validation_error(tmp_path):
    doc = base_config(tmp_path / "x", emit=["plots"])
    cfg = write_config(tmp_path, doc)
    assert cli.main(["simulate", "--config", cfg]) == 2


@pytest.mark.parametrize(
    "field, value",
    [("iterations", -5), ("trials", "x"), ("mu", "abc"), ("mu", [0.01, 0.02])],
    ids=["negative_iterations", "text_trials", "text_mu", "mu_list_of_wrong_length"],
)
def test_malformed_field_is_validation_error(tmp_path, capsys, field, value):
    doc = base_config(tmp_path / "x")
    if field == "mu":
        doc["strategy"]["mu"] = value
    else:
        doc[field] = value
    cfg = write_config(tmp_path, doc)
    assert cli.main(["simulate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err
    assert "Traceback" not in err


def test_unknown_flag_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", "--nonsense"])
    assert exc.value.code != 0


def test_analyze_without_simulation(tmp_path):
    out = tmp_path / "run"
    cfg = write_config(tmp_path, base_config(out))
    assert cli.main(["analyze", "--config", cfg]) == 0
    theory = json.loads((out / "theory.json").read_text())
    assert theory["stable_ms"] is True
    assert not (out / "learning_curve.csv").exists()


def test_compare_uniform_profile(tmp_path):
    out = tmp_path / "cmp"
    doc = base_config(out, trials=2, iterations=150)
    doc["model"] = {
        "wo": [1.0, 0.0],
        "ru": [[[1.0, 0.1], [0.1, 0.8]]] * 4,
        "sigma2_v": [0.004, 0.002, 0.008, 0.005],
    }
    doc["strategy"] = {"a": {"rule": "metropolis"}, "c": {"rule": "metropolis"}, "mu": 0.02}
    cfg = write_config(tmp_path, doc)
    assert cli.main(["compare", "--config", cfg]) == 0
    rows = json.loads((out / "comparison.json").read_text())["rows"]
    by_name = {r["name"]: r for r in rows}
    assert by_name["atc<=cta"]["applicable"] and by_name["atc<=cta"]["holds"]
    assert by_name["atc<=lms"]["holds"]


def test_consensus_subcommand(tmp_path):
    out = tmp_path / "cons"
    doc = {
        "seed": 3,
        "iterations": 300,
        "topology": {"n": 5, "edges": [[1, 2], [2, 3], [3, 4], [4, 5]]},
        "strategy": {"a": {"rule": "metropolis"}},
        "outputs": str(out),
    }
    cfg = write_config(tmp_path, doc)
    assert cli.main(["consensus", "--config", cfg]) == 0
    res = json.loads((out / "consensus.json").read_text())
    assert res["converged"] is True
    assert res["rate_rel_err"] < 0.02


def test_rls_subcommand(tmp_path):
    out = tmp_path / "rls"
    doc = {
        "seed": 4,
        "trials": 2,
        "iterations": 60,
        "topology": {"n": 3, "edges": [[1, 2], [2, 3]]},
        "model": {"generator": {"seed": 2, "N": 3, "M": 2}},
        "strategy": {"rls": {"lambda": 1.0, "delta": 100.0, "a": {"rule": "metropolis"},
                             "c": {"rule": "averaging"}}},
        "outputs": str(out),
    }
    cfg = write_config(tmp_path, doc)
    assert cli.main(["rls", "--config", cfg]) == 0
    res = json.loads((out / "rls.json").read_text())
    assert res["drls_msd_final"] > 0
    assert (out / "rls_curve.csv").exists()


def test_kalman_subcommand(tmp_path):
    out = tmp_path / "kf"
    doc = {
        "seed": 5,
        "trials": 2,
        "iterations": 40,
        "topology": {"n": 3, "edges": [[1, 2], [2, 3]]},
        "strategy": {
            "kalman": {
                "f": [[1.0, 0.1], [0.0, 0.95]],
                "g": [[0.0], [1.0]],
                "h": [[[1.0, 0.0]]] * 3,
                "q": [[0.01]],
                "r": [[[0.4]], [[0.6]], [[0.5]]],
                "pi0": [[1.0, 0.0], [0.0, 1.0]],
                "a": {"rule": "metropolis"},
                "epsilon": 0.1,
            }
        },
        "outputs": str(out),
    }
    cfg = write_config(tmp_path, doc)
    assert cli.main(["kalman", "--config", cfg]) == 0
    res = json.loads((out / "kalman.json").read_text())
    for key in ("diffusion_msd_final", "consensus_msd_final", "central_msd_final"):
        assert res[key] > 0
    assert (out / "kalman_curve.csv").exists()


def _curve_columns(path):
    return np.loadtxt(path, delimiter=",", skiprows=1)[:, 1:]


def test_rls_curves_match_per_node_oracles(tmp_path):
    out = tmp_path / "rls"
    n, m, trials, iters, lam, delta = 5, 3, 2, 80, 0.99, 100.0
    doc = {
        "seed": 9,
        "trials": trials,
        "iterations": iters,
        "topology": {"n": n, "edges": [[1, 2], [2, 3], [3, 4], [4, 5], [5, 1], [1, 3]]},
        "model": {"generator": {"seed": 3, "N": n, "M": m}},
        "strategy": {"rls": {"lambda": lam, "delta": delta, "a": {"rule": "metropolis"},
                             "c": {"rule": "averaging"}}},
        "outputs": str(out),
    }
    assert cli.main(["rls", "--config", write_config(tmp_path, doc)]) == 0
    t = cli.build_topology_spec(doc["topology"])
    model = cli.build_model_spec(doc["model"], n)
    a = cli._matrix_from_spec(doc["strategy"]["rls"]["a"], t, model, "a")
    c = cli._matrix_from_spec(doc["strategy"]["rls"]["c"], t, model, "c")
    msd = np.zeros((iters, 2))
    for rng in diffusion.trial_rngs(doc["seed"], trials):
        d_states = oracle.init_states(n, m, lam, delta)
        c_states = oracle.init_crls_states(n, m, delta)
        for i in range(iters):
            snap = sample_snapshot(model, rng)
            d_states = oracle.drls_step(d_states, t, a, c, snap)
            c_states = oracle.crls_step(c_states, t, c, snap)
            msd[i, 0] += ((oracle.stack(d_states, "w") - model.wo) ** 2).sum()
            msd[i, 1] += ((oracle.stack(c_states, "psi") - model.wo) ** 2).sum()
    expected = 10.0 * np.log10(msd / (n * trials))
    np.testing.assert_allclose(_curve_columns(out / "rls_curve.csv"), expected, rtol=1e-9)


def test_kalman_curves_match_per_node_oracles(tmp_path):
    out = tmp_path / "kf"
    n, trials, iters, eps = 5, 2, 60, 0.1
    angles = np.linspace(0.2, 2.8, n)
    section = {
        "f": [[0.99, 0.1], [0.0, 0.95]],
        "g": [[0.0], [1.0]],
        "h": [[[float(np.cos(x)), float(np.sin(x))]] for x in angles],
        "q": [[0.01]],
        "r": [[[0.2 + 0.1 * k]] for k in range(n)],
        "pi0": [[1.0, 0.0], [0.0, 1.0]],
        "a": {"rule": "metropolis"},
        "epsilon": eps,
    }
    doc = {
        "seed": 6,
        "trials": trials,
        "iterations": iters,
        "topology": {"n": n, "edges": [[1, 2], [2, 3], [3, 4], [4, 5], [2, 5]]},
        "strategy": {"kalman": section},
        "outputs": str(out),
    }
    assert cli.main(["kalman", "--config", write_config(tmp_path, doc)]) == 0
    t = cli.build_topology_spec(doc["topology"])
    model = kalman.StateSpaceModel(**{k: np.asarray(section[k], dtype=float)
                                      for k in ("f", "g", "h", "q", "r", "pi0")})
    a = cli._matrix_from_spec(section["a"], t, None, "a")
    msd = np.zeros((iters, 3))
    for rng in diffusion.trial_rngs(doc["seed"], trials):
        xs, ys = kalman.simulate_state_trajectory(model, iters, rng)
        d_states = oracle.init_kf_states(model)
        c_states = oracle.init_kf_states(model)
        central = kalman.KfState(x_pred=np.zeros(2), p_pred=model.pi0.copy())
        for i in range(iters):
            d_states = oracle.dkf_tm_step(d_states, t, a, model, ys[i])
            c_states = oracle.ckf_step(c_states, t, model, ys[i], eps)
            central = kalman.centralized_kf_step(central, model, ys[i])
            msd[i, 0] += ((oracle.stack(d_states, "x_filt") - xs[i]) ** 2).sum() / n
            msd[i, 1] += ((oracle.stack(c_states, "x_filt") - xs[i]) ** 2).sum() / n
            msd[i, 2] += ((central.x_filt - xs[i]) ** 2).sum()
    expected = 10.0 * np.log10(msd / trials)
    np.testing.assert_allclose(_curve_columns(out / "kalman_curve.csv"), expected, rtol=1e-9)


def test_seed_override_changes_results(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cfg1 = write_config(tmp_path, base_config(out1), "c1.json")
    cfg2 = write_config(tmp_path, base_config(out2), "c2.json")
    cli.main(["simulate", "--config", cfg1])
    cli.main(["simulate", "--config", cfg2, "--seed", "99"])
    s1 = json.loads((out1 / "summary.json").read_text())
    s2 = json.loads((out2 / "summary.json").read_text())
    assert s1["msd_sim"] != s2["msd_sim"]
    assert s1["msd_theory"] == s2["msd_theory"]


def test_unstable_config_still_simulates(tmp_path):
    out = tmp_path / "unstable"
    doc = base_config(out, trials=1, iterations=300)
    doc["strategy"] = {"variant": "non_cooperative", "mu": 2.5}
    cfg = write_config(tmp_path, doc)
    assert cli.main(["simulate", "--config", cfg]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["stable_ms"] is False
    assert summary["diverged_trials"] >= 1


def _run_python(*args):
    """Run a fresh interpreter that imports this checkout's diffnet."""
    env = dict(os.environ, PYTHONPATH=str(Path(diffnet.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


def test_python_m_diffnet_runs_cli(tmp_path):
    out_in, out_sub = tmp_path / "in_process", tmp_path / "subprocess"
    cfg_in = write_config(tmp_path, base_config(out_in), "in.json")
    assert cli.main(["analyze", "--config", cfg_in]) == 0
    cfg_sub = write_config(tmp_path, base_config(out_sub), "sub.json")
    proc = _run_python("-m", "diffnet", "analyze", "--config", cfg_sub)
    assert proc.returncode == 0, proc.stderr
    assert "Warning" not in proc.stderr
    assert (out_sub / "theory.json").read_bytes() == (out_in / "theory.json").read_bytes()


def test_import_loads_no_scipy():
    # scipy is a test-only dependency; importing it would dominate start-up time
    proc = _run_python(
        "-c",
        "import sys, diffnet, diffnet.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
