"""Experiment runner: config loading, theory + Monte Carlo pipelines, CSV and
summary emission.

Exit status: 0 on success, 2 on validation failure, 3 when an asserted
ordering or equivalence check fails.  Given the same config and seed, every
emitted file is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import analysis, combiners, diffusion, kalman, rls
from .datamodel import generate_model, model_from_dict, model_to_dict, random_link_noise, sample_snapshot
from .errors import DiffnetError, ValidationError
from .graph import Topology, random_connected_topology, topology_from_dict, topology_to_dict
from .stochmat import DOUBLY, LEFT, RIGHT, CombinationMatrix, identity_combination, second_eigenvalue_magnitude

EMITS = ("learning_curve", "steady_state", "theory", "comparison")


def to_db(x) -> float:
    x = float(x)
    if math.isnan(x):
        return float("nan")
    if x <= 0:
        return float("-inf")
    return 10.0 * math.log10(x)


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".12g")
    return str(x)


@dataclass
class ExperimentConfig:
    seed: int
    trials: int
    iterations: int
    model: dict
    topology: dict
    strategy: dict
    outputs: str
    emit: list
    raw: dict

    @classmethod
    def load(cls, path, overrides=None) -> "ExperimentConfig":
        with open(path) as fh:
            doc = json.load(fh)
        overrides = overrides or {}
        for key in ("seed", "trials", "out", "emit"):
            if overrides.get(key) is not None:
                doc[{"out": "outputs"}.get(key, key)] = overrides[key]
        if "seed" not in doc:
            raise ValidationError("config must set an explicit seed (no wall-clock seeding)")
        trials = int(doc.get("trials", 1))
        if trials < 1:
            raise ValidationError("trials must be >= 1")
        emit = list(doc.get("emit", ["learning_curve", "steady_state", "theory"]))
        bad = [e for e in emit if e not in EMITS]
        if bad:
            raise ValidationError(f"unknown emit entries {bad}; choose from {EMITS}")
        return cls(
            seed=int(doc["seed"]),
            trials=trials,
            iterations=int(doc.get("iterations", 0)),
            model=doc.get("model", {}),
            topology=doc.get("topology", {}),
            strategy=doc.get("strategy", {}),
            outputs=str(doc.get("outputs", "out")),
            emit=emit,
            raw=doc,
        )


def build_topology_spec(spec: dict) -> Topology:
    if "random" in spec:
        params = spec["random"]
        rng = np.random.default_rng(int(params.get("seed", 0)))
        return random_connected_topology(int(spec["n"]), rng, float(params.get("edge_prob", 0.3)))
    return topology_from_dict(spec)


def build_model_spec(spec: dict, n: int):
    model = model_from_dict(spec)
    if model.n != n:
        raise ValidationError(f"model has {model.n} nodes but topology has {n}")
    return model


def _matrix_from_spec(spec, t: Topology, model, role: str) -> CombinationMatrix:
    """role is 'a' (left) or 'c' (right); rule-built left matrices are
    transposed when a right-stochastic C is requested."""
    if spec is None or spec == "identity" or spec.get("rule") == "identity":
        return identity_combination(t.n, t)
    if "entries" in spec:
        kind = spec.get("kind", LEFT if role == "a" else RIGHT)
        return CombinationMatrix(np.asarray(spec["entries"], dtype=float), kind, supported_on=t)
    rule = spec["rule"]
    params = {}
    if rule == "laplacian":
        params["gamma"] = float(spec["gamma"])
    if rule == "relative_variance":
        params["gamma2"] = np.asarray(spec["gamma2"], dtype=float)
    if rule == "relative_degree_variance":
        params["sigma2_v"] = model.sigma2_v if spec.get("sigma2_v") is None else np.asarray(
            spec["sigma2_v"], dtype=float
        )
    cm = combiners.build_combination(t, rule, **params)
    if role == "c" and cm.kind == LEFT:
        cm = cm.transpose()
    return cm


def build_strategy(strategy: dict, t: Topology, model) -> diffusion.DiffusionConfig:
    variant = strategy.get("variant", "atc")
    mu = strategy.get("mu", 0.01)
    mu = np.asarray(mu, dtype=float)
    c = _matrix_from_spec(strategy.get("c"), t, model, "c")
    kw = {}
    if "adaptive_weights" in strategy:
        kw["adaptive_weights"] = diffusion.AdaptiveWeightConfig(
            nu=float(strategy["adaptive_weights"].get("nu", 0.05))
        )
    if "link_noise" in strategy:
        ln = strategy["link_noise"]
        rng = np.random.default_rng(int(ln.get("seed", 0)))
        kw["link_noise"] = random_link_noise(
            t,
            model.m,
            rng,
            w_scale=float(ln.get("w_scale", 0.0)),
            psi_scale=float(ln.get("psi_scale", 0.0)),
            d_scale=float(ln.get("d_scale", 0.0)),
        )
    if "smoothing" in strategy:
        sm = strategy["smoothing"]
        kw["smoothing"] = diffusion.SmoothingConfig(
            order=sm["order"],
            f=np.asarray(sm["f"], dtype=float),
            q=np.asarray(sm.get("q", 1.0), dtype=float),
        )

    if variant in (diffusion.ATC, diffusion.CTA, diffusion.CONSENSUS_LMS):
        a = _matrix_from_spec(strategy.get("a"), t, model, "a")
        builder = {
            diffusion.ATC: diffusion.atc_config,
            diffusion.CTA: diffusion.cta_config,
        }.get(variant)
        if variant == diffusion.CONSENSUS_LMS:
            return diffusion.consensus_lms_config(a, mu, **kw)
        return builder(a, c, mu, **kw)
    if variant == diffusion.NON_COOPERATIVE:
        return diffusion.non_cooperative_config(t.n, mu, **kw)
    a1 = _matrix_from_spec(strategy.get("a1"), t, model, "a")
    a2 = _matrix_from_spec(strategy.get("a2"), t, model, "a")
    return diffusion.general_config(a1, a2, c, mu, **kw)


def _write_csv(path: Path, header, rows):
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def _jsonable(x):
    if isinstance(x, (np.bool_, bool)):
        return bool(x)
    if isinstance(x, (np.floating, float)):
        x = float(x)
        return x if math.isfinite(x) else _fmt(x)
    if isinstance(x, (np.integer, int)):
        return int(x)
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    return x


def _write_summary(path: Path, summary: dict):
    with open(path, "w") as fh:
        json.dump(_jsonable(summary), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _theory(model, cfg):
    """Steady-state theory of a strategy: moments, constructs, report, stability."""
    moments = analysis.build_moments(model, cfg)
    if cfg.link_noise is not None:
        constructs = analysis.imperfect_constructs(moments, cfg, cfg.link_noise)
    else:
        constructs = analysis.variance_constructs(moments, cfg)
    report = analysis.performance_report(constructs, moments)
    return moments, constructs, report, analysis.mean_stability(constructs, moments, cfg)


def run(config: ExperimentConfig) -> dict:
    """Theory + Monte Carlo pipeline; returns the summary dict."""
    outdir = Path(config.outputs)
    outdir.mkdir(parents=True, exist_ok=True)
    t = build_topology_spec(config.topology)
    model = build_model_spec(config.model, t.n)
    cfg = build_strategy(config.strategy, t, model)

    moments, constructs, report, stability = _theory(model, cfg)

    mc = diffusion.run_trials(
        model, cfg, config.iterations, config.trials, config.seed, topology=t
    )

    if "learning_curve" in config.emit:
        if report.stable_ms and config.iterations > 0:
            zeta = analysis.learning_curve_theory(constructs, moments, None, config.iterations)
            msd_theory_curve = analysis.learning_curve_theory(
                constructs, moments, None, config.iterations,
                target=np.eye(moments.n * moments.m) / moments.n,
            )
        else:
            zeta = np.full(config.iterations + 1, float("nan"))
            msd_theory_curve = zeta
        rows = [
            (
                i,
                _fmt(to_db(mc.emse_curve[i])),
                _fmt(to_db(zeta[i])),
                _fmt(to_db(mc.msd_curve[i])),
                _fmt(to_db(msd_theory_curve[i])),
            )
            for i in range(config.iterations)
        ]
        _write_csv(
            outdir / "learning_curve.csv",
            ["i", "emse_sim_db", "emse_theory_db", "msd_sim_db", "msd_theory_db"],
            rows,
        )

    msd_ss = diffusion.steady_state(mc.msd_node_curve) if config.iterations else np.full(t.n, float("nan"))
    emse_ss = diffusion.steady_state(mc.emse_node_curve) if config.iterations else np.full(t.n, float("nan"))
    if "steady_state" in config.emit:
        rows = []
        for k in range(t.n):
            rows.append(
                (
                    k + 1,
                    _fmt(float(msd_ss[k])),
                    _fmt(to_db(msd_ss[k])),
                    _fmt(float(report.msd_node[k])),
                    _fmt(to_db(report.msd_node[k])),
                    _fmt(float(emse_ss[k])),
                    _fmt(to_db(emse_ss[k])),
                    _fmt(float(report.emse_node[k])),
                    _fmt(to_db(report.emse_node[k])),
                )
            )
        rows.append(
            (
                "network",
                _fmt(float(msd_ss.mean())),
                _fmt(to_db(msd_ss.mean())),
                _fmt(report.msd_network),
                _fmt(to_db(report.msd_network)),
                _fmt(float(emse_ss.mean())),
                _fmt(to_db(emse_ss.mean())),
                _fmt(report.emse_network),
                _fmt(to_db(report.emse_network)),
            )
        )
        _write_csv(
            outdir / "steady_state.csv",
            [
                "node",
                "msd_sim", "msd_sim_db", "msd_theory", "msd_theory_db",
                "emse_sim", "emse_sim_db", "emse_theory", "emse_theory_db",
            ],
            rows,
        )

    gap_db = to_db(float(msd_ss.mean())) - to_db(report.msd_network)
    summary = {
        "seed": config.seed,
        "trials": config.trials,
        "iterations": config.iterations,
        "stable_mean": report.stable_mean,
        "stable_ms": report.stable_ms,
        "rho_b": report.rho_b,
        "mu_bounds": stability["mu_bounds"],
        "per_node_bound_ok": stability["per_node_bound_ok"],
        "diverged_trials": mc.diverged_trials,
        "msd_theory": report.msd_network,
        "emse_theory": report.emse_network,
        "msd_sim": float(msd_ss.mean()),
        "emse_sim": float(emse_ss.mean()),
        "msd_gap_db": gap_db,
        "inputs": {
            "topology": topology_to_dict(t),
            "model": model_to_dict(model),
            "a1": cfg.a1.entries,
            "a2": cfg.a2.entries,
            "c": cfg.c.entries,
            "mu": cfg.mu,
        },
    }
    _write_summary(outdir / "summary.json", summary)
    return summary


def cmd_simulate(args) -> int:
    config = ExperimentConfig.load(args.config, vars(args))
    run(config)
    return 0


def cmd_analyze(args) -> int:
    config = ExperimentConfig.load(args.config, vars(args))
    outdir = Path(config.outputs)
    outdir.mkdir(parents=True, exist_ok=True)
    t = build_topology_spec(config.topology)
    model = build_model_spec(config.model, t.n)
    cfg = build_strategy(config.strategy, t, model)
    _, _, report, stability = _theory(model, cfg)
    summary = {
        "rho_b": report.rho_b,
        "stable_mean": report.stable_mean,
        "stable_ms": report.stable_ms,
        "mu_bounds": stability["mu_bounds"],
        "msd_theory": report.msd_network,
        "emse_theory": report.emse_network,
        "msd_node_theory": report.msd_node,
        "emse_node_theory": report.emse_node,
        "inputs": {
            "topology": topology_to_dict(t),
            "model": model_to_dict(model),
            "a1": cfg.a1.entries,
            "a2": cfg.a2.entries,
            "c": cfg.c.entries,
            "mu": cfg.mu,
        },
    }
    _write_summary(outdir / "theory.json", summary)
    return 0


def cmd_compare(args) -> int:
    config = ExperimentConfig.load(args.config, vars(args))
    outdir = Path(config.outputs)
    outdir.mkdir(parents=True, exist_ok=True)
    t = build_topology_spec(config.topology)
    model = build_model_spec(config.model, t.n)
    a = _matrix_from_spec(config.strategy.get("a"), t, model, "a")
    c = _matrix_from_spec(config.strategy.get("c"), t, model, "c")
    mu = np.asarray(config.strategy.get("mu", 0.01), dtype=float)
    report = analysis.compare_strategies(model, a, c, mu)

    sims = {}
    if config.iterations > 0:
        for name, cfg in (
            ("atc", diffusion.atc_config(a, c, mu)),
            ("cta", diffusion.cta_config(a, c, mu)),
            ("lms", diffusion.non_cooperative_config(t.n, mu)),
        ):
            mc = diffusion.run_trials(model, cfg, config.iterations, config.trials, config.seed)
            sims[name] = float(diffusion.steady_state(mc.msd_curve))

    rows = [
        {
            "name": r.name,
            "applicable": r.applicable,
            "reason": r.reason,
            "holds": r.holds,
            "lhs": r.lhs,
            "rhs": r.rhs,
        }
        for r in report.rows
    ]
    summary = {"msd_theory": report.msd, "msd_sim": sims, "rows": rows}
    _write_summary(outdir / "comparison.json", summary)
    violated = [r.name for r in report.rows if r.applicable and not r.holds]
    if violated:
        print(f"ordering violated: {violated}", file=sys.stderr)
        return 3
    return 0


def cmd_consensus(args) -> int:
    config = ExperimentConfig.load(args.config, vars(args))
    outdir = Path(config.outputs)
    outdir.mkdir(parents=True, exist_ok=True)
    t = build_topology_spec(config.topology)
    a = _matrix_from_spec(config.strategy.get("a", {"rule": "metropolis"}), t, None, "a")
    if DOUBLY != a.kind:
        raise ValidationError("consensus averaging needs a doubly stochastic matrix")
    rng = np.random.default_rng(config.seed)
    m = int(config.strategy.get("block_size", 1))
    z0 = rng.standard_normal((t.n, m))
    iters = config.iterations or 200
    errors = diffusion.consensus_error_curve(a, z0, iters)
    lam2 = second_eigenvalue_magnitude(a)
    converged = bool(errors[-1] < 1e-8)
    try:
        rate = diffusion.fit_geometric_rate(errors)
        rate_rel_err = abs(rate - lam2) / lam2 if lam2 > 0 else float("nan")
    except DiffnetError:
        rate, rate_rel_err = float("nan"), float("nan")
    _write_csv(
        outdir / "consensus.csv",
        ["n", "error"],
        [(i, _fmt(float(e))) for i, e in enumerate(errors, start=1)],
    )
    _write_summary(
        outdir / "consensus.json",
        {
            "lambda2": lam2,
            "fitted_rate": rate,
            "rate_rel_err": rate_rel_err,
            "converged": converged,
            "final_error": float(errors[-1]),
        },
    )
    return 0


def cmd_rls(args) -> int:
    config = ExperimentConfig.load(args.config, vars(args))
    outdir = Path(config.outputs)
    outdir.mkdir(parents=True, exist_ok=True)
    t = build_topology_spec(config.topology)
    model = build_model_spec(config.model, t.n)
    section = config.strategy.get("rls", config.strategy)
    lam = float(section.get("lambda", rls.LAMBDA_DEFAULT))
    delta = float(section.get("delta", rls.DELTA_DEFAULT))
    a = _matrix_from_spec(section.get("a"), t, model, "a")
    c = _matrix_from_spec(section.get("c"), t, model, "c")
    iters = config.iterations or 500

    curves = {"drls": np.zeros(iters), "crls": np.zeros(iters)}
    for rng in diffusion.trial_rngs(config.seed, config.trials):
        d_states = rls.init_states(t.n, model.m, lam, delta)
        c_states = rls.init_crls_states(t.n, model.m, delta)
        for i in range(iters):
            snap = sample_snapshot(model, rng)
            d_states = rls.drls_step(d_states, a, c, snap)
            c_states = rls.crls_step(c_states, c, snap)
            curves["drls"][i] += ((d_states.w - model.wo) ** 2).sum() / t.n
            curves["crls"][i] += ((c_states.psi - model.wo) ** 2).sum() / t.n
    for key in curves:
        curves[key] /= config.trials

    _write_csv(
        outdir / "rls_curve.csv",
        ["i", "drls_msd_db", "crls_msd_db"],
        [
            (i, _fmt(to_db(curves["drls"][i])), _fmt(to_db(curves["crls"][i])))
            for i in range(iters)
        ],
    )
    _write_summary(
        outdir / "rls.json",
        {
            "drls_msd_final": float(diffusion.steady_state(curves["drls"])),
            "crls_msd_final": float(diffusion.steady_state(curves["crls"])),
            "drls_comm_scalars": rls.drls_comm_scalars(t, model.m),
            "crls_comm_scalars": rls.crls_comm_scalars(t, model.m),
            "lambda": lam,
            "delta": delta,
        },
    )
    return 0


def cmd_kalman(args) -> int:
    config = ExperimentConfig.load(args.config, vars(args))
    outdir = Path(config.outputs)
    outdir.mkdir(parents=True, exist_ok=True)
    t = build_topology_spec(config.topology)
    section = config.strategy.get("kalman", config.strategy)
    model = kalman.StateSpaceModel(
        f=np.asarray(section["f"], dtype=float),
        g=np.asarray(section["g"], dtype=float),
        h=np.asarray(section["h"], dtype=float),
        q=np.asarray(section["q"], dtype=float),
        r=np.asarray(section["r"], dtype=float),
        pi0=np.asarray(section["pi0"], dtype=float),
    )
    if model.n_nodes != t.n:
        raise ValidationError("state-space model node count does not match topology")
    a = _matrix_from_spec(section.get("a", {"rule": "metropolis"}), t, None, "a")
    epsilon = float(section.get("epsilon", 0.1))
    iters = config.iterations or 100

    msd = {"diffusion": np.zeros(iters), "consensus": np.zeros(iters), "central": np.zeros(iters)}
    for rng in diffusion.trial_rngs(config.seed, config.trials):
        xs, ys = kalman.simulate_state_trajectory(model, iters, rng)
        d_states = kalman.init_kf_states(model)
        c_states = kalman.init_kf_states(model)
        central = kalman.KfState(x_pred=np.zeros(model.state_dim), p_pred=model.pi0.copy())
        for i in range(iters):
            d_states = kalman.dkf_tm_step(d_states, t, a, model, ys[i])
            c_states = kalman.ckf_step(c_states, t, model, ys[i], epsilon)
            central = kalman.centralized_kf_step(central, model, ys[i])
            msd["diffusion"][i] += ((d_states.x_filt - xs[i]) ** 2).sum() / t.n
            msd["consensus"][i] += ((c_states.x_filt - xs[i]) ** 2).sum() / t.n
            msd["central"][i] += ((central.x_filt - xs[i]) ** 2).sum()
    for key in msd:
        msd[key] /= config.trials

    _write_csv(
        outdir / "kalman_curve.csv",
        ["i", "diffusion_msd_db", "consensus_msd_db", "central_msd_db"],
        [
            (
                i,
                _fmt(to_db(msd["diffusion"][i])),
                _fmt(to_db(msd["consensus"][i])),
                _fmt(to_db(msd["central"][i])),
            )
            for i in range(iters)
        ],
    )
    _write_summary(
        outdir / "kalman.json",
        {
            "diffusion_msd_final": float(diffusion.steady_state(msd["diffusion"])),
            "consensus_msd_final": float(diffusion.steady_state(msd["consensus"])),
            "central_msd_final": float(diffusion.steady_state(msd["central"])),
            "epsilon": epsilon,
        },
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="diffnet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "simulate": cmd_simulate,
        "analyze": cmd_analyze,
        "compare": cmd_compare,
        "consensus": cmd_consensus,
        "rls": cmd_rls,
        "kalman": cmd_kalman,
    }
    for name, func in commands.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--trials", type=int, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--emit", nargs="*", default=None)
        p.set_defaults(func=func)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DiffnetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"config error: {exc!r}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
