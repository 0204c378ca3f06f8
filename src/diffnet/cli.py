"""Experiment runner: config parsing, theory + Monte Carlo pipelines, CSV and
summary emission.

Exit status: 0 on success, 2 on validation failure, 3 when an asserted
ordering or equivalence check fails.  Given the same config and seed, every
emitted file is byte-identical across runs.

Config schema (``SCHEMA`` below): one JSON object of sections.  A section
that is not an object, a key its section does not list and a variant
outside ``diffusion.VARIANTS`` are validation errors.  Defaults are in
brackets; other keys are required, except that a section or a matrix may be
left out.  The top level is shared: analyze ignores trials and iterations,
consensus ignores model and trials, kalman ignores model.

  top level     seed, trials [1], iterations [0; consensus 200, rls 500,
                kalman 100], outputs ["out"], topology, model, strategy
  topology      n, and edges [[]] (1-based node pairs) or random
  random        seed [0], edge_prob [0.3]
  model         generator, or wo, ru and sigma2_v
  generator     seed, N, M, eigen_range [[0.5, 2]], noise_range [[0.001, 0.01]]
  strategy      simulate, analyze: variant [atc], mu [0.01], link_noise,
                  smoothing, adaptive_weights, and by variant the matrices
                  a, c (atc, cta); a1, a2, c (general); a (consensus_lms);
                  none (non_cooperative)
                compare: a, c, mu [0.01]
                consensus: a [metropolis], block_size [1]
                rls: rls;  kalman: kalman
  rls           lambda [0.995], delta [100], a, c
  kalman        f, g, h, q, r, pi0, a [metropolis], epsilon [0.1]
  link_noise    seed [0], w_scale [0], psi_scale [0], d_scale [0]
  smoothing     order, f, q [1]
  adaptive_weights  nu [0.05]
  a, a1, a2, c  a rule name ("metropolis", "identity", ...); or {"rule":
                name} plus gamma (laplacian), gamma2 (relative_variance) or
                sigma2_v (relative_degree_variance [the model's]); or
                {"entries", "kind" [left for a, right for c]}; absent: I
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import analysis, combiners, diffusion, kalman, rls
from .datamodel import EnsembleModel, generate_model, model_to_dict, random_link_noise, sample_snapshot
from .errors import DiffnetError, ValidationError
from .graph import Topology, random_connected_topology, topology_from_dict, topology_to_dict
from .stochmat import DOUBLY, LEFT, RIGHT, CombinationMatrix, identity_combination, second_eigenvalue_magnitude

# LMS variant -> the strategy keys that set (a1, a2, c); None is the identity
LMS_MATRICES = {
    diffusion.GENERAL: ("a1", "a2", "c"),
    diffusion.ATC: (None, "a", "c"),
    diffusion.CTA: ("a", None, "c"),
    diffusion.CONSENSUS_LMS: (None, "a", None),
    diffusion.NON_COOPERATIVE: (None, None, None),
}

# section -> the keys the code reads from it; a section with two forms has
# one entry per form
SCHEMA = {
    "config": {"seed", "trials", "iterations", "outputs", "topology", "model", "strategy"},
    "topology": {"n", "edges"},
    "topology.random": {"n", "random"},
    "random": {"seed", "edge_prob"},
    "model": {"wo", "ru", "sigma2_v"},
    "model.generator": {"generator"},
    "generator": {"seed", "N", "M", "eigen_range", "noise_range"},
    **{f"strategy.{variant}": {"variant", "mu", "link_noise", "smoothing", "adaptive_weights", *keys} - {None}
       for variant, keys in LMS_MATRICES.items()},
    "strategy.compare": {"a", "c", "mu"},
    "strategy.consensus": {"a", "block_size"},
    "strategy.rls": {"rls"},
    "strategy.kalman": {"kalman"},
    "rls": {"lambda", "delta", "a", "c"},
    "kalman": {"f", "g", "h", "q", "r", "pi0", "a", "epsilon"},
    "link_noise": {"seed", "w_scale", "psi_scale", "d_scale"},
    "smoothing": {"order", "f", "q"},
    "adaptive_weights": {"nu"},
    "matrix": {"entries", "kind"},
    **{f"matrix.{rule}": {"rule"} for rule in combiners.RULES},
    "matrix.laplacian": {"rule", "gamma"},
    "matrix.relative_variance": {"rule", "gamma2"},
    "matrix.relative_degree_variance": {"rule", "sigma2_v"},
}

_REQUIRED = object()


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


def _array(raw) -> np.ndarray:
    value = np.asarray(raw, dtype=float)
    if not np.isfinite(value).all():
        raise ValueError(raw)
    return value


def _number(raw) -> float:
    return float(_array(float(raw)))  # float() rejects lists, _array non-finite values


_KINDS = {int: "an integer", _number: "a finite number", _array: "a finite number or a list of them"}
RULE_PARAMS = {"gamma": _number, "gamma2": _array, "sigma2_v": _array}


def _section(value, where: str, schema: str) -> dict:
    """``value`` checked as a section that uses only ``SCHEMA[schema]``'s keys."""
    if not isinstance(value, dict):
        raise ValidationError(f"{where} must be an object, got {json.dumps(value)}")
    unknown = value.keys() - SCHEMA[schema]
    if unknown:
        raise ValidationError(
            f"{where}: unknown key {', '.join(map(repr, sorted(unknown)))}; "
            f"it accepts {', '.join(sorted(SCHEMA[schema]))}"
        )
    return value


def _get(section: dict, where: str, key: str, kind, default=_REQUIRED, minimum=None, shapes=None):
    """``section[key]`` converted by ``kind`` (int, _number or _array), with
    a lower bound or, for arrays, a list of allowed shapes."""
    if key not in section:
        if default is _REQUIRED:
            raise ValidationError(f"{where}: missing key {key!r}")
        return default
    raw = section[key]
    try:
        value = kind(raw)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"{where}.{key} must be {_KINDS[kind]}, got {json.dumps(raw)}") from None
    if minimum is not None and value < minimum:
        raise ValidationError(f"{where}.{key} must be >= {minimum}, got {value}")
    if shapes is not None and value.shape not in shapes:
        allowed = " or ".join(map(str, shapes))
        raise ValidationError(f"{where}.{key} must have shape {allowed}, got {value.shape}")
    return value


@dataclass
class ExperimentConfig:
    seed: int
    trials: int
    iterations: int
    model: dict
    topology: dict
    strategy: dict
    outputs: str

    @classmethod
    def load(cls, path, overrides=None) -> "ExperimentConfig":
        with open(path) as fh:
            doc = _section(json.load(fh), "config", "config")
        overrides = overrides or {}
        for key in ("seed", "trials", "out"):
            if overrides.get(key) is not None:
                doc[{"out": "outputs"}.get(key, key)] = overrides[key]
        if "seed" not in doc:
            raise ValidationError("config must set an explicit seed (no wall-clock seeding)")
        outputs = doc.get("outputs", "out")
        if not isinstance(outputs, str):
            raise ValidationError(f"config.outputs must be a path, got {json.dumps(outputs)}")
        return cls(
            seed=_get(doc, "config", "seed", int, minimum=0),
            trials=_get(doc, "config", "trials", int, 1, minimum=1),
            iterations=_get(doc, "config", "iterations", int, 0, minimum=0),
            model=doc.get("model", {}),
            topology=doc.get("topology", {}),
            strategy=doc.get("strategy", {}),
            outputs=outputs,
        )


def build_topology_spec(spec: dict) -> Topology:
    if isinstance(spec, dict) and "random" in spec:
        _section(spec, "topology", "topology.random")
        params = _section(spec["random"], "topology.random", "random")
        rng = np.random.default_rng(_get(params, "topology.random", "seed", int, 0, minimum=0))
        n = _get(spec, "topology", "n", int, minimum=1)
        edge_prob = _get(params, "topology.random", "edge_prob", _number, 0.3)
        return random_connected_topology(n, rng, edge_prob)
    _section(spec, "topology", "topology")
    edges = _get(spec, "topology", "edges", _array, np.empty((0, 2)))
    if edges.shape != (0,) and (edges.ndim != 2 or edges.shape[1] != 2 or np.any(edges != np.round(edges))):
        raise ValidationError(f"topology.edges must be [a, b] node pairs, got {json.dumps(spec['edges'])}")
    n = _get(spec, "topology", "n", int, minimum=1)
    return topology_from_dict({"n": n, "edges": edges.astype(int).tolist()})


def build_model_spec(spec: dict, n: int) -> EnsembleModel:
    if isinstance(spec, dict) and "generator" in spec:
        _section(spec, "model", "model.generator")
        where = "model.generator"
        gen = _section(spec["generator"], where, "generator")
        model = generate_model(
            np.random.default_rng(_get(gen, where, "seed", int, minimum=0)),
            _get(gen, where, "N", int, minimum=1),
            _get(gen, where, "M", int, minimum=1),
            *(tuple(_get(gen, where, key, _array, np.asarray(default), shapes=[(2,)]).tolist())
              for key, default in (("eigen_range", (0.5, 2.0)), ("noise_range", (0.001, 0.01)))),
        )
    else:
        _section(spec, "model", "model")
        model = EnsembleModel(**{key: _get(spec, "model", key, _array) for key in ("wo", "ru", "sigma2_v")})
    if model.n != n:
        raise ValidationError(f"model has {model.n} nodes but topology has {n}")
    return model


def _matrix_from_spec(spec, t: Topology, model, role: str, where: str = "") -> CombinationMatrix:
    """role is 'a' (left) or 'c' (right); rule-built left matrices are
    transposed when a right-stochastic C is requested."""
    where = where or role
    if spec is None:
        return identity_combination(t.n, t)
    if isinstance(spec, dict) and "entries" in spec:
        _section(spec, where, "matrix")
        kind = spec.get("kind", LEFT if role == "a" else RIGHT)
        return CombinationMatrix(_get(spec, where, "entries", _array), kind, supported_on=t)
    if isinstance(spec, str):
        spec = {"rule": spec}
    rule = spec.get("rule") if isinstance(spec, dict) else None
    if rule not in combiners.RULES:
        raise ValidationError(
            f"{where} must be a rule ({', '.join(combiners.RULES)}) or give entries, got {json.dumps(spec)}"
        )
    _section(spec, where, f"matrix.{rule}")
    params = {key: _get(spec, where, key, RULE_PARAMS[key]) for key in spec.keys() - {"rule"}}
    if rule == "relative_degree_variance" and model is not None:
        params.setdefault("sigma2_v", model.sigma2_v)
    cm = combiners.build_combination(t, rule, **params)
    if role == "c" and cm.kind == LEFT:
        cm = cm.transpose()
    return cm


def _mu(section: dict, where: str, n: int) -> np.ndarray:
    return _get(section, where, "mu", _array, np.asarray(0.01), shapes=[(), (1,), (n,)])


def build_strategy(strategy: dict, t: Topology, model) -> diffusion.DiffusionConfig:
    variant = strategy.get("variant", diffusion.ATC) if isinstance(strategy, dict) else diffusion.ATC
    if variant not in diffusion.VARIANTS:
        raise ValidationError(
            f"strategy.variant must be one of {', '.join(diffusion.VARIANTS)}, got {json.dumps(variant)}"
        )
    _section(strategy, "strategy", f"strategy.{variant}")
    kw = {}
    if "adaptive_weights" in strategy:
        where = "strategy.adaptive_weights"
        aw = _section(strategy["adaptive_weights"], where, "adaptive_weights")
        kw["adaptive_weights"] = diffusion.AdaptiveWeightConfig(nu=_get(aw, where, "nu", _number, 0.05))
    if "link_noise" in strategy:
        where = "strategy.link_noise"
        ln = _section(strategy["link_noise"], where, "link_noise")
        rng = np.random.default_rng(_get(ln, where, "seed", int, 0, minimum=0))
        scales = {key: _get(ln, where, key, _number, 0.0) for key in ("w_scale", "psi_scale", "d_scale")}
        kw["link_noise"] = random_link_noise(t, model.m, rng, **scales)
    if "smoothing" in strategy:
        where = "strategy.smoothing"
        sm = _section(strategy["smoothing"], where, "smoothing")
        kw["smoothing"] = diffusion.SmoothingConfig(
            order=sm.get("order"),
            f=_get(sm, where, "f", _array),
            q=_get(sm, where, "q", _array, np.asarray(1.0)),
        )
    a1, a2, c = (
        _matrix_from_spec(strategy.get(key) if key else None, t, model, role, f"strategy.{key}")
        for key, role in zip(LMS_MATRICES[variant], "aac")
    )
    return diffusion.DiffusionConfig(a1, a2, c, _mu(strategy, "strategy", t.n), variant=variant, **kw)


def _write_csv(path: Path, header, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def _write_db_curves(path: Path, steps: int, curves: dict):
    """CSV of the step index and each named curve's first ``steps`` values in dB."""
    rows = ((i, *(to_db(c[i]) for c in curves.values())) for i in range(steps))
    _write_csv(path, ["i", *curves], rows)


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
    path.parent.mkdir(parents=True, exist_ok=True)
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


def _inputs(t: Topology, model, cfg) -> dict:
    """Everything the theory numbers are computed from."""
    return {"topology": topology_to_dict(t), "model": model_to_dict(model),
            "a1": cfg.a1.entries, "a2": cfg.a2.entries, "c": cfg.c.entries, "mu": cfg.mu}


def _lms_setup(config: ExperimentConfig):
    """Topology, model and LMS strategy of a simulate or analyze run."""
    t = build_topology_spec(config.topology)
    model = build_model_spec(config.model, t.n)
    return t, model, build_strategy(config.strategy, t, model)


def _with_db(*values) -> list:
    return [v for x in values for v in (float(x), to_db(x))]


def cmd_simulate(config: ExperimentConfig) -> int:
    """Theory + Monte Carlo pipeline."""
    outdir = Path(config.outputs)
    t, model, cfg = _lms_setup(config)
    moments, constructs, report, stability = _theory(model, cfg)
    steps = config.iterations
    mc = diffusion.run_trials(model, cfg, steps, config.trials, config.seed, topology=t)

    if report.stable_ms and steps > 0:
        emse_theory, msd_theory = analysis.learning_curve_theory(constructs, moments, None, steps)
    else:
        emse_theory = msd_theory = np.full(steps + 1, float("nan"))
    _write_db_curves(outdir / "learning_curve.csv", steps, {
        "emse_sim_db": mc.emse_curve, "emse_theory_db": emse_theory,
        "msd_sim_db": mc.msd_curve, "msd_theory_db": msd_theory,
    })

    msd_ss = diffusion.steady_state(mc.msd_node_curve) if steps else np.full(t.n, float("nan"))
    emse_ss = diffusion.steady_state(mc.emse_node_curve) if steps else np.full(t.n, float("nan"))
    rows = [
        (k + 1, *_with_db(msd_ss[k], report.msd_node[k], emse_ss[k], report.emse_node[k]))
        for k in range(t.n)
    ]
    rows.append(
        ("network", *_with_db(msd_ss.mean(), report.msd_network, emse_ss.mean(), report.emse_network))
    )
    header = ["node", "msd_sim", "msd_sim_db", "msd_theory", "msd_theory_db",
              "emse_sim", "emse_sim_db", "emse_theory", "emse_theory_db"]
    _write_csv(outdir / "steady_state.csv", header, rows)

    summary = {
        "seed": config.seed,
        "trials": config.trials,
        "iterations": steps,
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
        "msd_gap_db": to_db(float(msd_ss.mean())) - to_db(report.msd_network),
        "inputs": _inputs(t, model, cfg),
    }
    _write_summary(outdir / "summary.json", summary)
    return 0


def cmd_analyze(config: ExperimentConfig) -> int:
    t, model, cfg = _lms_setup(config)
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
        "inputs": _inputs(t, model, cfg),
    }
    _write_summary(Path(config.outputs) / "theory.json", summary)
    return 0


def cmd_compare(config: ExperimentConfig) -> int:
    t = build_topology_spec(config.topology)
    model = build_model_spec(config.model, t.n)
    strategy = _section(config.strategy, "strategy", "strategy.compare")
    a = _matrix_from_spec(strategy.get("a"), t, model, "a", "strategy.a")
    c = _matrix_from_spec(strategy.get("c"), t, model, "c", "strategy.c")
    mu = _mu(strategy, "strategy", t.n)
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

    summary = {"msd_theory": report.msd, "msd_sim": sims, "rows": [asdict(r) for r in report.rows]}
    _write_summary(Path(config.outputs) / "comparison.json", summary)
    violated = [r.name for r in report.rows if r.applicable and not r.holds]
    if violated:
        print(f"ordering violated: {violated}", file=sys.stderr)
        return 3
    return 0


def cmd_consensus(config: ExperimentConfig) -> int:
    t = build_topology_spec(config.topology)
    strategy = _section(config.strategy, "strategy", "strategy.consensus")
    a = _matrix_from_spec(strategy.get("a", "metropolis"), t, None, "a", "strategy.a")
    if DOUBLY != a.kind:
        raise ValidationError("consensus averaging needs a doubly stochastic matrix")
    rng = np.random.default_rng(config.seed)
    m = _get(strategy, "strategy", "block_size", int, 1, minimum=1)
    errors = diffusion.consensus_error_curve(a, rng.standard_normal((t.n, m)), config.iterations or 200)
    lam2 = second_eigenvalue_magnitude(a)
    try:
        rate = diffusion.fit_geometric_rate(errors)
        rate_rel_err = abs(rate - lam2) / lam2 if lam2 > 0 else float("nan")
    except DiffnetError:
        rate, rate_rel_err = float("nan"), float("nan")
    outdir = Path(config.outputs)
    _write_csv(outdir / "consensus.csv", ["n", "error"], ((i, float(e)) for i, e in enumerate(errors, 1)))
    _write_summary(outdir / "consensus.json", {
        "lambda2": lam2,
        "fitted_rate": rate,
        "rate_rel_err": rate_rel_err,
        "converged": bool(errors[-1] < 1e-8),
        "final_error": float(errors[-1]),
    })
    return 0


def cmd_rls(config: ExperimentConfig) -> int:
    t = build_topology_spec(config.topology)
    model = build_model_spec(config.model, t.n)
    where = "strategy.rls"
    section = _section(_section(config.strategy, "strategy", where).get("rls", {}), where, "rls")
    lam = _get(section, where, "lambda", _number, rls.LAMBDA_DEFAULT)
    delta = _get(section, where, "delta", _number, rls.DELTA_DEFAULT)
    a = _matrix_from_spec(section.get("a"), t, model, "a", f"{where}.a")
    c = _matrix_from_spec(section.get("c"), t, model, "c", f"{where}.c")
    iters = config.iterations or 500

    drls, crls = np.zeros(iters), np.zeros(iters)
    for rng in diffusion.trial_rngs(config.seed, config.trials):
        d_states = rls.init_states(t.n, model.m, lam, delta)
        c_states = rls.init_crls_states(t.n, model.m, delta)
        for i in range(iters):
            snap = sample_snapshot(model, rng)
            d_states = rls.drls_step(d_states, a, c, snap)
            c_states = rls.crls_step(c_states, c, snap)
            drls[i] += ((d_states.w - model.wo) ** 2).sum() / t.n
            crls[i] += ((c_states.psi - model.wo) ** 2).sum() / t.n
    curves = {"drls": drls / config.trials, "crls": crls / config.trials}

    outdir = Path(config.outputs)
    _write_db_curves(outdir / "rls_curve.csv", iters, {f"{k}_msd_db": v for k, v in curves.items()})
    _write_summary(outdir / "rls.json", {
        "drls_msd_final": float(diffusion.steady_state(curves["drls"])),
        "crls_msd_final": float(diffusion.steady_state(curves["crls"])),
        "drls_comm_scalars": rls.drls_comm_scalars(t, model.m),
        "crls_comm_scalars": rls.crls_comm_scalars(t, model.m),
        "lambda": lam,
        "delta": delta,
    })
    return 0


def cmd_kalman(config: ExperimentConfig) -> int:
    t = build_topology_spec(config.topology)
    where = "strategy.kalman"
    section = _section(_section(config.strategy, "strategy", where).get("kalman", {}), where, "kalman")
    model = kalman.StateSpaceModel(
        **{key: _get(section, where, key, _array) for key in ("f", "g", "h", "q", "r", "pi0")}
    )
    if model.n_nodes != t.n:
        raise ValidationError("state-space model node count does not match topology")
    a = _matrix_from_spec(section.get("a", "metropolis"), t, None, "a", f"{where}.a")
    epsilon = _get(section, where, "epsilon", _number, 0.1)
    eps_weights = kalman.ckf_weights(t, epsilon)
    iters = config.iterations or 100

    msd = np.zeros((3, iters))  # diffusion, consensus, central
    for rng in diffusion.trial_rngs(config.seed, config.trials):
        xs, ys = kalman.simulate_state_trajectory(model, iters, rng)
        d_states = kalman.init_kf_states(model)
        c_states = kalman.init_kf_states(model)
        central = kalman.KfState(x_pred=np.zeros(model.state_dim), p_pred=model.pi0.copy())
        for i in range(iters):
            d_states = kalman.dkf_tm_step(d_states, t, a, model, ys[i])
            c_states = kalman.ckf_step(c_states, t, model, ys[i], eps_weights)
            central = kalman.centralized_kf_step(central, model, ys[i])
            msd[:, i] += (((d_states.x_filt - xs[i]) ** 2).sum() / t.n,
                          ((c_states.x_filt - xs[i]) ** 2).sum() / t.n,
                          ((central.x_filt - xs[i]) ** 2).sum())
    msd = dict(zip(("diffusion", "consensus", "central"), msd / config.trials))

    outdir = Path(config.outputs)
    _write_db_curves(outdir / "kalman_curve.csv", iters, {f"{k}_msd_db": v for k, v in msd.items()})
    _write_summary(outdir / "kalman.json", {
        **{f"{k}_msd_final": float(diffusion.steady_state(v)) for k, v in msd.items()},
        "epsilon": epsilon,
    })
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="diffnet", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
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
        p.set_defaults(func=func)
    args = parser.parse_args(argv)
    try:
        return args.func(ExperimentConfig.load(args.config, vars(args)))
    except (DiffnetError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
