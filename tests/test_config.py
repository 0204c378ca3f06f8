"""Malformed configs exit with status 2 and a one-line ``error:`` message.

A fuzzer mutates the keys, types and values of tiny configs for every
subcommand; each run must exit 0 or 2 (3 is ``compare``'s failed-ordering
status) without raising.
"""

import copy
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from diffnet import cli

TOPOLOGY = {"n": 3, "edges": [[1, 2], [2, 3]]}
MODEL = {"generator": {"seed": 2, "N": 3, "M": 2}}

# one tiny config per subcommand: N <= 4, <= 20 steps, 1 trial
TINY = {
    "simulate": {
        "seed": 1, "trials": 1, "iterations": 20, "topology": TOPOLOGY, "model": MODEL,
        "strategy": {"variant": "atc", "a": {"rule": "metropolis"}, "c": "identity", "mu": 0.02,
                     "link_noise": {"seed": 3, "psi_scale": 0.001, "d_scale": 0.001}},
    },
    "analyze": {
        "seed": 1, "topology": {"n": 4, "random": {"seed": 1, "edge_prob": 0.5}},
        "model": {"generator": {"seed": 2, "N": 4, "M": 2, "eigen_range": [0.5, 2.0]}},
        "strategy": {"variant": "general", "a1": "metropolis", "a2": {"rule": "laplacian", "gamma": 0.3},
                     "c": {"rule": "relative_degree_variance"}, "mu": [0.01, 0.02, 0.01, 0.02]},
    },
    "compare": {
        "seed": 1, "trials": 1, "iterations": 20, "topology": TOPOLOGY,
        "model": {"wo": [1.0, 0.0], "ru": [[[1.0, 0.1], [0.1, 0.8]]] * 3, "sigma2_v": [0.004, 0.002, 0.008]},
        "strategy": {"a": {"rule": "metropolis"}, "c": {"rule": "metropolis"}, "mu": 0.02},
    },
    "consensus": {
        "seed": 1, "iterations": 20, "topology": TOPOLOGY,
        "strategy": {"a": {"rule": "metropolis"}, "block_size": 2},
    },
    "rls": {
        "seed": 1, "trials": 1, "iterations": 20, "topology": TOPOLOGY, "model": MODEL,
        "strategy": {"rls": {"lambda": 0.99, "delta": 10.0, "a": "metropolis", "c": {"rule": "averaging"}}},
    },
    "kalman": {
        "seed": 1, "trials": 1, "iterations": 20, "topology": TOPOLOGY,
        "strategy": {"kalman": {
            "f": [[0.99, 0.1], [0.0, 0.95]], "g": [[0.0], [1.0]],
            "h": [[[1.0, 0.0]], [[0.0, 1.0]], [[0.6, 0.8]]], "q": [[0.01]],
            "r": [[[0.4]], [[0.6]], [[0.5]]], "pi0": [[1.0, 0.0], [0.0, 1.0]],
            "a": {"rule": "metropolis"}, "epsilon": 0.1,
        }},
    },
}


def _run(tmp_path, command, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return cli.main([command, "--config", str(path), "--out", str(tmp_path / "out")])


def _with(command, path, value):
    doc = copy.deepcopy(TINY[command])
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


PROBES = [
    ("simulate", ("strategy", "variant"), "atcx", "variant"),
    ("simulate", ("strategy", "muu"), 0.02, "'muu'"),
    ("simulate", ("iteration",), 20, "'iteration'"),
    ("simulate", ("emit",), ["learning_curve", "steady_state"], "'emit'"),
    ("simulate", ("strategy",), [1], "strategy"),
    ("simulate", ("topology",), [1, 2], "topology"),
    ("rls", ("strategy", "rls", "lamda"), 0.99, "'lamda'"),
    ("kalman", ("strategy", "kalman", "epsilom"), 0.1, "'epsilom'"),
    ("consensus", ("strategy", "a1"), "metropolis", "'a1'"),
    ("simulate", ("strategy", "a"), "metropolis-hastings", "strategy.a"),
    ("simulate", ("strategy", "a"), {"rule": "metropolis", "gamma": 0.1}, "'gamma'"),
    ("simulate", ("strategy", "variant"), "consensus_lms", "'c'"),
    ("analyze", ("model", "generator", "M"), "two", "model.generator.M"),
    ("compare", ("strategy", "mu"), {"value": 0.1}, "strategy.mu"),
    # values that would reach library code and fail there without a message
    ("compare", ("strategy", "mu"), [], "strategy.mu"),
    ("simulate", ("strategy", "mu"), [None], "strategy.mu"),
    ("simulate", ("topology", "edges"), [[], []], "topology.edges"),
    ("simulate", ("topology", "edges"), [[1, None]], "topology.edges"),
    ("analyze", ("model", "generator", "eigen_range"), [2.0, 0.5], "eigen_range"),
    ("kalman", ("strategy", "kalman", "q"), [[[0.01]]], "q must be"),
    ("kalman", ("strategy", "kalman", "f"), 0.99, "state dimensions"),
    ("consensus", ("strategy", "a"), "relative_degree_variance", "sigma2_v"),
]


@pytest.mark.parametrize("command, path, value, named", PROBES,
                         ids=[f"{c}-{'.'.join(p)}={json.dumps(v)}" for c, p, v, _ in PROBES])
def test_malformed_config_exits_2_naming_the_key(tmp_path, capsys, command, path, value, named):
    assert _run(tmp_path, command, _with(command, path, value)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err, err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_matrix_rule_given_as_a_name_equals_the_rule_object(tmp_path):
    by_name, by_rule = tmp_path / "name", tmp_path / "rule"
    by_name.mkdir()
    by_rule.mkdir()
    assert _run(by_name, "simulate", _with("simulate", ("strategy", "a"), "metropolis")) == 0
    assert _run(by_rule, "simulate", TINY["simulate"]) == 0
    for name in ("learning_curve.csv", "steady_state.csv", "summary.json"):
        assert (by_name / "out" / name).read_bytes() == (by_rule / "out" / name).read_bytes()


@pytest.mark.parametrize("command", sorted(TINY))
def test_unmutated_tiny_config_runs(tmp_path, command):
    assert _run(tmp_path, command, TINY[command]) == 0


SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 6),
    st.floats(-3.0, 3.0, allow_nan=False),
    st.sampled_from(["", "x", "1", "metropolis", "identity", "laplacian", "atc", "general", "TSA", "left"]),
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(st.sampled_from(["a", "rule", "n"]), inner, max_size=2)),
    max_leaves=6,
)


def _paths(node, prefix=()):
    """Every (container, key) position in a config, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@st.composite
def mutated_configs(draw):
    command = draw(st.sampled_from(sorted(TINY)))
    doc = copy.deepcopy(TINY[command])
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        action = draw(st.sampled_from(["replace", "delete", "rename", "add"]))
        if action == "replace":
            parent[path[-1]] = draw(VALUES)
        elif action == "delete":
            del parent[path[-1]]
        elif action == "rename" and isinstance(parent, dict):
            parent[path[-1] + draw(st.sampled_from(["x", "_", "s"]))] = parent.pop(path[-1])
        elif action == "add" and isinstance(parent[path[-1]], dict):
            parent[path[-1]][draw(st.sampled_from(["extra", "mu", "a", "rule", "seed"]))] = draw(VALUES)
    return command, doc


@settings(max_examples=120, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(case=mutated_configs())
def test_fuzzed_configs_exit_0_or_2(tmp_path, capsys, case):
    command, doc = case
    status = _run(tmp_path, command, doc)
    err = capsys.readouterr().err
    assert status in ((0, 2, 3) if command == "compare" else (0, 2)), (command, doc, err)
    assert "Traceback" not in err
    if status == 2:
        assert err.startswith("error:") and err.count("\n") == 1, err
