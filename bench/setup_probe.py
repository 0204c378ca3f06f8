"""Time one cold set-up of a workload in a fresh interpreter.

Usage: python3 setup_probe.py SRC_DIR JOBS_JSON

JOBS_JSON lists ``[subcommand, config_path]`` pairs.  The probe imports
``diffnet`` from SRC_DIR and builds every job's inputs the way the CLI does
(``ExperimentConfig.load`` and the ``build_*`` functions), then prints the
elapsed seconds.  Interpreter start-up is not included.
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])

from diffnet import cli  # noqa: E402

import json  # noqa: E402

with open(sys.argv[2]) as fh:
    jobs = json.load(fh)
for command, path in jobs:
    config = cli.ExperimentConfig.load(path)
    topology = cli.build_topology_spec(config.topology)
    if command in ("simulate", "analyze", "rls"):
        model = cli.build_model_spec(config.model, topology.n)
    if command in ("simulate", "analyze"):
        cli.build_strategy(config.strategy, topology, model)
print(repr(time.perf_counter() - t0))
