"""Correctness gates on the files one ``diffnet`` job wrote.

``check_outputs`` returns a list of problems (empty when the job passed) and
the parsed JSON summary.  A job also fails, in ``run.py``, when it exits
nonzero or when its files differ byte for byte from the same job's files
earlier in the run.
"""

from __future__ import annotations

import csv
import io
import json
import math

# a theory value further than this from the oracle is wrong, not rounded
THEORY_REL_TOL = 1e-6


def _finite(x) -> bool:
    # diffnet writes non-finite floats into JSON as strings such as "nan"
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _parse_csv(text: str) -> list[list[float]]:
    """Data rows as floats; a non-numeric first column (a label) is dropped."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        raise ValueError("empty file")
    out = []
    for row in rows[1:]:
        if len(row) != len(rows[0]):
            raise ValueError(f"row has {len(row)} fields, header has {len(rows[0])}")
        try:
            float(row[0])
            values = row
        except ValueError:
            values = row[1:]
        out.append([float(v) for v in values])
    return out


def check_outputs(job, files: dict) -> tuple[list[str], dict | None]:
    """Gate one job's outputs; ``files`` maps each expected name to its bytes or None."""
    problems = []
    tables = {}
    summary = None
    for name in job.outputs:
        data = files.get(name)
        if data is None:
            problems.append(f"{name} missing")
            continue
        try:
            text = data.decode()
            if name.endswith(".json"):
                summary = json.loads(text)
            else:
                tables[name] = _parse_csv(text)
        except (UnicodeDecodeError, ValueError) as exc:
            problems.append(f"{name} does not parse: {exc}")
    if problems:
        return problems, summary

    cfg = job.config
    if job.command in ("simulate", "analyze"):
        keys = ["msd_theory", "emse_theory"]
        if job.command == "analyze":
            keys += ["msd_node_theory", "emse_node_theory"]
        if summary["stable_ms"]:
            for key in keys:
                values = summary[key] if isinstance(summary[key], list) else [summary[key]]
                if not all(_finite(v) for v in values):
                    problems.append(f"non-finite {key} on a mean-square stable config")
    if job.command == "simulate":
        if summary["stable_ms"] and summary["diverged_trials"] != 0:
            problems.append(f"{summary['diverged_trials']} trials diverged on a stable config")
        if len(tables["learning_curve.csv"]) != cfg["iterations"]:
            problems.append("learning_curve.csv has the wrong number of rows")
        if len(tables["steady_state.csv"]) != job.nodes + 1:
            problems.append("steady_state.csv has the wrong number of rows")
    if job.command in ("rls", "kalman"):
        # no per-trial divergence flag is written: a diverged trial shows as a
        # non-finite value in the trial-averaged curve
        curve = tables[job.outputs[0]]
        if len(curve) != cfg["iterations"]:
            problems.append(f"{job.outputs[0]} has the wrong number of rows")
        if not all(math.isfinite(v) for row in curve for v in row):
            problems.append(f"{job.outputs[0]} holds non-finite values (a trial diverged)")
        if not all(_finite(v) for k, v in summary.items() if k.endswith("_final")):
            problems.append(f"non-finite final MSD in {job.outputs[1]}")
    return problems, summary
