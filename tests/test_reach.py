"""Reach ratchet: the library is what the ``diffnet`` subcommands run.

Every golden config (``tests/golden/*.json``) runs in-process under
``sys.setprofile``, which records each Python function entered.  Every
function and method written in ``src/diffnet`` must be among them or on
``ALLOWLIST``, and an allowlisted name must exist and stay unreached, so the
list can only shrink.  Methods that ``dataclass`` and ``namedtuple``
generate have no source in ``src/diffnet`` and are not counted.  A function
that only tests call belongs under ``tests/`` as an oracle.
"""

import inspect
import os
import sys
import types
from pathlib import Path

import diffnet
from diffnet import cli

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(diffnet.__file__).parent

# "module.qualname" -> why it stays in the library unreached
ALLOWLIST = {
    "analysis.consensus_mean_matrix": "ROADMAP item 2 wires it into consensus theory",
}


def defined_functions() -> dict:
    """(file, first line, name) -> "module.qualname" of every def in the library."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        stack = [compile(path.read_text(), os.path.realpath(path), "exec")]
        while stack:
            for const in stack.pop().co_consts:
                if isinstance(const, types.CodeType):
                    stack.append(const)
                    # class bodies, lambdas and comprehensions are not defs
                    if const.co_flags & inspect.CO_OPTIMIZED and not const.co_name.startswith("<"):
                        key = (const.co_filename, const.co_firstlineno, const.co_name)
                        found[key] = f"{path.stem}.{const.co_qualname}"
    return found


def reached_functions(out: Path) -> set:
    """(file, first line, name) of every function entered by the golden runs."""
    seen = set()

    def record(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        statuses = {
            config.stem: cli.main([config.stem.split("_", 1)[0], "--config", str(config),
                                   "--out", str(out / config.stem)])
            for config in sorted(GOLDEN.glob("*.json"))
        }
    finally:
        sys.setprofile(previous)
    assert set(statuses.values()) == {0}, statuses
    return {(os.path.realpath(c.co_filename), c.co_firstlineno, c.co_name) for c in seen}


def test_library_is_what_the_cli_reaches(tmp_path):
    defined = defined_functions()
    reached = reached_functions(tmp_path)

    def where(key):
        return f"{os.path.relpath(key[0], SRC.parents[1])}:{key[1]}"

    unreached = [f"{name} ({where(key)})" for key, name in sorted(defined.items())
                 if key not in reached and name not in ALLOWLIST]
    assert not unreached, (
        "no golden config reaches these; move them under tests/ or delete them:\n  "
        + "\n  ".join(unreached)
    )
    stale = sorted(ALLOWLIST.keys() - set(defined.values()))
    assert not stale, f"allowlisted but no longer defined; drop them from ALLOWLIST: {stale}"
    now_reached = sorted({name for key, name in defined.items() if key in reached and name in ALLOWLIST})
    assert not now_reached, f"allowlisted but reached; drop them from ALLOWLIST: {now_reached}"
