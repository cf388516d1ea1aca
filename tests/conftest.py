"""Shared loaders for the frozen oracle tables under tests/oracles/, and the
hypothesis profile of the property tests."""

import os
import re

from hypothesis import settings

# Property tests draw the same examples on every run (no example database),
# without a per-example deadline, and few enough to keep the suite fast.
settings.register_profile("pairtrap", derandomize=True, deadline=None,
                          max_examples=40, database=None)
settings.load_profile("pairtrap")

ORACLE_DIR = os.path.join(os.path.dirname(__file__), "oracles")


def oracle_lines(name):
    """Yield content lines of an oracle file, stopping at a traceback."""
    out = []
    with open(os.path.join(ORACLE_DIR, name)) as fh:
        for raw in fh:
            line = raw.rstrip("\n")
            if line.startswith("Traceback"):
                break
            out.append(line)
    return out


def oracle_values(name):
    """Map 'key = value ...' lines to their raw right-hand strings."""
    table = {}
    for line in oracle_lines(name):
        if not line or line.startswith("#") or line.startswith("=="):
            continue
        if " = " not in line:
            continue
        key, rest = line.split(" = ", 1)
        table[key.strip()] = rest.strip()
    return table


def fval(table, key):
    """First numeric token of a stored right-hand side."""
    return float(table[key].split()[0])


def args_of(key):
    """Numeric arguments inside the parentheses of an oracle key.

    Handles plain floats and ratios like 1/100; named parts like x=1.0
    keep only the value.
    """
    inside = re.search(r"\(([^)]*)\)", key).group(1)
    out = []
    for part in inside.split(","):
        part = part.split("=")[-1].strip()
        if "/" in part:
            num, den = part.split("/")
            out.append(float(num) / float(den))
        else:
            out.append(float(part))
    return out
