"""Reference fingerprints of ``maslovcw verify --suite all`` reports.

A fingerprint keeps every non-float leaf of a report (integers, booleans,
exact rationals written as strings or num/den pairs, names) and hashes them
per suite, so a stored reference fixes every exact field without storing
the report.  Floats are left out: the oracle for them is the report's own
``ok`` flags and the byte hash of stdout, which is recorded but not
required to match.
"""

from __future__ import annotations

import hashlib
import json


def _leaves(obj, prefix, out):
    if isinstance(obj, dict):
        for k in sorted(obj):
            _leaves(obj[k], f"{prefix}.{k}", out)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            _leaves(v, f"{prefix}.{i}", out)
    elif obj is not None and not isinstance(obj, float):
        out.append([prefix, obj])


def exact_fields(report: dict) -> dict:
    """Hash of the exact (non-float) leaves, one per suite plus ``config``."""
    parts = {s["suite"]: s for s in report["suites"]}
    parts["config"] = {"seed": report["seed"], "config": report.get("config", {})}
    out = {}
    for name, part in parts.items():
        leaves = []
        _leaves(part, name, leaves)
        blob = json.dumps(leaves, sort_keys=True).encode()
        out[name] = hashlib.sha256(blob).hexdigest()
    return out


def fingerprint(stdout: str) -> dict:
    """Reference entry for one verify run: stdout hash and exact-field hashes."""
    return {
        "stdout_sha256": hashlib.sha256(stdout.encode()).hexdigest(),
        "exact": exact_fields(json.loads(stdout)),
    }


def mismatched_suites(stdout: str, ref: dict) -> list:
    """Names whose exact fields differ from the reference (empty when equal)."""
    got = exact_fields(json.loads(stdout))
    want = ref["exact"]
    return sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
