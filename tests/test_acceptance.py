"""End-to-end acceptance checks.

One test per headline property, each printing a PASS/FAIL line (run with
``pytest tests/test_acceptance.py -v -s``).  Tolerances are pinned here and
nowhere else; the suites in ``maslovcw.verify`` provide the case data.
"""

import subprocess
import sys
import time

import pytest

from maslovcw import verify as verify_mod


def _report(name: str, ok: bool, extra: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {name}: {status}{(' ' + extra) if extra else ''}")
    assert ok, name


def test_disc_example_reproduction():
    t0 = time.perf_counter()
    suite = verify_mod.suite_disc_example()
    elapsed = time.perf_counter() - t0
    case = suite["details"][0]
    ok = suite["ok"] and abs(case["raw"] - 2.0) <= 1e-2 and elapsed < 5.0
    _report(
        "disc-example curvature index (128x128, raw within 1e-2 of 2, < 5 s)",
        ok,
        f"raw={case['raw']:.6f} elapsed={elapsed:.2f}s",
    )


def test_winding_equals_curvature_on_fifty_loops():
    t0 = time.perf_counter()
    suite = verify_mod.suite_winding_equals_curvature(seed=7)
    elapsed = time.perf_counter() - t0
    ok = suite["ok"] and suite["passed"] == 50 and elapsed < 120.0
    _report(
        "winding index equals rounded curvature index on 50 seeded loops (< 120 s)",
        ok,
        f"passed={suite['passed']}/50 elapsed={elapsed:.1f}s",
    )


def test_connection_independence_twenty_cases():
    suite = verify_mod.suite_connection_independence(seed=7)
    gaps = [c["gap"] for c in suite["details"]]
    ok = suite["ok"] and max(gaps) <= 2e-2
    _report(
        "collar width/cutoff independence on 20 seeded cases (raw gap <= 2e-2, rounded equal)",
        ok,
        f"max_gap={max(gaps):.2e}",
    )


def test_doubling_degree_thirty_cases():
    suite = verify_mod.suite_doubling_degree(seed=7)
    has_annulus = any(c["components"] == 2 for c in suite["details"])
    _report(
        "doubled-bundle degree equals summed winding index on 30 seeded cases (annuli included)",
        suite["ok"] and has_annulus,
        f"passed={suite['passed']}/30",
    )


def test_quarter_model_half_rank():
    suite = verify_mod.suite_quarter_model()
    raws = [c["raw"] for c in suite["details"] if "raw" in c]
    errs = [abs(r - (i + 1) / 2) for i, r in enumerate(raws[:3])]
    _report(
        "quarter-disc model integrates to n/2 for n in {1,2,3} (raw within 1e-2)",
        suite["ok"] and max(errs) <= 1e-2,
        f"max_err={max(errs):.2e}",
    )


def test_polygon_relation_thirty_cases():
    suite = verify_mod.suite_polygon_relation(seed=7)
    bigons = [c for c in suite["details"] if c["k_plus_1"] == 2]
    ok = suite["ok"] and len(bigons) >= 1 and all("maslov_viterbo" in c for c in bigons)
    _report(
        "polygon index relation and exact rational index formulas on 30 seeded cases",
        ok,
        f"passed={suite['passed']}/30 bigons={len(bigons)}",
    )


def test_orbifold_cover_independence():
    suite = verify_mod.suite_cover_independence(seed=7)
    orders = {c["m"] for c in suite["details"]}
    _report(
        "branch-cover index independent of cover degree on 20 seeded cases",
        suite["ok"] and orders.issuperset({2, 3, 4, 5}),
        f"orders={sorted(orders)}",
    )


def test_orbifold_desingularization_identity():
    suite = verify_mod.suite_desingularization(seed=7)
    residuals = [c["raw_residual"] for c in suite["details"] if c["raw_residual"] is not None]
    _report(
        "orbifold curvature index equals desingularized index plus twice the weight sum",
        suite["ok"] and max(residuals) <= 2e-2,
        f"max_raw_residual={max(residuals):.2e}",
    )


def test_cover_multiplicativity_exact():
    suite = verify_mod.suite_cover_multiplicativity(seed=7)
    _report(
        "boundary covers of degree 2 and 3 multiply the index exactly",
        suite["ok"],
        f"cases={suite['cases']}",
    )


def test_nonunitary_counterexample():
    suite = verify_mod.suite_nonunitary_control()
    case = suite["details"][0]
    _report(
        "non-unitary connection yields drift 2i (within 1e-2) and is rejected by the index pipeline",
        suite["ok"],
        f"value={case['value_re']:.4f}+{case['value_im']:.4f}i",
    )


def test_convergence_order_and_transport_drift():
    suite = verify_mod.suite_convergence((32, 64, 128))
    case = suite["details"][0]
    _report(
        "mesh refinement 32->64->128 converges with order >= 1.8, transport drift <= 1e-9",
        suite["ok"],
        f"orders={['%.2f' % o for o in case['orders']]} drift={case['max_unitarity_defect']:.1e}",
    )


@pytest.mark.slow
def test_full_verify_is_byte_deterministic(package_env):
    cmd = [sys.executable, "-m", "maslovcw.cli", "verify", "--suite", "all", "--seed", "7"]
    a = subprocess.run(cmd, capture_output=True, text=True, env=package_env)
    b = subprocess.run(cmd, capture_output=True, text=True, env=package_env)
    ok = a.returncode == 0 and b.returncode == 0 and a.stdout == b.stdout
    _report(
        "verify --suite all --seed 7 exits 0 with byte-identical reports across runs",
        ok,
        f"bytes={len(a.stdout)}",
    )
