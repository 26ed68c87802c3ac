"""Seeded verification suites for the library's numerical identities.

Each suite returns a JSON-friendly dict with a deterministic case list; the
CLI ``verify`` subcommand aggregates them into one report.  Suites draw
their randomness from independent offsets of the base seed so case counts in
one suite never shift another, and they share no state, so the CLI may run
each in its own worker process.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .connections import build_collar_connection, builtin_connection
from .curvature import (
    chern_weil_index,
    complex_curvature_value,
    double_degree,
    edge_transports,
)
from .errors import MaslovCWError, NonUnitaryConnection
from .loops import BundlePairSpec, generate_loop, maslov_bundle_pair, maslov_loop, random_frame_loop
from .mesh import Mesh2D
from .orbifold import (
    BranchCover,
    ConePoint,
    OrbifoldDiscSpec,
    cover_multiplicativity,
    mu_pi,
    verify_desingularization,
)
from .polygon import (
    bigon_standard,
    fredholm_index,
    glue_quadrants,
    maslov_viterbo,
    mu_cw_polygon,
    mu_top,
    quarter_model_report,
    random_transversal_data,
)
from .grassmann import LagrangianFrame
from .tolerances import TOL


def _result(name: str, cases: list) -> dict:
    passed = sum(1 for c in cases if c["ok"])
    return {
        "suite": name,
        "cases": len(cases),
        "passed": passed,
        "ok": passed == len(cases),
        "details": cases,
    }


def suite_disc_example() -> dict:
    """The built-in disc connection integrates to 2 (raw within 1e-2)."""
    spec = builtin_connection("example_2_7")
    D = edge_transports(spec, Mesh2D("disc", 128, 128))
    rep = chern_weil_index(D, Fraction(1))
    case = {
        "raw": rep.raw,
        "rounded": float(rep.rounded),
        "error": abs(rep.raw - 2.0),
        "ok": abs(rep.raw - 2.0) <= 1e-2 and rep.rounded == 2,
    }
    return _result("disc_example", [case])


def suite_winding_equals_curvature(seed: int) -> dict:
    """Rounded curvature index equals the winding index on random loops."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(50):
        n = int(rng.integers(1, 5))
        loop, designed = random_frame_loop(rng, n, 512)
        mu = maslov_loop(loop)
        spec = build_collar_connection(loop)
        D = edge_transports(spec, Mesh2D("disc", 24, len(loop)))
        rep = chern_weil_index(D, Fraction(1))
        out.append(
            {
                "n": n,
                "mu": mu,
                "designed": designed,
                "raw": rep.raw,
                "ok": mu == designed and rep.rounded == mu,
            }
        )
    return _result("winding_equals_curvature", out)


def suite_connection_independence(seed: int) -> dict:
    """Two collars with different widths and cutoffs agree (2e-2 raw, exact rounded)."""
    rng = np.random.default_rng(seed + 1)
    out = []
    for _ in range(20):
        n = int(rng.integers(1, 5))
        loop, _ = random_frame_loop(rng, n, 512)
        reps = []
        for width, kind, sat in ((0.2, "cubic", 0.9), (0.5, "quintic", 0.75)):
            spec = build_collar_connection(loop, width=width, cutoff=kind, saturation=sat)
            D = edge_transports(spec, Mesh2D("disc", 24, len(loop)))
            reps.append(chern_weil_index(D, Fraction(1)))
        gap = abs(reps[0].raw - reps[1].raw)
        out.append(
            {
                "n": n,
                "raw_narrow": reps[0].raw,
                "raw_wide": reps[1].raw,
                "gap": gap,
                "ok": gap <= 2e-2 and reps[0].rounded == reps[1].rounded,
            }
        )
    return _result("connection_independence", out)


def suite_doubling_degree(seed: int) -> dict:
    """Overlap-map degree equals the summed winding index, annuli included."""
    rng = np.random.default_rng(seed + 2)
    out = []
    for i in range(30):
        n = int(rng.integers(1, 5))
        if i % 3 == 2:
            l1, _ = random_frame_loop(rng, n, 256)
            l2, _ = random_frame_loop(rng, n, 256)
            pair = BundlePairSpec(n, (l1, l2), euler_characteristic=0)
        else:
            loop, _ = random_frame_loop(rng, n, 256)
            pair = BundlePairSpec(n, (loop,))
        deg = double_degree(pair)
        mu = maslov_bundle_pair(pair)
        out.append({"n": n, "components": pair.components, "deg": deg, "mu": mu, "ok": deg == mu})
    return _result("doubling_degree", out)


def suite_quarter_model(seed: int = 0) -> dict:
    """Quarter-disc model integrates to n/2; four rotated copies glue to 2n."""
    out = []
    quarters = {}
    for n in (1, 2, 3):
        rep = quarters[n] = quarter_model_report(LagrangianFrame.standard(n))
        ok = abs(rep.raw - n / 2) <= 1e-2 and rep.rounded == Fraction(n, 2)
        out.append({"n": n, "raw": rep.raw, "ok": ok})
    for n in (1, 2):
        glued = glue_quadrants(LagrangianFrame.standard(n))
        mu = maslov_loop(glued)
        spec = build_collar_connection(glued)
        D = edge_transports(spec, Mesh2D("disc", 24, len(glued)))
        rep = chern_weil_index(D, Fraction(1))
        quarter = quarters[n]
        ok = (
            mu == 2 * n
            and rep.rounded == 2 * n
            and abs(rep.raw - 4 * quarter.raw) <= 2e-2
        )
        out.append({"n": n, "glued_mu": mu, "glued_raw": rep.raw,
                    "quarter_raw": quarter.raw, "ok": ok})
    return _result("quarter_model", out)


def suite_polygon_relation(seed: int) -> dict:
    """mu_top = mu_cw + (k+1) n/2 (rounded curvature) and exact index formulas."""
    rng = np.random.default_rng(seed + 3)
    out = []
    for i in range(30):
        n = int(rng.integers(1, 4))
        kp1 = 2 if i % 4 == 0 else int(rng.integers(2, 6))
        data = random_transversal_data(rng, n, kp1)
        case = {"n": n, "k_plus_1": kp1, "ok": False}
        try:
            value, det = mu_cw_polygon(data, verify=True)
            top = det["mu_top"]
            rounded = Fraction(round(det["raw"] * 2), 2)
            relation = Fraction(top) == rounded + Fraction(kp1 * n, 2)
            ind = fredholm_index(data)
            case.update(
                mu_top=top,
                mu_cw=f"{value.numerator}/{value.denominator}",
                raw=det["raw"],
                ind=ind,
                ok=relation and value == rounded,
            )
            if kp1 == 2:
                mv = maslov_viterbo(data)
                case["maslov_viterbo"] = mv
                case["ok"] = case["ok"] and mv == ind
        except MaslovCWError as exc:
            case["error"] = str(exc)
        out.append(case)
    return _result("polygon_relation", out)


def suite_bigon_viterbo(seed: int = 0) -> dict:
    """Standard bi-gons: the analytic index equals the curvature index."""
    out = []
    for n in (1, 2, 3):
        data = bigon_standard(n)
        top = mu_top(data)
        mv = maslov_viterbo(data)
        out.append({"n": n, "mu_top": top, "index": mv, "ok": top == n and mv == 0})
    return _result("bigon_viterbo", out)


def _random_orbifold(rng: np.random.Generator):
    n = int(rng.integers(1, 4))
    m = int(rng.choice((2, 3, 4, 5)))
    weights = tuple(int(x) for x in rng.integers(0, m, n))
    loop, _ = random_frame_loop(rng, n, 256, k_max=2, index_cap=4)
    return OrbifoldDiscSpec(n, ConePoint(m, weights), loop)


def suite_cover_independence(seed: int) -> dict:
    """Branch-cover index is the same exact rational for degree m and 2m."""
    rng = np.random.default_rng(seed + 4)
    out = []
    for _ in range(20):
        spec = _random_orbifold(rng)
        m = spec.cone.order
        v1 = mu_pi(spec, BranchCover(m, m))
        v2 = mu_pi(spec, BranchCover(2 * m, m))
        out.append(
            {
                "n": spec.n,
                "m": m,
                "weights": list(spec.cone.weights),
                "mu_pi": f"{v1.numerator}/{v1.denominator}",
                "ok": v1 == v2,
            }
        )
    return _result("cover_independence", out)


def suite_desingularization(seed: int) -> dict:
    """mu_cw = mu_de + 2 * weight sum, exact rationals plus 2e-2 raw agreement."""
    rng = np.random.default_rng(seed + 5)
    out = []
    for _ in range(12):
        spec = _random_orbifold(rng)
        try:
            res = verify_desingularization(spec)
            ok = True
        except MaslovCWError as exc:  # ViolatedIdentity carries diagnostics
            res = getattr(exc, "diagnostics", {})
            ok = False
        out.append(
            {
                "n": spec.n,
                "m": spec.cone.order,
                "weights": list(spec.cone.weights),
                "mu_cw": str(res.get("mu_cw")),
                "raw_residual": res.get("identity_raw_residual"),
                "ok": ok,
            }
        )
    return _result("desingularization_identity", out)


def suite_cover_multiplicativity(seed: int) -> dict:
    """Boundary covers multiply the index: degree 2 and 3, windings -2..2."""
    out = []
    for m in (2, 3):
        for k in range(-2, 3):
            loop = generate_loop("power_k", 128, k=k)
            pair = BundlePairSpec(1, (loop,))
            res = cover_multiplicativity(pair, m)
            out.append({"m": m, "k": k, "lifted": res["mu_lifted"], "ok": res["exact"]})
    disc = generate_loop("circle_tangent", 256)
    res = cover_multiplicativity(BundlePairSpec(1, (disc,)), 2)
    out.append({"m": 2, "k": "disc", "lifted": res["mu_lifted"], "ok": res["mu_lifted"] == 4})
    return _result("cover_multiplicativity", out)


def suite_nonunitary_control() -> dict:
    """The real connection d + r d(theta): drift 2i, rejected by the index pipeline."""
    spec = builtin_connection("example_4_3_nonunitary")
    mesh = Mesh2D("disc", 128, 128)
    D = edge_transports(spec, mesh, allow_non_unitary=True)
    val = complex_curvature_value(D)
    rejected = False
    try:
        edge_transports(spec, mesh)
    except NonUnitaryConnection:
        rejected = True
    reference = complex_curvature_value(
        edge_transports(builtin_connection("example_2_7"), mesh)
    )
    case = {
        "value_re": val.real,
        "value_im": val.imag,
        "unitary_reference_re": reference.real,
        "unitary_reference_im": reference.imag,
        "rejected_by_default_pipeline": rejected,
        "ok": (
            abs(val.imag - 2.0) <= 1e-2
            and abs(val.real) <= 1e-2
            and rejected
            and abs(reference.real - 2.0) <= 1e-2
            and abs(reference.imag) <= 1e-2
        ),
    }
    return _result("nonunitary_control", [case])


def suite_convergence(resolutions=(32, 64, 128)) -> dict:
    """Error on the disc example decays with order >= 1.8; drift <= 1e-9.

    The order between resolutions N_i < N_{i+1} is log2 of the error ratio
    over log2(N_{i+1} / N_i), so it does not depend on the refinement factor.
    """
    spec = builtin_connection("example_2_7")
    errs, drifts = [], []
    for N in resolutions:
        D = edge_transports(spec, Mesh2D("disc", N, N))
        rep = chern_weil_index(D, Fraction(1))
        errs.append(abs(rep.raw - 2.0))
        drifts.append(rep.unitarity_defect)
    orders = [
        float(np.log2(errs[i] / errs[i + 1]) / np.log2(resolutions[i + 1] / resolutions[i]))
        if errs[i + 1] > 1e-13 else float("inf")
        for i in range(len(errs) - 1)
    ]
    case = {
        "resolutions": list(resolutions),
        "errors": errs,
        "orders": orders,
        "max_unitarity_defect": max(drifts),
        "ok": all(o >= 1.8 for o in orders) and max(drifts) <= TOL.unitary_global,
    }
    return _result("convergence", [case])


SUITES = {
    "disc_example": lambda seed: suite_disc_example(),
    "winding_equals_curvature": suite_winding_equals_curvature,
    "connection_independence": suite_connection_independence,
    "doubling_degree": suite_doubling_degree,
    "quarter_model": suite_quarter_model,
    "polygon_relation": suite_polygon_relation,
    "bigon_viterbo": suite_bigon_viterbo,
    "cover_independence": suite_cover_independence,
    "desingularization_identity": suite_desingularization,
    "cover_multiplicativity": suite_cover_multiplicativity,
    "nonunitary_control": lambda seed: suite_nonunitary_control(),
    "convergence": lambda seed: suite_convergence(),
}
