"""Workload inputs, operations and oracles.

A workload is a fixed list of operations (one *pass*) built from a seed.
The seed changes only the random content of the inputs (unitaries,
rotations, twists, corner angles); ranks, sample counts and the op mix are
the same for every seed, so the work per pass barely depends on it.  Every
input is generated here, not by the package's own generators, and each op
carries the value known in advance that its result must equal.

* ``verify_all``: ``maslovcw verify --suite all --seed SEED`` in-process.
* ``topology``: the winding route only, through the public functions.
* ``cli_files``: ``cli.main`` on JSON files written during set-up.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("verify_all", "topology", "cli_files")
REFS = Path(__file__).resolve().parent / "refs.json"  # see make_refs.py


@dataclass
class Op:
    """One closed-loop operation: ``call`` runs it, ``observe`` reads the result.

    The op fails when ``call`` raises or ``observe(result) != expected``.
    """

    kind: str
    call: Callable[[], object]
    observe: Callable[[object], dict]
    expected: dict


@dataclass
class Workload:
    name: str
    ops: list
    inputs_sha256: str
    notes: dict = field(default_factory=dict)
    # namespaces whose functions run inside an op; the benchmark's clock may
    # time its reference kernel before a call to one (see clock.py)
    boundaries: list = field(default_factory=list)


def build(name: str, seed: int, work_dir: Path, tiny: bool = False) -> Workload:
    """Generate the inputs of one workload; the same seed gives the same inputs."""
    builders = {"verify_all": _verify_all, "topology": _topology, "cli_files": _cli_files}
    if name not in builders:
        raise SystemExit(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return builders[name](seed, Path(work_dir), tiny)


def plant_wrong_answer(w: Workload) -> None:
    """Change one integer of the first op's expected values by one (self-test)."""
    exp = w.ops[0].expected
    key = next(k for k, v in exp.items()
               if isinstance(v, (int, Fraction)) and not isinstance(v, bool))
    exp[key] = exp[key] + 1


# ---------------------------------------------------------------------------
# input generators with designed indices
# ---------------------------------------------------------------------------

def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    Z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    Q, R = np.linalg.qr(Z)
    return Q * (np.diagonal(R) / np.abs(np.diagonal(R)))


def rotation_path(rng: np.random.Generator, n: int, t: np.ndarray, turns: int) -> np.ndarray:
    """SO(n) path: ``turns`` full turns in one random coordinate plane."""
    R = np.tile(np.eye(n), (len(t), 1, 1))
    if n >= 2:
        p, q = rng.choice(n, size=2, replace=False)
        th = 2 * np.pi * turns * t
        R[:, p, p] = R[:, q, q] = np.cos(th)
        R[:, p, q] = -np.sin(th)
        R[:, q, p] = np.sin(th)
    return R


def designed_loop(rng: np.random.Generator, n: int, N: int, k_max: int = 3, cap: int = 8,
                  turns: int = 2):
    """Samples Q diag(e^{i pi k_j t}) R(t) at t = j/N; Maslov index sum(k_j).

    R is a closed SO(n) loop, so it changes the frames but not the
    Lagrangians' det^2.  Returns (samples, index).
    """
    while True:
        ks = rng.integers(-k_max, k_max + 1, n)
        if abs(int(ks.sum())) <= cap:
            break
    t = np.arange(N) / N
    u = haar_unitary(rng, n)[None] * np.exp(1j * np.pi * np.outer(t, ks))[:, None, :]
    u = u @ rotation_path(rng, n, t, int(rng.integers(-turns, turns + 1)))
    return u, int(ks.sum())


def designed_polygon(rng: np.random.Generator, n: int, kp1: int, M: int = 64):
    """Transversal edge data whose closed-up loop has a designed winding.

    Edge j runs Q diag(e^{i(phi_j + pi w_j s)}) R_j(s), s in [0, 1]; its end
    spans the same Lagrangian as diag(e^{i phi_j}).  The corner from edge j
    to edge j+1 is the positive path whose angles are the per-coordinate
    gaps (phi_{j+1} - phi_j) mod pi, drawn inside [0.15 pi, 0.85 pi].  So
    mu_top = sum(w) + sum over coordinates of (sum of its gaps) / pi.
    Returns (edges, mu_top).
    """
    gaps = np.empty((kp1, n))
    for c in range(n):
        while True:
            g = rng.uniform(0.15, 0.85, kp1 - 1)
            last = (-g.sum()) % 1.0
            if 0.15 <= last <= 0.85:
                gaps[:, c] = np.append(g, last)
                break
    phi = np.vstack([rng.uniform(0, 1, n), np.zeros((kp1 - 1, n))])
    for j in range(1, kp1):
        phi[j] = phi[j - 1] + gaps[j - 1]
    w = rng.integers(-1, 2, (kp1, n))
    Q = haar_unitary(rng, n)
    s = np.linspace(0.0, 1.0, M)
    edges = []
    for j in range(kp1):
        ph = np.exp(1j * np.pi * (phi[j][None, :] + np.outer(s, w[j])))
        edges.append(Q[None] * ph[:, None, :] @ rotation_path(rng, n, s, int(rng.integers(-1, 2))))
    winding = int(w.sum()) + int(round(gaps.sum()))
    return edges, winding


def _digest(h, *parts) -> None:
    for p in parts:
        if isinstance(p, np.ndarray):
            h.update(np.ascontiguousarray(p).tobytes())
        else:
            h.update(repr(p).encode())


# ---------------------------------------------------------------------------
# topology
# ---------------------------------------------------------------------------

# Blocks of same-shape loops sit where op_p50_ms and op_p90_ms fall (rank 4
# at 2048 samples, rank 8 at 2048), so each percentile lies inside one class
# of ops instead of on the edge between two.
LOOP_SHAPES = ([(n, N) for n in (1, 2, 4) for N in (512, 1024, 2048, 4096)]
               + [(4, 2048)] * 7 + [(8, 512), (8, 1024)] + [(8, 2048)] * 8 + [(8, 4096)])
ANNULUS_RANKS = (1, 2, 4)
POLYGON_SHAPES = [(1, 2), (2, 2), (3, 2), (1, 3), (2, 4), (3, 4), (1, 6), (2, 5), (3, 6)]
# (order, rank) of cone points; the boundary loops have 8 samples and the
# weights lie in the upper half of [0, m), so the pullbacks refine
ORBIFOLD_SHAPES = [(2, 2), (3, 2), (4, 3), (5, 2), (6, 3), (7, 3)]
COVER_SHAPES = [(2, -1), (2, 2), (3, -2), (3, 1)]


def _topology(seed: int, work_dir: Path, tiny: bool) -> Workload:
    import maslovcw as mc

    rng = np.random.default_rng([seed, 1])
    h = hashlib.sha256(b"topology")
    ops = []

    loop_shapes = LOOP_SHAPES[::5] if tiny else LOOP_SHAPES
    for n, N in loop_shapes:
        u, idx = designed_loop(rng, n, N)
        _digest(h, u, idx)
        ops.append(Op(
            "loop",
            lambda n=n, u=u: mc.maslov_loop(mc.FrameLoop(n, u)),
            lambda v: {"index": v},
            {"index": idx},
        ))

    for n in ANNULUS_RANKS[:1] if tiny else ANNULUS_RANKS:
        (u1, i1), (u2, i2) = designed_loop(rng, n, 1024), designed_loop(rng, n, 1024)
        _digest(h, u1, u2, i1, i2)

        def annulus(n=n, u1=u1, u2=u2):
            pair = mc.BundlePairSpec(n, (mc.FrameLoop(n, u1), mc.FrameLoop(n, u2)), 0)
            return mc.double_degree(pair), mc.maslov_bundle_pair(pair)

        ops.append(Op("annulus", annulus, lambda v: {"degree": v[0], "index": v[1]},
                      {"degree": i1 + i2, "index": i1 + i2}))

    for n, kp1 in POLYGON_SHAPES[::4] if tiny else POLYGON_SHAPES:
        edges, top = designed_polygon(rng, n, kp1)
        _digest(h, *edges, top)

        def polygon(n=n, edges=edges, kp1=kp1):
            data = mc.TransversalBundleData(n, edges)
            out = {"mu_top": mc.mu_top(data), "ind": mc.fredholm_index(data),
                   "mu_cw": mc.mu_cw_polygon(data)[0]}
            if kp1 == 2:
                out["maslov_viterbo"] = mc.maslov_viterbo(data)
            return out

        expected = {"mu_top": top, "ind": top + n - kp1 * n,
                    "mu_cw": Fraction(top) - Fraction(kp1 * n, 2)}
        if kp1 == 2:
            expected["maslov_viterbo"] = expected["ind"]
        ops.append(Op("polygon", polygon, dict, expected))

    for m, n in ORBIFOLD_SHAPES[::3] if tiny else ORBIFOLD_SHAPES:
        u, idx = designed_loop(rng, n, 8, k_max=1, cap=0, turns=0)
        weights = tuple(int(x) for x in rng.integers((m + 1) // 2, m, n))
        _digest(h, u, idx, m, weights)

        def orbifold(n=n, m=m, weights=weights, u=u):
            spec = mc.OrbifoldDiscSpec(n, mc.ConePoint(m, weights), mc.FrameLoop(n, u))
            return mc.mu_pi(spec), mc.mu_pi(spec, mc.BranchCover(2 * m, m))

        pi = idx + 2 * Fraction(sum(weights), m)
        ops.append(Op("orbifold", orbifold, lambda v: {"mu_pi_m": v[0], "mu_pi_2m": v[1]},
                      {"mu_pi_m": pi, "mu_pi_2m": pi}))

    t = np.arange(256) / 256
    covers = [(m, k, np.exp(1j * np.pi * k * t)) for m, k in COVER_SHAPES]
    covers.append((2, 2, 1j * np.exp(2j * np.pi * t)))  # circle tangent lines, index 2
    for m, k, z in covers[::4] if tiny else covers:
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi))  # a constant U(1) rotation
        samples = (phase * z)[:, None, None]
        _digest(h, samples, m, k)

        def cover(m=m, samples=samples):
            pair = mc.BundlePairSpec(1, (mc.FrameLoop(1, samples),))
            res = mc.cover_multiplicativity(pair, m)
            return res["mu"], res["mu_lifted"]

        ops.append(Op("cover", cover, lambda v: {"mu": v[0], "lifted": v[1]},
                      {"mu": k, "lifted": m * k}))
    return Workload("topology", ops, h.hexdigest())


# ---------------------------------------------------------------------------
# cli_files
# ---------------------------------------------------------------------------

def run_cli(argv: list):
    """In-process ``maslovcw`` call: (exit code, stdout text)."""
    from maslovcw import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue()


def _cli_observe(read: Callable[[dict], dict]):
    def observe(result):
        code, text = result
        return {"exit": code, **(read(json.loads(text)) if code == 0 else {})}
    return observe


def _frac(obj: dict) -> Fraction:
    return Fraction(obj["num"], obj["den"])


def _pairs(samples: np.ndarray) -> list:
    flat = samples.reshape(samples.shape[0], -1)
    return [[[float(z.real), float(z.imag)] for z in row] for row in flat]


# (rank, samples) of maslov --input files: parse-bound; the rank-4 block at
# 1024 samples is where op_p50_ms falls
MASLOV_SHAPES = [(4, 512)] * 2 + [(4, 1024)] * 5 + [(4, 2048), (6, 1024), (8, 512), (8, 1024)]
# (rank, k+1) of polygon --input files, with and without --verify
POLYGON_FILES = [(1, 2, True), (2, 2, True), (2, 3, False), (3, 4, False)]
# (order, rank) of orbifold --input files; 64 boundary samples
ORBIFOLD_FILES = [(2, 1), (3, 2), (5, 2)]
CW_BUILTIN_REPEATS = 4  # cw --builtin example_2_7 --mesh 512: the p90 class


def _cli_files(seed: int, work_dir: Path, tiny: bool) -> Workload:
    rng = np.random.default_rng([seed, 2])
    h = hashlib.sha256(b"cli_files")
    ops = []
    work_dir.mkdir(parents=True, exist_ok=True)

    def write(name: str, obj: dict) -> str:
        path = work_dir / name
        text = json.dumps(obj)
        path.write_text(text)
        h.update(name.encode() + text.encode())
        return str(path)

    def maslov_read(rep):
        return {"index": rep["index"]}

    for i, (n, N) in enumerate(MASLOV_SHAPES[:2] if tiny else MASLOV_SHAPES):
        u, idx = designed_loop(rng, n, N)
        path = write(f"loop{i}.json", {"n": n, "samples": _pairs(u)})
        ops.append(Op("cli_maslov", lambda p=path: run_cli(["maslov", "--input", p]),
                      _cli_observe(maslov_read), {"exit": 0, "index": idx}))

    # cw --input: rank 4 collar connection at the default mesh (kernel-bound)
    for i, (n, N) in enumerate([(1, 512)] if tiny else [(4, 512), (1, 512)]):
        u, idx = designed_loop(rng, n, N)
        path = write(f"cw{i}.json", {"n": n, "samples": _pairs(u)})
        ops.append(Op("cli_cw_input", lambda p=path: run_cli(["cw", "--input", p]),
                      _cli_observe(lambda r: {"rounded": _frac(r["rounded_exact"])}),
                      {"exit": 0, "rounded": Fraction(idx)}))

    mesh = "64" if tiny else "512"
    for _ in range(1 if tiny else CW_BUILTIN_REPEATS):
        ops.append(Op("cli_cw_builtin",
                      lambda: run_cli(["cw", "--builtin", "example_2_7", "--mesh", mesh]),
                      _cli_observe(lambda r: {"rounded": _frac(r["rounded_exact"])}),
                      {"exit": 0, "rounded": Fraction(2)}))

    for i, (n, kp1, verify) in enumerate(POLYGON_FILES[:1] if tiny else POLYGON_FILES):
        edges, top = designed_polygon(rng, n, kp1)
        path = write(f"polygon{i}.json",
                     {"n": n, "chi": 1, "edges": [_pairs(e) for e in edges]})
        argv = ["polygon", "--input", path] + (["--verify"] if verify else [])

        def polygon_read(r):
            return {"mu_top": r["mu_top"], "mu_cw": _frac(r["mu_cw"]), "ind": r["ind"]}

        ops.append(Op("cli_polygon", lambda a=argv: run_cli(a), _cli_observe(polygon_read),
                      {"exit": 0, "mu_top": top, "mu_cw": Fraction(top) - Fraction(kp1 * n, 2),
                       "ind": top + n - kp1 * n}))

    for i, (m, n) in enumerate(ORBIFOLD_FILES[:1] if tiny else ORBIFOLD_FILES):
        u, idx = designed_loop(rng, n, 64, k_max=2, cap=4)
        weights = [int(x) for x in rng.integers(0, m, n)]
        path = write(f"orbifold{i}.json", {"n": n, "cone": {"m": m, "weights": weights},
                                           "boundary": {"n": n, "samples": _pairs(u)}})

        def orbifold_read(r):
            ids = r["identities"]
            return {"mu_pi": _frac(r["mu_pi"]), "mu_de": r["mu_de"],
                    "identities": ids["cover_independence"] and ids["desingularization"]}

        ops.append(Op("cli_orbifold", lambda p=path: run_cli(["orbifold", "--input", p]),
                      _cli_observe(orbifold_read),
                      {"exit": 0, "mu_pi": idx + 2 * Fraction(sum(weights), m),
                       "mu_de": idx, "identities": True}))
    return Workload("cli_files", ops, h.hexdigest())


# ---------------------------------------------------------------------------
# verify_all
# ---------------------------------------------------------------------------

def _verify_all(seed: int, work_dir: Path, tiny: bool) -> Workload:
    """One op: the full verify checklist.  ``tiny`` runs two cheap suites."""
    from maslovcw import verify
    from maslovcw.loops import random_frame_loop
    from maslovcw.polygon import random_transversal_data
    from verify_ref import mismatched_suites

    refs = json.loads(REFS.read_text())["verify"]
    suite = "bigon_viterbo" if tiny else "all"
    argv = ["verify", "--suite", suite, "--seed", str(seed)]
    # The checklist draws its cases from the package's own generators; hash a
    # probe of each so that a change to them shows as a changed workload.
    h = hashlib.sha256(repr(argv).encode())
    loop, idx = random_frame_loop(np.random.default_rng(seed), 3, 512)
    data = random_transversal_data(np.random.default_rng(seed + 3), 2, 3)
    _digest(h, loop.samples, idx, *data.edges)

    ref = refs.get(str(seed)) if not tiny else None
    notes = {"reference": ref is not None}

    def observe(result):
        code, text = result
        rep = json.loads(text) if text else {}
        obs = {"exit": code, "ok": bool(rep.get("ok"))}
        if ref is not None and text:
            obs["exact_mismatch"] = len(mismatched_suites(text, ref))
            notes["stdout_identical"] = int(
                hashlib.sha256(text.encode()).hexdigest() == ref["stdout_sha256"])
        return obs

    expected = {"exit": 0, "ok": True}
    if ref is not None:
        expected["exact_mismatch"] = 0
    op = Op("verify", lambda: run_cli(argv), observe, expected)
    # a pass is one 15-second op: let the clock tick inside it, at the calls
    # the suites make through the verify module's namespace
    return Workload("verify_all", [op], h.hexdigest(), notes,
                    [getattr(verify, "SUITES", {}), vars(verify)])
