"""Command-line front end.

JSON reports go to stdout, human diagnostics to stderr.  Exit codes: 0 on
success, 1 on input or usage errors or when the reader of stdout closes it
before the report is written, 2 when an identity check fails.  Every
report embeds the fully resolved run configuration, and runs with the same
seed are byte-identical.  Only ``verify`` reads ``--seed``; the other
commands record it in that configuration and ignore it, as they do
``--threads``, which changes nothing.

``verify --suite all`` runs its suites in worker processes made by fork, one
per available CPU, and builds the report in suite order, so its bytes are
those of an in-process run; with one CPU, one suite or no fork, the suites
run in-process.  Each suite's seconds go to stderr beside its PASS/FAIL.

``main(argv)`` may be called repeatedly in one process: it builds its
argument parser on the first call and shares nothing else between calls.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from fractions import Fraction

import numpy as np

from . import verify as verify_mod
from .connections import build_collar_connection, builtin_connection
from .curvature import (
    check_quantum, chern_weil_index, double_degree, edge_transports, index_refining,
)
from .errors import MaslovCWError, ViolatedIdentity
from .loops import (
    BundlePairSpec,
    FrameLoop,
    generate_loop,
    load_loop,
    maslov_bundle_pair,
    maslov_loop,
)
from .mesh import Mesh2D
from .orbifold import load_orbifold, verify_desingularization
from .polygon import fredholm_index, load_polygon, mu_cw_polygon

MESH_MIN, MESH_MAX = 16, 1024
SUBSTEPS_MAX = 16

# the errors main reports: ViolatedIdentity (a MaslovCWError) exits 2, the rest 1
_INPUT_ERRORS = (MaslovCWError, OSError, ValueError, KeyError)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _frac(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid fraction {text!r}") from None


# the flags every subcommand takes; each report's config records those it holds
_SHARED_FLAGS = {
    "mesh": dict(type=int, default=128, help="radial/angular resolution"),
    "substeps": dict(type=int, default=1),
    "collar": dict(type=float, default=0.3, help="collar width"),
    "cutoff": dict(default="cubic", choices=["cubic", "quintic"]),
    "quantum": dict(type=_frac, default=None, help="rounding quantum p/q"),
    "format": dict(default="json", choices=["json", "csv"]),
    "plot": dict(default=None, help="write det^2 phase curve SVG here"),
    "seed": dict(type=int, default=7),
    "threads": dict(type=int, default=1),
}


@functools.cache  # parse_args leaves the parser as it found it
def _build_parser() -> _Parser:
    p = _Parser(prog="maslovcw", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        for name, spec in _SHARED_FLAGS.items():
            sp.add_argument(f"--{name}", **spec)

    def generator(sp):  # the flags _loops_from_args reads
        sp.add_argument("--generator", default=None)
        sp.add_argument("--k", type=int, default=1, help="power_k generator parameter")
        sp.add_argument("--rank", type=int, default=1, help="constant generator rank")
        sp.add_argument("--samples", type=int, default=256)

    sp = sub.add_parser("maslov", help="winding Maslov index of a frame loop")
    sp.add_argument("--input", action="append", default=[], help="FrameLoop JSON file")
    generator(sp)
    common(sp)

    sp = sub.add_parser("cw", help="Chern-Weil curvature index")
    sp.add_argument("--input", action="append", default=[], help="loop JSON (collar connection)")
    sp.add_argument("--builtin", default=None, help="named analytic connection")
    sp.add_argument("--faces-csv", default=None, help="write per-face angles CSV here")
    common(sp)

    sp = sub.add_parser("double", help="doubled-bundle degree versus summed winding")
    sp.add_argument("--input", action="append", default=[], help="loop JSON per component")
    generator(sp)
    common(sp)

    sp = sub.add_parser("polygon", help="transversal boundary data indices")
    sp.add_argument("--input", required=True, help="polygon JSON file")
    sp.add_argument("--verify", action="store_true", help="also integrate curvature")
    common(sp)

    sp = sub.add_parser("orbifold", help="orbifold disc indices and identities")
    sp.add_argument("--input", required=True, help="orbifold JSON file")
    common(sp)

    sp = sub.add_parser("verify", help="run the verification suites")
    sp.add_argument("--suite", default="all", help="suite name or 'all'")
    common(sp)

    sp = sub.add_parser("convergence", help="mesh-refinement study on the disc example")
    sp.add_argument("--resolutions", default="32,64,128")
    common(sp)
    return p


def _config(args) -> dict:
    """The run configuration a report embeds: the command, its inputs and the
    shared flags ``args`` holds.  Checks --mesh, --substeps, --quantum and
    --seed, so a bad shared flag is reported before any input is read."""
    if not (MESH_MIN <= args.mesh <= MESH_MAX):
        raise MaslovCWError(f"--mesh must lie in [{MESH_MIN}, {MESH_MAX}]")
    if not (1 <= args.substeps <= SUBSTEPS_MAX):
        raise MaslovCWError(f"--substeps must lie in [1, {SUBSTEPS_MAX}]")
    if args.seed < 0:
        raise MaslovCWError("--seed must be a non-negative integer")
    q = args.quantum
    if q is not None:
        check_quantum(q)
    inputs = getattr(args, "input", [])  # a list where --input repeats
    inputs = [inputs] if isinstance(inputs, str) else list(inputs)
    inputs += [name for name in (getattr(args, "generator", None), getattr(args, "builtin", None))
               if name]
    config = {name: getattr(args, name) for name in _SHARED_FLAGS if hasattr(args, name)}
    config.update(command=args.command, inputs=inputs,
                  quantum="default" if q is None else f"{q.numerator}/{q.denominator}")
    return config


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report, sort_keys=True))
        return
    # csv: flattened key,value rows in sorted key order
    def flatten(prefix, obj, rows):
        if isinstance(obj, dict):
            for k in sorted(obj):
                flatten(f"{prefix}{k}.", obj[k], rows)
        elif isinstance(obj, (list, tuple)):
            for i, v in enumerate(obj):
                flatten(f"{prefix}{i}.", v, rows)
        else:
            rows.append((prefix.rstrip("."), obj))

    def field(obj):  # quoted, inner quotes doubled, only where RFC 4180 needs it
        text = f"{obj}"
        if any(c in text for c in ',"\r\n'):
            return '"' + text.replace('"', '""') + '"'
        return text

    rows = []
    flatten("", report, rows)
    for key, val in rows:
        print(f"{field(key)},{field(val)}")


def _phase_svg(loop: FrameLoop, path: str) -> None:
    """Unwrapped phase of det^2 against t, as a bare SVG polyline."""
    incs = loop.phase_increments()
    phase = np.concatenate([[0.0], np.cumsum(incs)])
    t = np.arange(len(phase)) / (len(phase) - 1)
    W, H, pad = 800, 400, 40
    lo, hi = float(phase.min()), float(phase.max())
    span = max(hi - lo, 1e-9)
    xs = pad + t * (W - 2 * pad)
    ys = H - pad - (phase - lo) / span * (H - 2 * pad)
    pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}">'
            f'<rect width="{W}" height="{H}" fill="white"/>'
            f'<line x1="{pad}" y1="{H-pad}" x2="{W-pad}" y2="{H-pad}" stroke="black"/>'
            f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{H-pad}" stroke="black"/>'
            f'<polyline points="{pts}" fill="none" stroke="#1f77b4" stroke-width="1.5"/>'
            f'<text x="{W//2}" y="{H-10}" font-size="12">t</text>'
            f'<text x="8" y="{H//2}" font-size="12">arg det B</text>'
            "</svg>"
        )


def _loops_from_args(args) -> list:
    loops = [load_loop(p) for p in args.input]
    if getattr(args, "generator", None):
        params = {}
        if args.generator == "power_k":
            params["k"] = args.k
        if args.generator == "constant":
            params["n"] = args.rank
        loops.append(generate_loop(args.generator, N=args.samples, **params))
    if not loops:
        raise MaslovCWError("no input loop: pass --input or --generator")
    return loops


def _cmd_maslov(args) -> dict:
    loops = _loops_from_args(args)
    if len(loops) == 1:
        index = maslov_loop(loops[0])
    else:
        pair = BundlePairSpec(loops[0].n, tuple(loops))
        index = maslov_bundle_pair(pair)
    if args.plot:
        _phase_svg(loops[0], args.plot)
    return {"index": index, "components": len(loops)}


def _cmd_cw(args) -> dict:
    # one connection: a built-in, or the collar of one loop file
    if args.builtin and args.input:
        raise MaslovCWError("cw takes --builtin or --input, not both")
    if len(args.input) > 1:
        raise MaslovCWError(f"cw integrates one loop, got {len(args.input)} --input files")
    quantum = args.quantum if args.quantum is not None else Fraction(1)
    if args.builtin:
        loop = None
        spec = builtin_connection(args.builtin)
        D = edge_transports(spec, Mesh2D("disc", args.mesh, args.mesh), args.substeps)
        rep = chern_weil_index(D, quantum)
    else:
        loop = _loops_from_args(args)[0]
        n_r = max(MESH_MIN, args.mesh // 4)

        def index(probe):  # one angular cell per sample, refined while Unrefined
            spec = build_collar_connection(probe, width=args.collar, cutoff=args.cutoff)
            D = edge_transports(spec, Mesh2D("disc", n_r, len(probe)), args.substeps)
            return chern_weil_index(D, quantum, loop=probe)

        rep = index_refining(index, loop)
    if args.faces_csv:
        rep.faces_csv(args.faces_csv)
    if args.plot and loop is not None:
        _phase_svg(loop, args.plot)
    out = rep.to_json_dict()
    # integral quanta print as plain ints, matching the simple-report shape
    if rep.rounded.denominator == 1:
        out["rounded"] = rep.rounded.numerator
    return out


def _cmd_double(args) -> dict:
    loops = _loops_from_args(args)
    pair = BundlePairSpec(loops[0].n, tuple(loops))
    deg = double_degree(pair)
    mu = maslov_bundle_pair(pair)
    if deg != mu:
        raise ViolatedIdentity(f"doubled degree {deg} != index {mu}")
    return {"degree": deg, "index": mu, "equal": True}


def _cmd_polygon(args) -> dict:
    data = load_polygon(args.input)
    value, details = mu_cw_polygon(data, verify=args.verify)
    ind = fredholm_index(data)
    report = {
        "mu_top": details["mu_top"],
        "mu_cw": {"num": value.numerator, "den": value.denominator},
        "ind": ind,
        "k_plus_1": data.k_plus_1,
        "n": data.n,
        "chi": data.chi,
    }
    if args.verify:
        report["verification"] = {"raw": details["raw"], "residual": details["residual"]}
    return report


def _cmd_orbifold(args) -> dict:
    out = verify_desingularization(load_orbifold(args.input))
    pi_m, rounded, corr = out["mu_pi"], out["mu_cw"], out["correction"]
    return {
        "mu_pi": {"num": pi_m.numerator, "den": pi_m.denominator},
        "mu_cw": {
            "raw": out["mu_cw_raw"],
            "rounded": {"num": rounded.numerator, "den": rounded.denominator},
        },
        "mu_de": out["mu_de"],
        "correction": {"num": corr.numerator, "den": corr.denominator},
        "identities": {
            "cover_independence": out["cover_independent"],
            "desingularization": out["identity_exact"],
        },
    }


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _run_suite(name: str, seed: int) -> tuple:
    """(result, seconds, error) of one suite, looked up by name where it runs.

    An error ``main`` reports comes back as error = (is_identity, message),
    since a worker's exception may not pickle.
    """
    t0 = time.perf_counter()
    try:
        result = verify_mod.SUITES[name](seed)
    except _INPUT_ERRORS as exc:
        return None, None, (isinstance(exc, ViolatedIdentity), str(exc))
    return result, time.perf_counter() - t0, None


def _run_suites(names: list, seed: int) -> list:
    """(result, seconds) per suite, in suite order.

    The suites run in forked workers, one per available CPU, when there are
    two or more of both; else in-process.  One loop reads the results on
    both paths and raises the first suite error in suite order.
    """
    runs, pool, broken = map, None, ()
    workers = min(len(names), _available_cpus())
    if workers > 1:
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor
            from concurrent.futures.process import BrokenProcessPool

            pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
            runs, broken = pool.map, BrokenProcessPool
    out = []
    try:  # either map hands the names out one at a time, in order
        for result, seconds, error in runs(_run_suite, names, [seed] * len(names)):
            if error is not None:
                is_identity, message = error
                raise (ViolatedIdentity if is_identity else MaslovCWError)(message)
            out.append((result, seconds))
    except broken as exc:
        raise MaslovCWError(f"a verify worker process died: {exc}") from None
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return out


def _cmd_verify(args) -> dict:
    names = list(verify_mod.SUITES) if args.suite == "all" else [args.suite]
    for name in names:
        if name not in verify_mod.SUITES:
            raise MaslovCWError(f"unknown suite {name!r}; choose from {sorted(verify_mod.SUITES)}")
    timed = _run_suites(names, args.seed)
    suites = [result for result, _ in timed]
    for s, seconds in timed:
        status = "PASS" if s["ok"] else "FAIL"
        print(f"{s['suite']:32s} {status} ({s['passed']}/{s['cases']}) {seconds:.3f} s",
              file=sys.stderr)
    return {
        "seed": args.seed,
        "suites": suites,
        "ok": all(s["ok"] for s in suites),
    }


def _cmd_convergence(args) -> dict:
    res = tuple(int(x) for x in args.resolutions.split(","))
    if len(res) < 2 or any(a >= b for a, b in zip(res, res[1:])):
        raise MaslovCWError("--resolutions needs at least two strictly increasing values")
    if not all(MESH_MIN <= N <= MESH_MAX for N in res):
        raise MaslovCWError(f"--resolutions values must lie in [{MESH_MIN}, {MESH_MAX}]")
    return verify_mod.suite_convergence(res)


_COMMANDS = {
    "maslov": _cmd_maslov,
    "cw": _cmd_cw,
    "double": _cmd_double,
    "polygon": _cmd_polygon,
    "orbifold": _cmd_orbifold,
    "verify": _cmd_verify,
    "convergence": _cmd_convergence,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _config(args)
        report = _COMMANDS[args.command](args)
    except ViolatedIdentity as exc:
        print(f"identity violation: {exc}", file=sys.stderr)
        return 2
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report["config"] = config
    try:
        _emit(report, args.format)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early: as the Python docs advise, point it
        # at devnull so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    if args.command in ("verify", "convergence") and not report["ok"]:
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
