#!/usr/bin/env python3
"""Per-stage traced memory and wall time of ``maslovcw cw``, for one source tree.

    python3 tools/stage_memory.py TREE [--mesh 512] [--substeps 1] [--rank 4] \\
        [--samples 512] [--repeat 5]

TREE is a checkout of the repository; ``maslovcw`` is imported from its
``src/``, so two trees (a parent and a change) can be compared with the same
tool.  Two runs are staged as ``cw`` runs them:

* ``--builtin example_2_7 --mesh M``: the disc example on an M x M mesh;
* ``--input``: the collar connection of a random rank-``--rank`` frame loop of
  ``--samples`` samples (seed 0) on ``max(16, M // 4)`` rings, as ``cw
  --input`` builds it at ``--mesh M``.

The stages are the quadrature build (from an empty cache), ``edge_transports``,
``chern_weil_index``, the transport diagnostics (``transport_defects``, read
through the report) and the report (``to_json_dict`` and ``json.dumps``).
For each, the table gives the traced memory held before it, its tracemalloc
peak, that peak over what was held before, and the minimum wall time over
``--repeat`` untraced runs.  Memory is traced from before the cold build, so
the quadrature cache counts as live in every later stage; "op peak" is the
largest stage peak of a second, warm run, whose quadrature comes from the
cache.  Standard library plus numpy.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
import tracemalloc
from pathlib import Path

MB = 1e6
STAGES = ("quadrature", "edge_transports", "chern_weil_index", "transport_defects", "report")


def stage_functions(case: str, args) -> tuple:
    """(mesh, callables of the five stages) of one ``cw`` run; each returns what the next reads."""
    from maslovcw import connections, curvature, loops
    from maslovcw.mesh import Mesh2D

    if case == "builtin":
        mesh = Mesh2D("disc", args.mesh, args.mesh)
        spec = connections.builtin_connection("example_2_7")
        probe = None
    else:
        import numpy as np

        probe, _ = loops.random_frame_loop(np.random.default_rng(0), args.rank, args.samples)
        mesh = Mesh2D("disc", max(16, args.mesh // 4), len(probe))
        spec = connections.build_collar_connection(probe)

    def defects(rep):
        rep.unitarity_defect  # computes both transport diagnostics
        return rep

    return mesh, (
        lambda _: mesh.edge_quadrature(args.substeps),
        lambda _: curvature.edge_transports(spec, mesh, args.substeps),
        lambda D: curvature.chern_weil_index(D, loop=probe),
        defects,
        lambda rep: json.dumps(rep.to_json_dict(), sort_keys=True),
    )


def traced_run(funcs) -> list:
    """(live before, peak) in bytes per stage, tracemalloc already running."""
    out, value = [], None
    for fn in funcs:
        gc.collect()
        tracemalloc.reset_peak()
        live = tracemalloc.get_traced_memory()[0]
        value = fn(value)
        out.append((live, tracemalloc.get_traced_memory()[1]))
    del value
    return out


def timed_run(funcs) -> list:
    out, value = [], None
    for fn in funcs:
        t0 = time.perf_counter()
        value = fn(value)
        out.append(time.perf_counter() - t0)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("tree", type=Path)
    p.add_argument("--mesh", type=int, default=512)
    p.add_argument("--substeps", type=int, default=1)
    p.add_argument("--rank", type=int, default=4)
    p.add_argument("--samples", type=int, default=512)
    p.add_argument("--repeat", type=int, default=5)
    args = p.parse_args(argv)
    sys.path.insert(0, str(args.tree.resolve() / "src"))
    import maslovcw as mc
    from maslovcw import mesh as mesh_module

    print(f"tree {args.tree} (maslovcw from {Path(mc.__file__).parent})")
    for case in ("builtin", "input"):
        mesh, funcs = stage_functions(case, args)
        title = (f"cw --builtin example_2_7 --mesh {args.mesh}" if case == "builtin" else
                 f"cw --input (rank {args.rank}, {args.samples} samples) --mesh {args.mesh}")
        times = []
        for _ in range(args.repeat):
            mesh_module._edge_quadrature.cache_clear()
            times.append(timed_run(funcs))
        mesh_module._edge_quadrature.cache_clear()
        gc.collect()
        tracemalloc.start()
        try:
            cold = traced_run(funcs)
            warm = traced_run(funcs)
        finally:
            tracemalloc.stop()
        print(f"\n{title}: {mesh.n_r} x {mesh.n_t} mesh, substeps {args.substeps}")
        print(f"{'stage':18s} {'live MB':>8s} {'peak MB':>8s} {'+peak MB':>9s} {'wall ms':>8s}")
        for k, name in enumerate(STAGES):
            live, peak = cold[k]
            wall = min(t[k] for t in times) * 1e3
            print(f"{name:18s} {live / MB:8.1f} {peak / MB:8.1f} {(peak - live) / MB:9.1f} "
                  f"{wall:8.1f}")
        print(f"op peak (warm, quadrature cached): {max(pk for _, pk in warm[1:]) / MB:.1f} MB, "
              f"{warm[1][0] / MB:.1f} MB live before the op")
    return 0


if __name__ == "__main__":
    sys.exit(main())
