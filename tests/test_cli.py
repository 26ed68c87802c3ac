import copy
import json
import multiprocessing
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maslovcw import _kernels, cli, verify as verify_mod
from maslovcw.connections import build_collar_connection
from maslovcw.curvature import edge_transports
from maslovcw.errors import MaslovCWError, Undersampled, ViolatedIdentity
from maslovcw.loops import (
    generate_loop, load_loop, loop_from_json, loop_to_json, random_frame_loop, save_loop,
)
from maslovcw.mesh import Mesh2D
from maslovcw.orbifold import orbifold_from_json
from maslovcw.polygon import polygon_from_json


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMaslov:
    def test_generator(self, capsys):
        code, out, _ = run_cli(["maslov", "--generator", "circle_tangent"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["index"] == 2
        assert report["config"]["command"] == "maslov"

    def test_loop_file(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        loop, idx = random_frame_loop(rng, 2, 128)
        path = tmp_path / "loop.json"
        save_loop(loop, str(path))
        code, out, _ = run_cli(["maslov", "--input", str(path)], capsys)
        assert code == 0
        assert json.loads(out)["index"] == idx

    def test_missing_input(self, capsys):
        code, _, err = run_cli(["maslov"], capsys)
        assert code == 1
        assert "input" in err

    @pytest.mark.parametrize("flags", [
        ["--generator", "power_k", "--samples", "100000000000"],
        ["--generator", "constant", "--rank", "100000000"],
    ])
    def test_oversized_generator_exits_one(self, flags, capsys):
        # rejected before any sample is allocated
        code, out, err = run_cli(["maslov"] + flags, capsys)
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_plot_svg(self, tmp_path, capsys):
        svg = tmp_path / "phase.svg"
        code, _, _ = run_cli(
            ["maslov", "--generator", "circle_tangent", "--plot", str(svg)], capsys
        )
        assert code == 0
        text = svg.read_text()
        assert text.startswith("<svg") and "polyline" in text


class TestCw:
    def test_flat(self, capsys):
        code, out, _ = run_cli(["cw", "--builtin", "flat", "--mesh", "64"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["raw"] == 0.0
        assert report["rounded"] == 0

    def test_disc_example(self, capsys):
        code, out, _ = run_cli(["cw", "--builtin", "example_2_7", "--mesh", "128"], capsys)
        report = json.loads(out)
        assert code == 0
        assert abs(report["raw"] - 2.0) <= 1e-2
        assert report["rounded"] == 2

    def test_collar_from_file_with_faces_csv(self, tmp_path, capsys):
        loop = generate_loop("power_k", 256, k=2)
        path = tmp_path / "loop.json"
        save_loop(loop, str(path))
        faces = tmp_path / "faces.csv"
        code, out, _ = run_cli(
            ["cw", "--input", str(path), "--faces-csv", str(faces)], capsys
        )
        assert code == 0
        assert json.loads(out)["rounded"] == 2
        lines = faces.read_text().splitlines()
        assert lines[0] == "face_i,face_j,alpha_f"
        i, j, a = lines[1].split(",")
        float(a)  # plain parseable number, not a numpy repr

    @pytest.mark.parametrize("width", ["1.5", "0"])
    def test_bad_collar_width_exits_one(self, width, tmp_path, capsys):
        path = tmp_path / "loop.json"
        save_loop(generate_loop("power_k", 64, k=1), str(path))
        code, out, err = run_cli(["cw", "--input", str(path), "--collar", width], capsys)
        assert code == 1 and out == ""
        assert err.splitlines() == ["error: collar width must lie in (0, 1)"]

    def test_transport_diagnostics_match_full_chain(self, tmp_path, capsys):
        loop, _ = random_frame_loop(np.random.default_rng(9), 3, 128)
        path = tmp_path / "loop.json"
        save_loop(loop, str(path))
        code, out, _ = run_cli(["cw", "--input", str(path), "--mesh", "64"], capsys)
        assert code == 0
        report = json.loads(out)
        # the same connection, every edge chained, the rim walked edge by edge
        loop = load_loop(str(path))
        mesh = Mesh2D("disc", cli.MESH_MIN, len(loop))
        T = _kernels.transport_chain(edge_transports(build_collar_connection(loop), mesh).G)
        drift = np.linalg.norm(np.swapaxes(T, -1, -2).conj() @ T - np.eye(3), axis=(-2, -1)).max()
        P, worst = np.eye(3, dtype=complex), 0.0
        for j, e in enumerate(mesh.boundary_angular_ids()):
            P = T[e] @ P
            M = (P @ loop.samples[0]).conj().T @ loop.samples[(j + 1) % len(loop)]
            d2 = np.linalg.norm(M) ** 2 + 3 - 2.0 * np.linalg.svd(M.real, compute_uv=False).sum()
            worst = max(worst, np.sqrt(max(d2, 0.0)))
        assert report["unitarity_defect"] == drift
        assert report["orthogonality_defect"] == worst
        code, out, _ = run_cli(["cw", "--builtin", "example_2_7", "--mesh", "32"], capsys)
        assert code == 0 and json.loads(out)["orthogonality_defect"] is None

    def test_mesh_bounds(self, capsys):
        code, _, err = run_cli(["cw", "--builtin", "flat", "--mesh", "8"], capsys)
        assert code == 1
        assert "mesh" in err

    @pytest.mark.parametrize("flag, value", [
        ("--mesh", "2048"),
        ("--quantum", "1/0"), ("--quantum", "0"), ("--quantum", "-1"), ("--quantum", "abc"),
        ("--quantum", "1e-400"), ("--quantum", "1e400"),
        ("--substeps", "0"), ("--substeps", str(cli.SUBSTEPS_MAX + 1)), ("--substeps", "100000000"),
    ])
    def test_bad_flag(self, flag, value, capsys):
        # argparse's own rejections end in SystemExit(1), the rest return 1
        try:
            code = cli.main(["cw", "--builtin", "example_2_7", "--mesh", "32", flag, value])
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert flag.lstrip("-") in captured.err


class TestDouble:
    def test_generator(self, capsys):
        code, out, _ = run_cli(["double", "--generator", "circle_tangent"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["degree"] == report["index"] == 2

    @pytest.mark.parametrize(
        "flags, expected",
        [(["--generator", "power_k", "--k", "3"], 3), (["--generator", "constant", "--rank", "2"], 0)],
    )
    def test_generator_parameters(self, flags, expected, capsys):
        code, out, _ = run_cli(["double"] + flags, capsys)
        assert code == 0
        report = json.loads(out)
        assert report["degree"] == report["index"] == expected


class TestPolygon:
    def test_bigon_file(self, tmp_path, capsys):
        from maslovcw.polygon import bigon_standard

        data = bigon_standard(2)
        obj = {
            "n": 2,
            "chi": 1,
            "edges": [
                [[[float(z.real), float(z.imag)] for z in e.reshape(-1, 4)[k]] for k in range(e.shape[0])]
                for e in data.edges
            ],
        }
        path = tmp_path / "polygon.json"
        path.write_text(json.dumps(obj))
        code, out, _ = run_cli(["polygon", "--input", str(path)], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["mu_top"] == 2
        assert report["mu_cw"] == {"num": 0, "den": 1}
        assert report["ind"] == 0
        assert report["k_plus_1"] == 2


class TestOrbifold:
    def test_orbifold_file(self, tmp_path, capsys):
        obj = {
            "n": 1,
            "cone": {"m": 2, "weights": [1]},
            "boundary": loop_to_json(generate_loop("constant", 256, n=1)),
        }
        path = tmp_path / "orb.json"
        path.write_text(json.dumps(obj))
        code, out, _ = run_cli(["orbifold", "--input", str(path)], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["mu_pi"] == {"num": 1, "den": 1}
        assert report["mu_de"] == 0
        assert report["correction"] == {"num": 1, "den": 2}
        assert report["identities"]["desingularization"]

    def test_coarse_boundary_is_refined(self, tmp_path, capsys):
        # power_k k = 1, 12 samples: the 48 x 12 mesh misses the collar's
        # plateau, so the curvature route runs on the loop refined once
        obj = {"n": 1, "cone": {"m": 3, "weights": [2]},
               "boundary": {"generator": "power_k", "params": {"k": 1, "N": 12}}}
        path = tmp_path / "orb.json"
        path.write_text(json.dumps(obj))
        code, out, _ = run_cli(["orbifold", "--input", str(path)], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["mu_pi"] == report["mu_cw"]["rounded"] == {"num": 7, "den": 3}
        assert abs(report["mu_cw"]["raw"] - 7 / 3) <= 2e-2

    def test_oversized_pullback_exits_one(self, tmp_path, capsys):
        # cone order 10^12: the pullback of 16 samples would hold 1.6e13,
        # and is rejected before any is allocated
        obj = {"n": 1, "cone": {"m": 10**12, "weights": [1]}, "boundary": _UNIT_LOOP}
        _assert_exits_one("orbifold", json.dumps(obj), tmp_path, capsys)


# n = 1 sample lists, each malformed in one way
_BAD_SAMPLES = {
    "flat_numbers": [1.0] * 16,
    "ragged_rows": [[[1.0, 0.0]]] * 15 + [[[1.0, 0.0], [0.0, 1.0]]],
    "wrong_row_length": [[[1.0, 0.0], [0.0, 1.0]]] * 16,
    "not_pairs": [[[1.0, 0.0, 0.0]]] * 16,
    "string_entries": [[["1", "0"]]] * 16,
    "null_entries": [[[1.0, None]]] * 16,
    "object_rows": {"0": [[1.0, 0.0]]},
}


def _malformed_file(kind, defect):
    if defect == "top_level_list":
        return [1, 2]
    rows = _BAD_SAMPLES[defect]
    if kind == "maslov":
        return {"n": 1, "samples": rows}
    if kind == "polygon":
        return {"n": 1, "edges": [rows, rows]}
    return {"n": 1, "cone": {"m": 2, "weights": [1]}, "boundary": {"n": 1, "samples": rows}}


def _bigon_edges():
    rows = [[[1.0, 0.0]]] * 8
    return [rows, [[[0.0, 1.0]]] * 8]


_UNIT_LOOP = {"n": 1, "samples": [[[1.0, 0.0]]] * 16}

# files whose integer fields, generator params or cone data are malformed
_BAD_FIELDS = {
    "loop_n_list": ("maslov", {"n": [1], "samples": []}),
    "loop_n_fraction": ("maslov", dict(_UNIT_LOOP, n=1.5)),
    "params_list": ("maslov", {"generator": "power_k", "params": [1]}),
    "params_N_null": ("maslov", {"generator": "power_k", "params": {"N": None}}),
    "params_k_list": ("maslov", {"generator": "power_k", "params": {"k": [3]}}),
    "params_frame_object": ("maslov", {"generator": "constant", "params": {"frame": {"a": 1}}}),
    "polygon_n_list": ("polygon", {"n": [1], "edges": _bigon_edges()}),
    "polygon_chi_null": ("polygon", {"n": 1, "chi": None, "edges": _bigon_edges()}),
    "orbifold_n_list": ("orbifold", {"n": [1], "cone": {"m": 2, "weights": [1]}, "boundary": _UNIT_LOOP}),
    "orbifold_m_null": ("orbifold", {"n": 1, "cone": {"m": None, "weights": [1]}, "boundary": _UNIT_LOOP}),
    "orbifold_weight_null": ("orbifold", {"n": 1, "cone": {"m": 2, "weights": [None]}, "boundary": _UNIT_LOOP}),
    "orbifold_weights_number": ("orbifold", {"n": 1, "cone": {"m": 2, "weights": 1}, "boundary": _UNIT_LOOP}),
    "params_N_negative": ("maslov", {"generator": "constant", "params": {"N": -5}}),
    "polygon_nan_sample": ("polygon", {"n": 1, "edges": [[[[np.nan, 0.0]]] + _bigon_edges()[0][1:],
                                                         _bigon_edges()[1]]}),
    "polygon_inf_sample": ("polygon", {"n": 1, "edges": [_bigon_edges()[0],
                                                         [[[0.0, np.inf]]] + _bigon_edges()[1][1:]]}),
    "orbifold_no_boundary": ("orbifold", {"n": 1, "cone": {"m": 2, "weights": [1]}}),
    "loop_n_true": ("maslov", dict(_UNIT_LOOP, n=True)),
    "params_k_true": ("maslov", {"generator": "power_k", "params": {"k": True}}),
    "polygon_chi_false": ("polygon", {"n": 1, "chi": False, "edges": _bigon_edges()}),
    "orbifold_n_true": ("orbifold", {"n": True, "cone": {"m": 2, "weights": [1]}, "boundary": _UNIT_LOOP}),
    "orbifold_weight_true": ("orbifold", {"n": 1, "cone": {"m": 2, "weights": [True]}, "boundary": _UNIT_LOOP}),
    "params_unknown": ("maslov", {"generator": "power_k", "params": {"k": 1, "bogus": 3}}),
    "params_k_for_circle_tangent": ("maslov", {"generator": "circle_tangent", "params": {"k": 2}}),
    "params_N_over_cap": ("maslov", {"generator": "power_k", "params": {"N": 1e11}}),
    "params_n_over_max_rank": ("maslov", {"generator": "constant", "params": {"n": 10**8}}),
}

_LOADERS = {"maslov": loop_from_json, "polygon": polygon_from_json, "orbifold": orbifold_from_json}

# small valid files of each kind, every sample count <= 64
_VALID_FILES = (
    ("maslov", loop_to_json(generate_loop("constant", 8, n=2))),
    ("maslov", {"generator": "constant", "params": {"N": 8, "n": 2, "frame": [[1, 0], [0, 1]]}}),
    ("maslov", {"generator": "power_k", "params": {"N": 16, "k": 1}}),
    # independent sample rows, so a mutation reaches one sample only
    ("polygon", {"n": 1, "chi": 1, "edges": [[[[1.0, 0.0]] for _ in range(5)],
                                             {"samples": [[[0.0, 1.0]] for _ in range(5)]}]}),
    ("orbifold", {"n": 1, "cone": {"m": 2, "weights": [1]},
                  "boundary": {"generator": "circle_tangent", "params": {"N": 16}}}),
    ("orbifold", {"n": 2, "cone": {"m": 3, "weights": [1, 2]},
                  "boundary": loop_to_json(generate_loop("constant", 8, n=2))}),
)
_DROP = object()
_MUTANTS = (None, [1, 2], "x", np.nan, np.inf, -1, -5)


def _paths(obj, prefix=()):
    """The path to every value nested in the dicts and lists of ``obj``."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _assert_exits_one(kind, text, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run_cli([kind, "--input", str(path)], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert "Traceback" not in err


class TestUnresolvedCollar:
    @pytest.mark.parametrize("width, n_t", [("0.05", 32), ("0.01", 128), ("0.3", 16)])
    def test_narrow_collar_refines_the_loop(self, width, n_t, tmp_path, capsys):
        # power_k, k = 3, 16 samples: the rim chords reach in to cos(pi/16) ~ 0.981,
        # inside the plateau of the two narrow collars, so the loop is doubled
        # until the angular mesh resolves them
        path = tmp_path / "loop.json"
        save_loop(generate_loop("power_k", 16, k=3), str(path))
        code, out, err = run_cli(["cw", "--input", str(path), "--collar", width], capsys)
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["rounded"] == 3 and report["mesh"]["Nt"] == n_t

    def test_unresolved_at_the_sample_cap_exits_one(self, tmp_path, capsys):
        # the plateau of a 1e-7 collar lies past cos(pi/4096)
        path = tmp_path / "loop.json"
        save_loop(generate_loop("power_k", 2048, k=3), str(path))
        code, out, err = run_cli(["cw", "--input", str(path), "--collar", "1e-7"], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: collar cutoff") and "Traceback" not in err


class TestMalformedFiles:
    @pytest.mark.parametrize("defect", ["top_level_list"] + sorted(_BAD_SAMPLES))
    @pytest.mark.parametrize("kind", ["maslov", "polygon", "orbifold"])
    def test_exits_one_with_error(self, kind, defect, tmp_path, capsys):
        _assert_exits_one(kind, json.dumps(_malformed_file(kind, defect)), tmp_path, capsys)

    @pytest.mark.parametrize("case", sorted(_BAD_FIELDS))
    def test_bad_fields_exit_one_with_error(self, case, tmp_path, capsys):
        kind, obj = _BAD_FIELDS[case]
        _assert_exits_one(kind, json.dumps(obj), tmp_path, capsys)

    @pytest.mark.parametrize("kind", ["maslov", "polygon", "orbifold"])
    def test_deeply_nested_array_exits_one_with_error(self, kind, tmp_path, capsys):
        # 50,000 nested arrays (about 100 KB) exceed the parser's recursion limit
        _assert_exits_one(kind, "[" * 50_000 + "]" * 50_000, tmp_path, capsys)

    @pytest.mark.parametrize("case", sorted(_BAD_FIELDS))
    def test_bad_fields_raise_library_error(self, case):
        kind, obj = _BAD_FIELDS[case]
        with pytest.raises(MaslovCWError):
            _LOADERS[kind](json.loads(json.dumps(obj)))

    @pytest.mark.parametrize("kind, obj", _VALID_FILES)
    def test_valid_files_load(self, kind, obj):
        _LOADERS[kind](copy.deepcopy(obj))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mutated_file_loads_or_raises_library_error(self, data):
        kind, obj = data.draw(st.sampled_from(_VALID_FILES))
        obj = copy.deepcopy(obj)
        path = data.draw(st.sampled_from(list(_paths(obj))))
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        mutants = ((_DROP,) if isinstance(parent, dict) else ()) + _MUTANTS
        value = data.draw(st.sampled_from(mutants))
        if value is _DROP:
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(value)
        try:
            _LOADERS[kind](obj)
        except MaslovCWError:
            pass


def assert_no_child_process():
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def one_cpu(monkeypatch):
    monkeypatch.setattr(cli, "_available_cpus", lambda: 1)


def raising(exc):
    def suite(seed):
        raise exc
    return suite


class TestVerify:
    def test_single_suite(self, capsys, monkeypatch):
        def no_fork():
            raise AssertionError("a single suite runs in-process")

        monkeypatch.setattr(os, "fork", no_fork)
        code, out, err = run_cli(
            ["verify", "--suite", "cover_multiplicativity", "--seed", "7"], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert report["ok"]
        assert "PASS" in err

    def test_unknown_suite(self, capsys):
        code, _, err = run_cli(["verify", "--suite", "nope"], capsys)
        assert code == 1

    def test_failing_suite_exits_two(self, capsys, monkeypatch):
        fake = lambda seed: {"suite": "fake", "cases": 1, "passed": 0, "ok": False, "details": []}
        monkeypatch.setitem(verify_mod.SUITES, "fake", fake)
        code, _, _ = run_cli(["verify", "--suite", "fake"], capsys)
        assert code == 2

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--suite", "bigon_viterbo", "--format", "csv"], capsys
        )
        assert code == 0
        assert "ok,True" in out

    @pytest.mark.parametrize("seed", ["3", "7"])
    def test_exact_fields_match_benchmark_references(self, seed, capsys, monkeypatch):
        bench = Path(__file__).resolve().parent.parent / "perfbench"
        monkeypatch.syspath_prepend(str(bench))
        from verify_ref import mismatched_suites

        ref = json.loads((bench / "refs.json").read_text())["verify"][seed]
        code, out, _ = run_cli(["verify", "--suite", "all", "--seed", seed], capsys)
        assert code == 0
        assert mismatched_suites(out, ref) == []

    @pytest.mark.parametrize("seed", ["3", "7"])
    def test_one_cpu_prints_the_same_bytes(self, seed, capsys, monkeypatch):
        argv = ["verify", "--suite", "all", "--seed", seed]
        code, out, err = run_cli(argv, capsys)
        assert_no_child_process()
        one_cpu(monkeypatch)
        code_1, out_1, err_1 = run_cli(argv, capsys)
        assert code == code_1 == 0
        assert out == out_1
        # one line per suite, in suite order, with the seconds it took
        for text in (err, err_1):
            lines = text.splitlines()
            assert [line.split()[0] for line in lines] == list(verify_mod.SUITES)
            assert all(re.fullmatch(r"\S+ +PASS \((\d+)/\1\) \d+\.\d{3} s", line)
                       for line in lines)

    @pytest.mark.parametrize("exc,code,prefix", [
        # the diagnostics cannot be pickled back from a worker
        (ViolatedIdentity("planted", {"fn": lambda: 0}), 2, "identity violation: planted"),
        (Undersampled("planted"), 1, "error: planted"),
        (KeyError("planted"), 1, "error: 'planted'"),
    ])
    @pytest.mark.parametrize("cpus", ["all", 1])
    def test_suite_error_exits_as_in_process(self, exc, code, prefix, cpus, capsys,
                                             monkeypatch):
        monkeypatch.setitem(verify_mod.SUITES, "bigon_viterbo", raising(exc))
        if cpus == 1:
            one_cpu(monkeypatch)
        got, out, err = run_cli(["verify", "--suite", "all"], capsys)
        assert_no_child_process()
        assert (got, out, err) == (code, "", prefix + "\n")

    @pytest.mark.skipif(cli._available_cpus() < 2, reason="one CPU runs the suites in-process")
    def test_dead_worker_exits_one(self, capsys, monkeypatch):
        monkeypatch.setitem(verify_mod.SUITES, "bigon_viterbo", lambda seed: os._exit(3))
        code, out, err = run_cli(["verify", "--suite", "all"], capsys)
        assert_no_child_process()
        assert code == 1 and out == ""
        assert err.startswith("error: a verify worker process died") and "Traceback" not in err


class TestDeterminism:
    def test_byte_identical_reports(self, package_env):
        cmd = [
            sys.executable,
            "-m",
            "maslovcw.cli",
            "verify",
            "--suite",
            "doubling_degree",
            "--seed",
            "7",
        ]
        a = subprocess.run(cmd, capture_output=True, text=True, env=package_env)
        b = subprocess.run(cmd, capture_output=True, text=True, env=package_env)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout


class TestModuleEntry:
    def test_python_dash_m_package(self, package_env):
        args = ["cw", "--builtin", "example_2_7", "--mesh", "32"]
        pkg = subprocess.run([sys.executable, "-m", "maslovcw", *args],
                             capture_output=True, text=True, env=package_env)
        mod = subprocess.run([sys.executable, "-m", "maslovcw.cli", *args],
                             capture_output=True, text=True, env=package_env)
        assert pkg.returncode == mod.returncode == 0
        assert pkg.stdout == mod.stdout
        assert json.loads(pkg.stdout)["rounded"] == 2
        bad = subprocess.run([sys.executable, "-m", "maslovcw", "cw", "--builtin", "nope"],
                             capture_output=True, text=True, env=package_env)
        assert bad.returncode == 1 and "error:" in bad.stderr


class TestConvergenceCommand:
    def test_runs(self, capsys):
        code, out, _ = run_cli(["convergence", "--resolutions", "32,64"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["suite"] == "convergence"

    @pytest.mark.parametrize("resolutions,message", [
        ("64", "two strictly increasing"),
        ("128,64", "two strictly increasing"),
        ("32,32", "two strictly increasing"),
        ("8,32", "[16, 1024]"),
        ("32,2048", "[16, 1024]"),
    ])
    def test_rejected_resolutions_exit_one(self, resolutions, message, capsys):
        code, out, err = run_cli(["convergence", "--resolutions", resolutions], capsys)
        assert code == 1 and out == "" and message in err

    def test_order_is_per_halving_of_the_mesh_width(self, capsys):
        # a fourfold refinement of a second-order scheme reports order ~2, not ~4
        code, out, _ = run_cli(["convergence", "--resolutions", "32,128"], capsys)
        case = json.loads(out)["details"][0]
        assert code == 0 and case["ok"]
        assert abs(case["orders"][0] - 2.0) < 0.01
        e0, e1 = case["errors"]
        assert case["orders"][0] == float(np.log2(e0 / e1) / 2.0)

    def test_failed_order_exits_two(self, capsys, monkeypatch):
        # the flat connection's error stays 2 at every resolution: order 0
        flat = verify_mod.builtin_connection("flat")
        monkeypatch.setattr(verify_mod, "builtin_connection", lambda name: flat)
        code, out, _ = run_cli(["convergence", "--resolutions", "16,32"], capsys)
        report = json.loads(out)
        assert code == 2 and not report["ok"]
        assert report["details"][0]["orders"] == [0.0]
