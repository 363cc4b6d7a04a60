import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import hyperspec
from hyperspec import cli, reduction
from hyperspec.cli import main
from hyperspec.graphs import (
    MAX_VERTEX_COUNT,
    LoopedGraph,
    complete_graph,
    cycle_graph,
    format_edge_list,
    path_graph,
)
from hyperspec.hypergraphs import from_json_dict
from hyperspec.linalg import ConvergenceError, SpectrumSet
from hyperspec.witnesses import SpectrumReport, WitnessTable


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "c3.edges"
    path.write_text(format_edge_list(cycle_graph(3)))
    return str(path)


@pytest.fixture
def square_file(tmp_path):
    path = tmp_path / "c4.edges"
    path.write_text(format_edge_list(cycle_graph(4)))
    return str(path)


def run_cli(args):
    return main(args)


def canonical_json(report):
    """The canonical JSON text of a spectrum report, built from its dict."""
    return json.dumps(report.to_json_dict(), sort_keys=True, separators=(",", ":")) + "\n"


PAW = LoopedGraph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])


class TestPowerCommand:
    def test_writes_canonical_hypergraph(self, triangle_file, tmp_path):
        out = tmp_path / "h.json"
        code = run_cli(
            ["power", "--input", triangle_file, "--k", "4", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["n"] == 6
        assert payload["k"] == 4
        assert len(payload["edges"]) == 3
        assert payload["half_edges"]["0"] == [0, 1]

    def test_explicit_s(self, triangle_file, tmp_path):
        out = tmp_path / "h.json"
        code = run_cli(
            ["power", "--input", triangle_file, "--k", "6", "--s", "1", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["n"] == 15
        assert payload["k"] == 6

    def test_odd_k_is_input_error(self, triangle_file, capsys):
        code = run_cli(["power", "--input", triangle_file, "--k", "5"])
        assert code == 2
        assert "even" in capsys.readouterr().err

    def test_missing_file_is_input_error(self, tmp_path):
        code = run_cli(["power", "--input", str(tmp_path / "nope.edges"), "--k", "4"])
        assert code == 2


class TestSpectrumCommand:
    def test_h_only_triangle(self, triangle_file, tmp_path):
        out = tmp_path / "spec.json"
        code = run_cli(
            [
                "spectrum",
                "--input",
                triangle_file,
                "--k",
                "4",
                "--kind",
                "L",
                "--h-only",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        reals = sorted(re for re, _ in payload["values"])
        assert reals == pytest.approx([0.0, 1.0, 2.0, 3.0], abs=1e-9)
        assert payload["complete"]

    def test_full_spectrum_set_equality_between_kinds(self, triangle_file, tmp_path):
        outs = {}
        for kind in ("L", "Q"):
            out = tmp_path / f"{kind}.json"
            assert (
                run_cli(
                    [
                        "spectrum",
                        "--input",
                        triangle_file,
                        "--k",
                        "4",
                        "--kind",
                        kind,
                        "--out",
                        str(out),
                    ]
                )
                == 0
            )
            outs[kind] = json.loads(out.read_text())
        vals_l = {(round(r, 7), round(i, 7)) for r, i in outs["L"]["values"]}
        vals_q = {(round(r, 7), round(i, 7)) for r, i in outs["Q"]["values"]}
        assert vals_l == vals_q

    def test_budget_exhaustion_exit_code(self, triangle_file, tmp_path):
        code = run_cli(
            [
                "spectrum",
                "--input",
                triangle_file,
                "--k",
                "4",
                "--budget",
                "2",
                "--out",
                str(tmp_path / "x.json"),
            ]
        )
        assert code == 3

    @pytest.mark.parametrize("budget", ["0", "-1"])
    @pytest.mark.parametrize(
        "argv",
        [["spectrum", "--k", "4"], ["verify", "--check", "rho-equality", "--k", "4"]],
        ids=["spectrum", "verify"],
    )
    def test_nonpositive_budget_is_an_input_error(self, triangle_file, argv, budget):
        assert run_cli(argv + ["--input", triangle_file, "--budget", budget]) == 2

    def test_csv_output(self, triangle_file, tmp_path):
        out = tmp_path / "spec.csv"
        code = run_cli(
            [
                "spectrum",
                "--input",
                triangle_file,
                "--k",
                "4",
                "--h-only",
                "--format",
                "csv",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "value_re,value_im"
        assert len(lines) == 5

    def test_pretty_output(self, triangle_file, tmp_path):
        out = tmp_path / "spec.txt"
        code = run_cli(
            [
                "spectrum",
                "--input",
                triangle_file,
                "--k",
                "4",
                "--h-only",
                "--format",
                "pretty",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert "H-spectrum" in out.read_text()

    def test_repeated_runs_are_byte_identical(self, triangle_file, tmp_path):
        texts = []
        for run in ("1", "2"):
            out = tmp_path / f"spec-{run}.json"
            assert (
                run_cli(
                    ["spectrum", "--input", triangle_file, "--k", "6", "--out", str(out)]
                )
                == 0
            )
            texts.append(out.read_bytes())
        assert texts[0] == texts[1]

    def test_tolerance_below_the_dedup_floor_is_an_input_error(self, triangle_file, capsys):
        code = run_cli(["spectrum", "--input", triangle_file, "--k", "4", "--tol", "1e-15"])
        assert code == 2
        assert "dedup_tol" in capsys.readouterr().err

    @pytest.mark.parametrize("h_only", [False, True], ids=["spectrum", "h-only"])
    @pytest.mark.parametrize("tol", ["0", "1e-15", "nan"])
    def test_bad_tolerance_is_rejected_before_the_enumeration(
        self, triangle_file, capsys, monkeypatch, tol, h_only
    ):
        def entered(*args, **kwargs):
            raise AssertionError("the enumeration was entered")

        monkeypatch.setattr(reduction, "_plan_work", entered)
        args = ["spectrum", "--input", triangle_file, "--k", "6", "--tol", tol]
        code = run_cli(args + ["--h-only"] * h_only)
        assert code == 2
        assert "dedup_tol must be at least 2**-46" in capsys.readouterr().err

    @pytest.mark.parametrize("h_only", [False, True], ids=["spectrum", "h-only"])
    @pytest.mark.parametrize("max_subset", ["0", "-2"])
    def test_nonpositive_max_subset_is_an_input_error(
        self, triangle_file, capsys, max_subset, h_only
    ):
        args = ["spectrum", "--input", triangle_file, "--k", "4"]
        code = run_cli(args + ["--max-subset", max_subset] + ["--h-only"] * h_only)
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "max_subset must be positive" in captured.err

    @pytest.mark.parametrize("flag", ["--parallel", "--seed"])
    def test_removed_flags_are_rejected(self, triangle_file, flag):
        with pytest.raises(SystemExit) as exc:
            run_cli(["spectrum", "--input", triangle_file, "--k", "6", flag, "2"])
        assert exc.value.code == 2


# stdout sha256 of each command in each format, recorded before the CLI lost
# its shared option set and the reduction its second stack builder; the
# certificate json and pretty digests were recorded again when the first
# summary line became the decision at modulus k (C3 at k = 6 has none), and
# the three full-spectrum digests when spectra became the chi-class means:
# K4 at k = 6 keeps its 55 values (the exact count, see
# test_charpoly.TestExactCounts) and witnesses, which moved by at most
# 5.4e-15, and so did the order of eight values with near-equal real parts
RECORDED = [
    ("spectrum --format json", "5297aaba778ff80a0279e8ead238cb013c037d9ff41ae84838c7f0fd81a1696c"),
    ("spectrum --format json --h-only", "6b37475c844cbfccfab94553c5c3e10d8b24044cbced22cfd2b1b0c8ac87dd50"),
    ("spectrum --format csv", "092aca3e65a67fd765a6e52232fce683ef724fc4e0d74ce373e14f73e8aadcd4"),
    ("spectrum --format csv --h-only", "304ee942b85ee4cb584909a0bdbdc0bee37c0c9dad55e33ea022b67bd34122f7"),
    ("spectrum --format pretty", "f6b1ded89c5f685e9da9804fc132b2a2be8f1ff69ddcef53d7862a60fbbed0bc"),
    ("spectrum --format pretty --h-only", "02ad07b4e9c16a565e20b612007e5d61c1ffef9e2f4d89561a4eaed388d1c5c0"),
    ("verify --format json", "b30672540d2a4f25e4ae9de774512df2332454ae68c550c7006c8172784fcab3"),
    ("verify --format csv", "e1741c820b75a94f79c44ec7efa85eec10fc961d4e54cc5ce1e2e3c6a162eedb"),
    ("verify --format pretty", "fd9248c38fa90cf23b0e5eeefb39f7785f5a9101bd9ab58f0c86dd3f52238444"),
    ("certificate --format json", "9c9093fa43e63f1f9ed7270842f72815e2015617bb9a3ca2a37f24b89d70dfd8"),
    ("certificate --format csv", "023607c1e80b746c2dcfc6f75af7be5c42cba43089ed47a6912e98aba164450b"),
    ("certificate --format pretty", "7ad3327208742e5457a2caedd7e9f1df1b2733f900c7f6786cd246a597abe1e4"),
    ("power", "ec9bbe48fd72258d9ba6793bdabfd8cf753eef344f9db2938d1b8cce308fc1d2"),
]


# stdout sha256 of spectrum --k 8 of C6 in each format, recorded before the
# spectrum keyed only the gauge-orbit minima: every connected subset of C6
# is bipartite, so that key pass drops the most rows here
C6_K8_RECORDED = [
    ("json", "a7d5d1454958ac6588f3cfd27495c8230c03f8b5cf702ea2248c55c5d4afd4ba"),
    ("csv", "75b336b7f405c4cc74b3917734887db2ef4087ff59bd4853951b2cf57e712aaf"),
    ("pretty", "0d3526ffdb236ea7bf0aeb35175f14a1e54e638c34ea268fa77c164bbf71473d"),
]


def _petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return LoopedGraph(10, outer + spokes + inner)


# stdout sha256 and exit code of spectrum --format json on two symmetric
# bases, recorded before the key pass skipped rows of isomorphic subsets:
# Petersen at k = 4 stops at the default max subset of 8 (exit 3,
# incomplete), K6 at k = 8 is complete
SYMMETRIC_RECORDED = [
    ("Petersen", _petersen(), 4, 3, "46fbab13302a65f7ca082272cbb3d0143fc8ccc30456cc22e4cd79c0c1896065"),
    ("K6", complete_graph(6), 8, 0, "436cc0bd4ce132011424ae7dcadc56e78a03177c3491ef3d819e1bafadc42039"),
]


def _recorded_argv(command, tmp_path, triangle_file):
    """The argv of one recorded run: spectrum of K4 at k = 6, power-invariance
    of C3 at k = 4 and 6, certificates of the C3 power at k = 6, and that power."""
    if command == "spectrum":
        path = tmp_path / "k4.edges"
        path.write_text(format_edge_list(complete_graph(4)))
        return ["spectrum", "--input", str(path), "--k", "6"]
    if command == "verify":
        argv = ["verify", "--check", "power-invariance", "--input", triangle_file]
        return argv + ["--k", "4,6"]
    if command == "certificate":
        power = tmp_path / "c3-k6.json"
        code = run_cli(["power", "--input", triangle_file, "--k", "6", "--out", str(power)])
        assert code == 0
        return ["certificate", "--input", str(power)]
    return ["power", "--input", triangle_file, "--k", "6"]


class TestRecordedBytes:
    @pytest.mark.parametrize("run, digest", RECORDED, ids=[run for run, _ in RECORDED])
    def test_commands_print_the_recorded_bytes(
        self, tmp_path, capsys, triangle_file, run, digest
    ):
        command, *extra = run.split()
        argv = _recorded_argv(command, tmp_path, triangle_file)
        capsys.readouterr()
        assert run_cli(argv + extra) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("fmt, digest", C6_K8_RECORDED, ids=[fmt for fmt, _ in C6_K8_RECORDED])
    def test_the_c6_eighth_power_spectrum_prints_the_recorded_bytes(
        self, tmp_path, capsys, fmt, digest
    ):
        path = tmp_path / "c6.edges"
        path.write_text(format_edge_list(cycle_graph(6)))
        capsys.readouterr()
        assert run_cli(["spectrum", "--input", str(path), "--k", "8", "--format", fmt]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "name, g, k, code, digest", SYMMETRIC_RECORDED, ids=[name for name, *_ in SYMMETRIC_RECORDED]
    )
    def test_symmetric_spectra_print_the_recorded_bytes(self, tmp_path, capsys, name, g, k, code, digest):
        path = tmp_path / f"{name}.edges"
        path.write_text(format_edge_list(g))
        capsys.readouterr()
        assert run_cli(["spectrum", "--input", str(path), "--k", str(k), "--format", "json"]) == code
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("power", "--budget", "10"),
            ("power", "--max-subset", "3"),
            ("power", "--tol", "1e-8"),
            ("power", "--format", "csv"),
            ("certificate", "--budget", "10"),
            ("certificate", "--max-subset", "3"),
            ("certificate", "--tol", "1e-8"),
        ],
    )
    def test_options_a_command_does_not_read_are_rejected(
        self, tmp_path, triangle_file, command, flag, value
    ):
        argv = _recorded_argv(command, tmp_path, triangle_file)
        with pytest.raises(SystemExit) as exc:
            run_cli(argv + [flag, value])
        assert exc.value.code == 2


class TestParserCache:
    def test_one_cached_parser_serves_every_command(self, tmp_path, capsys, triangle_file):
        spectrum, verify, certificate = (
            _recorded_argv(command, tmp_path, triangle_file)
            for command in ("spectrum", "verify", "certificate")
        )
        # spectrum takes no --moduli, so argparse exits with code 2
        runs = [spectrum, spectrum + ["--moduli", "2"], verify, certificate]

        def results(fresh):
            got = []
            for argv in runs:
                if fresh:
                    cli._build_parser.cache_clear()
                capsys.readouterr()
                try:
                    code = run_cli(argv)
                except SystemExit as exc:
                    code = exc.code
                got.append((code, *capsys.readouterr()))
            return got

        want = results(fresh=True)
        cli._build_parser.cache_clear()
        parser = cli._build_parser()
        assert results(fresh=False) == want
        assert cli._build_parser() is parser
        assert [code for code, _, _ in want] == [0, 2, 0, 0]


class TestJsonWriter:
    @pytest.mark.parametrize(
        "length",
        [0, 1, cli._SLICE - 1, cli._SLICE, cli._SLICE + 1, 3 * cli._SLICE + 5],
    )
    def test_slices_give_the_bytes_of_json_dumps(self, length):
        payload = {
            "values": [[i / 7, -i * 1e-300] for i in range(length)],
            "witnesses": [
                {"subset": [i, i + 1], "phases": [0, i], "kind": "L", "eigenvalue": [i / 3, 0.0]}
                for i in range(length)
            ],
            "moduli": {
                "12": {"solvable": False, "gauge": None},
                "2": {"solvable": True, "gauge": {"m": 2, "phases": list(range(length))}},
            },
            "summary": ["é and ∞"] * min(length, 3),
            "complete": length % 2 == 0,
            "budget_used": length,
            "empty": [],
        }
        want = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
        parts = list(cli._json_parts(payload))
        assert "".join(parts) == want
        if length > cli._SLICE:
            # long lists are written a slice at a time, never whole
            assert max(map(len, parts)) < len(json.dumps(payload["witnesses"]))

    @pytest.mark.parametrize("h_only", [False, True], ids=["spectrum", "h-spectrum"])
    @pytest.mark.parametrize("kind", ["A", "L", "Q"])
    @pytest.mark.parametrize("k", [4, 6, 8])
    @pytest.mark.parametrize(
        "g", [cycle_graph(3), cycle_graph(5), complete_graph(4), PAW], ids=["C3", "C5", "K4", "paw"]
    )
    def test_spectrum_parts_give_the_bytes_of_its_dict(self, g, k, kind, h_only):
        compute = reduction.h_spectrum_power if h_only else reduction.spectrum_power
        report = compute(g, k, kind)
        assert "".join(report.json_parts()) == canonical_json(report)

    def test_a_budget_cut_spectrum_gives_the_bytes_of_its_dict(self):
        report = reduction.spectrum_power(cycle_graph(5), 8, "L", budget=500)
        assert not report.complete and len(report.values) > cli._SLICE
        assert "".join(report.json_parts()) == canonical_json(report)

    def test_a_long_spectrum_is_written_a_slice_at_a_time(self):
        report = reduction.spectrum_power(cycle_graph(5), 8, "L")
        assert len(report.values) == 713
        parts = list(report.json_parts())
        assert "".join(parts) == canonical_json(report)
        witnesses = json.dumps(report.to_json_dict()["witnesses"], separators=(",", ":"))
        assert max(map(len, parts)) < len(witnesses) / 2

    def test_signed_zeros_and_extreme_floats_keep_their_text(self):
        # far enough apart at dedup_tol * 1e16 that no two values merge; the
        # floats run 0.0 before -0.0 in the values and -0.0 before 0.0 in the
        # witnesses, so a text keyed by value would lose a sign either way
        values = [
            complex(0.0, -0.0),
            complex(-1e16, 1e-05),
            complex(1e16, -5e-324),
            complex(-0.0, 1e16),
            complex(5e-324, -1e16),
        ]
        spectrum = SpectrumSet(values)
        assert len(spectrum) == len(values)
        blocks = [((0, 1, 2), np.array([[0, 1, 3], [2, 2, 0]])), ((1, 3), np.array([[1, 0]]))]
        eigenvalues = np.array(
            [
                complex(-0.0, 0.0),
                complex(1e-05, -0.0),
                complex(0.0, 5e-324),
                complex(-1e16, -1e-05),
                complex(-5e-324, -0.0),
            ]
        )
        table = WitnessTable(4, "laplacian", blocks, np.array([2, 0, 1, 0, 2]), eigenvalues)
        report = SpectrumReport("laplacian", 4, spectrum, table, False, 7)
        text = "".join(report.json_parts())
        assert text == canonical_json(report)
        assert '"values":[[-1e+16,1e-05],[0.0,-0.0],[-0.0,1e+16],' in text
        assert '{"eigenvalue":[-0.0,0.0],"k":4,"kind":"L","phases":[1,0],"subset":[1,3]}' in text

    @pytest.mark.parametrize("command", ["spectrum", "verify", "certificate"])
    def test_stdout_and_out_hold_the_canonical_bytes(
        self, tmp_path, capsys, triangle_file, command
    ):
        if command == "spectrum":
            # C5 at k = 8 reports 713 values, several slices of each list
            path = tmp_path / "c5.edges"
            path.write_text(format_edge_list(cycle_graph(5)))
            argv = ["spectrum", "--input", str(path), "--k", "8"]
        else:
            argv = _recorded_argv(command, tmp_path, triangle_file)
        capsys.readouterr()
        assert run_cli(argv) == 0
        printed = capsys.readouterr().out
        out = tmp_path / "out.json"
        assert run_cli(argv + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text(encoding="utf-8") == printed
        payload = json.loads(printed)
        assert printed == json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
        if command == "spectrum":
            assert len(payload["values"]) == 713 > 2 * cli._SLICE

    def test_c7_spectrum_job_memory_is_bounded(self, tmp_path):
        # the whole job: enumeration, dedup, certification and the sliced
        # JSON writer; about 1.1 MiB when measured
        path = tmp_path / "c7.edges"
        path.write_text(format_edge_list(cycle_graph(7)))
        out = tmp_path / "c7.json"
        argv = ["spectrum", "--input", str(path), "--k", "6", "--out", str(out)]
        assert run_cli(argv) == 0
        want = out.read_bytes()
        out.unlink()
        tracemalloc.start()
        try:
            code = run_cli(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0 and out.read_bytes() == want
        assert peak < 5 * 2**20

    def test_a_million_phases_keep_their_bytes(self, triangle_file, capsys):
        # C3 at k = 10**6: the first subset's 500 000 classes carry phases up
        # to 499 999, held as int32, and 100 classes of the next follow before
        # the budget runs out; the digest was recorded with int64 phases
        capsys.readouterr()
        argv = ["spectrum", "--input", triangle_file, "--k", "1000000"]
        assert run_cli(argv + ["--budget", "500100"]) == 3
        out = capsys.readouterr().out
        digest = "6bd3f0f6363c0de5466c609a62beeea7ae47b13280383278f2dbbcbff237387d"
        assert hashlib.sha256(out.encode()).hexdigest() == digest


    def test_a_spectrum_is_written_without_its_dict(self, tmp_path, capsys, monkeypatch, triangle_file):
        def built(*args):
            raise AssertionError("the JSON dict of a spectrum was built")

        monkeypatch.setattr(SpectrumReport, "to_json_dict", built)
        monkeypatch.setattr(WitnessTable, "json_dicts", built)
        argv = _recorded_argv("spectrum", tmp_path, triangle_file)
        capsys.readouterr()
        assert run_cli(argv + ["--format", "json"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == dict(RECORDED)["spectrum --format json"]


class TestVerifyCommand:
    # stdout bytes of verify runs that call rho_power, recorded before its
    # per-class pruning; pruning must not change them
    @pytest.mark.parametrize(
        "graph, check, ks, digest",
        [
            (
                complete_graph(4),
                "rho-equality",
                "4,6,8,12",
                "d2eac79179c398bef5c887763382f5f133be5e92bc0e99d1304cb49437648c68",
            ),
            (
                cycle_graph(3),
                "shrinking-gap",
                "6,10,14",
                "d307778cc34eea33efc7a9827d92edbe8374db394ad59a65e3dae09fdf4a2ce5",
            ),
        ],
        ids=["rho-equality-K4", "shrinking-gap-C3"],
    )
    def test_rho_checks_print_the_recorded_bytes(
        self, tmp_path, capsys, graph, check, ks, digest
    ):
        path = tmp_path / "g.edges"
        path.write_text(format_edge_list(graph))
        code = run_cli(["verify", "--check", check, "--input", str(path), "--k", ks])
        assert code == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_rho_equality_multiple_of_four(self, triangle_file, tmp_path):
        out = tmp_path / "v.json"
        code = run_cli(
            [
                "verify",
                "--input",
                triangle_file,
                "--check",
                "rho-equality",
                "--k",
                "4,8",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["passed"]
        for row in payload["rows"]:
            assert row["ok"]

    @pytest.mark.parametrize("tol", ["nan", "-1"])
    def test_bad_equality_tolerance_is_rejected_before_rho(
        self, tmp_path, capsys, monkeypatch, tol
    ):
        def entered(*args, **kwargs):
            raise AssertionError("rho_power was called")

        monkeypatch.setattr(cli, "rho_power", entered)
        path = tmp_path / "k4.edges"
        path.write_text(format_edge_list(complete_graph(4)))
        argv = ["verify", "--check", "rho-equality", "--input", str(path), "--k", "4"]
        assert run_cli(argv + ["--tol", tol]) == 2
        assert "--tol must be a nonnegative number" in capsys.readouterr().err

    def test_rho_equality_rejects_a_nonpositive_max_subset(self, triangle_file, capsys):
        argv = ["verify", "--check", "rho-equality", "--input", triangle_file, "--k", "4"]
        assert run_cli(argv + ["--max-subset", "0"]) == 2
        assert "max_subset must be positive" in capsys.readouterr().err

    # stdout of power-invariance on the irregular P4, recorded with NQZ started
    # at the lifted base Perron vectors
    @pytest.mark.parametrize(
        "fmt, digest",
        [
            ("json", "ca76dc37e3092b8d9467798c34d0d1e79891327ddb5ce3d537f064d491ca0a2e"),
            ("csv", "7515835d34a3ffc0dc2bad18fc42b21d214873cf19dbf1cf236ca494bee18f2d"),
            ("pretty", "ca67384b9a35ec8d378a27452738264bc2688010bbe6198c8b3a0ebc92555642"),
        ],
    )
    def test_power_invariance_on_a_path_prints_the_recorded_bytes(
        self, tmp_path, capsys, fmt, digest
    ):
        path = tmp_path / "p4.edges"
        path.write_text(format_edge_list(path_graph(4)))
        argv = ["verify", "--check", "power-invariance", "--input", str(path)]
        assert run_cli(argv + ["--k", "4,6,8", "--format", fmt]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_rho_equality_solves_a_base_graph_above_the_symmetric_cap(self, tmp_path):
        # C301 has more vertices than SYMMETRIC_CAP, which bounds the reduced
        # stacks only; its base matrices are solved with the same certificate
        g = cycle_graph(301)
        path, out = tmp_path / "c301.edges", tmp_path / "c301.json"
        path.write_text(format_edge_list(g))
        argv = ["verify", "--check", "rho-equality", "--input", str(path), "--k", "4"]
        assert run_cli(argv + ["--max-subset", "2", "--out", str(out)]) in (0, 3)
        (row,) = json.loads(out.read_text())["rows"]
        bases = g.laplacian_matrix(), g.signless_laplacian_matrix()
        lam, rho_q = (np.linalg.eigvalsh(m)[-1] for m in bases)
        assert row["lambda_max_L"] == pytest.approx(lam, abs=1e-12)
        assert row["rho_Q"] == pytest.approx(rho_q, abs=1e-12)

    def test_rho_equality_rejects_bipartite(self, square_file):
        code = run_cli(
            ["verify", "--input", square_file, "--check", "rho-equality", "--k", "4"]
        )
        assert code == 2

    def test_shrinking_gap(self, triangle_file, tmp_path):
        out = tmp_path / "gap.json"
        code = run_cli(
            [
                "verify",
                "--input",
                triangle_file,
                "--check",
                "shrinking-gap",
                "--k",
                "6,10,14",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        gaps = [row["gap"] for row in payload["rows"]]
        assert gaps == sorted(gaps, reverse=True)

    def test_shrinking_gap_compares_lambda_with_enumerated_rho(self, tmp_path):
        # on C5 the uniform phase radius at k=6 (3.464) lies below
        # lambda_max (3.618); the enumerated rho(L) (3.756) does not
        path = tmp_path / "c5.edges"
        path.write_text(format_edge_list(cycle_graph(5)))
        out = tmp_path / "gap.json"
        code = run_cli(
            [
                "verify",
                "--input",
                str(path),
                "--check",
                "shrinking-gap",
                "--k",
                "6,10,14",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["passed"] and payload["complete"]
        first = payload["rows"][0]
        assert first["rho_uniform_phase"] < first["lambda_max_L"] < first["rho_L"]

    def test_shrinking_gap_rejects_wrong_k(self, triangle_file):
        code = run_cli(
            ["verify", "--input", triangle_file, "--check", "shrinking-gap", "--k", "8"]
        )
        assert code == 2

    def test_failed_check_exits_one(self, triangle_file, tmp_path):
        # a repeated k yields equal gaps, which is not strictly decreasing
        code = run_cli(
            [
                "verify",
                "--input",
                triangle_file,
                "--check",
                "shrinking-gap",
                "--k",
                "6,6",
                "--out",
                str(tmp_path / "gap.json"),
            ]
        )
        assert code == 1

    def test_a_solver_failure_exits_four(self, triangle_file, tmp_path, capsys, monkeypatch):
        # the exhausted budget that a long path meets, without its run time
        def exhausted(m):
            raise ConvergenceError("power iteration budget 100000 exhausted")

        monkeypatch.setattr(cli, "power_iteration_nonneg", exhausted)
        out = tmp_path / "pi.json"
        argv = ["verify", "--input", triangle_file, "--check", "power-invariance"]
        code = run_cli(argv + ["--k", "4", "--out", str(out)])
        assert code == 4
        err = capsys.readouterr().err
        assert err == "error: power iteration budget 100000 exhausted\n"
        assert not out.exists()

    def test_power_invariance(self, triangle_file, tmp_path):
        out = tmp_path / "pi.json"
        code = run_cli(
            [
                "verify",
                "--input",
                triangle_file,
                "--check",
                "power-invariance",
                "--k",
                "4,6",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        for row in payload["rows"]:
            assert row["rho_Q_power"] == pytest.approx(4.0, abs=1e-6)
            assert row["rho_A_power"] == pytest.approx(2.0, abs=1e-6)

    def test_pretty_format(self, triangle_file, tmp_path):
        out = tmp_path / "v.txt"
        code = run_cli(
            [
                "verify",
                "--input",
                triangle_file,
                "--check",
                "rho-equality",
                "--k",
                "4",
                "--format",
                "pretty",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert "PASS" in out.read_text()


class TestCertificateCommand:
    def test_triangle_power_certificates(self, triangle_file, tmp_path):
        hfile = tmp_path / "h.json"
        assert (
            run_cli(["power", "--input", triangle_file, "--k", "4", "--out", str(hfile)])
            == 0
        )
        out = tmp_path / "cert.json"
        code = run_cli(["certificate", "--input", str(hfile), "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["moduli"]["4"]["solvable"]
        assert not payload["moduli"]["2"]["solvable"]
        assert not payload["odd_bipartite"]

    def test_sixth_power_no_certificates(self, triangle_file, tmp_path):
        hfile = tmp_path / "h6.json"
        assert (
            run_cli(["power", "--input", triangle_file, "--k", "6", "--out", str(hfile)])
            == 0
        )
        out = tmp_path / "cert.json"
        code = run_cli(
            [
                "certificate",
                "--input",
                str(hfile),
                "--moduli",
                "2,6,12",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert all(not entry["solvable"] for entry in payload["moduli"].values())

    def test_square_power_m2_certificate(self, square_file, tmp_path):
        hfile = tmp_path / "h.json"
        assert (
            run_cli(["power", "--input", square_file, "--k", "4", "--out", str(hfile)])
            == 0
        )
        out = tmp_path / "cert.json"
        code = run_cli(["certificate", "--input", str(hfile), "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["moduli"]["2"]["solvable"]
        assert payload["odd_bipartite"]

    @pytest.mark.parametrize("moduli", ["0", "-4", "5", "4,5"])
    def test_moduli_that_are_not_even_and_positive_are_input_errors(
        self, triangle_file, tmp_path, capsys, moduli
    ):
        hfile = tmp_path / "h.json"
        assert run_cli(["power", "--input", triangle_file, "--k", "4", "--out", str(hfile)]) == 0
        assert run_cli(["certificate", "--input", str(hfile), "--moduli", moduli]) == 2
        assert "even modulus" in capsys.readouterr().err

    def test_bad_json_is_input_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli(["certificate", "--input", str(bad)]) == 2

    @pytest.mark.parametrize(
        "change",
        [
            {"edges": 5},
            {"edges": [5]},
            {"edges": [[0, None]]},
            {"n": [6]},
            {"half_edges": {"0": 5}},
            {"half_edges": {"0": [True, 1], "1": [2, 3], "2": [4, 5]}},
        ],
        ids=[
            "edges-int",
            "edge-int",
            "vertex-null",
            "n-list",
            "half-edge-int",
            "half-edge-bool",
        ],
    )
    def test_malformed_members_are_input_error(self, triangle_file, tmp_path, capsys, change):
        power = tmp_path / "h.json"
        assert run_cli(["power", "--input", triangle_file, "--k", "4", "--out", str(power)]) == 0
        payload = json.loads(power.read_text())
        payload.update(change)
        power.write_text(json.dumps(payload))
        assert run_cli(["certificate", "--input", str(power)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_non_object_json_is_input_error(self, tmp_path, capsys):
        power = tmp_path / "h.json"
        power.write_text("[1, 2]")
        assert run_cli(["certificate", "--input", str(power)]) == 2
        assert "must be an object" in capsys.readouterr().err

    def test_gapped_half_edge_keys_are_input_error(self, triangle_file, tmp_path):
        power = tmp_path / "h.json"
        assert run_cli(["power", "--input", triangle_file, "--k", "4", "--out", str(power)]) == 0
        payload = json.loads(power.read_text())
        payload["half_edges"] = {"0": [0, 1], "2": [7, 9]}
        power.write_text(json.dumps(payload))
        assert run_cli(["certificate", "--input", str(power)]) == 2


def test_a_hypergraph_that_is_not_json_names_the_file_and_format(
    triangle_file, capsys
):
    assert run_cli(["certificate", "--input", triangle_file]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {triangle_file} is not a hypergraph JSON file")
    assert "hyperspec power" in err


class TestVertexCountCap:
    @pytest.mark.parametrize("count", [2**64, MAX_VERTEX_COUNT + 1])
    def test_edge_list_header_past_the_cap(self, tmp_path, capsys, count):
        path = tmp_path / "huge.edges"
        path.write_text(f"{count} 0\n")
        tracemalloc.start()
        try:
            code = run_cli(["spectrum", "--input", str(path), "--k", "4"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "exceeds the cap" in capsys.readouterr().err
        assert peak < 2**20

    @pytest.mark.parametrize("count", [2**64, MAX_VERTEX_COUNT + 1])
    def test_hypergraph_json_n_past_the_cap(self, tmp_path, capsys, count):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"n": count, "k": 4, "edges": []}))
        tracemalloc.start()
        try:
            code = run_cli(["certificate", "--input", str(path)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "exceeds the cap" in capsys.readouterr().err
        assert peak < 2**20

    def test_the_cap_itself_is_accepted(self):
        h, _ = from_json_dict({"n": MAX_VERTEX_COUNT, "k": 4, "edges": []})
        assert h.vertex_count == MAX_VERTEX_COUNT

    @pytest.mark.parametrize("k", [2**62 - 2, 10**12, MAX_VERTEX_COUNT + 1])
    def test_hypergraph_json_k_past_the_cap(self, tmp_path, capsys, k):
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"n": 1, "k": k, "edges": []}))
        tracemalloc.start()
        try:
            code = run_cli(["certificate", "--input", str(path)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert f"edge rank {k} exceeds the cap" in capsys.readouterr().err
        assert peak < 2**20

    def test_a_rank_at_the_cap_is_certified(self, tmp_path, capsys):
        # no edge fits, so the systems at 2 and k have no rows
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"n": 1, "k": MAX_VERTEX_COUNT, "edges": []}))
        assert run_cli(["certificate", "--input", str(path), "--format", "csv"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "modulus,solvable",
            "2,True",
            f"{MAX_VERTEX_COUNT},True",
            f"{2 * MAX_VERTEX_COUNT},True",
        ]

    @pytest.mark.parametrize("k", [4 * 10**12, 2**21])
    def test_power_past_the_cap(self, triangle_file, capsys, k):
        tracemalloc.start()
        try:
            code = run_cli(["power", "--input", triangle_file, "--k", str(k)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert f"vertex count {3 * k // 2} exceeds the cap" in capsys.readouterr().err
        assert peak < 2**20


def run_python(*args):
    """stdout of ``python <args>`` run on this checkout's package."""
    src = str(Path(hyperspec.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def run_module(module, argv):
    """stdout of ``python -m <module> <argv>`` run on this checkout's package."""
    return run_python("-m", module, *argv)


def test_importing_the_cli_loads_no_pool_and_starts_no_thread():
    # solves start their threads per call; a pool module would add import time
    # and resident memory to every run
    probe = (
        "import sys, threading, hyperspec.cli; "
        "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)), "
        "threading.active_count())"
    )
    assert run_python("-c", probe).split() == [b"[]", b"1"]


class TestModuleEntryPoint:
    def test_python_dash_m_matches_main(self, triangle_file, capsys):
        assert run_cli(["spectrum", "--input", triangle_file, "--k", "4"]) == 0
        want = capsys.readouterr().out.encode()
        assert run_module("hyperspec", ["spectrum", "--input", triangle_file, "--k", "4"]) == want

    def test_cli_module_matches_package_module(self, triangle_file):
        argv = ["spectrum", "--input", triangle_file, "--k", "4"]
        want = run_module("hyperspec", argv)
        assert want
        assert run_module("hyperspec.cli", argv) == want
