"""End-to-end CLI coverage: exit codes, JSON shapes, file round trips."""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btzgeo import cli
from btzgeo.develop import btz_holonomy_generator, massive_holonomy_generator
from btzgeo.surfaces import GraphSurface


def run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, argv):
    code, out = run_cli(capsys, argv)
    return code, json.loads(out)


def write_chart(path, angle, with_line, holonomy):
    path.write_text(json.dumps({
        "angle": angle,
        "radius": 1.0,
        "t_min": -1.0,
        "t_max": 1.0,
        "has_singular_line": with_line,
        "holonomy": holonomy.linear.tolist(),
    }))
    return path


class TestVerifyCommand:
    def test_single_suite_report(self, capsys):
        code, report = run_json(
            capsys, ["verify", "--suite", "lorentz", "--seed", "7", "--no-timing"]
        )
        assert code == 0
        assert report["command"] == "verify"
        assert report["suites"] == ["lorentz"]
        assert report["summary"]["status"] == "pass"
        assert report["summary"]["total"] == report["summary"]["passed"]
        for check in report["checks"]:
            assert check["status"] == "pass"
            assert check["time_s"] is None
            assert {"suite", "check", "residual", "tolerance", "seed"} <= set(check)

    def test_seed7_report_digest(self, capsys, tmp_path):
        # the perfbench verify_all golden, pinned in full
        out = tmp_path / "verify.json"
        argv = ["verify", "--suite", "all", "--seed", "7", "--no-timing", "--out", str(out)]
        assert cli.main(argv) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "62dc0701f172081f3aac3d036f19aae05a33073bf501d3af6c6d476e648974ea"
        )

    def test_seeds_1_to_10_report_digest(self, capsys, tmp_path):
        # every suite's random draws over ten seeds, not only the benchmark's seed 7
        digest = hashlib.sha256()
        for seed in range(1, 11):
            out = tmp_path / f"verify{seed}.json"
            argv = ["verify", "--suite", "all", "--seed", str(seed), "--no-timing",
                    "--out", str(out)]
            assert cli.main(argv) == 0
            digest.update(out.read_bytes())
        assert digest.hexdigest() == (
            "b3fb55b8bbda124bd67ef117b912bdf4a05a984dde68617495ee88a83166ef2d"
        )

    def test_no_timing_is_byte_deterministic(self, capsys):
        argv = ["verify", "--suite", "lorentz", "--seed", "7", "--no-timing"]
        _, first = run_cli(capsys, argv)
        _, second = run_cli(capsys, argv)
        assert first == second

    def test_timing_present_by_default(self, capsys):
        code, report = run_json(capsys, ["verify", "--suite", "modular"])
        assert code == 0
        assert all(isinstance(c["time_s"], float) for c in report["checks"])

    def test_out_file(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code = cli.main(
            ["verify", "--suite", "modular", "--no-timing", "--out", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text())["summary"]["status"] == "pass"
        assert capsys.readouterr().out == ""


class TestCausalCommands:
    def test_check_valid_curve(self, capsys, tmp_path):
        curve = tmp_path / "curve.csv"
        curve.write_text("0,0.5,0\n0.5,0.6,0\n1.0,0.7,0\n")
        code, report = run_json(capsys, ["causal", "check", "--curve", str(curve)])
        assert code == 0
        assert report["kind"] == "valid-chronological"
        assert report["first_violation"] is None
        assert report["n_samples"] == 3

    def test_check_violating_curve(self, capsys, tmp_path):
        curve = tmp_path / "curve.csv"
        curve.write_text("0,0.5,0\n-0.5,0.6,0\n")
        code, report = run_json(capsys, ["causal", "check", "--curve", str(curve)])
        assert code == 1
        assert report["kind"] == "violation"
        assert report["first_violation"] == 0

    def test_jplus_relations(self, capsys):
        cases = [
            (["0", "1", "0"], ["2", "1.5", "0"], "inside"),
            (["0", "1", "0"], ["-1", "1", "0"], "outside"),
            (["0", "0", "0"], ["0.5", "1", "0"], "boundary"),
            # a negative number in scientific notation is a value, not an option
            (["0", "1", "0"], ["1", "1", "-1e-5"], "boundary"),
        ]
        for point, target, want in cases:
            code, report = run_json(
                capsys,
                ["causal", "jplus", "--point", *point, "--target", *target],
            )
            assert code == 0
            assert report["relation"] == want

    def test_volumetime_at_regular_point(self, capsys):
        code, report = run_json(
            capsys,
            ["causal", "volumetime", "--point", "0.5", "1.0", "0.0",
             "--radius", "2.0", "--t-min", "-0.5", "--t-max", "2.0",
             "--n", "4000", "--seed", "3"],
        )
        assert code == 0
        assert math.isfinite(report["value"])
        assert report["past_volume"] > 0.0 and report["future_volume"] > 0.0

    def test_volumetime_degenerate_exit(self, capsys):
        code, report = run_json(
            capsys,
            ["causal", "volumetime", "--point", "0.0", "0.0", "0.0",
             "--t-min", "0.0", "--t-max", "2.0", "--weight1", "0.0",
             "--n", "2000"],
        )
        assert code == 1
        assert report["error"]["type"] == "DegenerateMeasureError"
        assert report["error"]["side"] == "past"
        assert report["error"]["estimate"] == 0.0


class TestDevelopCommands:
    def test_sample_csv(self, capsys, tmp_path):
        out = tmp_path / "cloud.csv"
        code = cli.main(
            ["develop", "sample", "--n", "50", "--seed", "1", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "tau,r,theta,t,x,y"
        assert len(lines) == 51
        rows = np.loadtxt(str(out), delimiter=",", skiprows=1)
        # image satisfies t - x = r identically for the null-line model
        assert np.max(np.abs(rows[:, 3] - rows[:, 4] - rows[:, 1])) < 1e-12

    def test_holonomy_report(self, capsys):
        code, report = run_json(capsys, ["develop", "holonomy", "--alpha", "0"])
        assert code == 0
        assert report["command"] == "develop holonomy"
        gamma = np.asarray(report["holonomy_matrix"])
        assert abs(np.trace(gamma) - 3.0) < 1e-12
        assert report["holonomy_class"] == "parabolic"


class TestSurfaceCommands:
    def test_extend_then_check_round_trip(self, capsys, tmp_path):
        boundary = tmp_path / "boundary.json"
        boundary.write_text(json.dumps({"constant": 1.0, "cos": [0.2], "sin": [0.1]}))
        surf_file = tmp_path / "surface.json"
        code, report = run_json(
            capsys,
            ["surface", "extend", "--boundary", str(boundary),
             "--R", "1.0", "--out", str(surf_file)],
        )
        assert code == 0
        assert report["certified"] is True
        assert report["min_r2_delta"] > 1.0

        code, report = run_json(
            capsys, ["surface", "check", "--surface", str(surf_file)]
        )
        assert code == 0
        assert report["spacelike"] is True
        assert report["punctured"] is True
        assert report["completeness_certificate"] >= 1.0

    def test_cap_then_check(self, capsys, tmp_path):
        boundary = tmp_path / "boundary.json"
        boundary.write_text(json.dumps({"constant": 0.5, "cos": [0.1], "sin": []}))
        surf_file = tmp_path / "cap.json"
        code, report = run_json(
            capsys,
            ["surface", "cap", "--boundary", str(boundary), "--out", str(surf_file)],
        )
        assert code == 0
        assert report["certified_min_delta"] > 1e-9

        code, report = run_json(
            capsys, ["surface", "check", "--surface", str(surf_file)]
        )
        assert code == 0
        assert report["spacelike"] is True
        assert "completeness_certificate" not in report

    def test_cap_file_still_crosses_the_line(self, capsys, tmp_path):
        # the cap is a disc through r = 0 and must reload as one, not as an
        # annulus from its first sampled radius
        boundary = tmp_path / "flat.json"
        boundary.write_text("{}")
        cap_file = tmp_path / "cap.json"
        code, _ = run_json(
            capsys,
            ["surface", "cap", "--boundary", str(boundary), "--R", "1", "--out", str(cap_file)],
        )
        assert code == 0
        zero = lambda r, th: np.zeros(np.broadcast(r, th).shape)
        ring_file = tmp_path / "ring.json"
        ring = GraphSurface.from_functions(0.0, 2.0, zero, zero, zero, r_inner=1.0)
        cli._surface_to_file(ring, ring_file, n_r=16, n_theta=16)
        code, report = run_json(
            capsys,
            ["surface", "assemble", "--outer", str(ring_file), "--inner", str(cap_file)],
        )
        assert report["crosses_line"] is True
        assert code == 0 and report["spacelike"] is True

    @pytest.mark.parametrize("cell, column, value", [((5, 7), 0, 123.0), ((9, 3), 1, -50.0)])
    def test_check_rejects_grid_off_the_tensor_grid(self, capsys, tmp_path, cell, column, value):
        # every row's r and theta must be its grid node's, not only the
        # first column's radii and the first row's angles
        zero = lambda r, th: np.zeros(np.broadcast(r, th).shape)
        disc = GraphSurface.from_functions(0.0, 1.0, zero, zero, zero)
        surf_file = tmp_path / "disc.json"
        cli._surface_to_file(disc, surf_file, n_r=16, n_theta=16)
        data = json.loads(surf_file.read_text())
        data["grid"][16 * cell[0] + cell[1]][column] = value
        surf_file.write_text(json.dumps(data))
        with pytest.raises(SystemExit) as exc:
            cli.main(["surface", "check", "--surface", str(surf_file)])
        assert exc.value.code == 2
        assert "cannot load" in capsys.readouterr().err

    def test_check_rejects_theta_nodes_off_zero(self, capsys, tmp_path):
        zero = lambda r, th: np.zeros(np.broadcast(r, th).shape)
        disc = GraphSurface.from_functions(0.0, 1.0, zero, zero, zero)
        surf_file = tmp_path / "disc.json"
        cli._surface_to_file(disc, surf_file, n_r=8, n_theta=16)
        data = json.loads(surf_file.read_text())
        data["grid"] = [[r, th + 0.3, tau] for r, th, tau in data["grid"]]
        surf_file.write_text(json.dumps(data))
        with pytest.raises(SystemExit) as exc:
            cli.main(["surface", "check", "--surface", str(surf_file)])
        assert exc.value.code == 2
        assert "theta_nodes" in capsys.readouterr().err

    def test_assemble_happy_and_mismatch(self, capsys, tmp_path):
        zero = lambda r, th: np.zeros(np.broadcast(r, th).shape)
        level = lambda c: lambda r, th: np.full(np.broadcast(r, th).shape, c)
        ring = GraphSurface.from_functions(
            0.0, 1.0, level(3.0), zero, zero, r_inner=0.5
        )
        disc = GraphSurface.from_functions(0.0, 0.5, level(3.0), zero, zero)
        shifted = GraphSurface.from_functions(0.0, 0.5, level(4.0), zero, zero)
        ring_file = tmp_path / "ring.json"
        disc_file = tmp_path / "disc.json"
        shifted_file = tmp_path / "shifted.json"
        cli._surface_to_file(ring, ring_file, n_r=32, n_theta=32)
        cli._surface_to_file(disc, disc_file, n_r=32, n_theta=32)
        cli._surface_to_file(shifted, shifted_file, n_r=32, n_theta=32)

        code, report = run_json(
            capsys,
            ["surface", "assemble", "--outer", str(ring_file),
             "--inner", str(disc_file)],
        )
        assert code == 0
        assert report["spacelike"] is True
        assert report["max_mismatch"] < 1e-9
        assert report["interface_radius"] == pytest.approx(0.5)

        code, report = run_json(
            capsys,
            ["surface", "assemble", "--outer", str(ring_file),
             "--inner", str(shifted_file)],
        )
        assert code == 1
        assert "error" in report


class TestExtendCommands:
    def test_adjoin_punctured_chart(self, capsys, tmp_path):
        chart = write_chart(
            tmp_path / "chart.json", 0.0, False, btz_holonomy_generator()
        )
        code, report = run_json(capsys, ["extend", "adjoin", "--chart", str(chart)])
        assert code == 0
        assert report["chart"]["has_singular_line"] is True

    def test_adjoin_massive_chart_fails(self, capsys, tmp_path):
        # a massive chart without its line is not BTZ-extendable (the chart
        # with the line would be returned unchanged by idempotence)
        chart = write_chart(
            tmp_path / "chart.json", math.pi, False, massive_holonomy_generator(math.pi)
        )
        code, report = run_json(capsys, ["extend", "adjoin", "--chart", str(chart)])
        assert code == 1
        assert "error" in report

    def test_remove_writes_surface(self, capsys, tmp_path):
        chart = write_chart(
            tmp_path / "chart.json", 0.0, True, btz_holonomy_generator()
        )
        surf_file = tmp_path / "end.json"
        code, report = run_json(
            capsys,
            ["extend", "remove", "--chart", str(chart),
             "--surface-out", str(surf_file)],
        )
        assert code == 0
        assert report["chart"]["has_singular_line"] is False
        data = json.loads(surf_file.read_text())
        assert data["punctured"] is True

    def test_remove_grid_sets_both_axes(self, capsys, tmp_path):
        chart = write_chart(
            tmp_path / "chart.json", 0.0, True, btz_holonomy_generator()
        )
        surf_file = tmp_path / "end.json"
        code, _ = run_json(
            capsys,
            ["extend", "remove", "--chart", str(chart),
             "--surface-out", str(surf_file), "--grid", "16"],
        )
        assert code == 0
        assert json.loads(surf_file.read_text())["grid_shape"] == [16, 16]

    def test_remove_without_line_fails(self, capsys, tmp_path):
        chart = write_chart(
            tmp_path / "chart.json", 0.0, False, btz_holonomy_generator()
        )
        code, report = run_json(capsys, ["extend", "remove", "--chart", str(chart)])
        assert code == 1
        assert "error" in report

    def test_example_chain(self, capsys):
        code, report = run_json(
            capsys, ["extend", "example-chain", "--n", "500", "--seed", "2"]
        )
        assert code == 0
        assert report["status"] == "pass"
        assert report["cited_ok"] is True
        assert report["monotonicity_failures"] == 0
        assert report["stages"] == ["M0", "M1", "M2", "M3"]


class TestModularCommands:
    def test_build_report(self, capsys):
        code, report = run_json(capsys, ["modular", "build"])
        assert code == 0
        assert np.array_equal(
            np.asarray(report["generators"]["S"]), np.diag([1.0, -1.0, -1.0])
        )
        assert all(v < 1e-12 for v in report["relation_residuals"].values())
        kinds = {e["label"]: e["kind"] for e in report["edges"]}
        assert kinds == {"B": "massive", "A~C": "massive", "INF": "extremal"}

    def test_surface_with_csv(self, capsys, tmp_path):
        csv = tmp_path / "soup.csv"
        code, report = run_json(
            capsys, ["modular", "surface", "--t0", "1.0", "--csv", str(csv)]
        )
        assert code == 0
        assert report["angle_sum_ok"] is True
        assert report["euler"] == {"V": 3, "E": 3, "F": 2, "chi": 2}
        lines = csv.read_text().strip().split("\n")
        assert lines[0] == "face,corner,x,y"
        assert len(lines) == 7

    def test_rays_all_hit_once(self, capsys):
        code, report = run_json(capsys, ["modular", "rays", "--n", "100"])
        assert code == 0
        assert report["hits_once"] == 100
        assert report["status"] == "pass"

    def test_output_digests(self, capsys, tmp_path):
        # the reports and the triangle soup, pinned in full
        def digest(data):
            return hashlib.sha256(data).hexdigest()[:16]

        csv = tmp_path / "soup.csv"
        runs = {
            ("modular", "build"): "89f1b167dac36c3d",
            ("modular", "surface", "--t0", "1.7", "--csv", str(csv)): "7f700b491afdf10b",
            ("modular", "rays", "--n", "1000"): "7cedebf82a8e0286",
            ("modular", "rays", "--n", "20000", "--seed", "3", "--t0", "2.5"):
                "a15ceda1cab46e90",
        }
        for argv, expected in runs.items():
            code, out = run_cli(capsys, list(argv))
            assert code == 0
            assert digest(out.encode()) == expected, argv
        assert digest(csv.read_bytes()) == "40c7433c05bc3268"


class TestConefield:
    def test_angular_width_diverges(self, capsys, tmp_path):
        out = tmp_path / "cones.csv"
        code, report = run_json(
            capsys,
            ["conefield", "--r-min", "0.001", "--r-max", "1.0",
             "--n-radii", "3", "--n-dirs", "32", "--out", str(out)],
        )
        assert code == 0
        widths = report["max_abs_v_theta"]
        assert widths[0] == pytest.approx(1000.0)
        assert widths[-1] == pytest.approx(1.0)
        assert widths == sorted(widths, reverse=True)
        assert report["on_line_v_theta"] == 0.0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "r,psi,v_t,v_r,v_theta,kind"
        assert len(lines) == 1 + 3 * 32 + 2
        assert lines[-1].split(",")[-1] in ("line-exit", "line-tangent")


def _reject_constant(name):
    raise AssertionError(f"non-standard JSON constant {name}")


class TestDomainErrors:
    """Domain errors become one JSON report with exit 1, never a traceback."""

    @pytest.mark.parametrize("argv", [
        ["causal", "check", "--curve", "{nan_curve}"],
        ["causal", "check", "--curve", "{one_row}"],
        ["causal", "jplus", "--point", "0", "-1", "0", "--target", "1", "1", "0"],
        ["causal", "jplus", "--point", "0", "1e200", "0", "--target", "1", "1", "0"],
        ["causal", "volumetime", "--point", "0.5", "3", "0"],
        ["causal", "volumetime", "--point", "0.5", "1", "0", "--radius", "-1"],
        ["causal", "volumetime", "--point", "0.5", "1", "0", "--weight3", "-1"],
        ["causal", "volumetime", "--point", "0.5", "1", "0", "--t-min", "3"],
        ["develop", "sample", "--alpha", "-1"],
        ["develop", "holonomy", "--alpha", "-1"],
        ["surface", "extend", "--R", "-1"],
        ["surface", "cap", "--R", "0"],
        ["modular", "surface", "--t0", "-1"],
        ["modular", "rays", "--t0", "0"],
        ["conefield", "--alpha", "-1"],
        ["conefield", "--r-min", "-1", "--r-max", "-0.5"],
        # finite input whose report would hold an infinity or a NaN
        ["surface", "extend", "--R=1.7976931348623157e+308"],
        ["modular", "surface", "--t0=2e-225"],
    ])
    def test_error_report(self, capsys, tmp_path, argv):
        curves = {"{nan_curve}": "0,nan,0\n1,1,0\n", "{one_row}": "0,0.5,0\n"}
        curve = tmp_path / "curve.csv"
        for placeholder, content in curves.items():
            if placeholder in argv:
                curve.write_text(content)
        argv = [str(curve) if a in curves else a for a in argv]
        code = cli.main(argv)
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert code == 1
        assert captured.err == ""
        assert report["command"] == " ".join(a for a in argv[:2] if not a.startswith("-"))
        assert report["error"]["type"]
        assert report["error"]["message"]

    @given(
        st.sampled_from([
            ["causal", "jplus", "--point", "{0}", "{1}", "{2}", "--target", "1", "1", "0"],
            ["conefield", "--alpha={0}", "--r-min={1}", "--r-max={2}", "--n-dirs", "4"],
            ["surface", "extend", "--R={0}"],
            ["modular", "surface", "--t0={0}"],
            ["develop", "holonomy", "--alpha={0}"],
        ]),
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=3, max_size=3),
    )
    @settings(max_examples=150, deadline=None)
    def test_fuzzed_floats_never_traceback(self, template, values):
        # every finite float is a valid option value: never a usage error
        argv = [a.format(*map(repr, values)) for a in template]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                pytest.fail(f"exit {exc.code} for {argv}")
        assert code in (0, 1)
        json.loads(out.getvalue(), parse_constant=_reject_constant)


class TestUsageErrors:
    def test_no_command(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

    def test_unknown_suite(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--suite", "bogus"])
        assert exc.value.code == 2

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["causal"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["causal", "jplus", "--point", "0", "inf", "0", "--target", "1", "1", "0"],
        ["causal", "jplus", "--point", "0", "1", "0", "--target", "nan", "1", "0"],
        ["causal", "volumetime", "--point", "0.5", "1", "0", "--n", "0"],
        ["modular", "rays", "--n", "-5"],
        ["modular", "surface", "--t0", "-inf"],
        ["surface", "cap", "--R", "1e400"],
        ["conefield", "--n-radii", "0"],
        ["conefield", "--n-dirs", "2.5"],
    ])
    def test_non_finite_or_non_positive(self, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2

    def test_non_numeric_float_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["surface", "cap", "--R", "abc"])
        assert exc.value.code == 2
        assert "expected a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("holonomy", [
        [[2.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],  # not eta-orthogonal
        [[1e200, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],  # checks overflow
        [btz_holonomy_generator().linear.tolist()] * 2,  # a stack, not one isometry
    ])
    def test_chart_holonomy_not_an_isometry(self, tmp_path, capsys, holonomy):
        chart = tmp_path / "chart.json"
        chart.write_text(json.dumps({
            "angle": 0.0, "radius": 1.0, "t_min": -1.0, "t_max": 1.0,
            "has_singular_line": False, "holonomy": holonomy,
        }))
        with pytest.raises(SystemExit) as exc:
            cli.main(["extend", "adjoin", "--chart", str(chart)])
        assert exc.value.code == 2
        assert "cannot load" in capsys.readouterr().err

    @pytest.mark.parametrize("writer", [
        ["surface", "extend", "--out"], ["surface", "cap", "--out"],
        ["extend", "remove", "--surface-out"],
    ])
    def test_surface_files_need_three_nodes(self, tmp_path, capsys, writer):
        # from_grid's second-order radial difference needs three nodes, so a
        # coarser file could be written but not read back
        chart = write_chart(tmp_path / "chart.json", 0.0, True, btz_holonomy_generator())
        extra = ["--chart", str(chart)] if writer[0] == "extend" else []
        for grid in ("1", "2"):
            out = tmp_path / f"grid{grid}.json"
            with pytest.raises(SystemExit) as exc:
                cli.main([*writer, str(out), *extra, "--grid", grid])
            assert exc.value.code == 2
            assert "at least 3 nodes" in capsys.readouterr().err
            assert not out.exists()
        out = tmp_path / "grid3.json"
        assert cli.main([*writer, str(out), *extra, "--grid", "3"]) == 0
        assert json.loads(out.read_text())["grid_shape"] == [3, 3]
        capsys.readouterr()
        # three nodes read back; so coarse a sample is judged on its own
        # bilinear surface, which need not be spacelike (exit 1, not 2)
        code, report = run_json(capsys, ["surface", "check", "--surface", str(out)])
        assert code in (0, 1) and math.isfinite(report["min_delta"])

    def test_missing_curve_file(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["causal", "check", "--curve", str(tmp_path / "absent.csv")])
        assert exc.value.code == 2
        assert "cannot load" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["verify", "--suite", "lorentz"],
        ["surface", "extend"],
    ])
    def test_missing_out_directory(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--out", str(tmp_path / "absent" / "out.json")])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("content", [
        None,  # missing file
        "not json",
        '{"constant": "x"}',
        '{"constant": NaN}',
        '{"cos": 5}',
        "[1, 2]",
    ])
    @pytest.mark.parametrize("option", [
        ["surface", "extend", "--boundary"],
        ["surface", "cap", "--boundary"],
        ["surface", "check", "--surface"],
        ["extend", "adjoin", "--chart"],
    ])
    def test_bad_input_file(self, tmp_path, capsys, option, content):
        path = tmp_path / "input.json"
        if content is not None:
            path.write_text(content)
        with pytest.raises(SystemExit) as exc:
            cli.main([*option, str(path)])
        assert exc.value.code == 2
        assert "cannot load" in capsys.readouterr().err


class TestModuleEntryPoint:
    @staticmethod
    def _run(*argv):
        # a fresh interpreter that imports the btzgeo under test, installed or not
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, *argv],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        )

    def test_python_dash_m(self):
        out = self._run("-m", "btzgeo", "verify", "--suite", "modular", "--seed", "7",
                        "--no-timing")
        assert out.returncode == 0
        report = json.loads(out.stdout)
        assert report["summary"]["status"] == "pass"

    def test_help_exits_zero(self):
        out = self._run("-m", "btzgeo", "--help")
        assert out.returncode == 0
        assert "btzgeo" in out.stdout

    def test_import_loads_no_scipy(self):
        # numpy is the only runtime dependency; scipy is for the tests
        out = self._run("-c", "import sys, btzgeo, btzgeo.cli; "
                        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]"
