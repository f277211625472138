import itertools
import json
import math
import os
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spherecurve as sc
from spherecurve import classify, cli


def run_cli(*argv):
    return cli.main(list(argv))


class TestGen:
    def test_circle_round_trip(self, tmp_path):
        out = tmp_path / "c.json"
        assert run_cli("gen", "circle", "--rho", str(math.pi / 4), "--k", "2",
                       "--kappa1", "0", "-o", str(out)) == 0
        curve = sc.load_curve(out)
        assert curve.closed
        assert abs(sc.total_curvature(curve) - 4 * math.pi) < 1e-6

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["gen", "circle", "--rho", "0.8", "--k", "1", "--kappa1", "0"]
        assert run_cli(*args, "-o", str(a)) == 0
        assert run_cli(*args, "-o", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bending_frame_max_curvature(self, tmp_path):
        out = tmp_path / "b.json"
        assert run_cli("gen", "bending-frame", "--k", "1", "--s", "0.5",
                       "-n", "256", "-o", str(out)) == 0
        curve = sc.load_curve(out)
        assert abs(np.abs(curve.kappa).max() - 1.0) < 1e-6

    def test_gen_reclassifies_identically(self, tmp_path):
        out = tmp_path / "c.json"
        rep1, rep2 = tmp_path / "r1.json", tmp_path / "r2.json"
        run_cli("gen", "circle", "--rho", "0.7", "--k", "3", "--kappa1", "0",
                "-n", "256", "-o", str(out))
        assert run_cli("classify", str(out), "-o", str(rep1)) == 0
        assert run_cli("classify", str(out), "-o", str(rep2)) == 0
        assert rep1.read_bytes() == rep2.read_bytes()


class TestClassify:
    def test_circle_labels(self, tmp_path):
        out = tmp_path / "c.json"
        rep = tmp_path / "r.json"
        run_cli("gen", "circle", "--rho", "0.9", "--k", "3", "--kappa1", "0",
                "-n", "256", "-o", str(out))
        assert run_cli("classify", str(out), "-o", str(rep)) == 0
        doc = json.loads(rep.read_text())
        assert doc["n"] == 3 and doc["j"] == 3
        assert doc["nu"] == 3
        assert doc["parity"] == -1

    def test_sigma1_label(self, tmp_path):
        out, rep = tmp_path / "c.json", tmp_path / "r.json"
        run_cli("gen", "circle", "--rho", "0.9", "--k", "1", "--kappa1", "0",
                "-n", "256", "-o", str(out))
        run_cli("classify", str(out), "-o", str(rep))
        doc = json.loads(rep.read_text())
        assert (doc["n"], doc["j"], doc["nu"]) == (3, 1, 1)

    def test_malformed_json_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli("classify", str(bad)) == 2

    @staticmethod
    def _placed_labels(tmp_path, curve):
        """The label files of `curve` under two seeded random rotations."""
        from conftest import random_rotation
        rng = np.random.default_rng(6)
        labels = []
        for i in range(2):
            path, rep = tmp_path / f"c{i}.json", tmp_path / f"r{i}.json"
            placed = curve.rotated(random_rotation(rng))
            path.write_text(cli.dumps(sc.curve_to_json(placed)))
            assert run_cli("classify", str(path), "-o", str(rep)) == 0
            labels.append(json.loads(rep.read_text()))
        return labels

    @pytest.mark.parametrize("bounds,turns,loops", [
        ((1.0, 4.0), 2, 2),          # a circle with two loops, n = 6
        ((2.0, math.inf), 3, 0),     # a 3-fold circle, n = 7
    ])
    def test_margin_is_placement_invariant(self, tmp_path, bounds, turns, loops):
        bounds = sc.CurvatureBounds(*bounds)
        rho = 0.5 * (bounds.rho1 + bounds.rho2)
        if loops:
            hi = min(bounds.rho1, 1.0)
            curve = sc.add_loops(sc.make_circle(rho, turns, bounds, n=512), 0.5,
                                 loops, bounds.rho2 + 0.4 * (hi - bounds.rho2), 0.05)
        else:
            curve = sc.make_circle(rho, turns, bounds, n=1024)
        margins = [doc["margin"] for doc in self._placed_labels(tmp_path, curve)]
        assert abs(margins[0] - margins[1]) <= 1e-12
        assert margins[0] > classify._BORDERLINE_MARGIN

    @pytest.mark.parametrize("case", ["diffuse", "circle"])
    def test_certified_margin_is_placement_invariant(self, tmp_path, case):
        # non-condensed clouds whose margin is the support-hull bound: the
        # stencil turns with the cloud's principal frame, so the bound
        # moves only at roundoff
        from spherecurve import factory
        if case == "diffuse":
            curve = factory.diffuse_example()
        else:        # a 3-fold circle under (-1, +inf), n = 2
            curve = sc.make_circle(1.9, 3, sc.CurvatureBounds(-1.0, math.inf),
                                   n=1024)
        first, second = self._placed_labels(tmp_path, curve)
        assert abs(first["margin"] - second["margin"]) <= 1e-12
        assert first["margin"] < -classify._BORDERLINE_MARGIN
        assert first["margin_exact"] is second["margin_exact"] is False
        fields = ("n", "j", "condensed", "nu", "parity", "borderline", "status")
        assert [first[k] for k in fields] == [second[k] for k in fields]

    def test_strict_borderline_exit_3(self, tmp_path):
        out, rep = tmp_path / "c.json", tmp_path / "r.json"
        # geodesic circle in kappa0 < 0: equatorial margin, borderline
        run_cli("gen", "circle", "--rho", str(math.pi / 2), "--k", "1",
                "--kappa1", "-1", "-n", "256", "-o", str(out))
        assert run_cli("classify", str(out), "--strict", "-o", str(rep)) == 3
        doc = json.loads(rep.read_text())
        assert doc["borderline"] is True


class TestStreams:
    def test_bend_jsonl(self, tmp_path):
        out = tmp_path / "bend.jsonl"
        assert run_cli("bend", "--k", "1", "--steps", "7", "-n", "256",
                       "-o", str(out)) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 8
        report = json.loads(lines[-1])
        assert report["pass"] is True
        assert set(report["parities"]) == {-1}
        first = sc.curve_from_json(json.loads(lines[0]))
        assert abs(sc.total_curvature(first) - 2 * math.pi) < 1e-6

    def test_validate_stream(self, tmp_path):
        out = tmp_path / "bend.jsonl"
        rep = tmp_path / "rep.json"
        run_cli("bend", "--k", "1", "--steps", "5", "-n", "256", "-o", str(out))
        assert run_cli("validate", str(out), "-o", str(rep)) == 0
        report = json.loads(rep.read_text())
        assert report["pass"] is True and len(report["parities"]) == 5

    @pytest.mark.parametrize("corrupt", ["no_v_hat", "list", "report_first"])
    def test_validate_rejects_a_malformed_frame(self, corrupt, tmp_path, capsys):
        # only the last line may be skipped, as the stream's report
        out = tmp_path / "bend.jsonl"
        run_cli("bend", "--k", "1", "--steps", "5", "-n", "64", "-o", str(out))
        lines = out.read_text().splitlines()
        doc = json.loads(lines[2])
        del doc["v_hat"]
        lines[2] = {"no_v_hat": json.dumps(doc), "list": "[1, 2, 3]",
                    "report_first": lines[-1]}[corrupt]
        out.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run_cli("validate", str(out), "-o", str(tmp_path / "rep.json")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_validate_rejects_mixed_bounds(self, order, tmp_path, capsys):
        # one bound contract per path: judged in the first frame's bounds,
        # the verdict would depend on the order of the lines
        docs = []
        for rho, kappa1 in (("1.0", "-1"), ("0.3", "2")):
            c = tmp_path / "c.json"
            run_cli("gen", "circle", "--rho", rho, "--k", "1", "--kappa1", kappa1,
                    "-n", "64", "-o", str(c))
            docs.append(c.read_text().strip())
        stream = tmp_path / "mixed.jsonl"
        stream.write_text("\n".join(docs[i] for i in order) + "\n")
        rep = tmp_path / "rep.json"
        capsys.readouterr()
        assert run_cli("validate", str(stream), "-o", str(rep)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError") and err.count("\n") == 1
        assert "(-1.0, inf)" in err and "(2.0, inf)" in err
        assert not rep.exists()

    def test_graft_auto_resolves_the_neither_example(self, tmp_path):
        # every Neither status along the chain is far from borderline, so
        # each has a simplex to graft at, and the loop ends resolved
        c = tmp_path / "ne.json"
        out = tmp_path / "g.jsonl"
        assert run_cli("gen", "neither-example", "--rho0", "0.5", "-o", str(c)) == 0
        assert run_cli("graft", str(c), "--mode", "auto", "-o", str(out)) == 0
        with open(out) as fh:
            *_, last = fh
        assert json.loads(last)["status"] != "Neither"

    def test_loops_roundtrip(self, tmp_path):
        c = tmp_path / "c.json"
        out = tmp_path / "l.jsonl"
        run_cli("gen", "circle", "--rho", "0.8", "--k", "1", "--kappa1", "0",
                "-n", "256", "-o", str(c))
        assert run_cli("loops", str(c), "--t0", "0.5", "--n-loops", "1",
                       "--rho", "0.3", "--epsilon", "0.05", "-o", str(out)) == 0
        lines = out.read_text().strip().splitlines()
        report = json.loads(lines[-1])
        assert report["parity_after"] == -report["parity_before"]

    def test_graft_auto_on_diffuse_returns_immediately(self, tmp_path, diffuse_curve):
        c = tmp_path / "d.json"
        out = tmp_path / "g.jsonl"
        c.write_text(cli.dumps(sc.curve_to_json(diffuse_curve)))
        assert run_cli("graft", str(c), "--mode", "auto", "--budget", "1.0",
                       "-o", str(out)) == 0
        lines = out.read_text().strip().splitlines()
        report = json.loads(lines[-1])
        assert report["status"] in ("Diffuse", "Both")
        assert report["steps"] == 0

    def test_shrink_stream(self, tmp_path):
        c = tmp_path / "c.json"
        out = tmp_path / "s.jsonl"
        run_cli("gen", "circle", "--rho", "0.7", "--k", "2", "--kappa1", "0",
                "-n", "256", "-o", str(c))
        assert run_cli("shrink", str(c), "--steps", "9", "-o", str(out)) == 0
        lines = out.read_text().strip().splitlines()
        assert json.loads(lines[-1])["pass"] is True
        assert len(lines) == 10

    @pytest.mark.parametrize("argv", [
        ["bend", "--steps", "5", "-n", "64"],
        ["shrink", "CIRCLE", "--steps", "5"],
        ["gen", "circle", "--rho", "0.8", "--kappa1", "0", "-n", "64"],
        ["loops", "CIRCLE", "--n-loops", "2", "--rho", "0.3"],
        ["graft", "CIRCLE", "--mode", "auto"],
        ["classify", "CIRCLE"],
    ])
    def test_stdout_is_the_file(self, argv, tmp_path, capsys):
        # streamed line by line, `-o -` writes the bytes of `-o FILE`,
        # ended by exactly one newline
        c = tmp_path / "c.json"
        run_cli("gen", "circle", "--rho", "0.8", "--k", "1", "--kappa1", "0",
                "-n", "64", "-o", str(c))
        argv = [str(c) if a == "CIRCLE" else a for a in argv]
        out = tmp_path / "out.jsonl"
        assert run_cli(*argv, "-o", str(out)) == 0
        capsys.readouterr()
        assert run_cli(*argv, "-o", "-") == 0
        text = capsys.readouterr().out
        assert text.encode() == out.read_bytes()
        assert text.endswith("}\n") and "\n\n" not in text


class TestBands:
    def test_band_profiles_constant_for_circle(self, tmp_path):
        c = tmp_path / "c.json"
        out = tmp_path / "b.json"
        csv = tmp_path / "b.csv"
        run_cli("gen", "circle", "--rho", str(math.pi / 2 - 0.15), "--k", "1",
                "--kappa1", "-0.4", "-n", "256", "-o", str(c))
        tolf = tmp_path / "tol.json"
        tolf.write_text(json.dumps({"band_k_nodes": 512}))
        assert run_cli("--tol-profile", str(tolf), "bands", str(c),
                       "--csv", str(csv), "-o", str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["nu"] == 1
        tp = np.array(doc["theta_plus"])
        assert tp.max() - tp.min() < 2e-2
        rows = csv.read_text().strip().splitlines()
        assert rows[0] == "lam,theta_plus,theta_minus"
        assert len(rows) == 513

    def test_export_band_csv(self, tmp_path):
        c = tmp_path / "c.json"
        csv = tmp_path / "band.csv"
        run_cli("gen", "circle", "--rho", "0.8", "--k", "1", "--kappa1", "0",
                "-n", "64", "-o", str(c))
        assert run_cli("export-band", str(c), str(csv), "--caustic") == 0
        rows = csv.read_text().strip().splitlines()
        assert rows[0] == "t,theta,x,y,z"
        assert len(rows) > 64


    def test_bands_csv_bytes_match_row_loop(self, tmp_path):
        c = tmp_path / "c.json"
        out = tmp_path / "b.json"
        csv = tmp_path / "b.csv"
        run_cli("gen", "circle", "--rho", "1.2", "--k", "2", "--kappa1", "-0.4",
                "-n", "256", "-o", str(c))
        tolf = tmp_path / "tol.json"
        tolf.write_text(json.dumps({"band_k_nodes": 512}))
        assert run_cli("--tol-profile", str(tolf), "bands", str(c), "--csv",
                       str(csv), "--profile-nodes", "48", "-o", str(out)) == 0
        band = sc.band_from_condensed(sc.load_curve(c),
                                      sc.DEFAULT_TOL.replace(band_k_nodes=512))
        want = "lam,theta_plus,theta_minus\n" + "".join(
            f"{lam:.17g},{tp:.17g},{tm:.17g}\n"
            for lam, tp, tm in zip(band.lam, band.theta_plus, band.theta_minus))
        assert csv.read_bytes() == want.encode()
        doc = json.loads(out.read_text())
        stride = 512 // 48
        assert doc["lam"] == band.lam[::stride].tolist()
        assert doc["theta_minus"] == band.theta_minus[::stride].tolist()


class TestBoundsArgs:
    @pytest.mark.parametrize("k1, k2, want", [
        (None, None, (0.0, math.inf)),
        ("-inf", "inf", (-math.inf, math.inf)),
        ("-1.5", "+inf", (-1.5, math.inf)),
        ("-Infinity", "2", (-math.inf, 2.0)),
    ])
    def test_parse(self, k1, k2, want):
        import argparse
        b = cli._bounds_from_args(argparse.Namespace(kappa1=k1, kappa2=k2))
        assert (b.kappa1, b.kappa2) == want


class TestSeedEnv:
    def test_env_seed_changes_tolerance_seed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SPHERECURVE_SEED", "123")
        out = tmp_path / "c.json"
        assert run_cli("gen", "circle", "--rho", "0.8", "--k", "1",
                       "--kappa1", "0", "-n", "64", "-o", str(out)) == 0
        # deterministic generation is unaffected by the seed for circles
        doc = json.loads(out.read_text())
        assert doc["n"] == 64


class TestErrorBoundary:
    """Bad input ends in one stderr line and exit code 2, never a traceback."""

    @pytest.fixture
    def bad_inputs(self, tmp_path):
        malformed = tmp_path / "bad.json"
        malformed.write_text("{not json")
        no_controls = tmp_path / "keys.json"
        no_controls.write_text(json.dumps({"kappa1": 0.0, "kappa2": "+inf"}))
        short = tmp_path / "short.json"
        short.write_text(json.dumps({"kappa1": 0.0, "kappa2": "+inf", "n": 8,
                                     "v_hat": [1.0] * 8, "w_hat": [0.0] * 8}))
        return {"missing": tmp_path / "missing.json", "malformed": malformed,
                "no_controls": no_controls, "short": short}

    @pytest.mark.parametrize("command", [
        ["classify"], ["loops"], ["shrink"], ["graft"], ["graft", "--mode", "simplex"],
        ["bands", "--central"], ["validate"], ["export-band", "CSV"]])
    @pytest.mark.parametrize("kind", ["missing", "malformed", "no_controls", "short"])
    def test_bad_input_exit_2(self, command, kind, bad_inputs, tmp_path, capsys):
        argv = [command[0], str(bad_inputs[kind])] + [
            str(tmp_path / "out.csv") if a == "CSV" else a for a in command[1:]]
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("change", [
        [1, 2],
        "a string",
        {"kappa1": None},
        {"kappa2": True},
        {"kappa1": [0.0]},
        {"q0": [0.0] * 9},
        {"q0": np.eye(3).ravel() * 2.0},
        {"q0": np.diag([-1.0, 1.0, 1.0]).ravel()},
        {"q0": [math.nan] * 9},
        {"q0": [1.0, 0.0, 0.0]},
        {"q0": {"a": 1}},
        {"v_hat": {"a": 1}},
        {"gamma": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], "n": "64"},
        {"n": 5},
        {"n": 64.5},
    ])
    def test_malformed_document_exit_2(self, change, tmp_path, capsys):
        c = tmp_path / "c.json"
        run_cli("gen", "circle", "--rho", "0.8", "--k", "1", "--kappa1", "0",
                "-n", "64", "-o", str(c))
        if isinstance(change, dict):
            doc = json.loads(c.read_text())
            doc.update({key: np.asarray(value).tolist() if isinstance(value, np.ndarray)
                        else value for key, value in change.items()})
        else:
            doc = change
        c.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_cli("classify", str(c)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["classify", "validate"])
    @pytest.mark.parametrize("samples", [False, True])
    @pytest.mark.parametrize("rows", [("v_hat",), ("w_hat",), ("v_hat", "w_hat")])
    def test_control_rows_exit_2(self, command, samples, rows, tmp_path, capsys):
        # controls given as lists of rows have their interval count on the
        # last axis, so they pass the n check; they are refused before the
        # node samples or the integration read them
        c = tmp_path / "c.json"
        run_cli("gen", "circle", "--rho", "0.8", "--k", "1", "--kappa1", "0",
                "-n", "64", "-o", str(c))
        doc = json.loads(c.read_text())
        if samples:
            curve = sc.curve_from_json(doc)
            doc.update(lift=curve.lift.tolist(), speed=curve.speed.tolist(),
                       kappa=curve.kappa.tolist())
        for key in rows:
            doc[key] = [doc[key]]
        c.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_cli(command, str(c), "-o", str(tmp_path / "out.json")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError") and err.count("\n") == 1
        assert "v_hat" in err and "w_hat" in err

    @pytest.mark.parametrize("gamma", [
        [[1, 0, 0], [0, 1, 0]],
        [[1, 0, 0], [0, 1, 0], [1, 0, 0]],
        [[1, 0, 0], [0, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[1, 0], [0, 1], [1, 1]],
        [],
        [[1, 0, 0], [0, 1, 0], [0, 2, 0], [0, 0, 1]],
        [[1, 0, 0], [0, 1, 0], [1e300, 1e300, 0], [0, 0, 1]],
    ])
    def test_raw_points_checked_before_arithmetic(self, gamma, tmp_path, capsys):
        # two points, open or closed, a zero row, rows of two numbers, no
        # points, a point that normalizes onto the one before it and a row
        # whose norm overflows: one error line, no warning
        import warnings
        c = tmp_path / "c.json"
        c.write_text(json.dumps({"gamma": gamma}))
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("classify", str(c)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError") and err.count("\n") == 1

    def test_written_curves_load(self, rng):
        # q0 is the rotation of a written start frame: every curve the
        # writer emits, rotated or not, passes the rotation check on reading
        from conftest import random_rotation
        bounds = sc.CurvatureBounds(0.0, math.inf)
        circle = sc.make_circle(0.8, 2, bounds, n=128)
        bend = sc.homotopy.bend_frame(1, 0.4, n=128)
        shrink = sc.homotopy.shrink_condensed(sc.make_circle(0.9, 1, bounds, n=128),
                                              steps=9).curves[4]
        curves = [c.rotated(random_rotation(rng)) for c in (circle, bend, shrink)
                  for _ in range(20)]
        docs = sc.curves.curves_to_json([circle, bend, shrink] + curves)
        assert sum("q0" in doc for doc in docs) == 60
        for curve, doc in zip([circle, bend, shrink] + curves, docs):
            loaded = sc.curve_from_json(json.loads(json.dumps(doc)))
            assert loaded.closed
            assert np.abs(loaded.frames[0] - curve.frames[0]).max() < 1e-12

    @pytest.mark.parametrize("digits", [7, 12])
    def test_rounded_q0(self, tmp_path, capsys, rng, digits):
        # q0 must be a rotation to 1e-9: a start frame rounded to 7
        # significant digits (|R^T R - I| near 1e-7) is invalid input,
        # one rounded to 12 digits still loads
        from conftest import random_rotation
        bounds = sc.CurvatureBounds(0.0, math.inf)
        doc = sc.curve_to_json(sc.make_circle(0.8, 1, bounds, n=64).rotated(random_rotation(rng)))
        doc["q0"] = [float(f"{x:.{digits - 1}e}") for x in doc["q0"]]
        c = tmp_path / "c.json"
        c.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_cli("classify", str(c)) == (2 if digits == 7 else 0)
        if digits == 7:
            assert "q0 is not a rotation" in capsys.readouterr().err

    def test_missing_tolerance_profile_exit_2(self, tmp_path, capsys):
        assert run_cli("--tol-profile", str(tmp_path / "none.json"), "graft",
                       str(tmp_path / "c.json")) == 2
        assert capsys.readouterr().err.startswith("error: FileNotFoundError")

    @pytest.mark.parametrize("field", [
        "orthonormality", "simplex_budget", "winding_residual", "continuation_tol",
        "continuation_max_iter", "import_kappa_slack", "lattice_size", "unit_norm",
        "feasibility_margin", "borderline_margin", "classify_t_nodes", "band_tol"])
    def test_removed_tolerance_field_exit_2(self, tmp_path, capsys, field):
        profile = tmp_path / "tol.json"
        profile.write_text(json.dumps({field: 1}))
        assert run_cli("--tol-profile", str(profile), "gen", "circle", "--rho",
                       "0.8", "--k", "1", "-o", str(tmp_path / "c.json")) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("document", [
        "5", "[]", '{"default_n": "x"}', '{"closure": null}',
        '{"closure": NaN}', '{"closure": 1e400}', '{"closure": true}',
        '{"seed": true}', '{"seed": 3.0}', '{"default_n": [64]}'])
    def test_malformed_tolerance_profile_exit_2(self, tmp_path, capsys,
                                                document):
        profile = tmp_path / "tol.json"
        profile.write_text(document)
        assert run_cli("--tol-profile", str(profile), "gen", "circle", "--rho",
                       "0.8", "--k", "1", "-o", str(tmp_path / "c.json")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError") and err.count("\n") == 1
        assert not (tmp_path / "c.json").exists()

    @pytest.mark.parametrize("document", [
        '{"band_k_nodes": 0}', '{"default_n": 0}', '{"band_theta_nodes": 0}',
        '{"graft_step": 0}', '{"path_steps": -1}', '{"seed": -1}',
        '{"closure": 0}', '{"antipodal_chord": -1e-3}'])
    def test_out_of_range_tolerance_profile_exit_2(self, tmp_path, capsys,
                                                   document):
        # every field is range-checked when the profile is built, before
        # the band kernels could divide by a zero count
        c = tmp_path / "c.json"
        run_cli("gen", "circle", "--rho", "1.2", "--k", "1", "--kappa1", "-0.4",
                "-n", "64", "-o", str(c))
        profile = tmp_path / "tol.json"
        profile.write_text(document)
        capsys.readouterr()
        assert run_cli("--tol-profile", str(profile), "bands", str(c),
                       "--central", "-o", str(tmp_path / "b.json")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError") and err.count("\n") == 1
        assert next(iter(json.loads(document))) in err
        with pytest.raises(ValueError):
            sc.DEFAULT_TOL.replace(**json.loads(document))

    def test_tolerance_profile_takes_ints_for_floats(self, tmp_path):
        profile = tmp_path / "tol.json"
        profile.write_text('{"closure": 1, "default_n": 64, "seed": 5}')
        tol = sc.ToleranceProfile.from_json(profile)
        assert tol.closure == 1.0 and isinstance(tol.closure, float)
        assert (tol.default_n, tol.seed) == (64, 5)

    @pytest.mark.parametrize("argv", [
        ["gen", "circle", "--kappa1", "0", "-n", "0"],
        ["gen", "circle", "--kappa1", "0", "-n", "-3"],
        ["gen", "bending-frame", "-n", "0"],
        ["bend", "-n", "0"],
        ["graft", "NEITHER", "--mode", "auto", "--step", "0"],
        ["graft", "NEITHER", "--mode", "auto", "--step", "-0.01"],
    ])
    def test_zero_size_or_step_exit_2(self, argv, tmp_path, capsys):
        neither = tmp_path / "neither.json"
        run_cli("gen", "neither-example", "--rho0", "0.5", "-o", str(neither))
        out = tmp_path / "out.json"
        capsys.readouterr()
        argv = [str(neither) if a == "NEITHER" else a for a in argv]
        assert run_cli(*argv, "-o", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("budget", ["nan", "-1"])
    def test_invalid_graft_budget_exit_2(self, budget, tmp_path, capsys):
        # checked before the status, so also on a curve already resolved
        c = tmp_path / "c.json"
        run_cli("gen", "circle", "--rho", "0.8", "--k", "1", "--kappa1", "0",
                "-n", "64", "-o", str(c))
        out = tmp_path / "out.jsonl"
        capsys.readouterr()
        assert run_cli("graft", str(c), "--mode", "auto", "--budget", budget,
                       "-o", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError") and "budget" in err
        assert not out.exists()

    def test_zero_simplex_step_is_the_identity(self, tmp_path):
        neither = tmp_path / "neither.json"
        out = tmp_path / "out.jsonl"
        run_cli("gen", "neither-example", "--rho0", "0.5", "-o", str(neither))
        assert run_cli("graft", str(neither), "--mode", "simplex", "--step", "0",
                       "-o", str(out)) == 0
        doc, report = (json.loads(line) for line in out.read_text().splitlines())
        base = sc.grafting.ensure_curvature_param(sc.load_curve(str(neither)))
        assert report["frame_defect"] == 0.0
        assert report["tot"] == sc.total_curvature(base)

    def test_library_error_exit_1(self, tmp_path, capsys):
        c = tmp_path / "c.json"
        run_cli("gen", "circle", "--rho", "0.8", "--k", "1", "--kappa1", "0",
                "-n", "64", "-o", str(c))
        # a condensed circle has no antipodal caustic points to graft at
        assert run_cli("graft", str(c), "--mode", "antipodal") == 1
        assert capsys.readouterr().err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["classify"],
        ["graft", "--mode", "auto"],
        ["graft", "--mode", "simplex"],
        ["graft", "--mode", "antipodal"],
        ["shrink"],
    ])
    def test_open_curve_exit_1(self, argv, tmp_path, capsys):
        # every command that needs a closed curve says so: NotClosed, not
        # a label, a winding residual or a hull error
        from spherecurve import factory
        curve = factory.random_open_curve(sc.CurvatureBounds(0.0, math.inf),
                                          np.random.default_rng(3), n=256)
        assert not curve.closed
        doc = tmp_path / "open.json"
        doc.write_text(json.dumps(sc.curve_to_json(curve)))
        out = tmp_path / "out.jsonl"
        assert run_cli(argv[0], str(doc), *argv[1:], "-o", str(out)) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "requires a closed curve" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["bands", "NEG", "--profile-nodes", "0"],
        ["bands", "NEG", "--profile-nodes", "-2"],
        ["gen", "neither-example", "--rho0", "0"],
        ["gen", "neither-example", "--rho0", "-0.1"],
        ["shrink", "POS", "--steps", "3"],
        ["shrink", "POS", "--steps", "2"],
        ["shrink", "POS", "--steps", "1"],
        ["shrink", "POS", "--steps", "0"],
        ["shrink", "POS", "--steps", "-4"],
        ["bend", "--steps", "1", "-n", "64"],
        ["bend", "--steps", "0", "-n", "64"],
        ["bend", "--steps", "-3", "-n", "64"],
        ["gen", "bending-frame", "--s", "2", "-n", "64"],
        ["gen", "bending-frame", "--s", "-0.1", "-n", "64"],
        ["gen", "bending-frame", "--s", "nan", "-n", "64"],
    ])
    def test_out_of_range_counts_exit_2(self, argv, tmp_path, capsys):
        files = {"POS": (0.0, "0.8"), "NEG": (-0.4, str(math.pi / 2 - 0.15))}
        for name, (kappa1, rho) in files.items():
            run_cli("gen", "circle", "--rho", rho, "--k", "1", "--kappa1",
                    str(kappa1), "-n", "64", "-o", str(tmp_path / name))
        out = tmp_path / "out.jsonl"
        capsys.readouterr()
        argv = [str(tmp_path / a) if a in files else a for a in argv]
        assert run_cli(*argv, "-o", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["bend", "shrink"])
    @pytest.mark.parametrize("fault", ["controls", "report"])
    def test_stream_fails_before_the_file(self, command, fault, tmp_path, capsys,
                                          monkeypatch):
        # a NaN in the last frame's controls or in the report is found
        # before the stream's first line is written: no file is left
        c = tmp_path / "c.json"
        run_cli("gen", "circle", "--rho", "0.8", "--k", "1", "--kappa1", "0",
                "-n", "64", "-o", str(c))
        if fault == "controls":
            control_docs = cli._control_docs

            def poisoned(curves):
                docs = control_docs(curves)
                docs[-1]["w_hat"] = np.append(docs[-1]["w_hat"][:-1], math.nan)
                return docs

            monkeypatch.setattr(cli, "_control_docs", poisoned)
        else:
            report_of = cli._report_of
            monkeypatch.setattr(cli, "_report_of",
                                lambda rep: {**report_of(rep), "min_margin": math.nan})
        argv = {"bend": ["bend", "--steps", "5", "-n", "64"],
                "shrink": ["shrink", str(c), "--steps", "5"]}[command]
        out = tmp_path / "out.jsonl"
        capsys.readouterr()
        assert run_cli(*argv, "-o", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError") and err.count("\n") == 1
        assert not out.exists()

    def test_dumps_refuses_nan(self):
        with pytest.raises(ValueError):
            cli.dumps({"margin": float("nan")})
        with pytest.raises(ValueError):
            cli.dumps([np.array([1.0, np.nan])])
        assert cli.dumps([math.inf, -math.inf]) == '["+inf","-inf"]'


class TestParserReuse:
    def test_graft_step_default_after_explicit_step(self, tmp_path, monkeypatch):
        # the parser is built once; a step given to one call must not
        # become the default of the next
        from spherecurve import grafting
        from spherecurve.errors import DomainError
        c = tmp_path / "c.json"
        assert run_cli("gen", "circle", "--rho", "0.8", "--k", "1",
                       "--kappa1", "0", "-n", "64", "-o", str(c)) == 0
        steps = []

        def record(curve, s, tol):
            steps.append(s)
            raise DomainError("recorded")

        monkeypatch.setattr(grafting, "graft_simplex_step", record)
        assert run_cli("graft", str(c), "--mode", "simplex", "--step", "0.01") == 1
        assert run_cli("graft", str(c), "--mode", "simplex") == 1
        assert steps == [0.01, sc.DEFAULT_TOL.graft_step]

    def test_subcommands_get_independent_namespaces(self):
        parser = cli.build_parser()
        assert cli.build_parser() is parser
        graft = parser.parse_args(["graft", "a.json", "--step", "0.01"])
        classify = parser.parse_args(["classify", "b.json"])
        bare = parser.parse_args(["graft", "a.json"])
        assert graft is not bare and graft.step == 0.01 and bare.step is None
        assert classify.func is cli.cmd_classify and classify.input == "b.json"
        assert not hasattr(classify, "step") and not hasattr(classify, "mode")
        assert graft.func is cli.cmd_graft and graft.input == "a.json"


def loop_dumps(value):
    """The writer float by float: every float through format(x, '.17g')."""
    if isinstance(value, float):
        if math.isnan(value):
            raise ValueError("NaN has no JSON representation")
        if math.isinf(value):
            return '"-inf"' if value < 0 else '"+inf"'
        return format(value, ".17g")
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(loop_dumps(v) for v in value) + "]"
    if isinstance(value, np.ndarray):
        return loop_dumps(value.tolist())
    if isinstance(value, dict):
        return "{" + ",".join(f"{json.dumps(k)}:{loop_dumps(v)}"
                              for k, v in value.items()) + "}"
    raise TypeError(f"cannot serialize {type(value)}")


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-320,
               2.2250738585072014e-308, sys.float_info.max, -sys.float_info.max]
FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from(EDGE_FLOATS))
# sizes around the writer's switch to formatting distinct values once
SIZES = st.sampled_from([0, 1, 2, 5, 31, 32, 33, 47, 64, 100])


@st.composite
def repeating_floats(draw, size=None):
    """A float list drawn mostly from a small pool, so values repeat; one
    in five holds an infinity."""
    pool = draw(st.lists(FINITE, min_size=1, max_size=6))
    size = draw(SIZES) if size is None else size
    out = draw(st.lists(st.one_of(st.sampled_from(pool), st.sampled_from(pool), FINITE),
                        min_size=size, max_size=size))
    if out and draw(st.integers(0, 4)) == 0:
        out[draw(st.integers(0, size - 1))] = draw(st.sampled_from([math.inf, -math.inf]))
    return out


@st.composite
def float_rows(draw):
    """Float rows, rectangular or ragged, as lists, tuples or an array."""
    width = draw(st.integers(1, 5))
    rows = draw(st.sampled_from([0, 1, 3, 8, 16, 40]))
    flat = draw(repeating_floats(size=width * rows))
    out = [flat[i:i + width] for i in range(0, len(flat), width)]
    shape = draw(st.sampled_from(["lists", "tuples", "ragged", "array"]))
    if shape == "tuples":
        return [tuple(row) for row in out]
    if shape == "ragged" and out:
        out[draw(st.integers(0, len(out) - 1))].append(0.5)
    if shape == "array":
        return np.array(out).reshape(rows, width)
    return out


@st.composite
def run_arrays(draw):
    """1-d and 2-d float arrays cut from one sequence of runs of equal
    values (lengths 1-300), so runs continue across row and array
    boundaries; half the runs are 0.0 or -0.0, often side by side.  One in
    five holds one infinity."""
    runs = draw(st.lists(st.tuples(st.one_of(st.sampled_from([0.0, -0.0]), FINITE),
                                   st.integers(1, 300)), min_size=1, max_size=10))
    flat = [value for value, m in runs for _ in range(m)]
    if draw(st.integers(0, 4)) == 0:
        flat[draw(st.integers(0, len(flat) - 1))] = draw(st.sampled_from([math.inf, -math.inf]))
    cuts = sorted(draw(st.sets(st.integers(1, len(flat) - 1), max_size=4))) if len(flat) > 1 else []
    arrays = []
    for a, b in zip([0] + cuts, cuts + [len(flat)]):
        piece = np.array(flat[a:b])
        width = draw(st.sampled_from([w for w in (1, 2, 3, 5, 16) if piece.size % w == 0]))
        arrays.append(piece if draw(st.booleans()) else piece.reshape(-1, width))
    return arrays


SCALARS = st.one_of(st.floats(allow_nan=False), st.booleans(), st.none(),
                    st.integers(-10 ** 20, 10 ** 20), st.integers(-5, 5).map(np.int64),
                    st.text(max_size=3), st.floats(allow_nan=False).map(np.float64))


@st.composite
def mixed_floats(draw):
    """A long float list with one bool, int, None, string or numpy float
    among the floats."""
    out = draw(repeating_floats(size=draw(st.integers(32, 60))))
    out[draw(st.integers(0, len(out) - 1))] = draw(SCALARS)
    return out


DOCS = st.recursive(
    st.one_of(SCALARS, repeating_floats(), float_rows(), mixed_floats(),
              repeating_floats().map(np.array)),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(st.text(max_size=3), inner, max_size=4)),
    max_leaves=8)


class TestDumps:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(repeating_floats(), float_rows(), mixed_floats()))
    @example([0.0, -0.0] * 20)
    @example([[5e-324, -0.0, 0.0, 1.0]] * 10)
    @example([1.0] * 40 + [math.inf, -math.inf])
    def test_float_lists_match_the_loop(self, doc):
        assert cli.dumps(doc) == loop_dumps(doc)

    @settings(max_examples=100, deadline=None)
    @given(DOCS)
    @example({"v_hat": [1.5] * 1024, "q0": [0.0] * 9, "n": np.int64(7)})
    @example([[], [], ()])
    def test_documents_match_the_loop(self, doc):
        assert cli.dumps(doc) == loop_dumps(doc)

    @settings(max_examples=150, deadline=None)
    @given(run_arrays())
    @example([np.array([0.0] * 40 + [-0.0] * 40).reshape(8, 10),
              np.array([-0.0] * 5 + [0.0] * 300), np.array([0.0] * 3)])
    @example([np.array([1.5] * 64).reshape(4, 16), np.array([1.5] * 31 + [math.inf])])
    def test_runs_match_the_loop(self, arrays):
        # the path writer over documents holding these arrays: the bytes
        # of the float-by-float loop, an infinity through the fallback
        docs = [{"n": i, "v_hat": a} for i, a in enumerate(arrays)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "_control_docs", lambda curves: docs)
            lines = list(cli._path_to_jsonl([], {"pass": True}))
        assert lines == [loop_dumps(doc) for doc in docs] + ['{"pass":true}']
        finite = all(np.isfinite(a).all() for a in arrays)
        assert (cli._float_blocks(arrays) is None) is not finite

    def test_formatter_sees_the_runs(self, monkeypatch):
        # the one np.unique of writing a bend path (65 frames x 1024
        # intervals) sorts its run heads, not its 133k values
        from spherecurve.curves import _control_docs
        path = sc.homotopy.bend_k_equator(1, steps=65, n=1024)
        arrays = [v for doc in _control_docs(path.curves) for v in doc.values()
                  if isinstance(v, np.ndarray)]
        runs = sum(len(list(itertools.groupby(a.view(np.uint64).tolist()))) for a in arrays)
        sizes, unique = [], np.unique

        def counting(values, *args, **kwargs):
            sizes.append(np.size(values))
            return unique(values, *args, **kwargs)

        monkeypatch.setattr(np, "unique", counting)
        text = "\n".join(cli._path_to_jsonl(path.curves, {"pass": True}))
        assert sum(sizes) <= runs <= 65 * 2 * 8
        assert text.count("\n") == 65

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(repeating_floats(), float_rows()), st.data())
    def test_nan_anywhere_raises(self, doc, data):
        rows = [list(r) for r in doc] if len(doc) and not isinstance(doc[0], float) \
            else [list(doc)]
        rows = [r for r in rows if r] or [[1.0]]
        row = data.draw(st.integers(0, len(rows) - 1))
        rows[row][data.draw(st.integers(0, len(rows[row]) - 1))] = math.nan
        for bad in (rows, rows[row], {"lift": rows}):
            with pytest.raises(ValueError):
                cli.dumps(bad)
