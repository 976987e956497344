import json
import os
import subprocess
import sys
from pathlib import Path

import hermquat
from hermquat import HermSpace, Lattice, QuadField, jsonio
from hermquat.cli import main
from tests_fixtures import m2z_order

F7 = QuadField(-7)


def write_form(tmp_path, space, name="form.json", point=None, lattice=None):
    lattice = lattice or Lattice.standard(space.field)
    obj = jsonio.form_obj(space, lattice, point)
    path = tmp_path / name
    path.write_text(jsonio.dumps(obj))
    return str(path)


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


class TestAnalyze:
    def test_split_form(self, tmp_path, capsys):
        path = write_form(tmp_path, HermSpace(F7, 1, -1, F7.zero()))
        code, out = run_cli(["analyze", path], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["integral"] is True
        assert report["definiteness"] == "Indefinite"
        assert report["discriminant"]["value"] == "7"

    def test_definite_form(self, tmp_path, capsys):
        path = write_form(tmp_path, HermSpace(F7, 1, 1, F7.zero()))
        code, out = run_cli(["analyze", path], capsys)
        assert code == 0
        assert json.loads(out)["discriminant"]["value"] == "-7"

    def test_non_integral_omits_discriminant(self, tmp_path, capsys):
        path = write_form(tmp_path, HermSpace(F7, "1/2", 1, F7.zero()))
        code, out = run_cli(["analyze", path], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["integral"] is False
        assert "discriminant" not in report
        assert "det_form" in report

    def test_degenerate_form(self, tmp_path, capsys):
        path = write_form(tmp_path, HermSpace(F7, 1, 0, F7.zero()))
        code, out = run_cli(["analyze", path], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["nondegenerate"] is False
        assert report["definiteness"] == "Degenerate"
        assert "det_form" not in report and "discriminant" not in report

    def test_malformed_json_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        code, _ = run_cli(["analyze", str(bad)], capsys)
        assert code == 2

    def test_text_format(self, tmp_path, capsys):
        path = write_form(tmp_path, HermSpace(F7, 1, -1, F7.zero()))
        code, out = run_cli(["analyze", path, "--format", "text"], capsys)
        assert code == 0
        assert "definiteness: Indefinite" in out


class TestBuildOrder:
    def test_explicit_point(self, tmp_path, capsys):
        path = write_form(tmp_path, HermSpace(F7, 1, -1, F7.zero()))
        point = json.dumps([{"a": "1", "b": "0"}, {"a": "0", "b": "0"}])
        code, out = run_cli(["build-order", path, "--point", point], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["closure"]["verified"] is True
        assert len(obj["closure"]["products"]) == 4
        assert "omega_image" in obj

    def test_find_point_negative_definite_exit_3(self, tmp_path, capsys):
        path = write_form(tmp_path, HermSpace(F7, -1, -1, F7.zero()))
        code, out = run_cli(["build-order", path, "--find-point"], capsys)
        assert code == 3
        assert json.loads(out)["verdict"] == "RealObstruction"

    def test_find_point_indefinite(self, tmp_path, capsys):
        path = write_form(tmp_path, HermSpace(F7, 1, -1, F7.zero()))
        code, out = run_cli(["build-order", path, "--find-point"], capsys)
        assert code == 0
        obj = json.loads(out)
        # the found point is (-1, 0), so the identity sits at -g1
        assert obj["point"] == [{"a": "-1", "b": "0"}, {"a": "0", "b": "0"}]
        assert obj["one"] == ["-1", "0", "0", "0"]


class TestFromOrder:
    def test_m2z(self, tmp_path, capsys):
        order, emb = m2z_order()
        path = tmp_path / "order.json"
        path.write_text(jsonio.dumps(jsonio.order_obj(order, emb)))
        code, out = run_cli(["from-order", str(path)], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["discriminant"]["value"] == "1"
        assert obj["optimal"] is True

    def test_missing_embedding_exit_2(self, tmp_path, capsys):
        order, _ = m2z_order()
        path = tmp_path / "order.json"
        path.write_text(jsonio.dumps(jsonio.order_obj(order)))
        code, _ = run_cli(["from-order", str(path)], capsys)
        assert code == 2

    def test_bad_omega_image_exit_2(self, tmp_path, capsys):
        order, emb = m2z_order()
        obj = jsonio.order_obj(order, emb)
        obj["omega_image"] = ["1", "0", "0", "0"]  # identity is not a root
        path = tmp_path / "order.json"
        path.write_text(jsonio.dumps(obj))
        code, _ = run_cli(["from-order", str(path)], capsys)
        assert code == 2

    def test_round_trip_byte_identical(self, tmp_path, capsys):
        # from-order then build-order at the same point reproduces the
        # canonical order JSON byte for byte
        import random

        from hermquat.verify import random_integral_pointed_lattice
        from hermquat import build_order

        rng = random.Random(99)
        for trial in range(20):
            field = QuadField(rng.choice((-3, -7)))
            space, lattice, point = random_integral_pointed_lattice(rng, field)
            order, emb = build_order(space, lattice, point)
            order_text = jsonio.dumps(jsonio.order_obj(order, emb))
            opath = tmp_path / f"o{trial}.json"
            opath.write_text(order_text)
            code, out = run_cli(["from-order", str(opath)], capsys)
            assert code == 0
            form = json.loads(out)
            fpath = tmp_path / f"f{trial}.json"
            fpath.write_text(json.dumps(form))
            code, out = run_cli(
                ["build-order", str(fpath), "--point", json.dumps(form["point"])],
                capsys,
            )
            assert code == 0
            rebuilt = json.loads(out)
            rebuilt_text = jsonio.dumps(
                {
                    k: rebuilt[k]
                    for k in ("d", "mult_table", "zbasis", "one", "omega_image")
                }
            )
            assert rebuilt_text == order_text


class TestRepresentOne:
    def test_represented_exit_0(self, tmp_path, capsys):
        path = write_form(tmp_path, HermSpace(F7, 1, -1, F7.zero()))
        code, out = run_cli(["represent-one", path], capsys)
        assert code == 0
        assert json.loads(out)["verdict"] == "Represented"

    def test_obstruction_exit_4(self, tmp_path, capsys):
        path = write_form(tmp_path, HermSpace(F7, -1, -2, F7.zero()))
        code, out = run_cli(["represent-one", path], capsys)
        assert code == 4
        assert json.loads(out)["verdict"] == "RealObstruction"

    def test_exhausted_exit_5(self, tmp_path, capsys):
        F3 = QuadField(-3)
        path = write_form(tmp_path, HermSpace(F3, 2, 5, F3.zero()))
        code, out = run_cli(["represent-one", path], capsys)
        assert code == 5
        assert json.loads(out)["verdict"] == "LocallyRepresentedSearchExhausted"

    def test_hypothesis_error_exit_2(self, tmp_path, capsys):
        path = write_form(tmp_path, HermSpace(F7, 7, -7, F7.zero()))
        code, _ = run_cli(["represent-one", path], capsys)
        assert code == 2


class TestSweep:
    def test_deterministic_csv(self, capsys):
        code, out1 = run_cli(["sweep", "--d", "-7", "--height", "1"], capsys)
        assert code == 0
        code, out2 = run_cli(["sweep", "--d", "-7", "--height", "1"], capsys)
        assert out1 == out2
        lines = out1.strip().splitlines()
        header = lines[0].split(",")
        assert header == [
            "alpha", "beta", "gamma", "Delta", "definiteness", "verdict",
            "witness", "order_disc", "discs_equal",
        ]
        assert len(lines) > 1

    def test_sign_convention_in_csv(self, capsys):
        import csv as csvmod
        import io

        code, out = run_cli(["sweep", "--d", "-7", "--height", "1"], capsys)
        rows = list(csvmod.DictReader(io.StringIO(out)))
        for row in rows:
            delta = int(row["Delta"])
            assert (delta > 0) == (row["definiteness"] == "Indefinite")
            if row["verdict"] == "Represented":
                assert row["discs_equal"] == "true"
                assert row["order_disc"] == row["Delta"]

    def test_json_format(self, capsys):
        code, out = run_cli(
            ["sweep", "--d", "-7", "--height", "1", "--format", "json"], capsys
        )
        assert code == 0
        rows = json.loads(out)
        assert rows and all("Delta" in r and "verdict" in r for r in rows)

    def test_target_disc_unattained_empty(self, capsys):
        code, out = run_cli(
            ["sweep", "--d", "-7", "--height", "1", "--target-disc", "123456"],
            capsys,
        )
        assert code == 0
        assert out.strip().splitlines()[0].startswith("alpha")
        assert len(out.strip().splitlines()) == 1

    def test_bad_height_exit_2(self, capsys):
        code, _ = run_cli(["sweep", "--d", "-7", "--height", "0"], capsys)
        assert code == 2


class TestVerify:
    def test_polarize_suite(self, capsys):
        code, out = run_cli(["verify", "--suite", "polarize", "--seed", "7"], capsys)
        assert code == 0
        assert "polarize: pass" in out

    def test_failure_exits_one_with_case(self, capsys, monkeypatch):
        from hermquat import verify as verify_mod
        from hermquat.verify import SuiteResult

        def broken(seed=0):
            result = SuiteResult("polarize", cases=1)
            result.record(form={"d": -7}, error="synthetic")
            return result

        monkeypatch.setitem(verify_mod.SUITES, "polarize", broken)
        code, out = run_cli(["verify", "--suite", "polarize"], capsys)
        assert code == 1
        assert "polarize: FAIL" in out
        assert "synthetic" in out


class TestConsoleScript:
    def test_module_entry(self, tmp_path):
        # one end-to-end subprocess run through the module entry point, on
        # the package under test even where it is not installed
        form = jsonio.dumps(jsonio.herm_obj(HermSpace(F7, 1, -1, F7.zero())))
        path = tmp_path / "form.json"
        path.write_text(form)
        package_root = str(Path(hermquat.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (package_root, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-m", "hermquat.cli", "analyze", str(path)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["discriminant"]["value"] == "7"
