import contextlib
import copy
import hashlib
import io
import json
import logging
import os
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import hermquat
from hermquat import (
    Definiteness,
    HermSpace,
    Lattice,
    QuadField,
    cli,
    hermitian,
    jsonio,
    lattice_from_B_basis,
    qfield,
)
from hermquat.cli import main
from hermquat.errors import DegenerateFormError, InvariantViolation, NotIntegralError
from hermquat.verify import random_b_stable_lattice
from fraction_reference import vec
from tests_fixtures import m2z_order

F7 = QuadField(-7)

# SHA-256 of TestRepresentOne::test_search_output_byte_identical's outputs,
# recorded before the box search solved its last coordinate
REPRESENT_CLI_SHA256 = "331ebc356deb5b9ed61709459bb297520a63b222f29a7ca1bb27405c82e619a6"


def write_form(tmp_path, space, name="form.json", point=None, lattice=None):
    lattice = lattice or Lattice.standard(space.field)
    obj = jsonio.form_obj(space, lattice, point)
    path = tmp_path / name
    path.write_text(jsonio.dumps(obj))
    return str(path)


def write_order(tmp_path, d, table, one, omega_image):
    """An order file with Z-basis the table's basis."""
    obj = {
        "d": d,
        "mult_table": [[[str(x) for x in e] for e in row] for row in table],
        "zbasis": [[str(int(i == j)) for j in range(4)] for i in range(4)],
        "one": [str(x) for x in one],
        "omega_image": [str(x) for x in omega_image],
    }
    path = tmp_path / "order.json"
    path.write_text(json.dumps(obj))
    return str(path)


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def semiprime_form():
    """p*q*n(x) - n(y) over d = -7 with primes p ~ 10^22, q ~ 3*10^22: a
    45-digit |Delta|, far above the factoring limit."""
    pq = sympy.nextprime(10**22) * sympy.nextprime(3 * 10**22)
    return HermSpace(F7, pq, -1, F7.zero()), 7 * pq


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
        # integrality is reported for degenerate forms too
        for alpha, integral in ((1, True), ("1/2", False)):
            path = write_form(tmp_path, HermSpace(F7, alpha, 0, F7.zero()))
            code, out = run_cli(["analyze", path], capsys)
            assert code == 0
            report = json.loads(out)
            assert report["nondegenerate"] is False
            assert report["definiteness"] == "Degenerate"
            assert report["integral"] is integral
            assert "det_form" not in report and "discriminant" not in report

    def test_malformed_json_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        code, _ = run_cli(["analyze", str(bad)], capsys)
        assert code == 2

    @pytest.mark.parametrize(
        "data, out",
        [
            (b'{"d": -7, "alpha": "\xff"}', None),
            (b"[" * 200_000 + b"]" * 200_000, None),
            (b'{"d": ' + b"7" * 5000 + b"}", None),
            (None, "missing/out.json"),
        ],
        ids=["not-utf8", "deep-nesting", "long-int", "out-dir-missing"],
    )
    def test_malformed_bytes_exit_2(self, tmp_path, capsys, data, out):
        path = write_form(tmp_path, HermSpace(F7, 1, -1, F7.zero()))
        if data is not None:
            Path(path).write_bytes(data)
        args = ["analyze", path] + (["--out", str(tmp_path / out)] if out else [])
        assert main(args) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_det_form_runs_once(self, tmp_path, capsys, monkeypatch):
        # analyze calls det_form once, and det_form reads the integer Gram:
        # no call under it enters qfield.py
        calls = []
        real = hermitian.det_form

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        qfield_calls = 0
        source = qfield.__file__

        def count(frame, event, arg):
            nonlocal qfield_calls
            if event != "call" or frame.f_code.co_filename != source:
                return
            caller = frame.f_back
            while caller is not None and caller.f_code is not real.__code__:
                caller = caller.f_back
            qfield_calls += caller is not None

        monkeypatch.setattr(hermitian, "det_form", counted)
        monkeypatch.setattr(cli, "det_form", counted)
        for space in (HermSpace(F7, 1, -1, F7.zero()), HermSpace(F7, "1/2", 1, F7.zero())):
            calls.clear()
            path = write_form(tmp_path, space)
            previous = sys.getprofile()
            sys.setprofile(count)
            try:
                code, out = run_cli(["analyze", path], capsys)
            finally:
                sys.setprofile(previous)
            assert code == 0 and "det_form" in json.loads(out)
            assert len(calls) == 1
        assert qfield_calls == 0

    def test_large_discriminant_accepted(self, tmp_path, capsys):
        # analyze never factors, so it takes a |Delta| above the factoring limit
        space, delta = semiprime_form()
        code, out = run_cli(["analyze", write_form(tmp_path, space)], capsys)
        assert code == 0
        assert json.loads(out)["discriminant"]["value"] == str(delta)

    @pytest.mark.parametrize(
        "key, value",
        [("alpha", float("inf")), ("beta", float("-inf")), ("gamma", {"a": float("inf"), "b": 0}),
         ("alpha", "1e5000")],
    )
    def test_infinite_rational_exit_2(self, tmp_path, capsys, key, value):
        obj = jsonio.herm_obj(HermSpace(F7, 1, -1, F7.zero()))
        obj[key] = value
        path = tmp_path / "form.json"
        path.write_text(json.dumps(obj))  # written as the JSON literal Infinity
        assert main(["analyze", str(path)]) == 2
        assert "bad rational" in capsys.readouterr().err

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

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("mult_table", 5, "mult_table must be 4x4x4"),
            ("mult_table", [[1, 1, 1, 1]] * 4, "mult_table must be 4x4x4"),
            ("zbasis", [1, 2, 3, 4], "order zbasis must be 4x4"),
            ("one", 7, "order one must have 4 entries"),
            ("omega_image", 3, "omega image must have 4 coordinates"),
        ],
    )
    def test_malformed_shape_exit_2(self, tmp_path, capsys, key, value, message):
        obj = jsonio.order_obj(*m2z_order())
        obj[key] = value
        path = tmp_path / "order.json"
        path.write_text(json.dumps(obj))
        assert main(["from-order", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_non_quaternion_table_crashes(self, tmp_path):
        # K x K for d = -7 on (1, omega, 1', omega'), componentwise: an
        # associative algebra with an identity and an image of omega, in
        # which x * conj(x) is not a scalar
        a, b = F7.min_a, F7.min_b
        block = [[[1, 0], [0, 1]], [[0, 1], [-b, -a]]]
        table = [[[0] * 4 for _ in range(4)] for _ in range(4)]
        for k in (0, 2):
            for i in range(2):
                for j in range(2):
                    table[k + i][k + j][k : k + 2] = block[i][j]
        path = write_order(tmp_path, -7, table, [1, 0, 1, 0], [0, 1, 0, 1])
        with pytest.raises(InvariantViolation):
            main(["from-order", path])
        order, _ = jsonio.parse_order(json.loads(Path(path).read_text()))
        with pytest.raises(InvariantViolation):
            order.algebra.reduced_norm([0, 1, 0, 0])

    def test_no_omega_image_in_q4_exit_2(self, tmp_path, capsys):
        # Q^4, componentwise: omega has no image, x^2 - x + 2 has no rational root
        table = [[[int(i == j == k) for k in range(4)] for j in range(4)] for i in range(4)]
        path = write_order(tmp_path, -7, table, [1, 1, 1, 1], [0, 1, 0, 0])
        assert main(["from-order", path]) == 2
        assert "minimal polynomial" in capsys.readouterr().err

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


def search_gate_forms(seed):
    """Integral forms of square-free Delta, 24 per field of d in (-3, -7,
    -11, -19): on B^2 and on random B-stable lattices, 6 indefinite, 3
    positive and 3 negative definite each, with beta = 0 in about half the
    draws."""
    rng = random.Random(seed)
    for d in (-3, -7, -11, -19):
        field = QuadField(d)
        for on_b2 in (True, False):
            need = {
                Definiteness.INDEFINITE: 6,
                Definiteness.POSITIVE_DEFINITE: 3,
                Definiteness.NEGATIVE_DEFINITE: 3,
            }
            while any(need.values()):
                lattice = Lattice.standard(field) if on_b2 else random_b_stable_lattice(rng, field)
                beta = rng.choice((0, rng.randint(-40, 40)))
                gamma = field.elem(rng.randint(-20, 20), rng.randint(-20, 20))
                space = HermSpace(field, rng.randint(-40, 40), beta, gamma * field.inverse_sqrt_d())
                try:
                    form = space.integral_form(lattice)
                except (NotIntegralError, DegenerateFormError):
                    continue
                if any(e > 1 for e in form.delta_factors().values()):
                    continue
                if need[form.definiteness]:
                    need[form.definiteness] -= 1
                    yield space, lattice


class TestRepresentOne:
    def test_search_output_byte_identical(self, tmp_path, monkeypatch):
        # represent-one --search-bound 6, JSON and text, on 96 seeded forms,
        # against one digest of stdout, stderr and exit code; the exhausted
        # warning goes to stderr as without a logging configuration, whatever
        # handlers the test runner installs
        logger = logging.getLogger("hermquat.represent")
        handler = logging.StreamHandler()
        monkeypatch.setattr(logger, "propagate", False)
        monkeypatch.setattr(logger, "handlers", [handler])
        path = tmp_path / "form.json"
        digest = hashlib.sha256()
        codes = set()
        for space, lattice in search_gate_forms(61):
            path.write_text(jsonio.dumps(jsonio.form_obj(space, lattice, None)))
            for fmt in ("json", "text"):
                out, err = io.StringIO(), io.StringIO()
                handler.setStream(err)
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(["represent-one", str(path), "--search-bound", "6", "--format", fmt])
                codes.add(code)
                digest.update(f"{code}\n{out.getvalue()}\n{err.getvalue()}\n".encode())
        assert codes == {0, 4, 5}
        assert digest.hexdigest() == REPRESENT_CLI_SHA256

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

    def test_discriminant_above_factoring_limit_exit_2(self, tmp_path, capsys):
        space, _ = semiprime_form()
        path = write_form(tmp_path, space)
        t0 = time.perf_counter()
        code = main(["represent-one", path])
        assert code == 2
        assert time.perf_counter() - t0 < 1.0
        assert "larger than the limit" in capsys.readouterr().err


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

    def test_disc_suite_records_a_falsified_build(self, monkeypatch):
        from hermquat import verify as verify_mod

        def falsified(space, point):
            raise InvariantViolation("synthetic")

        monkeypatch.setattr(verify_mod, "build_algebra", falsified)
        result = verify_mod.suite_disc(seed=0)
        assert not result.ok
        assert {f["error"] for f in result.failures} == {"synthetic"}


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: (
        st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=3), inner, max_size=3)
    ),
    max_leaves=10,
)


def _paths(obj, prefix=()):
    """Every key and list position of a JSON value, except the field key 'd'."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        if key == "d":
            continue
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


def _replaced(obj, path, value):
    obj = copy.deepcopy(obj)
    target = obj
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return obj


VALID_ORDER = jsonio.order_obj(*m2z_order())
VALID_FORM = jsonio.form_obj(
    HermSpace(F7, 1, -1, F7.zero()),
    lattice_from_B_basis(vec(F7, 1, 0), vec(F7, F7.elem(2, -1), 1)),
    vec(F7, 1, 0),
)


class TestMalformedInputFuzz:
    """One field, row or entry of a valid file replaced by any JSON value:
    the CLI answers with an exit code of its contract or, for a falsified
    identity, with InvariantViolation, and never with another exception."""

    @pytest.mark.parametrize(
        "command, valid", [("from-order", VALID_ORDER), ("analyze", VALID_FORM)]
    )
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_exit_code_contract(self, command, valid, data):
        path = data.draw(st.sampled_from(list(_paths(valid))), label="path")
        obj = _replaced(valid, path, data.draw(JSON_VALUES, label="value"))
        with tempfile.TemporaryDirectory() as tmp:
            fpath = os.path.join(tmp, "input.json")
            with open(fpath, "w", encoding="utf-8") as fh:
                json.dump(obj, fh)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = main([command, fpath])
                except InvariantViolation:
                    return
        assert code in range(6)


class TestSuccessiveCalls:
    def test_no_state_carries_over(self, tmp_path, capsys, monkeypatch):
        # main parses with one parser: a sweep's arguments and defaults do
        # not reach the next call, on another subcommand
        out = tmp_path / "sweep.json"
        code, printed = run_cli(
            ["sweep", "--d", "-7", "--height", "1", "--format", "json", "--out", str(out)], capsys
        )
        assert code == 0 and printed == ""
        assert json.loads(out.read_text())
        form = write_form(tmp_path, HermSpace(F7, 1, -1, F7.zero()))
        seen = []
        monkeypatch.setattr(cli, "cmd_analyze", lambda args: seen.append(vars(args)) or 0)
        assert main(["analyze", form]) == 0
        assert seen == [{"command": "analyze", "form": form, "format": "json", "out": None}]
        monkeypatch.undo()
        code, printed = run_cli(["analyze", form], capsys)
        assert code == 0
        assert json.loads(printed)["discriminant"]["value"] == "7"


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


# The benchmark's set-up: import the package, the CLI and jsonio, and build
# fields and their standard lattices; prints the modules this newly loads.
STARTUP = """
import sys
before = set(sys.modules)
import hermquat
from hermquat import cli, jsonio
for d in (-3, -7):
    hermquat.Lattice.standard(hermquat.QuadField(d))
print(" ".join(sorted(set(sys.modules) - before)))
"""


class TestStartUp:
    # loaded only by the commands that run them: dataclasses and inspect
    # cost about 10 ms of import, argparse pulls in locale and gettext
    DEFERRED = {
        "dataclasses", "inspect", "logging", "argparse", "hermquat.quaternion",
        "hermquat.represent", "hermquat.sweep", "hermquat.verify",
    }

    def test_set_up_loads_only_the_form_side(self):
        package_root = str(Path(hermquat.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (package_root, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-c", STARTUP], capture_output=True, text=True, env=env, check=True
        )
        loaded = set(proc.stdout.split())
        assert {"hermquat.cli", "hermquat.hermitian", "hermquat.jsonio"} <= loaded
        assert not loaded & self.DEFERRED, sorted(loaded & self.DEFERRED)

    def test_exported_names_resolve_to_their_modules(self, monkeypatch):
        import importlib

        for name, module in hermquat._EXPORTS.items():
            source = importlib.import_module(f"hermquat.{module}")
            assert getattr(hermquat, name) is getattr(source, name), name
        # the package reads a name from its module at each access and keeps
        # no copy, so a rebinding is seen and leaves nothing behind
        from hermquat import sweep

        monkeypatch.setattr(sweep, "surviving_forms", len)
        assert hermquat.surviving_forms is len
        monkeypatch.undo()
        assert hermquat.surviving_forms is sweep.surviving_forms
        assert "surviving_forms" not in vars(hermquat)
        with pytest.raises(AttributeError):
            hermquat.no_such_name

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "represent-one" in capsys.readouterr().out
