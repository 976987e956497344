"""Command-line surface: analyze, build-order, from-order, represent-one,
sweep, verify.  JSON in, JSON/CSV/text out; exit codes are a stable
contract: 0 ok, 1 verify failure, 2 bad input, 3 no point found, 4
representation obstruction, 5 search exhausted.

Start-up loads only the form side: each subcommand imports the layers it
runs, and the parser is built on the first call of ``main``.
"""

from __future__ import annotations

import functools
import io
import sys

from . import jsonio
from .errors import (
    DegenerateFormError,
    Error,
    InputError,
    InvariantViolation,
    NotIntegralError,
)
from .hermitian import det_form, discriminant_form
from .qfield import QuadField

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INPUT = 2
EXIT_NO_POINT = 3
EXIT_OBSTRUCTION = 4
EXIT_EXHAUSTED = 5


def _read_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    return jsonio.loads(text)


def _emit(text: str, out: str | None):
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _as_text(obj, indent=0) -> str:
    pad = "  " * indent
    lines = []
    if isinstance(obj, dict):
        for key in sorted(obj):
            value = obj[key]
            if isinstance(value, (dict, list)):
                lines.append(f"{pad}{key}:")
                lines.append(_as_text(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {value}")
    elif isinstance(obj, list):
        for value in obj:
            if isinstance(value, (dict, list)):
                lines.append(_as_text(value, indent + 1))
            else:
                lines.append(f"{pad}- {value}")
    else:
        lines.append(f"{pad}{obj}")
    return "\n".join(line for line in lines if line)


def _render(obj, fmt: str, out: str | None):
    if fmt == "text":
        _emit(_as_text(obj) + "\n", out)
    else:
        _emit(jsonio.dumps(obj), out)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_analyze(args) -> int:
    space, lattice, _ = jsonio.parse_form(_read_json(args.form))
    nondeg = space.is_nondegenerate()
    det = det_form(space, lattice) if nondeg else None
    disc = None
    integral = True
    try:
        disc = discriminant_form(space, lattice)
    except NotIntegralError:
        integral = False
    except DegenerateFormError:
        pass  # IntegralForm tests integrality before nondegeneracy
    report = {
        "d": space.field.d,
        "field_discriminant": space.field.D,
        "integral": integral,
        "nondegenerate": nondeg,
        "b_stable": True,
        "definiteness": space.definiteness().value,
    }
    if det is not None:
        report["det_form"] = jsonio.disc_obj(det)
    if disc is not None:
        report["discriminant"] = jsonio.disc_obj(disc)
    _render(report, args.format, args.out)
    return EXIT_OK


def cmd_build_order(args) -> int:
    from .quaternion import build_order
    from .represent import RepresentConfig, represents_one_integral

    space, lattice, file_point = jsonio.parse_form(_read_json(args.form))
    config = RepresentConfig(search_bound=args.search_bound)
    if args.point:
        point = jsonio.parse_vector(space.field, jsonio.loads(args.point))
    elif file_point is not None and not args.find_point:
        point = file_point
    else:
        report = represents_one_integral(space, lattice, config)
        if report.witness is None:
            _render(jsonio.report_obj(report), args.format, args.out)
            return EXIT_NO_POINT
        point = report.witness
    order, emb = build_order(space, lattice, point)
    out = jsonio.order_obj(order, emb)
    out["point"] = jsonio.vector_obj(point)
    out["closure"] = {
        "verified": True,
        "products": order.products,
    }
    _render(out, args.format, args.out)
    return EXIT_OK


def cmd_from_order(args) -> int:
    from .quaternion import is_optimal, order_to_pointed

    order, emb = jsonio.parse_order(_read_json(args.order))
    if emb is None:
        raise InputError("order file carries no omega_image (embedding)")
    pointed = order_to_pointed(order, emb)
    out = jsonio.form_obj(pointed.space, pointed.lattice, pointed.point)
    out["optimal"] = is_optimal(emb)
    out["order_discriminant"] = jsonio.disc_obj(order.discriminant())
    try:
        out["discriminant"] = jsonio.disc_obj(
            discriminant_form(pointed.space, pointed.lattice)
        )
    except NotIntegralError:
        pass
    _render(out, args.format, args.out)
    return EXIT_OK


def cmd_represent_one(args) -> int:
    from .represent import (
        VERDICT_LOCAL_OBSTRUCTION, VERDICT_REAL_OBSTRUCTION, VERDICT_REPRESENTED,
        RepresentConfig, represents_one_integral,
    )

    space, lattice, _ = jsonio.parse_form(_read_json(args.form))
    config = RepresentConfig(search_bound=args.search_bound)
    report = represents_one_integral(space, lattice, config)
    _render(jsonio.report_obj(report), args.format, args.out)
    if report.verdict == VERDICT_REPRESENTED:
        return EXIT_OK
    if report.verdict in (VERDICT_REAL_OBSTRUCTION, VERDICT_LOCAL_OBSTRUCTION):
        return EXIT_OBSTRUCTION
    return EXIT_EXHAUSTED


def _csv_cell(value):
    if isinstance(value, bool):
        return str(value).lower()
    return "" if value is None else value


def _csv_rows(rows):
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(jsonio.SWEEP_COLUMNS)
    for row in rows:
        obj = jsonio.sweep_row_obj(row)
        obj["gamma"] = str(row.gamma)
        if row.report.witness is not None:
            obj["witness"] = "({}, {})".format(*row.report.witness)
        writer.writerow([_csv_cell(obj[key]) for key in jsonio.SWEEP_COLUMNS])
    return buf.getvalue()


def cmd_sweep(args) -> int:
    from .represent import RepresentConfig
    from .sweep import run_sweep

    field = QuadField(args.d)
    config = RepresentConfig(search_bound=args.search_bound)
    rows = run_sweep(field, args.height, config, target_disc=args.target_disc)
    if args.format == "json":
        _emit(jsonio.dumps([jsonio.sweep_row_obj(row) for row in rows]), args.out)
    else:
        _emit(_csv_rows(rows), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import verify

    results = verify.run_suites([args.suite], seed=args.seed)
    failed = False
    for result in results:
        status = "pass" if result.ok else "FAIL"
        print(f"{result.name}: {status} ({result.cases} cases)")
        if not result.ok:
            failed = True
            print(jsonio.dumps({"suite": result.name, "case": result.failures[0]}))
    return EXIT_VERIFY_FAIL if failed else EXIT_OK


# ---------------------------------------------------------------------------
# Parser


@functools.cache
def _build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="hermquat",
        description=(
            "Exact arithmetic linking binary hermitian forms over imaginary "
            "quadratic fields with embedded quaternion orders."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--out", default=None, help="write output to this path")

    p = sub.add_parser("analyze", help="invariants of a form file")
    p.add_argument("form")
    common(p)

    p = sub.add_parser("build-order", help="order and embedding from a pointed form")
    p.add_argument("form")
    p.add_argument("--point", default=None, help="JSON pair of field elements")
    p.add_argument("--find-point", action="store_true")
    p.add_argument("--search-bound", type=int, default=50)
    common(p)

    p = sub.add_parser("from-order", help="pointed form from an embedded order")
    p.add_argument("order")
    common(p)

    p = sub.add_parser("represent-one", help="decide h = 1 on the lattice")
    p.add_argument("form")
    p.add_argument("--search-bound", type=int, default=50)
    common(p)

    p = sub.add_parser("sweep", help="enumerate forms and run the full pipeline")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--target-disc", type=int, default=None)
    p.add_argument("--search-bound", type=int, default=50)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)

    p = sub.add_parser("verify", help="run the seeded property suites")
    p.add_argument(
        "--suite",
        choices=("all", "polarize", "algebra", "order", "disc", "represent"),
        default="all",
    )
    p.add_argument("--seed", type=int, default=0)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if getattr(args, "height", 1) <= 0 or getattr(args, "search_bound", 1) <= 0:
        print("error: bounds must be positive", file=sys.stderr)
        return EXIT_INPUT
    # looked up by name at call time, so that a rebound cmd_* function (a
    # tracer's wrapper) runs although the parser is built once
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except InvariantViolation:
        raise  # a falsified identity must crash loudly, not map to an exit code
    except Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
