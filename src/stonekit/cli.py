"""Command line interface.

Documents go in, documents and reports come out. Compute subcommands
read one lattice or space document, print the result in the same format
with a summary comment on top, and exit 0. The ``laws`` subcommand runs
one named law suite over enumerated universes and prints one line per
checked instance: instance id, law id, PASS or FAIL, and a witness on
failure; it exits 0 exactly when nothing failed. ``export dot`` renders
a structure as a graph description.

Exit codes: 0 success, 1 law or validation failure, 2 usage or parse
errors, a pool bound that leaves a pool empty, budget guards hit without
--force, or a closed standard output.
"""

import argparse
import os
import sys

from .bitsets import bits
from .dlat import DistLattice, ideal_lattice
from .documents import dumps, load_lattice, load_space, loads, quoted
from .errors import BudgetExceeded, ParseError, StonekitError
from .frame import (
    center_lattice,
    is_boolean,
    is_regular,
    is_stably_compact,
    spectrum,
    way_below,
)
from .instances import DEFAULT_SEED, LAW_SUITES, run_suite
from .order import covers, transpose
from .spaces import FinSpace, is_homeomorphism, is_t0
from .topspace import (
    compactification_square,
    filter_space,
    hausdorff_reflection,
    sobrification,
    t0_quotient,
)


# ---------------------------------------------------------------------------
# document plumbing


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _space_summary(name: str, x: FinSpace) -> str:
    t0 = "T0" if is_t0(x) else "not T0"
    return f"# space {quoted(name)}: {x.n} points, {len(x.opens)} opens, {t0}"


def _lattice_summary(name: str, lat: DistLattice) -> str:
    flags = []
    if is_boolean(lat):
        flags.append("Boolean")
    flags.append("distributive")
    return f"# lattice {quoted(name)}: {lat.n} elements, " + ", ".join(flags)


def _emit(summary: str, obj, name: str) -> int:
    sys.stdout.write(summary + "\n")
    sys.stdout.write(dumps(obj, name))
    return 0


def _cmd_validate(args) -> int:
    kind, name, obj = loads(_read_text(args.file))
    if kind == "lattice":
        return _emit(_lattice_summary(name, obj), obj, name)
    return _emit(_space_summary(name, obj), obj, name)


def _cmd_spectrum(args) -> int:
    name, lat = load_lattice(_read_text(args.file))
    space = spectrum(lat)
    out = f"spectrum of {name}"
    return _emit(f"# spectrum: {space.n} points, {len(space.opens)} opens", space, out)


def _cmd_ideals(args) -> int:
    name, lat = load_lattice(_read_text(args.file))
    ideals = ideal_lattice(lat)
    return _emit(
        f"# ideals: {ideals.n} ideals of {lat.n} elements, all principal",
        ideals,
        f"ideals of {name}",
    )


def _cmd_filters(args) -> int:
    name, x = load_space(_read_text(args.file))
    fx = filter_space(x)
    return _emit(
        f"# filters: {fx.n} filters, {len(fx.opens)} opens",
        fx,
        f"filters of {name}",
    )


def _cmd_sobrify(args) -> int:
    name, x = load_space(_read_text(args.file))
    sober, unit = sobrification(x)
    verdict = "already sober" if is_homeomorphism(unit) else "points adjusted"
    return _emit(
        f"# sobrification: {x.n} -> {sober.n} points, {verdict}",
        sober,
        f"sobrification of {name}",
    )


def _cmd_t0(args) -> int:
    name, x = load_space(_read_text(args.file))
    quotient, _ = t0_quotient(x)
    return _emit(
        f"# t0: {x.n} -> {quotient.n} points",
        quotient,
        f"t0 quotient of {name}",
    )


def _cmd_hausdorff(args) -> int:
    name, x = load_space(_read_text(args.file))
    reflection, _ = hausdorff_reflection(x)
    return _emit(
        f"# hausdorff: {x.n} -> {reflection.n} points, discrete",
        reflection,
        f"hausdorff reflection of {name}",
    )


def _cmd_center(args) -> int:
    name, lat = load_lattice(_read_text(args.file))
    center = center_lattice(lat)
    return _emit(
        f"# center: {center.n} of {lat.n} elements complemented",
        center,
        f"center of {name}",
    )


def _cmd_waybelow(args) -> int:
    name, lat = load_lattice(_read_text(args.file))
    pairs = way_below(lat).pairs()
    stable = "yes" if is_stably_compact(lat) else "no"
    regular = "yes" if is_regular(lat) else "no"
    sys.stdout.write(
        f"# waybelow of {quoted(name)}: {len(pairs)} pairs; "
        f"stably compact: {stable}; regular: {regular}\n"
    )
    for a, b in pairs:
        sys.stdout.write(f"{a} << {b}\n")
    return 0


def _cmd_cechstone(args) -> int:
    name, x = load_space(_read_text(args.file))
    report = compactification_square(x)
    left, right = report.spectral_side, report.reflection_side
    verdict = "ISO" if report.ok else "MISMATCH"
    if left.n == right.n:
        sides = f"both sides: {left.n} point" + ("s" if left.n != 1 else "")
    else:
        sides = f"sides: {left.n} and {right.n} points"
    sys.stdout.write(f"# cechstone {quoted(name)}: {sides}, {verdict}\n")
    sys.stdout.write(dumps(left, f"compactification of {name}"))
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------
# graph export


def _quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _lattice_dot(name: str, lat: DistLattice) -> str:
    lines = [f"digraph {_quote(name)} {{", "  rankdir=BT;"]
    for element in lat.elements:
        lines.append(f"  {_quote(element)};")
    for low, high in lat.poset.cover_pairs():
        lines.append(f"  {_quote(low)} -> {_quote(high)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _space_dot(name: str, x: FinSpace) -> str:
    up, down = x.up, transpose(x.up)
    lines = [f"digraph {_quote(name)} {{", "  rankdir=BT;"]
    for point in x.points:
        lines.append(f"  {_quote(point)};")
    # two-way edges join equivalent points, arrows the covers; in (i, j) order
    edges = [(i, j, "") for i, j in covers(down, up)]
    for i in range(x.n):
        edges += [(i, j, " [dir=both]") for j in bits(up[i] & down[i]) if i < j]
    for i, j, style in sorted(edges):
        lines.append(f"  {_quote(x.points[i])} -> {_quote(x.points[j])}{style};")
    legend = ", ".join(
        "{" + ",".join(x.points[i] for i in bits(m)) + "}" for m in x.opens
    )
    lines.append(f"  label={_quote('opens: ' + legend)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _cmd_export(args) -> int:
    kind, name, obj = loads(_read_text(args.file))
    if kind == "lattice":
        sys.stdout.write(_lattice_dot(name, obj))
    else:
        sys.stdout.write(_space_dot(name, obj))
    return 0


# ---------------------------------------------------------------------------
# law suites: one row per checked instance


def _cmd_laws(args) -> int:
    # an empty pool would pass every row of its kind vacuously
    for flag, bound, least, pool in (
        ("--max-points", args.max_points, 0, "space"),
        ("--max-lattice", args.max_lattice, 1, "lattice"),
    ):
        if bound < least:
            print(f"error: {flag} {bound} leaves the {pool} pool empty", file=sys.stderr)
            return 2
    rows = run_suite(
        args.suite, args.max_points, args.max_lattice, args.seed, args.force
    )
    failures = 0
    count = 0
    for instance, law, ok, witness in rows:
        count += 1
        if ok:
            sys.stdout.write(f"{instance}\t{law}\tPASS\n")
        else:
            failures += 1
            detail = "" if witness is None else f"\t{witness}"
            sys.stdout.write(f"{instance}\t{law}\tFAIL{detail}\n")
    sys.stdout.write(f"# {args.suite}: {count} checks, {failures} failures\n")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stonekit",
        description="Finite lattices, spaces, spectra, and the law suites relating them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, handler, doc in (
        ("validate", _cmd_validate, "parse and echo a document, canonicalized"),
        ("spectrum", _cmd_spectrum, "space of prime filters of a lattice"),
        ("ideals", _cmd_ideals, "lattice of ideals of a lattice"),
        ("filters", _cmd_filters, "space of open prime filters of a space"),
        ("sobrify", _cmd_sobrify, "sobrification of a space"),
        ("t0", _cmd_t0, "T0 quotient of a space"),
        ("hausdorff", _cmd_hausdorff, "Hausdorff reflection of a space"),
        ("center", _cmd_center, "Boolean center of a lattice"),
        ("waybelow", _cmd_waybelow, "way-below pairs and compactness report"),
        ("cechstone", _cmd_cechstone, "compactification both ways, compared"),
    ):
        cmd = sub.add_parser(name, help=doc)
        cmd.add_argument("file", help="lattice or space document")
        cmd.set_defaults(handler=handler)

    laws = sub.add_parser("laws", help="run a law suite, one line per instance")
    laws.add_argument("--suite", required=True, choices=sorted(LAW_SUITES))
    laws.add_argument("--max-points", type=int, default=3)
    laws.add_argument("--max-lattice", type=int, default=8)
    laws.add_argument("--seed", type=int, default=DEFAULT_SEED)
    laws.add_argument(
        "--force", action="store_true", help="raise the enumeration guard rails"
    )
    laws.set_defaults(handler=_cmd_laws)

    export = sub.add_parser("export", help="render a structure as graph text")
    export.add_argument("format", choices=["dot"])
    export.add_argument("file", help="lattice or space document")
    export.set_defaults(handler=_cmd_export)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout before the run finished: say nothing, and
        # point stdout at the null device so the flush at exit cannot fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 2
    except ParseError as exc:
        where = "" if exc.line is None else f"line {exc.line}: "
        print(f"error: {where}{exc.message}", file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StonekitError as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
