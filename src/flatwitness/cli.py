"""Command-line front end.

Every subcommand parses its arguments, runs its pipeline through the one
function in ``acceptance`` that the acceptance battery also runs, and emits
a single JSON report of the resulting check records, each measured value
next to the tolerance that judges it, so reports are self-verifying and a
gate carries the same name here as in the battery.  The exception is
``olympiad --m --n``, whose one window the battery never checks: it calls
``seq_core.verify_olympiad_bound`` itself.  Exit status: 0 when all gated
checks pass, 1 when a check fails, 2 for usage or input errors and for memory
that cannot be allocated.  Verdict-style outputs (an undecidable limit
classification) are informational and never fail a run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import acceptance, ioformats
from .acceptance import Check
from .bezout_ops import strictness_witness
from .errors import FlatwitnessError, InvalidInput
from .hardy_engine import DEFAULT_CLAMP, constant_function, coordinate_function, inner_check
from .layered_factor import preset_circle, preset_l2, preset_lebesgue_r
from .seq_core import (TailProfile, default_bound_tol, geometric_profile, tail_profile,
                       verify_olympiad_bound)
from .ultralimits import bounded_sequence, principal_limit


def _report(subcommand, parameters, checks, **extra):
    return {"subcommand": subcommand, "parameters": parameters, "checks": checks, **extra}


def _rows(checks):
    """The JSON rows of check records, as every report gives them."""
    return [{"name": c.name, "value": c.value, "tol": c.tol, "pass": c.passed} for c in checks]


def _emit(report, args, t0) -> int:
    checks = report["checks"]
    report["checks"] = _rows(checks)
    report["pass"] = all(c.passed for c in checks if c.passed is not None)
    report["wall_time_s"] = time.perf_counter() - t0
    indent = None if args.json else 2
    try:
        text = json.dumps(ioformats.jsonable(report), indent=indent, allow_nan=False)
    except ValueError as exc:  # NaN or infinity, which strict JSON cannot carry
        raise InvalidInput(f"the report holds a non-finite value: {exc}") from exc
    if args.out:
        try:
            Path(args.out).write_text(text + "\n")
        except OSError as exc:
            raise InvalidInput(f"cannot write the report to {args.out}: {exc}") from exc
    else:
        try:
            print(text, flush=True)
        except OSError as exc:
            # a closed pipe, say: the text left in stdout's buffer goes to the null
            # device, so the flush at exit does not fail a second time
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise InvalidInput(f"cannot write the report to stdout: {exc}") from exc
    return 0 if report["pass"] else 1


def _checked(kind, rule, holds):
    """An argparse type: the text read as ``kind``, refused unless ``holds`` of the value."""
    def parse(text):
        try:
            if holds(value := kind(text)):
                return value
        except (ValueError, OSError):  # OSError: a path too long to look up
            pass
        raise argparse.ArgumentTypeError(f"must be {rule}, not {text!r}")
    return parse


# numpy meets a negative size or seed with a bare ValueError, and a log of <= 0 with a warning;
# a count past 2^29 (n * P of --random, shells * atoms per shell of layered too) is refused,
# so the witness frames' n^2 P complex entries fit numpy's 2^63-byte array limit
_MAX_COUNT = 2**29
_SEED = _checked(int, "a nonnegative integer", lambda v: v >= 0)
_FINITE = _checked(float, "finite", np.isfinite)
_NONNEGATIVE = _checked(float, "finite and >= 0", lambda v: np.isfinite(v) and v >= 0)
_POSITIVE = _checked(float, "finite and > 0", lambda v: np.isfinite(v) and v > 0)
_FRACTION = _checked(float, "in (0, 1)", lambda v: 0 < v < 1)
_INDEX = _checked(int, "an index >= 1", lambda v: v >= 1)
_SIZE = _checked(int, f"a count in [1, {_MAX_COUNT}]", lambda v: 1 <= v <= _MAX_COUNT)
_EVEN_SIZE = _checked(int, "an even count >= 2", lambda v: v >= 2 and v % 2 == 0 and _SIZE(v))
_GRID = _checked(int, "a power of two >= 4", lambda v: v >= 4 and v & (v - 1) == 0 and _SIZE(v))
_DEFAULT_GRID = 2**14  # N of the hardy actions' built-in inputs and fixtures, and of transfer
# --random and --fixture keep their text, which the report shows; _SIZE and
# _POSITIVE refuse a bad n, P or C with their own message
_SIZE_PAIR = _checked(str, f"two counts 'n,P' with n * P <= {_MAX_COUNT}",
                      lambda text: len(pair := [_SIZE(n) for n in text.split(",")]) == 2
                      and pair[0] * pair[1] <= _MAX_COUNT)
_FIXTURE = _checked(str, "const:C or log-sin", lambda text: text == "log-sin"
                    or text.startswith("const:") and _POSITIVE(text[6:]))
# refused before the pipeline runs; _emit still refuses a file it cannot write
_OUT = _checked(str, "a file in an existing directory",
                lambda text: not Path(text).is_dir() and Path(text).parent.is_dir())


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """A usage error exits 2 through ``main``'s one JSON error line, as input errors do."""
        raise InvalidInput(message)


def _unread(args, source, *options):
    """Refuse each of ``options`` given on the command line, since ``source`` does not read it."""
    for name in options:
        if getattr(args, name) is not None:
            raise InvalidInput(f"--{name.replace('_', '-')} does not apply to {source}")


def _defaults(args, **defaults):
    """Give each option the chosen source reads, and the command line left out, its default."""
    for name, value in defaults.items():
        if getattr(args, name) is None:
            setattr(args, name, value)


def _number_after_colon(spec) -> float:
    try:
        if np.isfinite(value := float(spec.split(":", 1)[1])):
            return value
    except ValueError:
        pass
    raise InvalidInput(f"expected a finite number after the colon in {spec!r}")


# ---------------------------------------------------------------------------
# subcommand handlers: parse, run one pipeline, return the report


def _cmd_olympiad(args):
    if args.input:
        _unread(args, "an --input sequence", "geometric", "terms")
        profile = tail_profile(ioformats.read_sequence(args.input), args.tail or 0.0)
    else:
        _unread(args, "the --geometric profile", "tail")
        _defaults(args, geometric=0.5, terms=200)
        profile = geometric_profile(args.geometric, args.terms)
    if args.m is not None or args.n is not None:
        if args.m is None or args.n is None:
            raise InvalidInput("give both --m and --n for a single window")
        if not args.m < args.n <= profile.n_terms:
            raise InvalidInput(f"--m and --n must satisfy --m < --n <= {profile.n_terms}, "
                               f"the number of terms, not {args.m} and {args.n}")
        out = verify_olympiad_bound(profile, args.m, args.n, tol_abs=args.tol)
        checks = [Check("weighted_sum", out.lhs, out.rhs + out.tol, out.holds),
                  Check("telescoped_bound", out.rhs), Check("head_mass", profile.head)]
    else:
        stack = TailProfile(profile.magnitudes_sq[None], profile.suffix_sums[None], profile.tail)
        tol = args.tol if args.tol is not None else default_bound_tol(stack)
        [checks] = acceptance.olympiad_checks(stack, tol)
    return _report("olympiad", {"input": args.input, "geometric": args.geometric,
                                "terms": profile.n_terms, "tail": profile.tail,
                                "m": args.m, "n": args.n}, checks)


def _cmd_witness(args):
    if args.input:
        _unread(args, "an --input relation", "random", "seed")
        rel = ioformats.relation_from_obj(ioformats.read_json(args.input))
    else:
        _defaults(args, random="3,128", seed=acceptance.DEFAULT_SEED)
        n, p = map(int, args.random.split(","))
        rng = np.random.default_rng(args.seed)
        weights = rng.uniform(size=p)
        r = rng.standard_normal((p, n)) + 1j * rng.standard_normal((p, n))
        raw_m = rng.standard_normal((p, n)) + 1j * rng.standard_normal((p, n))
        rel = acceptance.manufactured_relation(weights, r, raw_m)
    [checks], cert = acceptance.witness_checks(rel)
    extra = {"certificate": {"k": cert.k, "rho": cert.rho, "mu": cert.mu}} \
        if args.certificate else {}
    return _report("witness", {"input": args.input, "random": args.random, "seed": args.seed,
                               "points": rel.n_points, "terms": rel.n_terms}, checks, **extra)


def _cmd_bezout(args):
    if args.input:
        _unread(args, "an --input pair", "atoms", "seed")
        f, g = ioformats.bezout_pair_from_obj(ioformats.read_json(args.input))
    else:
        _defaults(args, atoms=1000, seed=acceptance.DEFAULT_SEED)
        f, g = acceptance.random_pair(np.random.default_rng(args.seed), args.atoms)
    checks = acceptance.bezout_checks(f, g)
    if args.strictness:
        obstruction = strictness_witness(g)
        checks += [Check("generator_zero_mass", obstruction.zero_mass),
                   Check("indicator_distance", obstruction.distance)]
    return _report("bezout", {"input": args.input, "atoms": f.n_atoms, "seed": args.seed},
                   checks)


def _cmd_ulim(args):
    seq = bounded_sequence(ioformats.read_sequence(args.input))
    checks = acceptance.ulim_checks(seq, args.tol, args.tail_fraction)
    if args.index is not None:
        if args.index > len(seq.values):
            raise InvalidInput(f"--index must be at most {len(seq.values)}, the length of the "
                               f"sequence, not {args.index}")
        checks.insert(0, Check(f"limit_at_{args.index}", principal_limit(seq, args.index)))
    return _report("ulim", {"input": args.input, "tol": args.tol,
                            "tail_fraction": args.tail_fraction, "length": len(seq.values)},
                   checks)


# preset -> its builder, and the option besides --shells that it reads, with its default
_PRESETS = {"l2": (preset_l2, "geometric", 0.5),
            "lebesgue-r": (preset_lebesgue_r, "atoms_per_shell", 64),
            "circle": (preset_circle, "atoms_per_shell", 64)}


def _cmd_layered(args):
    if args.preset:
        build, option, default = _PRESETS[args.preset]
        other = "atoms_per_shell" if option == "geometric" else "geometric"
        _unread(args, f"--preset {args.preset}", "layout", "values", "tail", other)
        _defaults(args, shells=64, **{option: default})
        if args.shells * (args.atoms_per_shell or 1) > _MAX_COUNT:
            raise InvalidInput(f"--shells times --atoms-per-shell must be at most {_MAX_COUNT}")
        f, layout, tail = build(args.shells, getattr(args, option))
    else:
        if not (args.layout and args.values):
            raise InvalidInput("need --preset, or --layout together with --values")
        _unread(args, "a --layout", "shells", "atoms_per_shell", "geometric")
        layout = ioformats.layered_space_from_obj(ioformats.read_json(args.layout))
        f = ioformats.layered_values_from_obj(ioformats.read_json(args.values), layout)
        tail = args.tail or 0.0
    checks, _ = acceptance.layered_checks(f, layout, args.mode, tail, args.tol)
    return _report("layered", {"preset": args.preset, "shells": layout.n_shells,
                               "atoms": layout.n_atoms, "geometric": args.geometric,
                               "mode": args.mode, "tail": tail}, checks)


def _built_in(spec, n):
    """``spec`` sampled at N = ``n`` when it names a built-in, or None when it is a grid file."""
    if spec == "constant1":
        return constant_function(n)
    if spec == "z":
        return coordinate_function(n)
    if spec.startswith("blaschke:"):
        a = _number_after_colon(spec)
        if abs(a) > 1.0:  # the pole 1/A would lie inside the disk
            raise InvalidInput(f"expected |A| <= 1 in {spec!r}, since (z - A)/(1 - A z) "
                               "has its pole 1/A inside the disk otherwise")
        return acceptance.blaschke(n, a)
    return None


def _hardy_input(args):
    """``--input`` of ``hardy factor``/``project``, at ``--grid`` unless a grid file sets N."""
    f = _built_in(args.input, args.grid or _DEFAULT_GRID)
    if f is None:
        _unread(args, "a grid file", "grid")
        f = ioformats.read_grid_function(args.input)
    return f


def _cmd_hardy(args):
    if args.action == "factor":
        f = _hardy_input(args)
        checks, _ = acceptance.factor_checks(f, args.shells)
        return _report("hardy factor", {"grid": f.n, "shells": args.shells,
                                        "input": args.input}, checks)

    if args.action == "outer":
        if args.fixture:
            k = acceptance.outer_fixture(args.fixture, args.grid or _DEFAULT_GRID)
        elif args.input:
            _unread(args, "a grid file", "grid")
            k = ioformats.read_grid_function(args.input).samples
        else:
            raise InvalidInput("need --fixture or --input")
        checks, outer = acceptance.outer_checks(k, args.clamp)
        extra = {"taylor_head": outer.boundary.taylor()[:32]} if args.emit_taylor else {}
        return _report("hardy outer", {"grid": len(k), "fixture": args.fixture,
                                       "input": args.input, "clamp": args.clamp},
                       checks, **extra)

    f = _hardy_input(args)
    b = _built_in(args.inner, f.n) or ioformats.read_grid_function(args.inner)
    checks, _ = acceptance.project_checks(f, inner_check(b))
    return _report("hardy project", {"grid": f.n, "input": args.input, "inner": args.inner},
                   checks)


def _cmd_transfer(args):
    if args.points:
        _unread(args, "--points", "num_points", "seed")
        pts = ioformats.read_sequence(args.points)
    else:
        _defaults(args, num_points=100, seed=acceptance.DEFAULT_SEED)
        pts = acceptance.halfplane_points(np.random.default_rng(args.seed), args.num_points)
    checks = acceptance.transfer_checks(args.grid, args.shells, pts)
    return _report("transfer", {"grid": args.grid, "shells": args.shells,
                                "points": len(pts), "seed": args.seed}, checks)


def _failure(c) -> str:
    """A failing gate as ``name value > tol``, or as ``name value (tol ...)`` when either is
    not a number."""
    if isinstance(c.value, float) and isinstance(c.tol, float):
        return f"{c.name} {c.value:.2e} > {c.tol:g}"
    return f"{c.name} {c.value} (tol {c.tol})"


def _cmd_suite(args):
    _defaults(args, seed=acceptance.DEFAULT_SEED)
    checks = []
    for res in acceptance.run_suite(seed=args.seed):
        line = f"criterion {res.index}: {'PASS' if res.passed else 'FAIL'}  {res.name}" \
               f"  ({res.elapsed_s:.2f}s)"
        print(line, file=sys.stderr)
        if not res.passed:
            failing = [_failure(c) for c in res.records if c.passed is not None and not c.passed]
            print(f"  failing checks: {', '.join(failing)}", file=sys.stderr)
        checks.append(Check(f"criterion_{res.index}_{res.name.replace(' ', '_')}",
                            {"checks": res.checks, "records": _rows(res.records),
                             "elapsed_s": res.elapsed_s},
                            None, res.passed))
    return _report("suite", {"seed": args.seed}, checks)


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="flatwitness",
        description="Flatness certificates, ideal generators, and boundary factorizations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seeded=False):
        p.add_argument("--out", type=_OUT, help="write the JSON report here instead of stdout")
        p.add_argument("--json", action="store_true", help="compact single-line JSON")
        if seeded:
            p.add_argument("--seed", type=_SEED, help=f"default {acceptance.DEFAULT_SEED}")

    p = sub.add_parser("olympiad", help="suffix-sum weighted series bound")
    common(p)
    p.add_argument("--input", help="sequence file (.json pairs or .csv index,re,im)")
    p.add_argument("--geometric", type=_FRACTION,
                   help="ratio of |a_k|^2 = ratio^k (default 0.5)")
    p.add_argument("--terms", type=_SIZE, help="terms of the geometric profile (default 200)")
    p.add_argument("--tail", type=_NONNEGATIVE, default=None,
                   help="mass of the terms past an --input sequence (default 0)")
    p.add_argument("--m", type=_INDEX, default=None, help="single-window start index")
    p.add_argument("--n", type=_INDEX, default=None, help="single-window end index")
    p.add_argument("--tol", type=_FINITE, default=None)
    p.set_defaults(func=_cmd_olympiad)

    p = sub.add_parser("witness", help="synthesize and verify a relation certificate")
    common(p, seeded=True)
    p.add_argument("--input", help="relation JSON {weights, r, m}")
    p.add_argument("--random", type=_SIZE_PAIR, help="random instance 'n,P' (default 3,128)")
    p.add_argument("--certificate", action="store_true",
                   help="include the certificate in the report")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("bezout", help="principal generator of a two-generator ideal")
    common(p, seeded=True)
    p.add_argument("--input", help="JSON {f, g, weights}")
    p.add_argument("--atoms", type=_SIZE, help="atoms of the random pair (default 1000)")
    p.add_argument("--strictness", action="store_true",
                   help="report the zero-set obstruction of the second generator")
    p.set_defaults(func=_cmd_bezout)

    p = sub.add_parser("ulim", help="principal and eventual limits, ideal membership")
    common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--tol", type=_POSITIVE, default=1e-3)
    p.add_argument("--tail-fraction", type=_FRACTION, default=0.25,
                   help="trailing share of the terms that decides the limit and the verdict")
    p.add_argument("--index", type=_INDEX, default=None,
                   help="also report the evaluation limit at this 1-based index")
    p.set_defaults(func=_cmd_ulim)

    p = sub.add_parser("layered", help="shell-layered weight factorization")
    common(p)
    p.add_argument("--preset", choices=["l2", "lebesgue-r", "circle"])
    p.add_argument("--shells", type=_SIZE, help="shells of a --preset (default 64)")
    p.add_argument("--atoms-per-shell", type=_EVEN_SIZE,
                   help="atoms per shell of lebesgue-r and circle (default 64)")
    p.add_argument("--geometric", type=_FRACTION, help="ratio of the l2 preset (default 0.5)")
    p.add_argument("--layout", help="layered space JSON")
    p.add_argument("--values", help="sampled function JSON aligned with the layout")
    p.add_argument("--tail", type=_NONNEGATIVE, default=None,
                   help="mass past the last shell of a --layout (default 0)")
    p.add_argument("--mode", choices=["auto", "compact", "general"], default="auto")
    p.add_argument("--tol", type=_POSITIVE, default=1e-3)
    p.set_defaults(func=_cmd_layered)

    p = sub.add_parser("hardy", help="boundary-grid pipelines")
    actions = p.add_subparsers(dest="action", required=True)

    def action(name, help):
        q = actions.add_parser(name, help=help)
        common(q)
        q.add_argument("--grid", type=_GRID,
                       help=f"grid size N (default {_DEFAULT_GRID}; a grid file sets it)")
        q.set_defaults(func=_cmd_hardy)
        return q

    inputs = "constant1, z, blaschke:A, or a grid file (.json/.bin)"
    q = action("factor", "factor f = g * h against the arc-shell weight")
    q.add_argument("--shells", type=_SIZE, default=256)
    q.add_argument("--input", default="constant1", help=inputs)
    q = action("outer", "synthesize an outer function from its log-modulus")
    source = q.add_mutually_exclusive_group()
    source.add_argument("--fixture", type=_FIXTURE, help="const:C or log-sin")
    source.add_argument("--input", help="log-modulus grid file (.json/.bin)")
    q.add_argument("--clamp", type=_POSITIVE, default=DEFAULT_CLAMP)
    q.add_argument("--emit-taylor", action="store_true")
    q = action("project", "project f onto b * H2 for an inner b")
    q.add_argument("--input", default="constant1", help=inputs)
    q.add_argument("--inner", default="z", help="the inner function, in the --input vocabulary")

    p = sub.add_parser("transfer", help="move a disk factorization to the half-plane")
    common(p, seeded=True)
    p.add_argument("--grid", type=_GRID, default=_DEFAULT_GRID)
    p.add_argument("--shells", type=_SIZE, default=256)
    p.add_argument("--points", help="half-plane sample points (.json pairs)")
    p.add_argument("--num-points", type=_SIZE, help="random sample points (default 100)")
    p.set_defaults(func=_cmd_transfer)

    p = sub.add_parser("suite", help="run the full acceptance battery")
    common(p, seeded=True)
    p.set_defaults(func=_cmd_suite)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        t0 = time.perf_counter()
        return _emit(args.func(args), args, t0)
    except (FlatwitnessError, MemoryError) as exc:  # numpy's is a subclass of MemoryError
        error = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
        print(json.dumps({"error": error, "message": str(exc)}), file=sys.stderr)
        return 2


def console_main():  # pragma: no cover
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    console_main()
