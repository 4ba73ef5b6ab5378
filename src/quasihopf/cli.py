"""Command line interface.

Subcommands:

    check <spec>                         parse and run the full axiom report
    integrals <spec>                     left/right integrals and modulus
    cointegrals <spec> --side left|right cointegral and symmetrised form
    modtrace <spec>                      modified trace; t(r_x) for every
                                         named element in the file
    sympferm --n N --beta B              build Q(N, beta), run the whole
                                         pipeline against its closed forms
                                         [--emit-spec PATH]
    verify <spec> --suite ...            reduction / pairing property suites

Exit codes: 0 success; 1 output closed early; 2 parse error or bad argument
or setting; 3 axiom or precondition failure; 4 verification failure.  Every
check is exhaustive.  Reports are byte-identical across runs with equal
inputs.
"""

import argparse
import json
import os
import sys

from quasihopf import intcoint, modtrace, qhspec, sympferm
from quasihopf.exactmath import (
    MAX_CONDUCTOR, cyclotomic_polynomial, format_scalar, parse_scalar)
from quasihopf.qha import QuasiHopfError, check_axioms
from quasihopf.repcat import regular_module, trivial_module
from quasihopf.report import Check

EXIT_OK = 0
EXIT_CLOSED = 1
EXIT_PARSE = 2
EXIT_AXIOM = 3
EXIT_VERIFY = 4


def _emit(report, as_json):
    if as_json:
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(report.render())


def _load(path):
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise qhspec.SpecSemanticError(
            f"{path}: byte {exc.start} is not UTF-8") from None
    doc = qhspec.parse(text)
    return doc, qhspec.to_algebra(doc)


def _element_report(name, el, labels):
    parts = [f"{format_scalar(c)}*[{labels[k]}]" for (k,), c in el.items_sorted()]
    return Check(name, True, value=" + ".join(parts) if parts else "0")


def _form_report(name, form, labels):
    parts = [f"{format_scalar(c)}*[{labels[k]}]*"
             for (k,), c in form.items_sorted()]
    return Check(name, True, value=" + ".join(parts) if parts else "0")


def cmd_check(args):
    doc, H = _load(args.spec)
    rep = check_axioms(H)
    _emit(rep, args.json)
    return EXIT_OK if rep.passed else EXIT_AXIOM


def cmd_integrals(args):
    doc, H = _load(args.spec)
    rep = Check("integrals")
    left = intcoint.integrals(H, "left")
    right = intcoint.integrals(H, "right")
    for space in (left, right):
        sub = rep.add(Check(space.side))
        sub.check("dimension", len(space.basis) == 1,
                  value=str(len(space.basis)))
        for i, vec in enumerate(space.basis):
            sub.add(_element_report(f"basis[{i}]", vec, H.alg.labels))
    gamma = intcoint.modulus(H, left.basis[0])
    sub = rep.add(Check("modulus"))
    sub.add(_form_report("gamma", gamma.form, H.alg.labels))
    sub.check("unimodular", True, value=str(gamma.is_counit(H)).lower())
    _emit(rep, args.json)
    return EXIT_OK if rep.passed else EXIT_AXIOM


def cmd_cointegrals(args):
    doc, H = _load(args.spec)
    result = intcoint.cointegrals(H, args.side,
                                  pin=qhspec.reference_cointegral(doc))
    sym = intcoint.symmetrise(H, result)
    rep = Check(f"{args.side}-cointegral")
    rep.add(_form_report("cointegral", result.form, H.alg.labels))
    rep.add(_form_report("symmetrised", sym, H.alg.labels))
    rep.check("normalization", True, value=format_scalar(result.normalization))
    grank = intcoint.gram_matrix_rank(H, sym)
    rep.check("gram rank", grank == H.dim, value=str(grank))
    _emit(rep, args.json)
    return EXIT_OK if rep.passed else EXIT_VERIFY


def _build_trace(H, pin=None):
    result = intcoint.cointegrals(H, "right", pin=pin)
    sym = intcoint.symmetrise(H, result)
    return modtrace.from_symmetrised_cointegral(H, sym, "right")


def cmd_modtrace(args):
    doc, H = _load(args.spec)
    tr = _build_trace(H, pin=qhspec.reference_cointegral(doc))
    rep = Check("modified-trace")
    rep.check("side", True, value=tr.side)
    rep.add(_form_report("t", tr.form, H.alg.labels))
    named = qhspec.named_elements(doc)
    if named:
        sub = rep.add(Check("right-multiplication traces"))
        for name, el in named.items():
            sub.check(f"t(r_{name})", True,
                      value=format_scalar(tr.form.evaluate(el)))
    _emit(rep, args.json)
    return EXIT_OK if rep.passed else EXIT_VERIFY


def cmd_sympferm(args):
    try:
        beta = parse_scalar(args.beta, args.field)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: bad --beta: {exc}", file=sys.stderr)
        return EXIT_PARSE
    fx = sympferm.build(args.n, beta)
    H = fx.H
    rep = Check(f"sympferm n={args.n} beta={args.beta}")
    axioms = check_axioms(H)
    rep.check("axioms", axioms.passed)
    left = intcoint.integrals(H, "left")
    rep.check("integral matches closed form",
              len(left.basis) == 1 and left.basis[0] == fx.integral)
    gamma = intcoint.modulus(H, left.basis[0])
    rep.check("unimodular", gamma.is_counit(H))
    co = intcoint.cointegrals(H, "right", pin=fx.cointegral)
    rep.check("cointegral matches closed form", co.form == fx.cointegral)
    sym = intcoint.symmetrise(H, co)
    rep.check("symmetrised cointegral matches closed form",
              sym == fx.symmetrised_cointegral)
    tr = modtrace.from_symmetrised_cointegral(H, sym, "right")
    rep.check("trace is two-sided", tr.side == "two-sided")
    sub = rep.add(Check("modified traces of named central elements"))
    for name in ("x+", "x-", "y+", "y-"):
        got = tr.form.evaluate(fx.elements[name])
        sub.check(f"t(r_{name})", got == fx.expected_traces[name],
                  value=format_scalar(got))
    if args.emit_spec:
        names = {k: fx.elements[k] for k in ("x+", "x-", "y+", "y-")}
        doc = qhspec.from_algebra(H, names, cointegral=fx.cointegral)
        with open(args.emit_spec, "w") as fh:
            fh.write(qhspec.serialize(doc))
        rep.check("spec written", True, value=args.emit_spec)
    _emit(rep, args.json)
    return EXIT_OK if rep.passed else EXIT_VERIFY


def cmd_verify(args):
    doc, H = _load(args.spec)
    tr = _build_trace(H)
    rep = Check("verify")
    if args.suite in ("reduction", "all"):
        rep.add(modtrace.verify_reduction(H, tr))
    if args.suite in ("pairing", "all"):
        reg = regular_module(H)
        pres = modtrace.trivial_presentation(H, reg)
        rep.add(modtrace.pairing_nondegeneracy(
            H, tr, trivial_module(H, 1), reg, pres))
    _emit(rep, args.json)
    return EXIT_OK if rep.passed else EXIT_VERIFY


def _positive_int(text):
    """argparse type for counts: a bad value exits 2 with a usage line."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {text!r}")
    return value


def _conductor(text):
    """argparse type for --field: a conductor the scalar tables allow."""
    try:
        value = int(text)
        cyclotomic_polynomial(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be a conductor from 1 to {MAX_CONDUCTOR}, got {text!r}") from None
    return value


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="quasihopf",
        description="exact integrals, cointegrals and modified traces "
                    "for pivotal quasi-Hopf algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, spec=True):
        if spec:
            p.add_argument("spec", help="structure-constant file")
        p.add_argument("--json", action="store_true",
                       help="machine-readable report")

    p = sub.add_parser("check", help="verify the quasi-Hopf axioms")
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("integrals", help="integral spaces and modulus")
    common(p)
    p.set_defaults(func=cmd_integrals)

    p = sub.add_parser("cointegrals", help="solve the cointegral system")
    common(p)
    p.add_argument("--side", choices=("left", "right"), default="right")
    p.set_defaults(func=cmd_cointegrals)

    p = sub.add_parser("modtrace", help="modified trace from the cointegral")
    common(p)
    p.set_defaults(func=cmd_modtrace)

    p = sub.add_parser("sympferm",
                       help="build the symplectic fermion family Q(N, beta)")
    common(p, spec=False)
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--beta", required=True,
                   help="scalar, e.g. z8^7 (beta^4 must equal (-1)^N)")
    p.add_argument("--field", type=_conductor, default=8,
                   help="conductor of the scalar field (default 8)")
    p.add_argument("--emit-spec", metavar="PATH",
                   help="write the built algebra in the spec format")
    p.set_defaults(func=cmd_sympferm)

    p = sub.add_parser("verify", help="reduction / pairing property suites")
    common(p)
    p.add_argument("--suite", choices=("reduction", "pairing", "all"),
                   default="all")
    p.set_defaults(func=cmd_verify)

    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe must fail here, not at exit
        return code
    except BrokenPipeError:
        # The reader went away (e.g. `| head`).  Point stdout at devnull so
        # the interpreter's final flush cannot raise again, as the Python
        # docs' note on SIGPIPE recommends.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_CLOSED
    except (qhspec.SpecSyntaxError, qhspec.SpecSemanticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except QuasiHopfError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
