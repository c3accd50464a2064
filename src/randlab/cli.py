"""Command-line front end.

Subcommands: audit, convert, bet, deficiency, name, refine.  Reports are
deterministic apart from the trailing timing field; exit status is 0 when all
requested checks pass, 1 when a mathematical check fails, 2 on usage or parse
errors, and 3 when a resource cap is hit.
"""

import argparse
import contextlib
import functools
import hashlib
import itertools
import json
import operator
import sys
import time
from math import gcd

from . import betting, cells, machines, randtests, specfmt
from .errors import RandlabError, ResourceLimitError, SpecParseError, StrategyViolation, check_size
from .martingale import check_fairness, savings_transform, ville_audit, ville_monte_carlo
from .measure import check_additivity
from .rationals import format_rational, frac_log2, parse_rational

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


class Report:
    """Accumulates deterministic report lines plus a pass/fail verdict."""

    def __init__(self, args) -> None:
        self.lines = ["command: randlab " + " ".join(args)]
        self.failed = False
        self._started = time.monotonic()

    def line(self, text: str) -> None:
        self.lines.append(text)

    def digest(self, name: str, payload: str) -> None:
        self.lines.append(f"digest {name}: {hashlib.sha256(payload.encode()).hexdigest()[:16]}")

    def check(self, name: str, report) -> None:
        verdict = "pass" if report.ok else "FAIL"
        self.lines.append(f"check {name}: {verdict} ({report.checked} checked)")
        for violation in report.violations:
            self.lines.append(f"  violation: {violation}")
        if not report.ok:
            self.failed = True

    def render(self) -> str:
        elapsed = time.monotonic() - self._started
        return "\n".join(self.lines + [f"timing_s: {elapsed:.3f}"]) + "\n"


def _emit(report: Report, out_path):
    text = report.render()
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _write_csv(path, header, rows):
    """Stream a header and an iterable of rows as CRLF-terminated CSV lines
    to path, or to stdout when no path is given.  Each row is formatted in
    one pass, quoted as csv.writer (QUOTE_MINIMAL) quotes: a field holding a
    comma, a quote, CR or LF is quoted, with each quote doubled."""
    # a trace row can run to kilobytes: a 64 KiB buffer makes about an eighth of the write calls 8 KiB does
    with open(path, "w", newline="", buffering=1 << 16) if path else contextlib.nullcontext(sys.stdout) as target:
        for row in itertools.chain((header,), rows):
            fields = [
                '"' + text.replace('"', '""') + '"' if "," in text or '"' in text or "\r" in text or "\n" in text else text
                for text in map(str, row)
            ]
            target.write(",".join(fields) + "\r\n")


def _exact_context():
    """Decimal arithmetic that never rounds: integers of any size stay exact,
    and anything that would lose a digit raises instead."""
    import decimal  # only bet reads it, so the other commands skip the import

    traps = [decimal.Inexact, decimal.Rounded, decimal.InvalidOperation, decimal.DivisionByZero]
    return decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN, traps=traps)


def _capital_digits(start, factors):
    """The decimal digits (num, den) of a play's capitals in lowest terms:
    start, then start stepped through each factor pair.  The pair is held as
    two exact Decimals, which print in linear time where a big int's str() is
    quadratic; each step reduces as Fraction's product does, each gcd taken
    against the factor's own small terms, and each distinct factor is reduced
    once.  Every operation names the exact context: a generator must not set
    its caller's."""
    ex, lowest = _exact_context(), {}
    n, d = ex.create_decimal(int(start.numerator)), ex.create_decimal(int(start.denominator))
    yield str(n), str(d)
    for factor in factors:
        if factor not in lowest:
            g = gcd(*factor)
            lowest[factor] = factor[0] // g, factor[1] // g
        fn, fd = lowest[factor]
        if not (fn and n):  # a bust, or a step from capital 0: the capital is 0/1, never -0
            n, d = ex.create_decimal(0), ex.create_decimal(1)
        else:
            # the remainders are taken before either division, as Fraction's gcds are
            g = gcd(fd, int(ex.remainder(n, fd))) if fd > 1 else 1
            h = gcd(fn, int(ex.remainder(d, fn))) if fn > 1 else 1
            if g > 1:
                n, fd = ex.divide_int(n, g), fd // g
            if h > 1:
                d, fn = ex.divide_int(d, h), fn // h
            n, d = ex.multiply(n, fn), ex.multiply(d, fd)
        yield str(n), str(d)


def cmd_audit(opts, raw_args) -> Report:
    if opts.mc_samples is not None and opts.mc_samples < 1:
        raise SpecParseError(f"--mc-samples must be at least 1, got {opts.mc_samples}")
    if opts.mc_band is not None and opts.mc_samples is None:
        raise SpecParseError("--mc-band needs --mc-samples")
    if opts.mc_band is not None and not opts.mc_band >= 0:  # NaN compares false
        raise SpecParseError(f"--mc-band must be at least 0, got {opts.mc_band}")
    report = Report(raw_args)
    mu = specfmt.parse_measure(opts.measure)
    report.digest("measure", opts.measure)
    checks = [c.strip() for c in opts.check.split(",") if c.strip()]
    mart = None
    if opts.martingale:
        mart = specfmt.parse_martingale(opts.martingale, base=mu)
        report.digest("martingale", opts.martingale)
    for check in checks:
        if mart is None and check in ("fairness", "savings", "ville"):
            raise SpecParseError(f"{check} check needs --martingale")
        if check == "additivity":
            report.check(f"additivity@{opts.depth}", check_additivity(mu, opts.depth))
        elif check == "fairness":
            report.check(f"fairness@{opts.depth}", check_fairness(mart, opts.depth))
        elif check == "savings":
            report.check(f"savings-fairness@{opts.depth}", check_fairness(savings_transform(mart), opts.depth))
        elif check == "ville":
            cs = opts.c.split(",")
            thresholds = [parse_rational(c) for c in cs]
            if opts.mc_samples is not None:
                check_size(opts.mc_samples * max(opts.n, 1), "--mc-samples times --n")
                estimates = ville_monte_carlo(mart, opts.n, thresholds, opts.mc_samples, seed=opts.seed)
                for c, (estimate, bound) in zip(cs, estimates):
                    line = (
                        f"check ville n={opts.n} c={c}: statistical estimate={estimate:.4f} "
                        f"bound={bound:.4f} samples={opts.mc_samples} seed={opts.seed}"
                    )
                    if opts.mc_band is not None:
                        ok = estimate <= bound + opts.mc_band
                        line += f" band={opts.mc_band} verdict={'pass' if ok else 'FAIL'}"
                        if not ok:
                            report.failed = True
                    report.line(line)
            else:
                for res in ville_audit(mart, opts.n, thresholds):
                    verdict = "pass" if res.passed else "FAIL"
                    report.line(
                        f"check ville n={res.n} c={format_rational(res.threshold)}: {verdict} "
                        f"fraction={format_rational(res.fraction)} bound={format_rational(res.bound)}"
                    )
                    if not res.passed:
                        report.failed = True
        else:
            raise SpecParseError(f"unknown check {check!r}")
    return report


def cmd_convert(opts, raw_args) -> Report:
    report = Report(raw_args)
    if opts.levels is not None and opts.levels < 1:
        raise SpecParseError(f"--levels must be at least 1, got {opts.levels}")
    if opts.levels is not None:
        check_size(opts.levels, "--levels")
    if opts.transfer:
        return _convert_transfer(opts, report)
    mu = specfmt.parse_measure(opts.measure)
    if opts.martingale:
        start = "martingale"
        obj = specfmt.parse_martingale(opts.martingale, base=mu)
        report.digest("martingale", opts.martingale)
    elif opts.input:
        doc = specfmt.load_json(opts.input)
        obj = specfmt.test_from_doc(doc)
        start = doc["kind"]
        report.digest("input", opts.input)
    else:
        raise SpecParseError("convert needs --martingale or --input")
    path = _conversion_path(start, opts.to)
    report.line(f"path: {' -> '.join(path)}")
    for edge in zip(path, path[1:]):
        obj = _STEPS[edge](obj, opts)
    if path[-1] in ("martingale", "savings"):
        report.check(f"fairness@{opts.depth}", check_fairness(obj, opts.depth))
    else:
        report.check(f"bounds@{opts.depth}", randtests.verify_test_bounds(obj, opts.depth))
        doc = specfmt.test_to_doc(obj, depth=opts.depth)
        del obj  # only the document is written from here on; free the step's cells before encoding it
        if opts.out_test:
            with open(opts.out_test, "w") as fh:
                json.dump(doc, fh, indent=1, sort_keys=True)
        report.digest("output", json.dumps(doc, sort_keys=True))
    return report


# convert walks this chain: a path is its shortest stretch from the start
# kind to the target, and the target "cycle" is the whole chain
_CHAIN = ("martingale", "savings", "integral", "bounded_ml", "vitali", "integral", "martingale")
_STEPS = {
    ("martingale", "savings"): lambda obj, opts: savings_transform(obj),
    ("savings", "integral"): lambda obj, opts: randtests.martingale_to_integral(obj, opts.depth),
    ("integral", "bounded_ml"): lambda obj, opts: randtests.integral_to_bounded_ml(obj, n_levels=opts.levels),
    ("bounded_ml", "vitali"): lambda obj, opts: randtests.bounded_ml_to_vitali(obj),
    ("vitali", "integral"): lambda obj, opts: randtests.vitali_to_integral(obj, opts.depth),
    ("integral", "martingale"): lambda obj, opts: randtests.integral_to_martingale(obj),
}


def _conversion_path(start: str, target: str) -> tuple:
    first = _CHAIN.index(start)
    targets = list(dict.fromkeys(kind for kind in _CHAIN[first + 1 :] if kind != start))
    targets += ["cycle"] if start == _CHAIN[0] else []
    if target not in targets:
        raise SpecParseError(
            f"no conversion path {start} -> {target}; targets from {start}: "
            + ", ".join(targets)
            + f" (all kinds: {', '.join(sorted(set(_CHAIN) | {'cycle'}))})"
        )
    if target == "cycle":
        return _CHAIN
    end = _CHAIN.index(target, first + 1)
    begin = max(i for i in range(first, end) if _CHAIN[i] == start)
    return _CHAIN[begin : end + 1]


def _convert_transfer(opts, report: Report) -> Report:
    pairs = dict(item.split("=", 1) for item in opts.transfer if "=" in item)
    if set(pairs) != {"A", "B"}:
        raise SpecParseError("--transfer needs A=<dec> B=<dec>")
    source = specfmt.parse_decomposition(pairs["A"])
    target = specfmt.parse_decomposition(pairs["B"])
    nu = specfmt.parse_measure(opts.measure)
    rel = cells.refine(source, target, opts.depth, target_depth=opts.target_depth)
    result = cells.transfer_measure(rel, nu)
    report.line(f"transfer {source.label} -> {target.label} at depth {opts.depth}")
    for tau in sorted(result.rows, key=lambda t: (len(t), t)):
        row = result.rows[tau]
        rrow = rel.rows[tau]
        report.line(
            f"tau {tau or 'eps'}: kappa_low={format_rational(row.low)} "
            f"kappa_high={format_rational(row.high)} residual={format_rational(rrow.residual)}"
        )
    return report


def _check_length(opts) -> None:
    if opts.length < 0:
        raise SpecParseError(f"--length must be nonnegative, got {opts.length}")
    check_size(opts.length, "--length")


def cmd_bet(opts, raw_args) -> Report:
    _check_length(opts)
    report = Report(raw_args)
    mu = specfmt.parse_measure(opts.measure)
    x = specfmt.parse_source(opts.source, opts.length)
    strategy = specfmt.parse_strategy(opts.strategy, mu)
    result = betting.play(strategy, mu, x)
    rows = (
        (step, x[:step], num, den, result.events[step - 1] if step else "")
        for step, (num, den) in enumerate(_capital_digits(result.start, result.factors))
    )
    report.digest("source", opts.source)
    _write_csv(opts.out_csv, ("step", "prefix", "capital_num", "capital_den", "event"), rows)
    summary = f"summary: steps={len(result.factors)} final={format_rational(result.final)} max={format_rational(result.max_attained)}"
    if result.final > 0:
        summary += f" log2_final~{frac_log2(result.final):.4f}"
    report.line(summary)
    if result.undetermined:
        report.line("flag: undetermined (source too short to settle a bet)")
    if result.violation:
        report.line(f"flag: strategy violation: {result.violation}")
        report.failed = True
    return report


def cmd_deficiency(opts, raw_args) -> Report:
    _check_length(opts)
    report = Report(raw_args)
    machine = specfmt.load_machine_file(opts.machine)
    dec = specfmt.parse_decomposition(opts.decomposition)
    point = _parse_point(opts.point, dec)
    trace = machines.deficiency_trace(machine, dec, point, opts.length)
    rows = map(operator.attrgetter("n", "neg_log_mass_low", "neg_log_mass_high", "complexity", "d_low", "d_high"), trace.rows)
    _write_csv(opts.out_csv, ("n", "neg_log_mass_low", "neg_log_mass_high", "K", "d_low", "d_high"), rows)
    report.digest("machine", opts.machine)
    if trace.undetermined_at is not None and trace.undetermined_at <= opts.length:
        report.line(f"flag: point undetermined at depth {trace.undetermined_at}")
        report.failed = True
    if trace.not_random_by_nullity:
        report.line(f"flag: non-random-by-nullity at depth {trace.nullity_at}")
        report.failed = True
    return report


def _parse_point(text: str, dec):
    """The point: a bit string for a natural decomposition, else its comma-separated coordinates."""
    return text if isinstance(dec, cells.NaturalDecomposition) else tuple(parse_rational(p) for p in text.split(","))


def cmd_name(opts, raw_args) -> Report:
    _check_length(opts)
    report = Report(raw_args)
    dec = specfmt.parse_decomposition(opts.decomposition)
    point = _parse_point(opts.point, dec)
    outcome = dec.name_point(point, opts.length)
    if outcome.determined:
        report.line(f"name: {outcome.bits}")
    else:
        report.line(f"name: undetermined at depth {outcome.undetermined_at} (prefix {outcome.bits!r})")
        report.line(f"resolved: {dec.resolved_name(point, opts.length)}")
        report.failed = True
    return report


def cmd_refine(opts, raw_args) -> Report:
    report = Report(raw_args)
    source = specfmt.parse_decomposition(opts.source_dec)
    target = specfmt.parse_decomposition(opts.target_dec)
    rel = cells.refine(source, target, opts.depth, target_depth=opts.target_depth)
    for tau in sorted(rel.rows, key=lambda t: (len(t), t)):
        row = rel.rows[tau]
        report.line(
            f"tau {tau or 'eps'}: cells={','.join(g or 'eps' for g in row.sigmas) or '-'} "
            f"covered={format_rational(row.covered)} residual={format_rational(row.residual)}"
        )
    return report


@functools.cache  # built at the first main() call, then shared: parse_args keeps no state between calls
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="randlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("audit", help="run exact invariant checks")
    p.add_argument("--measure", required=True)
    p.add_argument("--martingale")
    p.add_argument("--check", default="additivity")
    p.add_argument("--depth", type=int, default=12)
    p.add_argument("--n", type=int, default=12)
    p.add_argument("--c", default="2")
    p.add_argument("--mc-samples", type=int, help="Monte Carlo sample count for over-cap depths (statistical)")
    p.add_argument("--mc-band", type=float, help="acceptance slack for the statistical estimate")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("convert", help="run the test-conversion chain")
    p.add_argument("--measure", default="fair")
    p.add_argument("--martingale")
    p.add_argument("--input")
    p.add_argument("--to", default="bounded_ml")
    p.add_argument("--depth", type=int, default=8)
    p.add_argument("--levels", type=int)
    p.add_argument("--transfer", nargs=2, metavar=("A=DEC", "B=DEC"))
    p.add_argument("--target-depth", type=int)
    p.add_argument("--out")
    p.add_argument("--out-test")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("bet", help="play a strategy against a bit source")
    p.add_argument("--strategy", required=True)
    p.add_argument("--measure", required=True)
    p.add_argument("--source", required=True)
    p.add_argument("--length", type=int, default=32)
    p.add_argument("--out")
    p.add_argument("--out-csv")
    p.set_defaults(func=cmd_bet)

    p = sub.add_parser("deficiency", help="deficiency trace of a point")
    p.add_argument("--machine", required=True)
    p.add_argument("--decomposition", default="binary")
    p.add_argument("--point", required=True)
    p.add_argument("--length", type=int, default=8)
    p.add_argument("--out")
    p.add_argument("--out-csv")
    p.set_defaults(func=cmd_deficiency)

    p = sub.add_parser("name", help="cell name of a point")
    p.add_argument("--decomposition", default="binary")
    p.add_argument("--point", required=True)
    p.add_argument("--length", type=int, default=8)
    p.add_argument("--out")
    p.set_defaults(func=cmd_name)

    p = sub.add_parser("refine", help="cover one decomposition's cells by another's")
    p.add_argument("--source-dec", required=True)
    p.add_argument("--target-dec", required=True)
    p.add_argument("--depth", type=int, default=8)
    p.add_argument("--target-depth", type=int, default=3)
    p.add_argument("--out")
    p.set_defaults(func=cmd_refine)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        opts = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    # exact values read and print at any size: lift the int<->str digit limit for this call
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        report = opts.func(opts, argv)
        _emit(report, opts.out)
    except ResourceLimitError as exc:
        sys.stderr.write(f"resource limit: {exc}\n")
        return EXIT_RESOURCE
    except (SpecParseError, OSError) as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except StrategyViolation as exc:
        sys.stderr.write(f"strategy violation: {exc}\n")
        return EXIT_CHECK_FAILED
    except RandlabError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    return EXIT_CHECK_FAILED if report.failed else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
