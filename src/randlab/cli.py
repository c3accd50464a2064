"""Command-line front end.

Subcommands: audit, convert, bet, deficiency, name, refine.  Reports are
deterministic apart from the trailing timing field; exit status is 0 when all
requested checks pass, 1 when a mathematical check fails, 2 on usage or parse
errors, and 3 when a resource cap is hit.
"""

import argparse
import csv
import hashlib
import io
import json
import sys
import time
from . import betting, cells, machines, randtests, specfmt
from .errors import RandlabError, ResourceLimitError, SpecParseError, StrategyViolation
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
        for note in report.notes:
            self.lines.append(f"  note: {note}")
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
    target = open(path, "w", newline="") if path else io.StringIO()
    writer = csv.writer(target)
    writer.writerow(header)
    writer.writerows(rows)
    if path:
        target.close()
    else:
        sys.stdout.write(target.getvalue())


def cmd_audit(opts, raw_args) -> int:
    report = Report(raw_args)
    mu = specfmt.parse_measure(opts.measure)
    report.digest("measure", opts.measure)
    checks = [c.strip() for c in opts.check.split(",") if c.strip()]
    mart = None
    if opts.martingale:
        mart = specfmt.parse_martingale(opts.martingale, base=mu)
        report.digest("martingale", opts.martingale)
    for check in checks:
        if check == "additivity":
            report.check(f"additivity@{opts.depth}", check_additivity(mu, opts.depth))
        elif check == "fairness":
            if mart is None:
                raise SpecParseError("fairness check needs --martingale")
            report.check(f"fairness@{opts.depth}", check_fairness(mart, opts.depth))
        elif check == "savings":
            if mart is None:
                raise SpecParseError("savings check needs --martingale")
            sp = savings_transform(mart)
            report.check(f"savings-fairness@{opts.depth}", check_fairness(sp.total, opts.depth))
        elif check == "ville":
            if mart is None:
                raise SpecParseError("ville check needs --martingale")
            cs = opts.c.split(",")
            if opts.mc_samples:
                for c in cs:
                    estimate, bound = ville_monte_carlo(
                        mart, opts.n, parse_rational(c), opts.mc_samples, seed=opts.seed
                    )
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
                for res in ville_audit(mart, opts.n, None, thresholds=[parse_rational(c) for c in cs]):
                    verdict = "pass" if res.passed else "FAIL"
                    report.line(
                        f"check ville n={res.n} c={format_rational(res.threshold)}: {verdict} "
                        f"fraction={format_rational(res.fraction)} bound={format_rational(res.bound)}"
                    )
                    if not res.passed:
                        report.failed = True
        else:
            raise SpecParseError(f"unknown check {check!r}")
    _emit(report, opts.out)
    return EXIT_CHECK_FAILED if report.failed else EXIT_OK


def cmd_convert(opts, raw_args) -> int:
    report = Report(raw_args)
    if opts.transfer:
        return _convert_transfer(opts, report)
    mu = specfmt.parse_measure(opts.measure)
    if opts.martingale:
        start = "martingale"
        obj = specfmt.parse_martingale(opts.martingale, base=mu)
        report.digest("martingale", opts.martingale)
    elif opts.input:
        with open(opts.input) as fh:
            doc = json.load(fh)
        obj = specfmt.test_from_doc(doc)
        start = doc["kind"]
        if start == "ml":
            raise SpecParseError("a plain ml test has no bound to convert; audit it instead")
        report.digest("input", opts.input)
    else:
        raise SpecParseError("convert needs --martingale or --input")
    target = opts.to
    path = _conversion_path(start, target)
    report.line(f"path: {' -> '.join(path)}")
    for step_from, step_to in zip(path, path[1:]):
        if (step_from, step_to) == ("martingale", "savings"):
            obj = savings_transform(obj)
        elif (step_from, step_to) == ("savings", "integral"):
            obj = randtests.martingale_to_integral(obj, opts.depth)
        elif (step_from, step_to) == ("integral", "bounded_ml"):
            obj = randtests.integral_to_bounded_ml(obj, n_levels=opts.levels)
        elif (step_from, step_to) == ("bounded_ml", "vitali"):
            obj = randtests.bounded_ml_to_vitali(obj)
        elif (step_from, step_to) == ("vitali", "integral"):
            obj = randtests.vitali_to_integral(obj, opts.depth)
        elif (step_from, step_to) == ("integral", "martingale"):
            obj = randtests.integral_to_martingale(obj)
        else:
            raise SpecParseError(f"no conversion from {step_from} to {step_to}")
    if isinstance(obj, (randtests.MLTest, randtests.VitaliTest, randtests.IntegralStep)):
        report.check(f"bounds@{opts.depth}", randtests.verify_test_bounds(obj, opts.depth))
        doc = specfmt.test_to_doc(obj, depth=opts.depth)
        if opts.out_test:
            with open(opts.out_test, "w") as fh:
                json.dump(doc, fh, indent=1, sort_keys=True)
        report.digest("output", json.dumps(doc, sort_keys=True))
    else:
        report.check(f"fairness@{opts.depth}", check_fairness(obj.total if hasattr(obj, "total") else obj, opts.depth))
    _emit(report, opts.out)
    return EXIT_CHECK_FAILED if report.failed else EXIT_OK


_PATHS = {
    ("martingale", "savings"): ["martingale", "savings"],
    ("martingale", "integral"): ["martingale", "savings", "integral"],
    ("martingale", "bounded_ml"): ["martingale", "savings", "integral", "bounded_ml"],
    ("martingale", "vitali"): ["martingale", "savings", "integral", "bounded_ml", "vitali"],
    ("martingale", "cycle"): [
        "martingale", "savings", "integral", "bounded_ml", "vitali", "integral", "martingale",
    ],
    ("integral", "bounded_ml"): ["integral", "bounded_ml"],
    ("integral", "vitali"): ["integral", "bounded_ml", "vitali"],
    ("integral", "martingale"): ["integral", "martingale"],
    ("bounded_ml", "vitali"): ["bounded_ml", "vitali"],
    ("bounded_ml", "integral"): ["bounded_ml", "vitali", "integral"],
    ("bounded_ml", "martingale"): ["bounded_ml", "vitali", "integral", "martingale"],
    ("vitali", "integral"): ["vitali", "integral"],
    ("vitali", "martingale"): ["vitali", "integral", "martingale"],
}


def _conversion_path(start: str, target: str) -> list:
    path = _PATHS.get((start, target))
    if path is None:
        known = sorted({t for _, t in _PATHS} | {"cycle"})
        raise SpecParseError(
            f"no conversion path {start} -> {target}; targets from {start}: "
            + ", ".join(t for s, t in _PATHS if s == start)
            + f" (all kinds: {', '.join(known)})"
        )
    return path


def _convert_transfer(opts, report: Report) -> int:
    pairs = dict(item.split("=", 1) for item in opts.transfer)
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
    _emit(report, opts.out)
    return EXIT_OK


def cmd_bet(opts, raw_args) -> int:
    report = Report(raw_args)
    mu = specfmt.parse_measure(opts.measure)
    source = specfmt.parse_source(opts.source)
    from .sources import generate_bits

    x = generate_bits(source, opts.length)
    strategy = specfmt.parse_strategy(opts.strategy, mu)
    result = betting.play(strategy, mu, x)
    rows = []
    for step, value in enumerate(result.values):
        event = result.events[step - 1] if 0 < step <= len(result.events) else ""
        rows.append(
            (step, x[:step], value.numerator, value.denominator, event)
        )
    _write_csv(opts.out_csv, ("step", "prefix", "capital_num", "capital_den", "event"), rows)
    report.digest("source", opts.source)
    final = result.final
    summary = (
        f"summary: steps={len(result.values) - 1} final={format_rational(final)} "
        f"max={format_rational(result.max_attained)}"
    )
    if final > 0:
        summary += f" log2_final~{frac_log2(final):.4f}"
    report.line(summary)
    if result.undetermined:
        report.line("flag: undetermined (source too short to settle a bet)")
    if result.violation:
        report.line(f"flag: strategy violation: {result.violation}")
        report.failed = True
    _emit(report, opts.out)
    return EXIT_CHECK_FAILED if report.failed else EXIT_OK


def cmd_deficiency(opts, raw_args) -> int:
    report = Report(raw_args)
    machine = specfmt.load_machine_file(opts.machine)
    dec = specfmt.parse_decomposition(opts.decomposition)
    point = _parse_point(opts.point, dec)
    trace = machines.deficiency_trace(machine, dec, point, opts.length)
    rows = []
    for row in trace.rows:
        rows.append(
            (
                row.n,
                _render_extended(row.neg_log_mass_low),
                _render_extended(row.neg_log_mass_high),
                _render_extended(row.complexity),
                _render_extended(row.d_low),
                _render_extended(row.d_high),
            )
        )
    _write_csv(opts.out_csv, ("n", "neg_log_mass_low", "neg_log_mass_high", "K", "d_low", "d_high"), rows)
    report.digest("machine", opts.machine)
    if trace.undetermined_at is not None and trace.undetermined_at <= opts.length:
        report.line(f"flag: point undetermined at depth {trace.undetermined_at}")
        report.failed = True
    if trace.not_random_by_nullity:
        report.line(f"flag: non-random-by-nullity at depth {trace.nullity_at}")
        report.failed = True
    _emit(report, opts.out)
    return EXIT_CHECK_FAILED if report.failed else EXIT_OK


def _render_extended(v):
    if v == machines.INF:
        return "inf"
    if v == -machines.INF:
        return "-inf"
    return v


def _parse_point(text: str, dec=None):
    if dec is not None and dec.kind == "natural":
        return text
    parts = [parse_rational(p) for p in text.split(",")]
    return parts[0] if len(parts) == 1 else tuple(parts)


def cmd_name(opts, raw_args) -> int:
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
    _emit(report, opts.out)
    return EXIT_CHECK_FAILED if report.failed else EXIT_OK


def cmd_refine(opts, raw_args) -> int:
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
    _emit(report, opts.out)
    return EXIT_OK


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
    try:
        return opts.func(opts, argv)
    except ResourceLimitError as exc:
        sys.stderr.write(f"resource limit: {exc}\n")
        return EXIT_RESOURCE
    except (SpecParseError, OSError, KeyError, ValueError) as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except StrategyViolation as exc:
        sys.stderr.write(f"strategy violation: {exc}\n")
        return EXIT_CHECK_FAILED
    except RandlabError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
