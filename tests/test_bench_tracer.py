"""The bench's span tracer still finds every function it wraps and every
attribute it reads off their results, so that renaming one fails here and not
only in a traced bench pass."""

import contextlib
import importlib.util
import io
import pathlib

import randlab
import randlab.cli

TRACER = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    for module_name, attr, _ in _tracing().TARGETS:
        module = getattr(randlab, module_name)
        if attr.startswith("*."):
            classes = [c for c in vars(module).values() if isinstance(c, type) and attr[2:] in vars(c)]
            assert classes, f"no class in randlab.{module_name} defines {attr[2:]}"
        else:
            assert callable(getattr(module, attr, None)), f"randlab.{module_name}.{attr}"


def test_a_traced_run_records_every_span_and_count(tmp_path):
    # small forms of the bench's jobs: each span is entered and each work
    # counter read off a real result, so a renamed attribute raises here
    cylinders, machine, test = tmp_path / "u.cylinders", tmp_path / "kc.machine", tmp_path / "test.json"
    cylinders.write_text("00\n011\n")
    machine.write_text("0\t1\n10\t01\n110\t\n")
    quotient = ["--measure", "fair", "--martingale", "quotient:bernoulli:2/3/fair"]
    jobs = [
        ["audit", *quotient, "--check", "additivity,fairness", "--depth", "4"],
        ["audit", *quotient, "--check", "ville", "--n", "4", "--c", "2"],
        ["audit", *quotient, "--check", "ville", "--n", "4", "--c", "2", "--mc-samples", "5"],
        ["convert", *quotient, "--to", "integral", "--depth", "4"],
        ["convert", *quotient, "--to", "vitali", "--depth", "4"],
        ["convert", *quotient, "--to", "bounded_ml", "--depth", "4", "--out-test", str(test)],
        ["convert", "--input", str(test), "--to", "martingale", "--depth", "4"],
        ["convert", *quotient, "--to", "cycle", "--depth", "4"],
        ["convert", "--transfer", "A=binary", "B=ternary", "--depth", "3"],
        ["refine", "--source-dec", "ternary", "--target-dec", "binary", "--depth", "4", "--target-depth", "2"],
        ["bet", "--strategy", f"doubling:{cylinders}", "--measure", "fair", "--source", "literal:0110", "--length", "4"],
        ["deficiency", "--machine", str(machine), "--decomposition", "ternary", "--point", "5/7", "--length", "4"],
    ]
    tracing = _tracing()
    tracer = tracing.Tracer()
    tracer.install(randlab)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [randlab.cli.main(argv) for argv in jobs]
        randlab.machines.kc_build([(2, "01"), (3, "1")])
    finally:
        tracer.remove()
    assert codes == [0] * len(jobs)
    assert set(tracing.SPAN_NAMES) <= {span[0] for span in tracer.spans}
    assert {name: tracer.counts[name] for name in tracing.COUNT_NAMES if not tracer.counts[name]} == {}
