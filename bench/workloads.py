"""Seeded inputs, job lists and expected outputs of the benchmark workloads.

Every input the program sees comes from one integer seed: the split-mix
measure doc, the request set behind the machine file, the cylinder file, the
bit files the bets read, the points that get named, and the Monte-Carlo seed.
The program receives only these files and argv.

Expected outputs come from one of two places:

* `reference.json`, recorded by `record_reference.py` from the program as it
  stood when the benchmark was added, for the exhaustive jobs.  Their seeded inputs (the split-mix doc and the
  Monte-Carlo seed) are drawn from VARIANTS recorded variants by `seed %
  VARIANTS`, because recomputing a converted test doc or a sampled estimate
  would mean re-implementing the program.
* Independent recomputation here (`expect` lines) for the cheap single-path
  jobs, whose inputs are free in the seed: likelihood-ratio and all-in bet
  summaries, the doubling bet, interleaved names, deficiency digests.
"""

import hashlib
import json
import math
import os
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

WORKDIR = ".bench_work"
IN = WORKDIR + "/in"
OUT = WORKDIR + "/out"

VARIANTS = 8

# The probe of a known defect: a valid 9500-step bet whose capital outgrows
# Python's int->str digit limit.  It is run once per invocation, untimed.
PROBE_NAME = "bet-lr-9500"
PROBE_ARGV = [
    "bet", "--strategy", "likelihood_ratio:fair", "--measure", "bernoulli:1/3",
    "--source", "prng:1", "--length", "9500",
]
PROBE_EXPECTED_EXIT = 0

_PRIME_DENOMINATORS = (999983, 1000003, 1000033, 1000037, 1000039, 1000081)


def _bits(rng: random.Random, n: int) -> str:
    return "".join(rng.choice("01") for _ in range(n))


def _fmt(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def digest(name: str, payload: str) -> str:
    """A report `digest` line, as the README documents it."""
    return f"digest {name}: {hashlib.sha256(payload.encode()).hexdigest()[:16]}"


def mix_doc(variant: int) -> dict:
    """Split table in the shape of the battery's split_mix; variant 0 is that
    measure.  Every variant keeps the denominators 3, 4 and 5, so that the
    variants cost alike and only the seed, not the variant, moves a metric."""
    splits = (
        Fraction((1, 2)[variant & 1], 3),
        Fraction((3, 1)[variant >> 1 & 1], 4),
        Fraction((1, 2)[variant >> 2 & 1], 5),
    )
    entries = [[sigma, _fmt(q)] for sigma, q in zip(("", "1", "10"), splits)]
    return {"kind": "split_table", "entries": entries, "default": "1/2", "total": "1/1"}


def _cylinder_set(rng: random.Random) -> list:
    """Prefix-free, sibling-free generators of fair mass at most 1/2."""
    gens, mass = [], Fraction(0)
    while len(gens) < 10:
        g = _bits(rng, rng.randint(4, 14))
        sibling = g[:-1] + ("1" if g[-1] == "0" else "0")
        w = Fraction(1, 2 ** len(g))
        if mass + w > Fraction(1, 2) or sibling in gens:
            continue
        if any(g.startswith(h) or h.startswith(g) for h in gens):
            continue
        gens.append(g)
        mass += w
    return sorted(gens)


class Inputs:
    """Everything one seed determines."""

    def __init__(self, seed: int):
        self.seed = seed
        self.variant = seed % VARIANTS
        self.mix = mix_doc(self.variant)
        self.mc_seed = self.variant
        rng = random.Random(seed)
        self.lr_bits = [_bits(rng, 4000) for _ in range(3)]
        self.all_in_bits = _bits(rng, 400)
        self.cylinders = _cylinder_set(rng)
        self.doubling_bits = _bits(rng, 16)
        # 64 requests of length >= 7 keep the Kraft weight at most 1/2
        self.requests = [(rng.randint(7, 12), _bits(rng, rng.randint(1, 12))) for _ in range(64)]
        q = rng.choice(_PRIME_DENOMINATORS)
        # 60 deficiency traces and 20 names: the median of the 86 jobs then
        # falls inside the deficiency cluster, not at its edge with the names
        self.deficiency_points = [Fraction(rng.randrange(1, q), q) for _ in range(60)]
        self.name_points = [
            (Fraction(rng.randrange(1, q), q), Fraction(rng.randrange(1, q), q)) for _ in range(20)
        ]

    def write(self, randlab) -> None:
        """Write the input files; the machine file is built with randlab's kc_build."""
        os.makedirs(IN, exist_ok=True)
        os.makedirs(OUT, exist_ok=True)
        with open(f"{IN}/mix.json", "w") as fh:
            json.dump(self.mix, fh, indent=1)
        machine = randlab.machines.kc_build(self.requests)
        with open(f"{IN}/kc.machine", "w") as fh:
            fh.writelines(f"{code}\t{out}\n" for code, out in sorted(machine.table.items()))
        with open(f"{IN}/u.cylinders", "w") as fh:
            fh.write("\n".join(self.cylinders) + "\n")
        for name, bits in self.bit_files().items():
            with open(f"{IN}/{name}", "w") as fh:
                fh.write(bits + "\n")

    def bit_files(self) -> dict:
        files = {f"lr{i}.bits": b for i, b in enumerate(self.lr_bits)}
        files["all_in.bits"] = self.all_in_bits
        files["doubling.bits"] = self.doubling_bits
        return files


@dataclass
class Job:
    id: str
    argv: list
    expect: Optional[list] = None  # None: look the job up in reference.json
    csv: Optional[str] = None  # CSV file the job writes, measured and removed after it
    steps: int = 0  # bet and Monte-Carlo steps the job walks


# ------------------------------------------------------------------ jobs

_MIX = f"split_table:{IN}/mix.json"
_BATTERY = [
    ("all_in_on_0", "fair", "all_in:0"),
    ("identity", "fair", "quotient:fair/fair"),
    ("lr_bern23_vs_fair", "fair", "quotient:bernoulli:2/3/fair"),
    ("lr_fair_vs_bern13", "bernoulli:1/3", "quotient:fair/bernoulli:1/3"),
    ("lr_mix_vs_fair", "fair", f"quotient:{_MIX}/fair"),
]


def audit_tree_jobs(inp: Inputs) -> list:
    measures = [
        "fair", "bernoulli:1/3", "bernoulli:2/3", "bernoulli:3/4", _MIX,
        "interleave:fair*fair", "push:binary", "push:ternary",
    ]
    jobs = [
        Job(f"additivity:{m}", ["audit", "--measure", m, "--check", "additivity", "--depth", "14"])
        for m in measures
    ]
    # One check per command, at depth 12, so that a pass takes a third of a
    # run and every job is timed in several passes; the median job then falls
    # among the additivity audits and battery fairness walks, which overlap.
    for name, base, spec in _BATTERY:
        head = ["audit", "--measure", base, "--martingale", spec]
        jobs += [
            Job(f"fairness:{name}", head + ["--check", "fairness", "--depth", "12"]),
            Job(f"savings:{name}", head + ["--check", "savings", "--depth", "12"]),
            Job(f"ville:{name}", head + ["--check", "ville", "--n", "12", "--c", "2,4,8"]),
        ]
    return jobs


def convert_chain_jobs(inp: Inputs) -> list:
    jobs = []
    for i, spec in enumerate(["all_in:0", "quotient:bernoulli:2/3/fair", f"quotient:{_MIX}/fair"]):
        head = ["convert", "--measure", "fair", "--martingale", spec]
        test = f"{OUT}/test{i}.json"
        jobs += [
            Job(f"integral@10:{spec}", head + ["--to", "integral", "--depth", "10"]),
            Job(f"vitali@11:{spec}", head + ["--to", "vitali", "--depth", "11"]),
            Job(f"cycle@11:{spec}", head + ["--to", "cycle", "--depth", "11"]),
            Job(f"bounded_ml@11:{spec}", head + ["--to", "bounded_ml", "--depth", "11", "--out-test", test]),
            # the doc written just above; depth 11 because its generators are that deep
            Job(f"back@11:{spec}", ["convert", "--input", test, "--to", "martingale", "--depth", "11"]),
        ]
    jobs.append(Job("transfer:binary->ternary", ["convert", "--transfer", "A=binary", "B=ternary", "--depth", "9"]))
    jobs.append(
        Job(
            "refine:ternary->binary",
            ["refine", "--source-dec", "ternary", "--target-dec", "binary", "--depth", "12", "--target-depth", "6"],
        )
    )
    return jobs


def long_path_jobs(inp: Inputs) -> list:
    jobs = []
    csv = f"{OUT}/trace.csv"
    for i, p in enumerate((Fraction(1, 3), Fraction(2, 3), Fraction(1, 3))):
        source = f"file:{IN}/lr{i}.bits"
        jobs.append(
            Job(
                f"bet:likelihood_ratio:{i}",
                ["bet", "--strategy", "likelihood_ratio:fair", "--measure", f"bernoulli:{_fmt(p)}",
                 "--source", source, "--length", "4000", "--out-csv", csv],
                expect=[digest("source", source), _summary(_likelihood_ratio_values(p, inp.lr_bits[i]))],
                csv=csv,
                steps=4000,
            )
        )
    source = f"file:{IN}/all_in.bits"
    jobs.append(
        Job(
            "bet:bit_all_in",
            ["bet", "--strategy", "bit_all_in:01", "--measure", "fair", "--source", source,
             "--length", "400", "--out-csv", csv],
            expect=[digest("source", source), _summary(_all_in_values("01", inp.all_in_bits))],
            csv=csv,
            steps=400,
        )
    )
    source = f"file:{IN}/doubling.bits"
    values = _doubling_values(inp.cylinders, inp.doubling_bits)
    jobs.append(
        Job(
            "bet:doubling",
            ["bet", "--strategy", f"doubling:{IN}/u.cylinders", "--measure", "fair", "--source", source,
             "--length", str(len(inp.doubling_bits)), "--out-csv", csv],
            expect=[digest("source", source), _summary(values)],
            csv=csv,
            steps=len(values) - 1,
        )
    )
    jobs.append(
        Job(
            "ville:monte_carlo",
            ["audit", "--measure", "fair", "--martingale", "quotient:bernoulli:2/3/fair", "--check", "ville",
             "--n", "200", "--c", "2", "--mc-samples", "200", "--seed", str(inp.mc_seed)],
            steps=200 * 200,
        )
    )
    machine = f"{IN}/kc.machine"
    dcsv = f"{OUT}/deficiency.csv"
    for i, x in enumerate(inp.deficiency_points):
        jobs.append(
            Job(
                f"deficiency:{i}",
                ["deficiency", "--machine", machine, "--decomposition", "ternary", "--point", _fmt(x),
                 "--length", "24", "--out-csv", dcsv],
                expect=[digest("machine", machine)],
                csv=dcsv,
            )
        )
    for i, (x, y) in enumerate(inp.name_points):
        jobs.append(
            Job(
                f"name:{i}",
                ["name", "--decomposition", "interleave:2", "--point", f"{_fmt(x)},{_fmt(y)}", "--length", "40"],
                expect=[f"name: {_interleaved_name(x, y, 40)}"],
            )
        )
    return jobs


JOB_LISTS = {
    "audit-tree": audit_tree_jobs,
    "convert-chain": convert_chain_jobs,
    "long-path": long_path_jobs,
}


# --------------------------------------------------------------- oracles

def _likelihood_ratio_values(p: Fraction, x: str) -> list:
    """Capital of fair-vs-bernoulli(p) likelihood-ratio betting: the quotient
    of the two measures along x."""
    half = Fraction(1, 2)
    ratio = {"1": half / p, "0": half / (1 - p)}
    values = [Fraction(1)]
    for b in x:
        values.append(values[-1] * ratio[b])
    return values


def _all_in_values(sides: str, x: str) -> list:
    """Whole capital on coordinate k being sides[k mod len]: doubles or busts."""
    values = [Fraction(1)]
    for k, b in enumerate(x):
        values.append(values[-1] * 2 if b == sides[k % len(sides)] else Fraction(0))
    return values


def _doubling_values(gens: list, x: str) -> list:
    """Bet on each fair cylinder in turn, staking enough to reach 2 on a win."""
    values = [Fraction(1)]
    remaining = Fraction(1)
    for g in gens:
        w = Fraction(1, 2 ** len(g))
        p = w / remaining
        capital = values[-1]
        stake = (2 - capital) * p / (1 - p)
        if x.startswith(g):
            values.append(Fraction(2))
            break
        values.append(capital - stake)
        remaining -= w
    return values


def _log2(n: int) -> float:
    shift = n.bit_length() - 64
    return math.log2(n >> shift) + shift if shift > 0 else math.log2(n)


def _summary(values: list) -> str:
    final = values[-1]
    line = f"summary: steps={len(values) - 1} final={_fmt(final)} max={_fmt(max(values))}"
    if final > 0:
        line += f" log2_final~{_log2(final.numerator) - _log2(final.denominator):.4f}"
    return line


def _interleaved_name(x: Fraction, y: Fraction, length: int) -> str:
    """Binary digits of x and y, alternating (neither is dyadic, so no boundary)."""
    k = (length + 1) // 2
    dx = format(math.floor(x * 2**k), "b").zfill(k)
    dy = format(math.floor(y * 2**k), "b").zfill(k)
    return "".join(a + b for a, b in zip(dx, dy))[:length]


# ------------------------------------------------------------- reference

_IN_PATH = re.compile(re.escape(IN) + r"/[\w.]+")


def reference_key(job: Job) -> str:
    """Hash of the argv and of every input file it names, so a stale reference
    never matches a changed input."""
    h = hashlib.sha256("\0".join(job.argv).encode())
    for path in sorted(set(_IN_PATH.findall(" ".join(job.argv)))):
        with open(path, "rb") as fh:
            h.update(b"\0" + path.encode() + b"\0" + fh.read())
    return h.hexdigest()[:24]


def report_lines(text: str) -> list:
    """Deterministic report lines: all but the `command:` echo and `timing_s:`."""
    return [
        line for line in text.splitlines() if not line.startswith(("command:", "timing_s:"))
    ]


def fingerprint(exit_code: int, lines: list) -> dict:
    return {
        "exit": exit_code,
        "lines": len(lines),
        "sha256": hashlib.sha256("\n".join(lines).encode()).hexdigest(),
    }


def load_reference(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)["jobs"]
