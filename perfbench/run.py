"""revfactor benchmark: factor -> certify -> verify, closed loop.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload mixed-n6 --seed 1 --seconds 25 --trace 0

One caller in one thread runs the workload's operations back to back; the
next starts only when the previous one has finished.  An operation is one
instance factored, certified, formatted, parsed and verified, or, on
``verify-replay``, one certificate parsed and verified.  The loop runs
whole passes over the workload while the next pass is expected to end
within ``--seconds``, and at least two passes, and enough that every
median has ten samples above it.

Every operation is checked: an exception, a recompose that differs from
the target, a factor count over ``factor_budget``, an honest certificate
that does not verify or a tampered one that does all count as failures.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the command exits
with 1 when any operation failed.

``--trace 0`` reports the end-to-end metrics:

- ``instances_per_s``: operations per pass over the median pass time;
- ``factor_s.p50``: median time of one ``factor_reversibles`` or
  ``factor_involutions`` call, the pipeline's own recompose self-check
  included (on verify-replay: the calls that built the replayed
  certificates);
- ``verify_s.p50``: median time of ``parse_certificate`` plus
  ``verify_certificate`` on one certificate text;
- ``factors_total`` and ``cert_bytes``: factors and certificate bytes of
  one pass, exact;
- ``setup_s``: median over SETUP_REPEATS fresh processes of process start,
  ``import revfactor``, corpus generation and one warm-up instance (plus,
  on verify-replay, building the certificates);
- ``peak_rss_mb``: this process's ``ru_maxrss``.

Times other than ``setup_s`` are in reference seconds (see ``Clock``);
the wall-clock medians go to the run record.  The 90th percentiles and
``fail_frac`` are printed above the result line, the percentiles only
where 100 samples exist.

``--trace 1`` runs every operation untraced and traced back to back,
reports the per-layer metrics of the traced runs and the tracing overhead,
and writes the spans to ``.perfbench-out/``.  A record of every run, with
the environment and the sha256 of the pass's certificate bytes, goes to
the same directory.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import importlib.metadata
import json
import math
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"

sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_REPEATS = 5  # set-up runs in child processes; setup_s is their median
MIN_TAIL = 10  # samples required beyond a reported percentile
SCALAR_PAIRS = 200  # coefficient pairs timed for the scalar kernel rows
SCALAR_REPEATS = 20
PROBE_DEGREE = 10  # truncation degree of the speed probe's product
PROBE_REF_S = 0.003  # probe time that defines one reference second
PROBE_EVERY_S = 0.2  # wall time between probes while a Clock runs
PROBE_PAD_S = 0.5  # probes this close to an interval set its speed


class SetupError(Exception):
    pass


def import_program():
    """Import revfactor from this checkout's ``src``, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import revfactor
    except ImportError as exc:
        raise SetupError(f"cannot import revfactor from {src}: {exc}") from None
    if Path(revfactor.__file__).resolve().parent.parent != src.resolve():
        raise SetupError(f"revfactor was imported from {revfactor.__file__}, not {src}")
    return revfactor


# ---------------------------------------------------------------------------
# set-up


def _digest(cert: dict) -> str:
    """sha256 over the canonical payload, as the certificate format defines it."""
    body = {k: v for k, v in cert.items() if k != "digest"}
    canon = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _still_witnesses(rf, g, kind: str, h) -> bool:
    """Whether h is still a valid witness for g, by composition."""
    if kind == "involution_self":
        return h == g and rf.map_compose(g, g).is_identity()
    ok = rf.map_compose(g, h) == rf.map_compose(h, rf.map_invert(g))
    if kind == "involutive_reverser":
        ok = ok and rf.map_compose(h, h).is_identity()
    return ok


def tamper(rf, cert: dict, rng: random.Random, part: str) -> dict:
    """A copy of ``cert`` with one coefficient of one factor map (``part``
    "factor") or witness (``part`` "witness") raised by 1, re-digested so
    that only the mathematical checks can reject it.

    Any change to a factor breaks the recomposition, since the factors
    form a group product.  A changed witness could in principle still be
    a witness, so candidates are tried until one is not."""
    cert = copy.deepcopy(cert)
    items = cert["factors"]
    for i in rng.sample(range(len(items)), len(items)):
        item = items[i]
        holder, key = (item, "map") if part == "factor" else (item["witness"], "h")
        m = rf.parse_map(holder[key])
        slots = [(j, e) for j, c in enumerate(m.comps) for e in sorted(c.coeffs)]
        rng.shuffle(slots)
        for j, e in slots:
            comp = m.comps[j]
            changed = rf.Series(comp.nvars, comp.trunc, {**comp.coeffs, e: comp.coeffs[e] + 1})
            bad = rf.FormalMap(m.comps[:j] + (changed,) + m.comps[j + 1:])
            if part == "witness" and _still_witnesses(
                rf, rf.parse_map(item["map"]), item["witness"]["kind"], bad
            ):
                continue
            holder[key] = rf.format_map(bad)
            cert["digest"] = _digest(cert)
            return cert
    raise SetupError(f"no coefficient change invalidates a {part}")


def _factor(rf, mode: str):
    return rf.factor_reversibles if mode == "reversible" else rf.factor_involutions


def _pipeline(rf, F, mode: str):
    """One instance: factor, certify, format, parse, verify.  Returns the
    factorization, certificate text, report, and the wall-clock intervals
    of the factor call and of parse plus verify."""
    t0 = time.perf_counter()
    fz = _factor(rf, mode)(F)
    t1 = time.perf_counter()
    text = rf.format_certificate(rf.certificate(fz))
    t2 = time.perf_counter()
    report = rf.verify_certificate(rf.parse_certificate(text))
    t3 = time.perf_counter()
    return fz, text, report, (t0, t1), (t2, t3)


@dataclass
class Op:
    """One operation of the loop: an instance F to factor, or a certificate
    text to replay (at ``degree`` when given)."""

    name: str
    F: object = None
    mode: str | None = None
    budget: int | None = None
    text: str | None = None
    degree: int | None = None
    expect_ok: bool = True
    factors: int = 0


def set_up(rf, workload: str, seed: int):
    """Build the workload's operations and run the warm-up instance.
    Returns the operations and the factor timings taken on the way."""
    instances = corpus.build(workload, seed)
    maps = []
    for inst in instances:
        F = rf.parse_map(inst.text)
        if inst.truncation is not None:
            F = F.truncate(inst.truncation)
        det_minus = F.linear_part().det() == -rf.scalar(1)
        maps.append((inst, F, rf.factor_budget(F.nvars, inst.mode, det_minus)))
    warm = corpus.warm_up_instance(seed)
    _, _, report, _, _ = _pipeline(rf, rf.parse_map(warm.text), warm.mode)
    if not report.ok:
        raise SetupError("the warm-up certificate does not verify")
    if workload != "verify-replay":
        return [Op(inst.name, F, inst.mode, budget) for inst, F, budget in maps], []
    ops, factored = [], []
    rng = random.Random(f"{seed}:tamper")
    clock = Clock()
    with clock.running():
        for i, (inst, F, _) in enumerate(maps):
            t0 = time.perf_counter()
            fz = _factor(rf, inst.mode)(F)
            factored.append((t0, time.perf_counter()))
            # the replay checks recomposition and budget of the honest copy
            text = rf.format_certificate(rf.certificate(fz))
            k = len(fz.factors)
            ops.append(Op(inst.name, text=text, factors=k))
            if i % 2 == 0:
                ops.append(Op(f"{inst.name}@N-2", text=text, degree=F.trunc - 2, factors=k))
            else:
                part = "factor" if i % 4 == 1 else "witness"
                bad = rf.format_certificate(tamper(rf, rf.parse_certificate(text), rng, part))
                ops.append(Op(f"{inst.name}:{part}-tampered", text=bad,
                              expect_ok=False, factors=k))
    return ops, [clock.measure(*span)[1] for span in factored]


def timed_set_ups(workload: str, seed: int):
    """Run the whole set-up SETUP_REPEATS times, each in a fresh process
    from its start to its exit.  Returns the wall times and the factor
    timings the children took.  Set-up is mostly process start and
    imports, which the probe tracks worse than plain wall time does, so
    these stay wall seconds."""
    walls, factor_s = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        walls.append(time.perf_counter() - t0)
        if done.returncode != 0:
            raise SetupError(f"set-up child failed:\n{done.stderr}")
        factor_s += json.loads(done.stdout.splitlines()[-1])["factor_s"]
    return walls, factor_s


# ---------------------------------------------------------------------------
# the closed loop


def _probe_kernel():
    """A truncated product of two-variable polynomials with rational
    coefficients, in pure Python: the kind of work revfactor's series
    multiply does, with none of its code."""
    a = {(i, j): Fraction(7 * i + j + 1, 3 * j + 2)
         for i in range(PROBE_DEGREE) for j in range(PROBE_DEGREE - i)}
    out = {}
    for (i, j), x in a.items():
        for (k, l), y in a.items():
            if i + j + k + l < PROBE_DEGREE:
                key = (i + k, j + l)
                out[key] = out.get(key, 0) + x * y
    return out


class Clock:
    """Converts wall-clock intervals to reference seconds.

    The machine this runs on may share its cores, and its speed then drifts
    by 20-40% over seconds to minutes, which moves every wall time with it.
    So while the clock runs, a SIGALRM handler runs the probe kernel every
    PROBE_EVERY_S; the handler runs in this thread, between bytecodes of
    whatever revfactor is doing.  An interval's reference time is its wall
    time, less the probes that ran inside it, times PROBE_REF_S over the
    median probe time within PROBE_PAD_S of it.  A reference second is a
    wall second on a machine whose probe takes PROBE_REF_S; on the 2-core
    machine the baseline was measured on, the two differ by up to a third.
    A change to revfactor moves the operation times and not the probe, so
    it shows in full.  On that machine this cut the seed-to-seed spread of
    the timing metrics from 10-30% to 3-11%."""

    def __init__(self):
        self.samples = []  # (start, duration) of each probe

    def _sample(self, signum=None, frame=None):
        t0 = time.perf_counter()
        _probe_kernel()
        self.samples.append((t0, time.perf_counter() - t0))

    @contextmanager
    def running(self):
        self._sample()
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def measure(self, start: float, end: float):
        """(wall seconds without probes, reference seconds) of an interval."""
        samples = list(self.samples)
        wall = end - start - sum(d for t, d in samples if start <= t < end)
        near = [d for t, d in samples if start - PROBE_PAD_S <= t < end + PROBE_PAD_S]
        if not near:
            near = [min(samples, key=lambda sample: abs(sample[0] - start))[1]]
        return wall, wall * PROBE_REF_S / statistics.median(near)

    def speed(self) -> float:
        """PROBE_REF_S over the median probe time so far."""
        return PROBE_REF_S / statistics.median(d for _, d in self.samples)


def _unscaled(start: float, end: float):
    return end - start, end - start


class Run:
    """Samples and outcomes of one closed-loop run.  Timings are kept as
    measured and, in reference seconds, scaled by the probe (see Clock)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.factor_s = []  # reference seconds
        self.verify_s = []  # reference seconds
        self.raw_factor_s = []
        self.raw_verify_s = []
        self.pipeline_s = 0.0  # factor + certify + verify, no checks
        self.first_pass = None  # [(certificate text, factor count)]
        self.outputs = []  # factorizations of the first pass

    def fail(self, op, why):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{op.name}: {why}")

    def record(self, measure, factor, verify):
        """Add a factor and a verify interval (None where not measured),
        converted by ``measure`` (see Clock.measure)."""
        for span, raw, ref in ((factor, self.raw_factor_s, self.factor_s),
                               (verify, self.raw_verify_s, self.verify_s)):
            if span is not None:
                wall, scaled = measure(*span)
                raw.append(wall)
                ref.append(scaled)
                self.pipeline_s += wall


def run_op(rf, op: Op, run: Run, keep: list | None):
    """Run one operation and check it; append (text, factors) to keep.
    Returns its factor and verify intervals (None where not measured)."""
    run.attempted += 1
    try:
        if op.F is None:
            t0 = time.perf_counter()
            report = rf.verify_certificate(rf.parse_certificate(op.text), degree=op.degree)
            verify = (t0, time.perf_counter())
            if report.ok != op.expect_ok:
                run.fail(op, "tampered certificate reported OK" if report.ok
                         else "honest certificate rejected")
            if keep is not None:
                keep.append((op.text, op.factors))
            return None, verify
        fz, text, report, factor, verify = _pipeline(rf, op.F, op.mode)
        if fz.recompose() != op.F:
            run.fail(op, "recompose differs from the target")
        elif len(fz.factors) > op.budget:
            run.fail(op, f"{len(fz.factors)} factors over budget {op.budget}")
        elif not report.ok:
            run.fail(op, "certificate does not verify")
        if keep is not None:
            keep.append((text, len(fz.factors)))
            run.outputs.append(fz)
        return factor, verify
    except Exception as exc:  # every failure is counted, none ends the run
        run.fail(op, f"{type(exc).__name__}: {exc}")
        return None, None


def run_pass(rf, ops, run: Run, clock: Clock) -> float:
    """One pass over ops; returns its time in reference seconds."""
    keep = [] if run.first_pass is None else None
    spans = []
    for op in ops:
        t0 = time.perf_counter()
        timed = run_op(rf, op, run, keep)
        spans.append(((t0, time.perf_counter()), timed))
    if keep is not None:
        run.first_pass = keep
    total = 0.0
    for op_span, (factor, verify) in spans:
        run.record(clock.measure, factor, verify)
        total += clock.measure(*op_span)[1]
    return total


def run_passes(seconds: float, min_passes: int, one_pass) -> int:
    """Run whole passes: at least min_passes, then more while the next one
    is expected to end within ``seconds`` of the start."""
    t0 = time.perf_counter()
    passes = 0
    while passes < min_passes or (
        (time.perf_counter() - t0) * (passes + 1) / passes <= seconds
    ):
        one_pass()
        passes += 1
    return passes


# ---------------------------------------------------------------------------
# metrics


def _median(values):
    if len(values) < 2 * MIN_TAIL:
        raise SetupError(f"a median needs {2 * MIN_TAIL} samples, got {len(values)}")
    return statistics.median(values)


def _p90(values):
    """The 90th percentile, or None below 10 samples beyond it."""
    if len(values) < 10 * MIN_TAIL:
        return None
    return statistics.quantiles(values, n=10)[-1]


def _output_maps(rf, run: Run):
    """Factor and witness maps the pass produced (or replayed)."""
    if run.outputs:
        fzs = run.outputs
    else:
        fzs = [rf.certificate_factorization(rf.parse_certificate(t)) for t, _ in run.first_pass]
    return [m for fz in fzs for f in fz.factors for m in (f.map, f.witness.h)]


def scalar_rows(rf, maps, seed: int):
    """Kernel rows: median microseconds per multiply and per add, on
    coefficient pairs sampled from the workload's outputs; and the largest
    numerator or denominator bit length among those coefficients."""
    coeffs = [x for m in maps for comp in m.comps for x in comp.coeffs.values()]
    max_bits = max(
        max(abs(int(r.numerator)).bit_length(), int(r.denominator).bit_length())
        for x in coeffs for r in (x.a, x.b, x.c, x.d)
    )
    rng = random.Random(f"{seed}:scalars")
    pairs = [(rng.choice(coeffs), rng.choice(coeffs)) for _ in range(SCALAR_PAIRS)]
    rows = {}
    for op in ("mul", "add"):
        per = []
        for x, y in pairs:
            t0 = time.perf_counter()
            for _ in range(SCALAR_REPEATS):
                x * y if op == "mul" else x + y
            per.append((time.perf_counter() - t0) / SCALAR_REPEATS * 1e6)
        rows[op] = statistics.median(per)
    return rows["mul"], rows["add"], max_bits


def environment(rf) -> dict:
    rat = type(rf.scalars.rat(0))
    try:
        sympy = importlib.metadata.version("sympy")
    except importlib.metadata.PackageNotFoundError:
        sympy = None
    return {
        "python": sys.version.split()[0],
        "rational": f"{rat.__module__}.{rat.__name__}",
        "sympy": sympy,
        "nproc": os.cpu_count(),
    }


def end_to_end(rf, args, ops, setup_factor_s):
    walls, child_factor_s = timed_set_ups(args.workload, args.seed)
    run = Run()
    clock = Clock()
    pass_s = []
    with clock.running():
        passes = run_passes(
            args.seconds,
            max(2, math.ceil(2 * MIN_TAIL / len(ops))),
            lambda: pass_s.append(run_pass(rf, ops, run, clock)),
        )
    # verify-replay factors nothing in the loop: its factor timings are
    # those of the certificates it replays, taken in the set-ups
    factor_s = run.factor_s or setup_factor_s + child_factor_s
    metrics = {
        "instances_per_s": (len(ops) / statistics.median(pass_s), "1/s"),
        "factor_s.p50": (_median(factor_s), "s"),
        "verify_s.p50": (_median(run.verify_s), "s"),
        "factors_total": (sum(k for _, k in run.first_pass), "count"),
        "cert_bytes": (sum(len(t.encode()) for t, _ in run.first_pass), "bytes"),
        "setup_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {
        "passes": passes,
        "pass_ref_s": pass_s,
        "speed": clock.speed(),
        "probes": len(clock.samples),
        "setup_wall_s": walls,
        "factor_s.n": len(factor_s),
        "factor_s.p90": _p90(factor_s),
        "factor_s.wall_p50": statistics.median(run.raw_factor_s) if run.raw_factor_s else None,
        "verify_s.n": len(run.verify_s),
        "verify_s.p90": _p90(run.verify_s),
        "verify_s.wall_p50": statistics.median(run.raw_verify_s),
    }
    return run, metrics, notes


# per-layer metrics taken from the spans of one traced pass
CALLS_AND_SELF = (
    "series.mul", "series.compose", "maps.compose", "maps.invert",
    "normalform.poincare_dulac", "normalform.solve_conjugacy",
    "normalform.verify_witness", "structure.split_centralizer",
    "structure.centralizer_membership", "structure.fresh_prime_diagonal",
    "dim1.split_involutions", "dim1.split_reversibles", "dim1.reverser_search",
)
CALLS_ONLY = ("maps.is_involution",)
SELF_ONLY = (
    "maps.parse", "maps.format", "factor.drive", "factor.verify_factorization",
    "factor.certificate", "factor.parse_certificate",
)


def per_layer(rf, args, ops):
    """Run each operation untraced and traced back to back, in alternating
    order, in whole passes as end_to_end does.  Layer numbers are per
    traced pass.  The overhead is the median over operations of traced
    over untraced wall time: a sum would be decided by the few longest
    operations and by which of their two runs came first."""
    plain, traced = Run(), Run()
    tracer = Tracer()
    ratios = []

    def one_pass():
        keep = {False: [] if plain.first_pass is None else None,
                True: [] if traced.first_pass is None else None}
        for i, op in enumerate(ops):
            wall = {}
            for on in (False, True) if i % 2 == 0 else (True, False):
                if on:
                    tracer.instance += 1
                    with tracer.installed(rf):
                        t0 = time.perf_counter()
                        with tracer.span("op"):
                            traced.record(_unscaled, *run_op(rf, op, traced, keep[on]))
                        wall[on] = time.perf_counter() - t0
                else:
                    t0 = time.perf_counter()
                    plain.record(_unscaled, *run_op(rf, op, plain, keep[on]))
                    wall[on] = time.perf_counter() - t0
            ratios.append(wall[True] / wall[False])
        plain.first_pass = plain.first_pass or keep[False]
        traced.first_pass = traced.first_pass or keep[True]

    pairs = run_passes(args.seconds, 1, one_pass)
    factors = sum(k for _, k in plain.first_pass)
    calls, self_s = tracer.calls, tracer.self_s
    mul_us, add_us, max_bits = scalar_rows(rf, _output_maps(rf, plain), args.seed)
    metrics = {
        "scalars.mul_us": (mul_us, "us"),
        "scalars.add_us": (add_us, "us"),
        "scalars.max_bits": (max_bits, "bits"),
    }
    for name in CALLS_AND_SELF + CALLS_ONLY:
        metrics[f"{name}.calls"] = (calls[name] / pairs, "count")
    for name in CALLS_AND_SELF + SELF_ONLY:
        metrics[f"{name}.self_s"] = (self_s[name] / pairs, "s")
    metrics.update({
        "series.compose.terms_out": (tracer.terms_out["series.compose"] / pairs, "count"),
        "maps.compose.per_factor": (calls["maps.compose"] / pairs / factors, "count"),
        "maps.invert.per_factor": (calls["maps.invert"] / pairs / factors, "count"),
        "factor.verify_share": (sum(plain.raw_verify_s) / plain.pipeline_s, "ratio"),
        "trace.overhead": (statistics.median(ratios), "ratio"),
    })
    tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl.gz")
    plain.attempted += traced.attempted
    plain.failed += traced.failed
    plain.failures += traced.failures
    notes = {"pairs": pairs, "spans": len(tracer.spans)}
    return plain, metrics, notes


# ---------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        rf = import_program()
        ops, setup_factor_s = set_up(rf, args.workload, args.seed)
        if args.setup_only:
            print(json.dumps({"factor_s": setup_factor_s}))
            return 0
        if args.trace:
            run, metrics, notes = per_layer(rf, args, ops)
        else:
            run, metrics, notes = end_to_end(rf, args, ops, setup_factor_s)
    except (SetupError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    sha = hashlib.sha256("".join(t for t, _ in run.first_pass).encode()).hexdigest()
    env = environment(rf)
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{run.attempted} operations, {len(ops)} per pass")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  fail_frac = {run.failed / run.attempted:.6g} ({run.failed}/{run.attempted})")
    for key in ("factor_s.p90", "verify_s.p90"):
        if key in notes:
            value = notes[key]
            shown = "n/a (under 100 samples)" if value is None else f"{value:.6g} s"
            print(f"  {key} = {shown}")
    print(f"  cert_sha256 = {sha}")
    for line in run.failures:
        print(f"  FAIL {line}")
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "env": env, "cert_sha256": sha,
        "fail_frac": run.failed / run.attempted, "failures": run.failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "notes": notes,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
