"""The four g1min workloads: seeded inputs, jobs, expected answers and checks.

Every input is built from the seed before any timing starts.  A job's `call`
looks its g1min functions up at call time (through the package or
`sys.modules`), so a traced run sees the tracer's wrappers; generation and
checks use the functions bound here at import, which the tracer never wraps.
"""

import contextlib
import io
import json
import math
import random
import sys
from dataclasses import dataclass, field
from typing import Any, Callable

import g1min
import g1min.cli  # noqa: F401  (loaded so the tracer can bind over its names)
from g1min import (
    BinaryQuartic, Hypercube, LocalContext, TwoTwoForm, act, construct_22, construct_cube,
    critical_model, cube_invariants, discriminant, form22_invariants, inflate,
    is_minimal_22, is_prime, level, marked_curve, minimise_hypercube, model_from_dict,
    model_to_dict, group_element_from_dict, symmetric_minimal_weights, valuation,
)
from g1min import construct as _construct

KINDS = ("quartic", "form22", "cube", "hypercube")
CRITICAL_KINDS = ("form22", "cube", "hypercube")

# local_large_p prime buckets
CUBE_PRIMES = (89, 97, 101, 103)          # p ~ 100, cubes
CRITICAL_CUBE_PRIMES = (89, 97, 101)
BOUND_CUBE_PRIMES = (1031, 1033)          # just above the P^2 search bound 2^10
P2_SEARCH_BOUND = 1 << 10                 # g1min's P^2 residue search bound
P1000 = (1009, 1013, 1019)
P2_16 = (65521, 65537, 65539)
P2_20 = (1048583, 1048589, 1048601)

CENSUS_CLASSES = 81
CENSUS_SYMMETRIC = 8


class WrongAnswer(Exception):
    """A job returned an answer that fails its check."""


@dataclass
class Job:
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], None]
    outcome: Callable[[Any], str] = lambda result: "ok"
    # The outcome by which g1min refuses this input within its documented
    # limits (an exception class name or "exit_<code>"), known from the input
    # alone; such a refusal is checked, not failed.
    refusal: str | None = None
    checked: bool = False
    answer: Any = field(default=None, repr=False)

    def verify(self, result):
        """Check an ok answer in full the first time, then against that one."""
        if self.checked:
            require(result == self.answer, self.label, "answer differs from an earlier run")
        else:
            self.check(result)
            self.checked, self.answer = True, result


@dataclass
class Workload:
    jobs: list
    # The census is this workload's own job: timed before the loop (so peak RSS
    # counts it) and traced.
    owns_census: bool = False


def require(ok, job_label, what):
    if not ok:
        raise WrongAnswer(f"{job_label}: {what}")


# ---------------------------------------------------------------------------
# input generation


def _random_marked(rng, bound):
    while True:
        a = [rng.randint(-bound, bound) for _ in range(4)]
        if marked_curve(*a).disc != 0:
            return a


def _random_hypercube(rng, bound=4):
    return Hypercube(tuple(tuple(tuple(tuple(rng.randint(-bound, bound) for _ in range(2))
                                       for _ in range(2)) for _ in range(2))
                           for _ in range(2)))


def level_zero_base(kind, ctx, rng):
    """A level-zero model at ctx.p, as in the round-trip acceptance criterion."""
    p = ctx.p
    while True:
        if kind == "quartic":
            base = BinaryQuartic(tuple(rng.randint(-8, 8) for _ in range(5)))
            d = discriminant(base)
            if d != 0 and valuation(d, p) < 12:
                return base
        elif kind == "form22":
            return construct_22(*_random_marked(rng, 6))
        elif kind == "cube":
            return construct_cube(*_random_marked(rng, 6))
        else:
            cand = _random_hypercube(rng)
            if discriminant(cand) == 0:
                continue
            base = minimise_hypercube(cand, ctx).model
            if level(base, ctx).level == 0:
                return base


# ---------------------------------------------------------------------------
# local jobs: minimise(m, p), then level(out, p) except for quartics


def _local_call(m, ctx):
    def call():
        rep = g1min.minimise(m, ctx)
        lv = None if m.kind == "quartic" else g1min.level(rep.model, ctx)
        return rep, lv
    return call


def local_job(label, m, ctx, base=None, refusal=None):
    """A round trip when `base` is the level-zero model m was inflated from,
    otherwise a critical model that must come back unchanged."""
    v_base = valuation(discriminant(base), ctx.p) if base is not None else None

    def check(result):
        rep, lv = result
        require(act(rep.transformation, m) == rep.model, label, "certificate act(g, in) != out")
        if base is None:
            require(rep.steps == () and rep.model == m and rep.input_was_minimal,
                    label, "critical model was not returned minimal with zero steps")
            require(lv.level >= 1, label, "critical model has level 0")
        elif m.kind == "quartic":
            require(rep.v_disc_final == v_base, label, "quartic did not restore v(Delta_base)")
        else:
            require(lv.level == 0, label, "round trip did not reach level 0")
        if lv is not None:
            require(lv.v_disc == lv.v_disc_min + 12 * lv.kappa + 12 * lv.level,
                    label, "level identity fails")

    return Job(label, _local_call(m, ctx), check, refusal=refusal)


def local_small_p(rng, workdir):
    jobs = []
    # per prime: fewer of the cheap quartics and (2,2)-forms, so that the
    # median falls inside the hypercube round trips.  The pass is large
    # because the number of rare 20-80 ms round trips varies by seed.
    counts = {"quartic": 36, "form22": 36, "cube": 54, "hypercube": 54}
    for p in (2, 3, 5, 7):
        ctx = LocalContext(p)
        for kind in KINDS:
            for i in range(counts[kind]):
                moves = 1 + i % 3  # an equal share of 1, 2 and 3 moves
                base = level_zero_base(kind, ctx, rng)
                m, _ = inflate(base, ctx, rng, moves=moves)
                jobs.append(local_job(f"inflated/{kind}/p={p}/moves={moves}", m, ctx, base))
    for p in (5, 7):
        ctx = LocalContext(p)
        for kind in CRITICAL_KINDS:
            for _ in range(18):
                jobs.append(local_job(f"critical/{kind}/p={p}",
                                      critical_model(kind, ctx, rng), ctx))
    return Workload(jobs)


def inflate_once(base, ctx, rng, stretch):
    """One inflation move whose stretch is `stretch`: "scalar" (undone by a
    content division) or "diagonal" (undone through the residue step)."""
    while True:
        m, g = inflate(base, ctx, rng, moves=1)
        if (valuation(g.scalar, ctx.p) > 0) == (stretch == "scalar"):
            return m


def local_large_p(rng, workdir):
    jobs = []

    def critical(kind, primes, count):
        for i in range(count):
            ctx = LocalContext(primes[i % len(primes)])
            # a critical cube reaches the P^2 search, which g1min refuses
            # above its bound with PrimeBoundError
            beyond = kind == "cube" and ctx.p > P2_SEARCH_BOUND
            jobs.append(local_job(f"critical/{kind}/p={ctx.p}",
                                  critical_model(kind, ctx, rng), ctx,
                                  refusal="PrimeBoundError" if beyond else None))

    def inflated(kind, primes, count, stretches=("scalar", "diagonal")):
        for i in range(count):
            ctx = LocalContext(primes[i % len(primes)])
            base = level_zero_base(kind, ctx, rng)
            stretch = stretches[i % len(stretches)]
            jobs.append(local_job(f"inflated-{stretch}/{kind}/p={ctx.p}",
                                  inflate_once(base, ctx, rng, stretch), ctx, base))

    # residue searches that finish today: cubes at p ~ 100, (2,2)-forms and
    # hypercubes at p ~ 2^16
    critical("cube", CRITICAL_CUBE_PRIMES, 3)
    for kind in ("form22", "hypercube"):
        critical(kind, P2_16, 6)
    inflated("form22", (P2_16[1],), 2, ("diagonal",))
    # refused today: one search past the P^2 prime bound
    critical("cube", (rng.choice(BOUND_CUBE_PRIMES),), 1)
    # one p >= 2^20 residue search, the slowest job (an O(p) scan, ~8 s)
    inflated("form22", (rng.choice(P2_20),), 1, ("diagonal",))
    # cheap: p ~ 1000 criticals, and inflations whose searches stay short
    for kind in ("form22", "hypercube"):
        critical(kind, P1000, 8)
    inflated("cube", CUBE_PRIMES, 16)
    inflated("form22", (P1000[0],), 30, ("scalar",))
    inflated("form22", (P1000[0],), 10, ("diagonal",))
    inflated("hypercube", (P1000[0], P2_16[1], P2_20[0]), 40)
    return Workload(jobs)


# ---------------------------------------------------------------------------
# global_cli: in-process g1min.cli.main on JSON model files


def _cli_call(argv):
    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = sys.modules["g1min.cli"].main(argv)
        return code, out.getvalue()
    return call


def _cli_outcome(result):
    return "ok" if result[0] == 0 else f"exit_{result[0]}"


def _is_twelfth_power(n):
    if n < 1:
        return False
    x = 1 << -(-n.bit_length() // 12)  # Newton's method from above
    while True:
        y = (11 * x + n // x ** 11) // 12
        if y >= x:
            return x ** 12 == n
        x = y


def _global_job(label, path, m, disc_base, refusable):
    """The output Delta is the base Delta, or smaller by a 12th power where
    the base model itself was not minimal (it can be, e.g. at p = 2).  Exit 5
    (FactorizationError) is a checked refusal where `refusable`: trial
    division cannot factor that Delta."""
    def check(result):
        doc = json.loads(result[1])
        out = model_from_dict(doc["model"])
        g = group_element_from_dict(doc["transformation"])
        require(act(g, m) == out, label, "certificate act(g, in) != out")
        ratio, rest = divmod(disc_base, discriminant(out))
        require(rest == 0 and _is_twelfth_power(ratio), label,
                "base Delta is not the output Delta times a 12th power")
    return Job(label, _cli_call(["minimise", path, "--global", "--json"]), check, _cli_outcome,
               refusal="exit_5" if refusable else None)


def _level_job(label, path, m, p):
    rep = level(m, LocalContext(p))
    expected = {"vDelta": rep.v_disc, "vDeltaMin": rep.v_disc_min,
                "kappa": rep.kappa, "level": rep.level}

    def check(result):
        require(json.loads(result[1]) == expected, label, "level report differs from the API")
    return Job(label, _cli_call(["level", path, "--prime", str(p), "--json"]), check,
               _cli_outcome)


def _invariants_job(label, path, m):
    inv = (form22_invariants if m.kind == "form22" else cube_invariants)(m)
    expected = {"c4": str(inv.c4), "c6": str(inv.c6), "Delta": str(inv.disc)}

    def check(result):
        doc = json.loads(result[1])
        require({k: doc[k] for k in expected} == expected, label,
                "invariants differ from the API")
    return Job(label, _cli_call(["invariants", path, "--json"]), check, _cli_outcome)


TRIAL_BOUND = 1 << 20  # g1min's trial-division bound


def _primes_below(n):
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for q in range(2, int(n ** 0.5) + 1):
        if sieve[q]:
            sieve[q * q::q] = bytearray(len(range(q * q, n, q)))
    return [q for q in range(n) if sieve[q]]


def _product(xs):
    while len(xs) > 1:
        xs = [xs[i] * xs[i + 1] if i + 1 < len(xs) else xs[i] for i in range(0, len(xs), 2)]
    return xs[0]


def _trial_division_kind(n, smooth):
    """How trial division to TRIAL_BOUND fares on |n|, from its rough part
    (|n| divided by all its prime factors below the bound):

    - "refused": the rough part is composite, so trial division cannot
      factor n (FactorizationError);
    - "full": the rough part is a prime above TRIAL_BOUND^2, so trial
      division runs to its bound and succeeds;
    - "short": the rough part is 1 or a prime below TRIAL_BOUND^2, so trial
      division stops early.

    A Fermat test in four bases stands in for primality."""
    n, g = abs(n), math.gcd(abs(n), smooth)
    while g > 1:
        n //= g
        g = math.gcd(n, g)
    if n > 1 and any(pow(b, n - 1, n) != 1 for b in (2, 3, 5, 7)):
        return "refused"
    return "full" if n > TRIAL_BOUND ** 2 else "short"


def global_cli(rng, workdir):
    primes = [q for q in range(2, 1010) if is_prime(q)]
    smooth = _product(_primes_below(TRIAL_BOUND))
    # 60 global jobs, 40% of them on a Delta that trial division cannot
    # factor (exit 5 today).  Fixed shares of the three kinds keep the p90
    # (among the "full" jobs) and the throughput steady across seeds.
    wanted = {"refused": 24, "full": 30, "short": 6, None: 60}  # None: no global job
    jobs = []
    files = 0
    while any(wanted.values()):
        base = (construct_cube if files % 2 else construct_22)(*_random_marked(rng, 10 ** 4))
        p1, p2 = rng.sample(primes, 2)
        m, _ = inflate(base, LocalContext(p1), rng, moves=1)
        m, _ = inflate(m, LocalContext(p2), rng, moves=1)
        group = _trial_division_kind(discriminant(m), smooth)
        if not wanted[group]:
            group = None
            if not wanted[group]:
                continue
        wanted[group] -= 1
        path = str(workdir / f"model{files:03d}.json")
        files += 1
        with open(path, "w") as fh:
            json.dump(model_to_dict(m), fh)
        if group is not None:
            jobs.append(_global_job(f"global/{m.kind}", path, m, discriminant(base),
                                    group == "refused"))
        for p in (p1, p2):
            jobs.append(_level_job(f"level/{m.kind}", path, m, p))
        jobs.append(_invariants_job(f"invariants/{m.kind}", path, m))
    return Workload(jobs)


# ---------------------------------------------------------------------------
# census_oracle: the cold weight census, and the (2,2) minimality oracle


def _random_form22(rng, bound=8):
    return TwoTwoForm(tuple(tuple(rng.randint(-bound, bound) for _ in range(3))
                            for _ in range(3)))


def census_job():
    """A cold enumerate_minimal_weights(), as every `g1min oracle weights`
    process pays it."""
    def call():
        _construct.enumerate_minimal_weights.cache_clear()
        _construct._weight_candidates.cache_clear()
        return g1min.enumerate_minimal_weights()

    def check(weights):
        require(len(weights) == CENSUS_CLASSES, "census", f"{len(weights)} classes, not 81")
        require(len(symmetric_minimal_weights()) == CENSUS_SYMMETRIC, "census",
                "symmetric class count is not 8")
    return Job("census", call, check)


def census_oracle(rng, workdir):
    jobs = []
    # the p = 3 jobs hold the median and the p = 5 jobs the p90
    for p, count in ((2, 60), (3, 120), (5, 60)):
        ctx = LocalContext(p)
        for i in range(count):
            F = _random_form22(rng)
            while discriminant(F) == 0:
                F = _random_form22(rng)
            if i % 3 == 0:
                F, _ = inflate(F, ctx, rng, moves=1)
            expected = is_minimal_22(F, ctx)
            label = f"oracle/p={p}"

            def check(verdict, label=label, expected=expected):
                require(verdict == expected, label, "oracle disagrees with is_minimal_22")
            jobs.append(Job(label, (lambda F=F, ctx=ctx: g1min.oracle_minimality_22(F, ctx)),
                            check))
    return Workload(jobs, owns_census=True)


GENERATORS = {
    "local_small_p": local_small_p,
    "local_large_p": local_large_p,
    "global_cli": global_cli,
    "census_oracle": census_oracle,
}


def build(name, seed, workdir):
    """The workload's jobs for this seed, in the order a pass runs them."""
    rng = random.Random(f"{name}:{seed}")
    workload = GENERATORS[name](rng, workdir)
    rng.shuffle(workload.jobs)
    return workload
