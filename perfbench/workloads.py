"""The four benchmark workloads: inputs from a seed, job lists, exactness checks.

Every workload builds a ``Plan``.  A pass runs ``plan.jobs`` in order; a
job receives the outputs of the jobs before it in the same pass and returns
its own output.  ``plan.check`` runs after the timing ends and names every
job whose output is not exact.  ``canon`` turns an output into plain JSON
data, whose SHA-256 lets two commits be compared for identical results.

The package is always reached through module attributes (``framing.frame_f``
and not a name imported from it), so the tracer's wrappers see every call.

Why these inputs: a seed changes the series and the planted defects, never
the shape of a pass.  Each pass frames every (family, f) stratum, runs every
group-law pair and verifies every kind of file, so two seeds do the same
kinds of work and their timings can be compared.
"""
from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from sfuncs import catalog, cli, framing, intutil, numfield, serialize, sfunc
from sfuncs.mseries import MSeries
from sfuncs.series import Series

F_VALUES = (-2, -1, 1, 2, 3)

# Criterion-1 multiplicities N_d^(f), rows d = 1..7, from the paper's table.
FRAMED_TABLE = {
    2: (-2, 1, Fraction(-2, 3), 1, -2, Fraction(13, 3), -10),
    3: (3, Fraction(3, 2), 3, Fraction(15, 2), 24, Fraction(171, 2), 339),
    4: (-4, 4, -8, 28, -124, 624, -3452),
    5: (5, 5, Fraction(50, 3), 75, 425, Fraction(8240, 3), 19605),
}

# Sizes per workload.  "full" is the benchmark; "tiny" only exercises the
# harness in its self-test.
SIZES = {
    "full": {
        "frame_order": 28,
        "table_dmax": 24,
        "multi_order": 11,
        "li3_order": 3000,
        "ab7_order": 600,
        "crt_order": 300,
        "planted": 3,
        "semiprime_factor_digits": 11,
        "cli_small_order": 20,
        "cli_multi_order": 6,
    },
    "tiny": {
        "frame_order": 8,
        "table_dmax": 7,
        "multi_order": 4,
        "li3_order": 60,
        "ab7_order": 40,
        "crt_order": 20,
        "planted": 2,
        "semiprime_factor_digits": 4,
        "cli_small_order": 8,
        "cli_multi_order": 3,
    },
}


@dataclass
class Job:
    name: str
    run: Callable[[dict], object]
    canon: Callable[[object], object]


@dataclass
class Plan:
    jobs: list[Job]
    check: Callable[[dict], dict[str, str]]
    sizes: dict
    notes: dict = field(default_factory=dict)
    # Set by the harness during a traced pass of a workload whose jobs run in
    # subprocesses: each child writes its tracer snapshot into this directory.
    trace_dir: str | None = None
    # The largest peak RSS, in KiB, of a child process that a job started.
    child_maxrss_kb: int = 0
    # The jobs run in child processes: the harness calibrates the host's
    # speed by starting processes, not by arithmetic.
    child_jobs: bool = False


def cubic_field():
    """Q[x]/(x^3 + x^2 - 2x - 1), discriminant 49: x = zeta_7 + zeta_7^-1."""
    return numfield.make_field([-1, -2, 1, 1])


def _series_with_report(out):
    v, rep = out
    to_obj = serialize.mseries_to_obj if isinstance(v, MSeries) else serialize.series_to_obj
    return {"series": to_obj(v), "report": rep.to_obj()}


def _framed_and_checked(fn_name: str, w, arg):
    """Job: framing.<fn_name>(w, arg), then its check as a 2-function."""

    def run(_outputs):
        v = getattr(framing, fn_name)(w, arg)
        return v, sfunc.check_sfunction(v, 2)

    return run


def _report_problem(rep, want=frozenset()) -> str | None:
    """None when the violations are exactly the planted
    (k, p, required, valuation) set."""
    got = {(c.index, c.p, c.required, c.valuation) for c in rep.violations}
    if got != set(want):
        return f"violations {sorted(got)} != planted {sorted(want)}"
    return None


# ---------------------------------------------------------------- frame-uni


def uni_families(order: int) -> dict[str, Series]:
    """The criterion-3 inputs: Li2 over Q, the cubic-field series with
    delta W = -log(1 - xz + z^2), and the conductor-5 generator with
    a_k = zeta^k + zeta^(4k)."""
    field = cubic_field()
    return {
        "Q": catalog.polylog(2, order),
        "cubic": catalog.from_log_poly(field, [1, -field.gen(), 1], 2, order),
        "ab5": catalog.abelian_generator(catalog.CyclotomicSpec(5, {1: 1, 4: 1}, 2), order),
    }


def frame_uni(seed: int, size: dict, work: str, src: str) -> Plan:
    """frame_f at each f in F_VALUES on each family's W, each followed by
    check_sfunction, plus one framed-polylog table: the criterion-3 shape,
    where series algebra is the cost.  The seed orders the jobs and picks
    the family whose f = 1 output is compared with both elementary framings.

    The order is 28, not criterion 3's 48: at 48 one pass of the fifteen
    framings takes about 25 s, so a run could hold only one pass.  At 28 a
    pass takes about 7 s and a run holds three, so that every job's time
    is a median.

    W is not drawn by the seed: in trial runs a Galois conjugate or a sign of
    the same W changed the time of a framing by 15% and more, so runs with
    different seeds would not be comparable."""
    rng = random.Random(f"frame-uni/{seed}")
    order = size["frame_order"]
    families = uni_families(order)
    cells = [(fam, f) for fam in families for f in F_VALUES]
    rng.shuffle(cells)
    inputs = {cell: families[cell[0]] for cell in cells}
    f_table = tuple(range(2, 6))
    d_table = tuple(range(1, size["table_dmax"] + 1))
    sampled = rng.choice([c for c in cells if c[1] == 1])

    jobs = [
        Job(f"frame_f[{fam},f={f}]", _framed_and_checked("frame_f", inputs[(fam, f)], f),
            _series_with_report)
        for fam, f in cells
    ]
    jobs.append(Job(
        "polylog_frame_table",
        lambda _o: catalog.polylog_frame_table(f_table, d_table),
        lambda t: t.to_obj(),
    ))

    def check(outputs):
        bad = {}
        for fam, f in cells:
            name = f"frame_f[{fam},f={f}]"
            if name in outputs and not outputs[name][1].passed:
                bad[name] = "framed output fails the check"
        name = f"frame_f[{sampled[0]},f=1]"
        if name in outputs:
            w, v = inputs[sampled], outputs[name][0]
            if v != -framing.frame_elementary(w):
                bad[name] = "f=1 differs from -frame_elementary(W)"
            elif v != -framing.frame_elementary(w, via_reversion=True):
                bad[name] = "f=1 differs from the reversion oracle"
        table = outputs.get("polylog_frame_table")
        for f, col in FRAMED_TABLE.items():
            for d, want in enumerate(col, 1):
                if table and d in d_table and table.entry(d, f) != want:
                    bad["polylog_frame_table"] = f"N_{d}^({f}) = {table.entry(d, f)} != {want}"
        return bad

    return Plan(jobs, check, {"order": order, "framings": len(cells),
                                        "table_d": len(d_table), "table_f": len(f_table)},
                {"oracle_sample": f"{sampled[0]},f=1"})


# -------------------------------------------------------------- frame-multi

KAPPA_GENS = (
    framing.Kappa(((1, 0), (0, 0))),
    framing.Kappa(((0, 0), (0, 1))),
    framing.Kappa(((0, 1), (1, 0))),
)
DILOG_TERMS = ((1, 0), (0, 1), (1, 1), (2, 1), (1, 2))


def dilog_of_monomial(expvec, order):
    """Li2 of the monomial z^expvec as a two-variable series over Q."""
    terms = {}
    m = 1
    while m * sum(expvec) <= order:
        terms[tuple(m * e for e in expvec)] = Fraction(1, m * m)
        m += 1
    return MSeries.from_dict(numfield.rationals(), 2, order, terms)


# The first W of criterion 4: coefficients of Li2(z^e) for e in DILOG_TERMS.
CRITERION4_COEFFS = (2, 1, 1, -1, 3)


def dilog_combination(coeffs, order: int) -> MSeries:
    q = numfield.rationals()
    w = MSeries.zero(q, 2, order)
    for e, c in zip(DILOG_TERMS, coeffs):
        w = w + dilog_of_monomial(e, order) * q.elem(c)
    return w


def frame_multi(seed: int, size: dict, work: str, src: str) -> Plan:
    """Criterion 4 on its first W: frame by each generator a, frame that
    by the next generator b (cyclically), and frame W by a + b.  Every
    output is checked as a two-variable 2-function, and frame(frame(W, a), b)
    must equal frame(W, a + b) exactly.  Criterion 4 takes all nine (a, b);
    three at order 11 keep a pass near 5.5 s, so that a run holds four
    passes or more.  The seed orders the jobs; W is fixed for the reason
    given in frame_uni (other signs of the dilog terms changed the pass
    time by a third)."""
    rng = random.Random(f"frame-multi/{seed}")
    order = size["multi_order"]
    w = dilog_combination(CRITERION4_COEFFS, order)
    pairs = [(0, 1), (1, 2), (2, 0)]
    rng.shuffle(pairs)
    jobs = [Job(f"step[{a}]", _framed_and_checked("frame_multi", w, KAPPA_GENS[a]),
                _series_with_report) for a in range(3)]
    for a, b in pairs:
        def then(outputs, a=a, b=b):
            v = framing.frame_multi(outputs[f"step[{a}]"][0], KAPPA_GENS[b])
            return v, sfunc.check_sfunction(v, 2)

        jobs.append(Job(f"then[{a},{b}]", then, _series_with_report))
    jobs += [Job(f"sum[{a}+{b}]", _framed_and_checked(
        "frame_multi", w, KAPPA_GENS[a] + KAPPA_GENS[b]), _series_with_report)
        for a, b in pairs]

    def check(outputs):
        bad = {name: "framed output fails the multivariate check"
               for name, (v, rep) in outputs.items() if not rep.passed}
        for a, b in pairs:
            then = outputs.get(f"then[{a},{b}]")
            total = outputs.get(f"sum[{a}+{b}]")
            if then and total and then[0] != total[0]:
                bad[f"then[{a},{b}]"] = "group law fails: frame(frame(W,a),b) != frame(W,a+b)"
        return bad

    return Plan(jobs, check, {"order": order, "frame_multi_calls": len(jobs)})


# ------------------------------------------------------------------- verify


def ab7_series(rng, order: int) -> Series:
    """A conductor-7 abelian 2-function over Q(zeta_7), degree 6."""
    idx = rng.sample(range(1, 7), 3)
    spec = catalog.CyclotomicSpec(7, {i: rng.choice((1, -1, 2)) for i in idx}, 2)
    return catalog.abelian_generator(spec, order)


def _random_prime(rng, digits: int) -> int:
    while True:
        p = rng.randrange(10 ** (digits - 1), 10**digits)
        if intutil.is_prime(p):
            return p


def _with_bumps(v: Series, bumps: dict[int, Fraction]) -> Series:
    coeffs = [v.coeff(k) for k in range(1, v.order + 1)]
    for k, b in bumps.items():
        coeffs[k - 1] = coeffs[k - 1] + b
    return Series.from_coeffs(v.field, v.order, coeffs)


def _write(work: str, name: str, obj) -> str:
    path = os.path.join(work, name)
    serialize.dump_obj(obj, path)
    return path


def _report_obj(rep):
    return rep.to_obj()


def _verify_job(path: str, s: int, report_path: str):
    def run(_outputs):
        rep = sfunc.check_sfunction(serialize.load_series(path), s)
        obj = rep.to_obj()
        serialize.dump_obj(obj, report_path)
        return rep

    return run


def verify(seed: int, size: dict, work: str, src: str) -> Plan:
    """Library-path verification of stored files (load, check, report,
    dump), serial as the library defaults, plus a congruence tower generated
    in the timed section.  Two copies are refuted: one with sub-threshold
    perturbations p^(2a-1)/k^2 (criterion 8), one with a planted semiprime
    denominator that the checker factors.

    The semiprime is the same for every seed; the seed picks where it
    goes.  Pollard rho's time depends on the semiprime, from 0.07 to 0.7 s
    on pairs of 11-digit primes, and when the seed drew it that job alone
    spread the pass time by 0.11 (IQR over median) across ten seeds."""
    rng = random.Random(f"verify/{seed}")
    n = size["ab7_order"]
    li3 = _write(work, "li3.json", serialize.series_to_obj(catalog.polylog(3, size["li3_order"])))
    ab7 = ab7_series(rng, n)
    ab7_path = _write(work, "ab7.json", serialize.series_to_obj(ab7))
    # k = p^a with 2k > n: the bump then breaks only the check at (k, p).
    spots = sorted(
        (p**a, p, a)
        for p in intutil.primes_up_to(n)
        if p != 7
        for a in range(1, 12)
        if n < 2 * p**a <= 2 * n
    )
    planted = sorted(rng.sample(spots, size["planted"]))
    perturbed = _with_bumps(ab7, {k: Fraction(p ** (2 * a - 1), k * k) for k, p, a in planted})
    perturbed_path = _write(work, "ab7-perturbed.json", serialize.series_to_obj(perturbed))
    want_perturbed = {(k, p, 2 * a, 2 * a - 1) for k, p, a in planted}
    fixed = random.Random("verify/semiprime")
    digits = size["semiprime_factor_digits"]
    p1, p2 = sorted((_random_prime(fixed, digits), _random_prime(fixed, digits)))
    k = rng.randrange(n // 2 + 1, n + 1)  # 2k > n: only index k breaks
    semiprime_path = _write(work, "ab7-semiprime.json",
                            serialize.series_to_obj(_with_bumps(ab7, {k: Fraction(1, p1 * p2)})))
    want_semiprime = {(k, p1, 0, -1), (k, p2, 0, -1)}
    field = cubic_field()
    seed_elem = field.elem([rng.randrange(1, 10), rng.randrange(-5, 6), rng.randrange(-5, 6)])
    crt_path = os.path.join(work, "crt.json")

    def generate(_outputs):
        v = sfunc.generate_crt(field, seed_elem, 3, size["crt_order"])
        serialize.dump_obj(serialize.series_to_obj(v), crt_path)
        return v

    def report_path(name):
        return os.path.join(work, f"report-{name}.json")

    jobs = [
        Job("verify[li3]", _verify_job(li3, 3, report_path("li3")), _report_obj),
        Job("verify[ab7]", _verify_job(ab7_path, 2, report_path("ab7")), _report_obj),
        Job("generate_crt", generate, serialize.series_to_obj),
        Job("verify[crt]", _verify_job(crt_path, 3, report_path("crt")), _report_obj),
        Job("verify[perturbed]", _verify_job(perturbed_path, 2, report_path("perturbed")),
            _report_obj),
        Job("verify[semiprime]", _verify_job(semiprime_path, 2, report_path("semiprime")),
            _report_obj),
    ]
    wants = {"verify[perturbed]": want_perturbed, "verify[semiprime]": want_semiprime}

    def check(outputs):
        bad = {}
        for name, rep in outputs.items():
            if name == "generate_crt":
                continue
            problem = _report_problem(rep, wants.get(name, set()))
            if problem:
                bad[name] = problem
        return bad

    return Plan(jobs, check, {
        "li3_order": size["li3_order"], "ab7_order": n, "crt_order": size["crt_order"],
        "planted_perturbations": len(planted), "semiprime_factor_digits": digits,
    }, {"planted": [[k, p] for k, p, _ in planted],
        "semiprime_spot": sorted((k, p) for k, p, _, _ in want_semiprime)})


# ---------------------------------------------------------------------- cli

CLI_VERBS = (
    "help", "verify", "verify_jobs1", "frame", "frame_multi", "dwork",
    "gen_crt", "gen_abelian", "from_log", "polylog_table", "jk_check",
)


def cli_inputs(seed: int, size: dict, work: str) -> dict:
    """Writes the CLI's input files; returns verb -> (argv, reference)."""
    rng = random.Random(f"cli/{seed}")
    small = size["cli_small_order"]
    field = cubic_field()
    x = field.gen()

    def put(name, obj):
        path = os.path.join(work, name)
        with open(path, "w") as fh:
            json.dump(obj, fh)
        return path

    ab7_path = _write(work, "cli-ab7.json", serialize.series_to_obj(ab7_series(rng, size["ab7_order"])))
    cubic_path = put("cubic.json", [-1, -2, 1, 1])
    conj = rng.choice((x, x * x - 2, 1 - x - x * x))
    frame_w = catalog.from_log_poly(field, [1, -conj, 1], 2, small)
    frame_path = _write(work, "cli-frame-w.json", serialize.series_to_obj(frame_w))
    # f, kappa, the two-variable W, the table size and the jk-check prime
    # set the cost of their verbs, so the seed does not choose them.
    f = 3
    multi_w = dilog_combination(CRITERION4_COEFFS, size["cli_multi_order"])
    multi_path = _write(work, "cli-multi-w.json", serialize.mseries_to_obj(multi_w))
    ka = KAPPA_GENS[0] + KAPPA_GENS[2]
    kappa_text = ";".join(",".join(str(c) for c in row) for row in ka.entries)
    q_rat = numfield.rationals()
    dwork_poly = [1, rng.choice((-1, 1, -2, 2, 3)), rng.choice((-1, 1, 2))]
    dwork_v = catalog.from_log_poly(q_rat, dwork_poly, 1, small)
    dwork_path = _write(work, "cli-dwork.json", serialize.series_to_obj(dwork_v))
    crt_x = field.elem([rng.randrange(1, 10), rng.randrange(-5, 6), rng.randrange(-5, 6)])
    crt_x_path = put("crt-x.json", serialize.elem_to_obj(crt_x))
    ab_coeffs = {}
    for pair in rng.sample(((1, 6), (2, 5), (3, 4)), 2):
        c = rng.choice((1, -1, 2))
        ab_coeffs.update({pair[0]: c, pair[1]: c})
    ab_coeffs_path = put("ab-coeffs.json", {str(i): c for i, c in ab_coeffs.items()})
    x7 = put("x7.json", [-1, 0, -1, -1, -1, -1])  # zeta + zeta^6 in Q(zeta_7)
    log_q = [field.one(), -conj, field.one()]
    log_q_path = put("log-q.json", [serialize.elem_to_obj(e) for e in log_q])
    table_d = 9
    jk_p = 7

    def series_text(v):
        to_obj = serialize.mseries_to_obj if isinstance(v, MSeries) else serialize.series_to_obj
        return serialize.dump_obj(to_obj(v))

    def verify_ref():
        rep = sfunc.check_sfunction(serialize.load_series(ab7_path), 2)
        return (0 if rep.passed else 1), serialize.dump_obj(rep.to_obj())

    def frame_ref():
        out = framing.frame_f(serialize.load_series(frame_path), f)
        if not sfunc.check_sfunction(out, 2).passed:
            raise AssertionError("framed CLI output fails the check")
        return 0, series_text(out)

    def dwork_ref():
        b = sfunc.dwork_factor(serialize.load_series(dwork_path))
        return 0, [serialize.elem_to_obj(e) for e in b]

    def help_ref():
        old = os.environ.get("COLUMNS")
        os.environ["COLUMNS"] = "80"
        try:
            return 0, cli.build_parser().format_help()
        finally:
            if old is None:
                del os.environ["COLUMNS"]
            else:
                os.environ["COLUMNS"] = old

    def jk_ref():
        rep = catalog.jk_check(jk_p, 3 * jk_p, 5)
        return (0 if rep.passed else 1), serialize.dump_obj(rep.to_obj())

    s7 = catalog.CyclotomicSpec(7, tuple(sorted(ab_coeffs.items())), 2)
    return {
        "help": (["--help"], help_ref),
        "verify": (["verify", "--series", ab7_path, "--s", "2"], verify_ref),
        "verify_jobs1": (["verify", "--series", ab7_path, "--s", "2", "--jobs", "1"], verify_ref),
        "frame": (["frame", "--series", frame_path, "--f", str(f)], frame_ref),
        "frame_multi": (["frame-multi", "--series", multi_path, "--kappa", kappa_text],
                        lambda: (0, series_text(framing.frame_multi(
                            serialize.load_series(multi_path), framing.Kappa.parse(kappa_text))))),
        "dwork": (["dwork", "--series", dwork_path], dwork_ref),
        "gen_crt": (["gen-crt", "--field", cubic_path, "--x", crt_x_path, "--s", "3",
                     "--order", str(small)],
                    lambda: (0, series_text(sfunc.generate_crt(field, crt_x, 3, small)))),
        "gen_abelian": (["gen-abelian", "--conductor", "7", "--coeffs", ab_coeffs_path, "--s", "2",
                         "--order", str(small), "--field", cubic_path, "--x", x7],
                        lambda: (0, series_text(catalog.abelian_generator(
                            s7, small, field,
                            catalog.cyclotomic_field(7).elem([-1, 0, -1, -1, -1, -1]))))),
        "from_log": (["from-log", "--field", cubic_path, "--coeffs", log_q_path, "--s", "2",
                      "--order", str(small)],
                     lambda: (0, series_text(catalog.from_log_poly(field, log_q, 2, small)))),
        "polylog_table": (["polylog-table", "--d", f"1..{table_d}", "--f", "2..5"],
                          lambda: (0, serialize.dump_obj(catalog.polylog_frame_table(
                              range(2, 6), range(1, table_d + 1)).to_obj()))),
        "jk_check": (["jk-check", "--p", str(jk_p), "--kmax", str(3 * jk_p), "--fmax", "5"],
                     jk_ref),
    }


def cli_command(argv: list[str], shim_stats: str | None) -> list[str]:
    """The child command line: the real entry point, or the traced shim."""
    if shim_stats is None:
        return [sys.executable, "-m", "sfuncs.cli", *argv]
    shim = os.path.join(os.path.dirname(os.path.abspath(__file__)), "clishim.py")
    return [sys.executable, shim, shim_stats, *argv]


def cli_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["COLUMNS"] = "80"
    return env


def run_child(cmd: list[str], env: dict, timeout: float, stderr_path: str):
    """Runs cmd to its end: (exit code, stdout, peak RSS in KiB of the child
    and of the processes it waited for).  Reaping the child with wait4 gives
    its own peak, which stays apart from that of the set-up probes."""
    with open(stderr_path, "wb") as err:
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=err)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.decode(), usage.ru_maxrss


def cli_workload(seed: int, size: dict, work: str, src: str) -> Plan:
    """Each verb of the sfuncs entry point in its own subprocess, one after
    another, on small inputs; verify runs with the default --jobs (a process
    pool of os.cpu_count() workers) and with --jobs 1 on the degree-6,
    order-600 file.  The only workload that pays interpreter start-up,
    import, argparse and the pool."""
    verbs = cli_inputs(seed, size, work)
    env = cli_env(src)

    def job(verb):
        argv = verbs[verb][0]

        def run(_outputs):
            stats = os.path.join(plan.trace_dir, f"{verb}.json") if plan.trace_dir else None
            code, out, maxrss = run_child(cli_command(argv, stats), env, 120,
                                          os.path.join(work, f"stderr-{verb}.txt"))
            if stats is None:
                plan.child_maxrss_kb = max(plan.child_maxrss_kb, maxrss)
            return code, out

        return Job(verb, run, lambda out: {"code": out[0], "stdout": out[1]})

    jobs = [job(v) for v in CLI_VERBS]

    def check(outputs):
        bad = {}
        for verb, (code, stdout) in outputs.items():
            want_code, want = verbs[verb][1]()
            if verb == "dwork" and code == 0:
                obj = json.loads(stdout)
                got = obj["b"] if obj["integral_at_good_primes"] else None
            else:
                got = stdout
            if code != want_code or got != want:
                bad[verb] = f"exit {code} (want {want_code}) or stdout differs from the library"
        return bad

    # The jobs read plan.trace_dir when they run, after plan exists.
    plan = Plan(jobs, check, {"verbs": len(CLI_VERBS),
                                        "verify_order": size["ab7_order"],
                                        "small_order": size["cli_small_order"]},
                child_jobs=True)
    return plan


WORKLOADS = {
    "frame-uni": frame_uni,
    "frame-multi": frame_multi,
    "verify": verify,
    "cli": cli_workload,
}
