from __future__ import annotations

import json
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from sfuncs import cli, sfunc
from sfuncs.catalog import polylog, polylog_frame_table
from sfuncs.intutil import is_prime
from sfuncs.numfield import make_field, rationals
from sfuncs.serialize import _rational, dump_obj, field_to_obj, load_series, series_to_obj
from sfuncs.series import Series
from sfuncs.sfunc import check_sfunction

CUBIC = make_field([-1, -2, 1, 1])


def run_cli(*args, **kw):
    return subprocess.run(
        [sys.executable, "-m", "sfuncs.cli", *args],
        capture_output=True, text=True, **kw,
    )


@pytest.fixture
def li2_path(tmp_path):
    p = tmp_path / "li2.json"
    dump_obj(series_to_obj(polylog(2, 12)), str(p))
    return p


def test_verify_passing(li2_path):
    r = run_cli("verify", "--series", str(li2_path), "--s", "2")
    assert r.returncode == 0, r.stderr
    rep = json.loads(r.stdout)
    assert rep["pass"] is True
    assert rep["s"] == 2 and rep["order"] == 12
    assert rep["violations"] == []


def test_verify_failing_reports_each_bad_index(tmp_path):
    v = polylog(2, 7)
    coeffs = [v.coeff(k) for k in range(1, 8)]
    coeffs[3] = v.field.elem(Fraction(3, 16))  # a_4 becomes 3: v_2(3 - 1) = 1
    bad = Series.from_coeffs(v.field, 7, coeffs)
    p = tmp_path / "bad.json"
    dump_obj(series_to_obj(bad), str(p))
    r = run_cli("verify", "--series", str(p), "--s", "2")
    assert r.returncode == 1
    rep = json.loads(r.stdout)
    assert rep["pass"] is False
    assert rep["violations"] == [
        {"k": 4, "p": 2, "required": 4, "valuation": 1}
    ]


def test_verify_with_extra_primes(tmp_path):
    x = CUBIC.gen()
    v = Series.from_coeffs(
        CUBIC, 6, [x * 0 + Fraction(1, k * k) for k in range(1, 7)]
    )
    p = tmp_path / "v.json"
    dump_obj(series_to_obj(v), str(p))
    r = run_cli("verify", "--series", str(p), "--s", "2",
                "--primes-extra", "3,7", "--jobs", "1")
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    extra = {e["p"]: e for e in rep["extra_primes"]}
    assert extra[3]["bad"] is False and extra[3]["frobenius_defined"] is True
    assert extra[7]["bad"] is True


def test_verify_reports_an_extra_prime_given_twice_once(li2_path):
    reports = [
        json.loads(run_cli("verify", "--series", str(li2_path), "--s", "2",
                           "--primes-extra", extra).stdout)
        for extra in ("3,3", "3")
    ]
    assert [e["p"] for e in reports[0]["extra_primes"]] == [3]
    assert reports[0] == reports[1]


@pytest.mark.parametrize("extra", ["1", "0", "4", "3,-3"])
def test_verify_rejects_extra_primes_that_are_not_prime(li2_path, extra):
    # ord_p(k, 1) never ends and ord_p(k, 0) divides by zero, so neither may
    # reach a check
    r = run_cli("verify", "--series", str(li2_path), "--s", "2",
                "--primes-extra", extra, timeout=2)
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.startswith("error: NotPrime: ")
    assert len(r.stderr.splitlines()) == 1


@pytest.mark.parametrize("extra", ["318665857834031151167461", str(2**89 - 1)])
def test_verify_rejects_extra_primes_past_the_proven_test(li2_path, extra):
    # psi_12 = 399165290221 * 798330580441 passed the 12 witnesses 2..37 and
    # was checked as a prime; the prime 2**89 - 1 is above PRIME_TEST_BOUND,
    # where the Miller-Rabin witnesses are not proven
    r = run_cli("verify", "--series", str(li2_path), "--s", "2",
                "--primes-extra", extra, timeout=10)
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.startswith("error: NotPrime: ")
    assert len(r.stderr.splitlines()) == 1


@pytest.mark.parametrize("verb", [["verify", "--s", "2"], ["frame-multi", "--kappa", "1,0;0,1"]])
def test_negative_order_exits_two_naming_the_order(tmp_path, verb):
    # the file loaded as an empty series and the verbs then failed on the
    # constant key (0, 0) "outside the truncation order -3"
    p = tmp_path / "neg.json"
    p.write_text(json.dumps({"field": [0, 1], "nvars": 2, "order": -3,
                             "coeffs": {"1,0": ["1"]}}))
    r = run_cli(verb[0], "--series", str(p), *verb[1:], timeout=10)
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.startswith("error: BadFile: ") and "order" in r.stderr
    assert len(r.stderr.splitlines()) == 1


@pytest.mark.parametrize("s", ["0", "-1"])
def test_verify_refuses_strength_below_one(li2_path, s):
    # s = -1 used to die in g**s with a TypeError traceback and exit 1, and
    # s = 0 passed while checking nothing
    r = run_cli("verify", "--series", str(li2_path), "--s", s, timeout=10)
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.startswith("error: ValueError: ")
    assert len(r.stderr.splitlines()) == 1


def test_frame_refuses_a_huge_f_at_once(tmp_path):
    # a 120-term file framed with a 1,000-digit f ran for more than 50 s
    p = tmp_path / "li2.json"
    dump_obj(series_to_obj(polylog(2, 120)), str(p))
    r = run_cli("frame", "--series", str(p), "--f", "9" * 1000, timeout=10)
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.startswith("error: FramingTooLarge: ")
    assert len(r.stderr.splitlines()) == 1


def test_verify_missing_file_exits_two(tmp_path):
    r = run_cli("verify", "--series", str(tmp_path / "nope.json"), "--s", "2")
    assert r.returncode == 2
    assert r.stderr.startswith("error:")


@pytest.mark.parametrize("obj", [
    {"field": [0, 1], "nvars": 2, "order": 3, "coeffs": []},
    {"field": [0, 1], "order": 3, "coeffs": 5},
])
def test_verify_malformed_coeffs_exits_two(tmp_path, obj):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(obj))
    r = run_cli("verify", "--series", str(p), "--s", "2")
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.startswith("error: BadFile: ")
    assert len(r.stderr.splitlines()) == 1


@pytest.mark.parametrize("obj", [
    {"field": [0, 1], "order": 2, "coeffs": [[[1.5, "1"]], [["1", "4"]]]},
    {"field": [0, 1], "order": 2, "coeffs": [[["1", 2.0]], [["1", "4"]]]},
    {"field": [0, 1], "order": 2, "coeffs": [[["1", "1"]], [["1", "0"]]]},
    {"field": [0, 1], "nvars": 2, "order": 2, "coeffs": {"1,0": ["3/0"]}},
])
def test_verify_float_or_zero_denominator_exits_two(tmp_path, obj):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(obj))
    r = run_cli("verify", "--series", str(p), "--s", "2")
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.startswith("error: BadFile: ")
    assert len(r.stderr.splitlines()) == 1


@pytest.mark.parametrize("obj", [
    {"field": [0, 1], "order": 2.9, "coeffs": [["1"], ["1/4"]]},
    {"field": [0, 1], "order": True, "coeffs": [["1"]]},
    {"field": [0, 1], "nvars": 2.5, "order": 2, "coeffs": {"1,0": ["1"]}},
    {"field": [0, 1], "nvars": True, "order": 2, "coeffs": {"1": ["1"]}},
])
def test_verify_float_or_bool_order_or_nvars_exits_two(tmp_path, obj):
    # each of these was read truncated and checked with exit 0
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(obj))
    r = run_cli("verify", "--series", str(p), "--s", "2")
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.startswith("error: BadFile: ")


def test_frame_multi_float_nvars_exits_two(tmp_path):
    # "nvars": 2.5 was framed as two variables
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(
        {"field": [0, 1], "nvars": 2.5, "order": 3, "coeffs": {"1,0": ["1"], "0,1": ["1"]}}))
    r = run_cli("frame-multi", "--series", str(p), "--kappa", "1,0;0,1")
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.startswith("error: BadFile: ")


def test_unknown_flag_exits_two(li2_path):
    r = run_cli("verify", "--series", str(li2_path), "--s", "2", "--bogus")
    assert r.returncode == 2


def test_frame_output_reverifies(li2_path, tmp_path):
    out = tmp_path / "framed.json"
    r = run_cli("frame", "--series", str(li2_path), "--f", "2",
                "--out", str(out))
    assert r.returncode == 0 and r.stdout == ""
    framed = load_series(str(out))
    # f = 1 produces the negated signed central binomial tower
    r1 = run_cli("frame", "--series", str(li2_path), "--f", "1")
    v = json.loads(r1.stdout)
    a3 = Fraction(*[int(t) for t in v["coeffs"][2][0]]) * 9
    assert a3 == -10
    r2 = run_cli("verify", "--series", str(out), "--s", "2")
    assert r2.returncode == 0, r2.stdout
    assert framed.order == 12


def test_frame_multi_roundtrip(tmp_path):
    q = make_field([0, 1])
    obj = {
        "field": field_to_obj(q),
        "nvars": 2,
        "order": 6,
        "coeffs": {"1,0": [["1", "1"]], "0,1": [["1", "1"]],
                   "2,0": [["1", "4"]], "0,2": [["1", "4"]]},
    }
    src = tmp_path / "w.json"
    dump_obj(obj, str(src))
    out = tmp_path / "framed.json"
    r = run_cli("frame-multi", "--series", str(src), "--kappa", "1,0;0,1",
                "--out", str(out))
    assert r.returncode == 0, r.stderr
    back = run_cli("frame-multi", "--series", str(out), "--kappa=-1,0;0,-1")
    assert back.returncode == 0
    assert json.loads(back.stdout)["coeffs"] == obj["coeffs"]


def test_frame_multi_of_one_variable_among_seven_returns_w(tmp_path):
    # a 7-variable file with W = z1 at order 12: only z1 is walked
    q = make_field([0, 1])
    obj = {"field": field_to_obj(q), "nvars": 7, "order": 12,
           "coeffs": {"1,0,0,0,0,0,0": [["1", "1"]]}}
    src = tmp_path / "w.json"
    dump_obj(obj, str(src))
    t0 = time.monotonic()
    r = run_cli("frame-multi", "--series", str(src), "--kappa",
                ";".join(["0,0,0,0,0,0,0"] * 7), timeout=30)
    assert time.monotonic() - t0 < 2
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout) == json.loads(src.read_text())


def _sum_of_variables_file(tmp_path, nvars, order):
    q = make_field([0, 1])
    keys = [",".join(str(int(i == j)) for j in range(nvars)) for i in range(nvars)]
    obj = {"field": field_to_obj(q), "nvars": nvars, "order": order,
           "coeffs": {k: [["1", "1"]] for k in keys}}
    src = tmp_path / "w.json"
    src.write_text(json.dumps(obj))
    return src


def test_frame_multi_of_sixteen_variables_walks_the_simplex(tmp_path):
    # W = z1 + ... + z16 at order 2 in under 1 kB: the walk is over the
    # simplex |k| <= 2, not the box {0, 1, 2}**16
    src = _sum_of_variables_file(tmp_path, 16, 2)
    assert len(src.read_bytes()) < 1024
    t0 = time.monotonic()
    r = run_cli("frame-multi", "--series", str(src), "--kappa",
                ";".join([",".join("0" * 16)] * 16), timeout=30)
    assert time.monotonic() - t0 < 2
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout) == json.loads(src.read_text())


def test_frame_multi_refuses_a_walk_above_the_cap(tmp_path):
    src = _sum_of_variables_file(tmp_path, 16, 5)
    r = run_cli("frame-multi", "--series", str(src), "--kappa",
                ";".join([",".join("1" * 16)] * 16), timeout=30)
    assert r.returncode == 2
    assert "FramingTooLarge" in r.stderr
    assert r.stdout == ""


def test_frame_refuses_a_walk_above_the_cap(tmp_path):
    # Li2 at order 226 walks 10 C(228, 2) + 4 C(228, 3) work units, above
    # framing.MAX_WORK
    src = tmp_path / "li2.json"
    dump_obj(series_to_obj(polylog(2, 226)), str(src))
    r = run_cli("frame", "--series", str(src), "--f", "2", timeout=30)
    assert r.returncode == 2
    assert "FramingTooLarge" in r.stderr
    assert r.stdout == ""


def test_frame_multi_rejects_asymmetric(tmp_path):
    q = make_field([0, 1])
    obj = {"field": field_to_obj(q), "nvars": 2, "order": 3,
           "coeffs": {"1,0": [["1", "1"]], "0,1": [["1", "1"]]}}
    src = tmp_path / "w.json"
    dump_obj(obj, str(src))
    r = run_cli("frame-multi", "--series", str(src), "--kappa", "0,1;2,0")
    assert r.returncode == 2
    assert "NotSymmetric" in r.stderr


def test_dwork_exit_codes(tmp_path):
    good = tmp_path / "li1.json"
    dump_obj(series_to_obj(polylog(1, 8)), str(good))
    r = run_cli("dwork", "--series", str(good))
    assert r.returncode == 0
    obj = json.loads(r.stdout)
    assert obj["b"][0] == [["1", "1"]]
    assert all(c == [["0", "1"]] for c in obj["b"][1:])
    assert obj["integral_at_good_primes"] is True

    v = polylog(2, 6)
    coeffs = [v.coeff(k) for k in range(1, 7)]
    coeffs[2] = v.field.elem(Fraction(1, 3))  # a_3 = 3 breaks integrality
    bad = tmp_path / "bad.json"
    dump_obj(series_to_obj(Series.from_coeffs(v.field, 6, coeffs)), str(bad))
    r2 = run_cli("dwork", "--series", str(bad))
    assert r2.returncode == 1
    assert json.loads(r2.stdout)["nonintegral"]


def test_gen_crt_verifies(tmp_path):
    (tmp_path / "field.json").write_text("[0, 1]\n")
    (tmp_path / "x.json").write_text("[4]\n")
    out = tmp_path / "crt.json"
    r = run_cli("gen-crt", "--field", str(tmp_path / "field.json"),
                "--x", str(tmp_path / "x.json"),
                "--s", "3", "--order", "30", "--out", str(out))
    assert r.returncode == 0, r.stderr
    assert run_cli("verify", "--series", str(out), "--s", "3").returncode == 0


def test_gen_abelian_with_descent(tmp_path):
    (tmp_path / "coeffs.json").write_text('{"1": 1, "6": 1}\n')
    (tmp_path / "cubic.json").write_text("[-1, -2, 1, 1]\n")
    # zeta + zeta^6 written in the power basis of the conductor-7 field
    (tmp_path / "x.json").write_text("[-1, 0, -1, -1, -1, -1]\n")
    out = tmp_path / "ab.json"
    r = run_cli(
        "gen-abelian", "--conductor", "7",
        "--coeffs", str(tmp_path / "coeffs.json"),
        "--s", "2", "--order", "10",
        "--field", str(tmp_path / "cubic.json"), "--x", str(tmp_path / "x.json"),
        "--out", str(out),
    )
    assert r.returncode == 0, r.stderr
    v = load_series(str(out))
    assert v.field == CUBIC
    assert v.coeff(2) * 4 == CUBIC.gen() ** 2 - 2
    assert run_cli("verify", "--series", str(out), "--s", "2").returncode == 0


@pytest.mark.parametrize("lone", [["--field", "{cubic}"], ["--x", "{x}"]])
def test_gen_abelian_refuses_a_lone_descent_flag_as_the_generator_does(tmp_path, lone):
    (tmp_path / "coeffs.json").write_text('{"1": 1, "6": 1}\n')
    (tmp_path / "cubic.json").write_text("[-1, -2, 1, 1]\n")
    (tmp_path / "x.json").write_text("[-1, 0, -1, -1, -1, -1]\n")
    paths = {"cubic": tmp_path / "cubic.json", "x": tmp_path / "x.json"}
    r = run_cli("gen-abelian", "--conductor", "7", "--coeffs", str(tmp_path / "coeffs.json"),
                "--s", "2", "--order", "10", *[a.format(**paths) for a in lone])
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr.startswith("error: DescentFailed: ") and r.stderr.count("\n") == 1
    assert "Traceback" not in r.stderr


def test_gen_abelian_reads_coefficients_exactly(tmp_path):
    def gen(text):
        (tmp_path / "c.json").write_text(text)
        return run_cli("gen-abelian", "--conductor", "3", "--coeffs",
                       str(tmp_path / "c.json"), "--s", "2", "--order", "2")

    # a JSON float is a binary fraction, not the decimal it was written as
    r = gen('{"1": 0.1}')
    assert r.returncode == 2
    assert r.stderr.startswith("error: BadFile: ")
    r = gen('{"1": "1/10"}')
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["coeffs"][0] == [["0", "1"], ["1", "10"]]
    assert gen('{"1": 1, "2": -1}').returncode == 0


def test_from_log_matches_polylog(tmp_path):
    (tmp_path / "field.json").write_text("[0, 1]\n")
    (tmp_path / "q.json").write_text("[1, -1]\n")
    r = run_cli("from-log", "--field", str(tmp_path / "field.json"),
                "--coeffs", str(tmp_path / "q.json"), "--s", "2", "--order", "9")
    assert r.returncode == 0
    got = json.loads(r.stdout)
    assert got["coeffs"] == series_to_obj(polylog(2, 9))["coeffs"]


def test_from_log_with_field_coefficients(tmp_path):
    (tmp_path / "field.json").write_text("[-1, -2, 1, 1]\n")
    # Q = 1 - x z + z^2 with x the field generator
    (tmp_path / "q.json").write_text(
        json.dumps([1, [[0, 1], [-1, 1], [0, 1]], 1]) + "\n"
    )
    r = run_cli("from-log", "--field", str(tmp_path / "field.json"),
                "--coeffs", str(tmp_path / "q.json"), "--s", "2", "--order", "6")
    assert r.returncode == 0, r.stderr
    got = json.loads(r.stdout)
    assert got["coeffs"][1] == [["-1", "2"], ["0", "1"], ["1", "4"]]


def test_polylog_table_csv():
    r = run_cli("polylog-table", "--d", "1..7", "--f", "2..5",
                "--format", "csv")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert lines[0] == "d,f=2,f=3,f=4,f=5"
    assert lines[2] == "2,1,3/2,4,5"
    assert lines[7] == "7,-10,339,-3452,19605"


def test_polylog_table_negative_columns():
    # argparse reads "--f -2..2" as a missing value; the = form passes it
    r = run_cli("polylog-table", "--d", "1..7", "--f=-2..2")
    assert r.returncode == 0, r.stderr
    want = polylog_frame_table(range(-2, 3), range(1, 8)).to_obj()
    assert json.loads(r.stdout) == json.loads(dump_obj(want))
    assert run_cli("polylog-table", "--d", "1..7", "--f", "-2..2").returncode == 2


def test_jk_check_passes():
    r = run_cli("jk-check", "--p", "5", "--kmax", "10", "--fmax", "3")
    assert r.returncode == 0
    assert json.loads(r.stdout)["pass"] is True


def test_a_sweep_too_large_to_run_exits_2_at_once():
    t0 = time.monotonic()
    r = run_cli("jk-check", "--p", "100003", "--kmax", "5", "--fmax", "5", timeout=60)
    elapsed = time.monotonic() - t0
    assert r.returncode == 2 and r.stdout == ""
    assert "too large" in r.stderr
    assert elapsed <= 2.0


def test_a_table_too_large_to_run_exits_2_at_once():
    t0 = time.monotonic()
    r = run_cli("polylog-table", "--d", "1..8000", "--f", "5", timeout=60)
    elapsed = time.monotonic() - t0
    assert r.returncode == 2 and r.stdout == ""
    assert "too large" in r.stderr
    assert elapsed <= 2.0


def test_verify_on_forty_bit_denominators_finishes_at_once(tmp_path):
    # c_k = 1/q_k with q_k the first 200 primes above 2**39: each denominator
    # is proven prime by is_prime after trial division to 2**10
    primes, q = [], 1 << 39
    while len(primes) < 200:
        q += 1
        if is_prime(q):
            primes.append(q)
    v = Series.from_coeffs(rationals(), 200, [Fraction(1, q) for q in primes])
    path = tmp_path / "d40.json"
    dump_obj(series_to_obj(v), str(path))
    t0 = time.monotonic()
    r = run_cli("verify", "--series", str(path), "--s", "2", timeout=60)
    elapsed = time.monotonic() - t0
    assert r.returncode == 1, r.stderr
    rep = json.loads(r.stdout)
    assert len(rep["violations"]) == 569
    assert rep == json.loads(dump_obj(check_sfunction(v, 2).to_obj()))
    assert elapsed <= 2.0


def test_gen_crt_refuses_a_seed_over_a_semiprime_at_once(tmp_path):
    # integrality is den == 1: the 39-digit denominator is never factored
    p, q = 10**19 + 51, 3 * 10**19 + 41
    (tmp_path / "field.json").write_text("[1, 1, 1]\n")
    (tmp_path / "x.json").write_text(json.dumps([f"1/{p * q}", "0"]))
    t0 = time.monotonic()
    r = run_cli("gen-crt", "--field", str(tmp_path / "field.json"), "--x",
                str(tmp_path / "x.json"), "--s", "2", "--order", "5", timeout=60)
    elapsed = time.monotonic() - t0
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr.startswith("error: NotIntegral: ")
    assert elapsed <= 2.0


_PEAK_OF_CHILD = """
import resource, subprocess, sys
r = subprocess.run([sys.executable, "-m", "sfuncs.cli", *sys.argv[1:]], capture_output=True, text=True)
print(r.returncode, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
sys.stderr.write(r.stdout + r.stderr)
"""


@pytest.mark.parametrize("verb", [["polylog-table", "--d", "1..100000000", "--f", "5"],
                                  ["verify", "--s", "2", "--primes-extra", "1..100000000"]])
def test_a_range_is_refused_without_being_built(li2_path, verb):
    # a..b reaches the cost bound or the NotPrime refusal as a range; built,
    # 10**8 ints would take gigabytes.  A wrapper process reads the peak
    # resident size of the CLI process alone.
    if verb[0] == "verify":
        verb = [*verb, "--series", str(li2_path)]
    t0 = time.monotonic()
    r = subprocess.run([sys.executable, "-c", _PEAK_OF_CHILD, *verb],
                       capture_output=True, text=True, timeout=60)
    elapsed = time.monotonic() - t0
    code, peak_kib = map(int, r.stdout.split())
    assert code == 2, r.stderr
    assert r.stderr.startswith("error: ") and len(r.stderr.splitlines()) == 1
    assert elapsed <= 2.0
    assert peak_kib < 100 * 1024


def test_a_table_with_cells_past_the_int_str_limit_prints_them():
    # the cell at d = 2 has about 6,000 digits; str() refuses past 4,300
    r = run_cli("polylog-table", "--d", "1..2", "--f", "1" + "0" * 3000, timeout=60)
    assert r.returncode == 0, r.stderr
    entries = json.loads(r.stdout)["entries"]
    t = polylog_frame_table([10**3000], [1, 2])
    assert [[_rational(x) for x in row] for row in entries] == [list(c) for c in t.cells]


def test_empty_ranges_exit_2_without_a_report():
    for args in (["jk-check", "--p", "7", "--kmax", "0", "--fmax", "0"],
                 ["jk-check", "--p", "7", "--kmax=-3", "--fmax", "2"],
                 ["jk-check", "--p", "7", "--kmax", "2", "--fmax", "0"],
                 ["polylog-table", "--d", "1..2", "--f", "3..2"],
                 ["polylog-table", "--d", "2..1", "--f", "1..2"]):
        r = run_cli(*args)
        assert r.returncode == 2, args
        assert r.stdout == "", args
        assert "range" in r.stderr or "k_max" in r.stderr, (args, r.stderr)


def test_out_flag_writes_file(li2_path, tmp_path):
    out = tmp_path / "report.json"
    r = run_cli("verify", "--series", str(li2_path), "--s", "2",
                "--out", str(out))
    assert r.returncode == 0
    assert json.loads(out.read_text())["pass"] is True


def test_gen_abelian_negative_order_names_the_order(tmp_path):
    # the coefficient count was compared with the order first, so this said
    # "more coefficients than the stated order"
    (tmp_path / "c.json").write_text('{"1": 1, "6": 1}\n')
    r = run_cli("gen-abelian", "--conductor", "7", "--coeffs", str(tmp_path / "c.json"),
                "--s", "2", "--order", "-5", timeout=10)
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == "error: ValueError: order must be nonnegative\n"


_LOADS_SERIES = {"sfuncs", "sfuncs.errors", "sfuncs.intutil", "sfuncs.numfield",
                 "sfuncs.mseries", "sfuncs.series", "sfuncs.serialize"}
_LOADS_CHECKER = _LOADS_SERIES | {"sfuncs.padic", "sfuncs.sfunc"}
_LOADS_FRAMING = _LOADS_SERIES | {"sfuncs.framing"}
_LOADS_CATALOG = _LOADS_SERIES | {"sfuncs.catalog"}


_VERB_LOADS = {
    "help": (["--help"], {"sfuncs", "sfuncs.errors"}),
    "verify": (["verify", "--series", "{li2}", "--s", "2", "--jobs", "1"], _LOADS_CHECKER),
    "dwork": (["dwork", "--series", "{li1}"], _LOADS_CHECKER),
    "gen-crt": (["gen-crt", "--field", "{q}", "--x", "{x}", "--s", "2", "--order", "4"],
                _LOADS_CHECKER),
    "frame": (["frame", "--series", "{li2}", "--f", "2"], _LOADS_FRAMING),
    "frame-multi": (["frame-multi", "--series", "{w}", "--kappa", "1,0;0,1"], _LOADS_FRAMING),
    "gen-abelian": (["gen-abelian", "--conductor", "3", "--coeffs", "{c}", "--s", "2",
                     "--order", "4"], _LOADS_CATALOG),
    "from-log": (["from-log", "--field", "{q}", "--coeffs", "{poly}", "--s", "2",
                  "--order", "4"], _LOADS_CATALOG),
    "polylog-table": (["polylog-table", "--d", "1..3", "--f", "2..3"], _LOADS_CATALOG),
    "jk-check": (["jk-check", "--p", "5", "--kmax", "10", "--fmax", "2"], _LOADS_CATALOG),
}


def _verb_args(tmp_path, argv: list[str]) -> list[str]:
    """argv with its {name} fields replaced by small input files under tmp_path."""
    paths = {name: tmp_path / f"{name}.json" for name in ("li1", "li2", "w", "q", "x", "poly", "c")}
    dump_obj(series_to_obj(polylog(1, 6)), str(paths["li1"]))
    dump_obj(series_to_obj(polylog(2, 6)), str(paths["li2"]))
    paths["w"].write_text(json.dumps({"field": [0, 1], "nvars": 2, "order": 3,
                                      "coeffs": {"1,0": ["1"], "0,1": ["1"]}}))
    paths["q"].write_text("[0, 1]\n")
    paths["x"].write_text("[4]\n")
    paths["poly"].write_text("[1, -1]\n")
    paths["c"].write_text('{"1": 1, "2": 1}\n')
    return [a.format(**paths) for a in argv]


@pytest.mark.parametrize("verb", sorted(_VERB_LOADS))
def test_each_verb_imports_only_the_modules_it_runs(tmp_path, verb):
    # every verb starts a fresh interpreter, so a module it does not run is
    # start-up time; -X importtime lists each module the child imports
    # (sfuncs.cli itself runs as __main__ and is not among them)
    argv, loads = _VERB_LOADS[verb]
    args = _verb_args(tmp_path, argv)
    r = subprocess.run([sys.executable, "-X", "importtime", "-m", "sfuncs.cli", *args],
                       capture_output=True, text=True, timeout=60)
    assert r.returncode == 0, r.stderr[-2000:]
    loaded = {line.rsplit("|", 1)[1].strip() for line in r.stderr.splitlines()
              if line.startswith("import time:")}
    assert {m for m in loaded if m.split(".")[0] == "sfuncs"} == loads
    assert not loaded & {"dataclasses", "inspect"}


_GENERATORS = {
    "gen-crt": ["gen-crt", "--field", "{q}", "--x", "{x}", "--s", "2"],
    "gen-abelian": ["gen-abelian", "--conductor", "7", "--coeffs", "{c}", "--s", "2"],
    "from-log": ["from-log", "--field", "{q}", "--coeffs", "{poly}", "--s", "2"],
}


def _generator_inputs(tmp_path) -> dict:
    paths = {name: tmp_path / f"{name}.json" for name in ("q", "x", "poly", "c")}
    paths["q"].write_text("[0, 1]\n")
    paths["x"].write_text("[4]\n")
    paths["poly"].write_text("[1, -1]\n")
    paths["c"].write_text('{"1": 1, "2": 1}\n')
    return paths


@pytest.mark.parametrize("verb", sorted(_GENERATORS))
def test_generators_refuse_an_order_above_the_bound_at_once(tmp_path, verb):
    # with no bound, each still ran at 10 s, and from-log under a 1-GB memory
    # limit died of a MemoryError traceback
    paths = _generator_inputs(tmp_path)
    argv = [a.format(**paths) for a in _GENERATORS[verb]]
    start = time.perf_counter()
    r = run_cli(*argv, "--order", "100000000", timeout=60)
    assert time.perf_counter() - start <= 2
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == ("error: ValueError: order 100000000 is above "
                        f"GENERATOR_MAX_ORDER = {cli.GENERATOR_MAX_ORDER}\n")


def test_the_generator_bound_admits_its_own_order(tmp_path):
    paths = _generator_inputs(tmp_path)
    argv = [a.format(**paths) for a in _GENERATORS["gen-crt"]]
    out = tmp_path / "crt.json"
    assert cli.run(argv + ["--order", str(cli.GENERATOR_MAX_ORDER), "--out", str(out)]) == 0
    assert load_series(str(out)).order == cli.GENERATOR_MAX_ORDER


def test_running_out_of_memory_exits_2_with_one_line(tmp_path, monkeypatch, capsys):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(sfunc, "generate_crt", exhausted)
    paths = _generator_inputs(tmp_path)
    argv = [a.format(**paths) for a in _GENERATORS["gen-crt"]]
    assert cli.run(argv + ["--order", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: MemoryError: the run needs more memory than it has\n"


def _json_dumps_layout(text: str) -> str:
    """text parsed and written again by json.dumps as dump_obj's layout is
    defined: two-space indent, sorted keys, ASCII escapes, one newline."""
    return json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("verb", sorted(set(_VERB_LOADS) - {"help"}))
def test_each_verb_writes_the_json_dumps_layout(tmp_path, verb):
    r = run_cli(*_verb_args(tmp_path, _VERB_LOADS[verb][0]), timeout=60)
    assert r.returncode in (0, 1), r.stderr[-2000:]
    assert r.stdout == _json_dumps_layout(r.stdout)


def test_a_series_past_the_int_str_limit_is_written_in_the_json_dumps_layout():
    field = make_field([1, 1, 1])
    big = 7**6000  # 5,071 digits
    v = Series.from_coeffs(field, 3, [field.elem([Fraction(-big, 3), 2]), 0,
                                      field.gen() * Fraction(1, big + 1)])
    text = dump_obj(series_to_obj(v))
    assert text == _json_dumps_layout(text)
    assert len(text) > 2 * 5000


def test_from_log_of_a_sparse_polynomial_at_the_bound_finishes_in_two_seconds(tmp_path):
    # the log recurrence costs the nonzero grades of 1 - z, one a step; it
    # scanned every grade at each step and took 2.4 s
    paths = _generator_inputs(tmp_path)
    argv = [a.format(**paths) for a in _GENERATORS["from-log"]]
    t0 = time.monotonic()
    r = run_cli(*argv, "--order", str(cli.GENERATOR_MAX_ORDER), timeout=60)
    elapsed = time.monotonic() - t0
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["coeffs"][-1] == [["1", str(cli.GENERATOR_MAX_ORDER**2)]]
    assert elapsed <= 2.0


def test_from_log_refuses_large_coefficients_before_the_recurrence(tmp_path):
    # the k-th coefficient of -log(1 - 1000z) has about 10k bits, which
    # neither the order bound nor NORMALIZED_MAX_BITS counts: at order 10,000
    # this took 25.8 s and wrote 150 MB
    paths = _generator_inputs(tmp_path)
    paths["poly"].write_text("[1, -1000]\n")
    t0 = time.monotonic()
    r = run_cli("from-log", "--field", str(paths["q"]), "--coeffs", str(paths["poly"]),
                "--s", "1", "--order", "10000", timeout=60)
    assert time.monotonic() - t0 <= 2.0
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == ("error: ValueError: order 10000 x degree 1 x 1 terms x 10 bits is "
                        f"above FROM_LOG_MAX_BITS = {cli.FROM_LOG_MAX_BITS}\n")


def test_the_from_log_bound_counts_degree_terms_and_bits(tmp_path, capsys):
    # over x^2 - x - 1, Q = 1 + (1 + x)z + z^2/3: degree 2, 2 terms, and the
    # denominator 3 has 2 bits, so 8 per unit of order
    field, poly, out = tmp_path / "field.json", tmp_path / "poly.json", tmp_path / "v.json"
    field.write_text("[-1, -1, 1]\n")
    poly.write_text(json.dumps([1, [[1, 1], [1, 1]], [[1, 3], [0, 1]]]) + "\n")
    top = cli.FROM_LOG_MAX_BITS // 8
    argv = ["from-log", "--field", str(field), "--coeffs", str(poly), "--s", "2"]
    assert cli.run(argv + ["--order", str(top), "--out", str(out)]) == 0
    assert load_series(str(out)).order == top
    assert cli.run(argv + ["--order", str(top + 1)]) == 2
    assert capsys.readouterr().err == (
        f"error: ValueError: order {top + 1} x degree 2 x 2 terms x 2 bits is above "
        f"FROM_LOG_MAX_BITS = {cli.FROM_LOG_MAX_BITS}\n")


# One option of each verb given as --opt=--, which argparse (CPython 3.11)
# hands over as [] without its type or choices: verify and jk-check ended in
# a TypeError, frame-multi in an AttributeError, and polylog-table with
# --format=-- exited 0.
_DASHED = {"verify": "--series", "frame": "--f", "frame-multi": "--kappa",
           "dwork": "--series", "gen-abelian": "--conductor", "gen-crt": "--x",
           "from-log": "--s", "polylog-table": "--format", "jk-check": "--p"}


@pytest.mark.parametrize("verb", sorted(_DASHED))
def test_an_option_given_as_a_bare_double_dash_exits_2_with_one_line(tmp_path, capsys, verb):
    argv, opt = _verb_args(tmp_path, _VERB_LOADS[verb][0]), _DASHED[verb]
    if opt in argv:
        del argv[argv.index(opt):argv.index(opt) + 2]
    assert cli.run(argv + [f"{opt}=--"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: argument {opt}: expected one value\n"


# An input file of the wrong kind or shape for its verb: a series with the
# wrong variable count, or a --coeffs file of the wrong JSON type.
_WRONG_FILE = {
    "frame": (["frame", "--series", "{w}", "--f", "2"], "frame expects a one-variable"),
    "frame-multi": (["frame-multi", "--series", "{li2}", "--kappa", "1"],
                    "frame-multi expects a multivariate"),
    "dwork": (["dwork", "--series", "{w}"], "dwork expects a one-variable"),
    "gen-abelian": (["gen-abelian", "--conductor", "3", "--coeffs", "{poly}", "--s", "2",
                     "--order", "4"], "--coeffs file must map"),
    "from-log": (["from-log", "--field", "{q}", "--coeffs", "{c}", "--s", "2", "--order", "4"],
                 "--coeffs file must be an array"),
}


@pytest.mark.parametrize("verb", sorted(_WRONG_FILE))
def test_a_file_of_the_wrong_kind_is_a_bad_file(tmp_path, capsys, verb):
    argv, message = _WRONG_FILE[verb]
    assert cli.run(_verb_args(tmp_path, argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: BadFile: {message}")
    assert captured.err.count("\n") == 1


def test_gen_abelian_refuses_a_conductor_above_the_bound_at_once(tmp_path):
    # the powers of zeta, the fold table and the output all grow with the
    # conductor: 10007 at order 3 still ran at 20 s
    (tmp_path / "c.json").write_text('{"1": 1}\n')
    start = time.perf_counter()
    r = run_cli("gen-abelian", "--conductor", "10007", "--coeffs", str(tmp_path / "c.json"),
                "--s", "2", "--order", "3", timeout=60)
    assert time.perf_counter() - start <= 2
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == ("error: BadConductor: conductor 10007 is above "
                        f"GENERATOR_MAX_CONDUCTOR = {cli.GENERATOR_MAX_CONDUCTOR}\n")


def test_gen_abelian_admits_the_conductor_bound(tmp_path):
    n = cli.GENERATOR_MAX_CONDUCTOR
    (tmp_path / "c.json").write_text(json.dumps({str(i): i for i in range(n)}))
    out = tmp_path / "ab.json"
    assert cli.run(["gen-abelian", "--conductor", str(n), "--coeffs", str(tmp_path / "c.json"),
                    "--s", "2", "--order", "30", "--out", str(out)]) == 0
    assert load_series(str(out)).order == 30


# --s with no bound: verify on this file was still running at 20 s, and each
# generator builds k**s the same way.
_HUGE_S = {
    "verify": ["verify", "--series", "{li60}", "--s", "1000000"],
    "gen-crt": ["gen-crt", "--field", "{q}", "--x", "{x}", "--s", "1000000", "--order", "60"],
    "gen-abelian": ["gen-abelian", "--conductor", "7", "--coeffs", "{c}", "--s", "1000000",
                    "--order", "60"],
    "from-log": ["from-log", "--field", "{q}", "--coeffs", "{poly}", "--s", "1000000",
                 "--order", "60"],
}


@pytest.mark.parametrize("verb", sorted(_HUGE_S))
def test_a_strength_past_the_size_bound_is_refused_at_once(tmp_path, verb):
    paths = _generator_inputs(tmp_path)
    paths["li60"] = tmp_path / "li60.json"
    dump_obj(series_to_obj(polylog(2, 60)), str(paths["li60"]))
    argv = [a.format(**paths) for a in _HUGE_S[verb]]
    start = time.perf_counter()
    r = run_cli(*argv, timeout=60)
    assert time.perf_counter() - start <= 2
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == ("error: ValueError: order 60 at s = 1000000 is above "
                        f"NORMALIZED_MAX_BITS = {cli.NORMALIZED_MAX_BITS} bits\n")


def test_the_size_bound_admits_its_own_size(tmp_path, capsys):
    assert 10_000 * 3 * 14 <= cli.NORMALIZED_MAX_BITS < 10_000 * 4 * 14  # s = 3 at the order bound
    path = tmp_path / "li8.json"
    dump_obj(series_to_obj(polylog(2, 8)), str(path))
    s = cli.NORMALIZED_MAX_BITS // (8 * 4)  # order 8 has 4 bits
    assert cli.run(["verify", "--series", str(path), "--s", str(s)]) == 1
    assert cli.run(["verify", "--series", str(path), "--s", str(s + 1)]) == 2
    assert capsys.readouterr().err.startswith("error: ValueError: order 8 at s = ")


@pytest.mark.parametrize("text", [
    '{"field": [0, 1], "nvars": 2, "order": 2, "coeffs": {"1,0": [["1", "1"]], "01,0": [["5", "1"]]}}',
    '{"field": [0, 1], "order": 1, "coeffs": [["1"]], "coeffs": [["2"]]}',
])
def test_verify_refuses_a_file_with_a_repeated_key(tmp_path, text):
    path = tmp_path / "v.json"
    path.write_text(text)
    r = run_cli("verify", "--series", str(path), "--s", "2", timeout=60)
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr.startswith("error: BadFile: ") and r.stderr.count("\n") == 1


@pytest.mark.parametrize("coeffs, error", [('{"1": 1, "1": 2}', "BadFile"),
                                           ('{"1_0": 1}', "ValueError")])
def test_gen_abelian_refuses_a_repeated_key_and_a_lenient_index(tmp_path, capsys, coeffs, error):
    # the first loaded as {1: 2}, the second as index 10
    (tmp_path / "c.json").write_text(coeffs)
    assert cli.run(["gen-abelian", "--conductor", "11", "--coeffs", str(tmp_path / "c.json"),
                    "--s", "2", "--order", "4"]) == 2
    assert capsys.readouterr().err.startswith(f"error: {error}: ")
