"""Random argv and JSON for every subcommand: ``cli.run`` never raises, exits
0, 1 or 2, a nonzero exit leaves stdout empty and stderr free of a
traceback, and a JSON report on exit 0 is strict JSON (no NaN or Infinity).
Inputs stay small (dimension <= 3, at most 8 facets or points, small n), so
the per-example deadline is also a budget on every path; a small share of
polytope coordinates and offsets leaves the double range."""
import contextlib
import io
import json
from datetime import timedelta

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fanokit import cli

# well-formed JSON fields, and what must be refused in their place
RATIONAL = st.one_of(st.integers(-3, 3),
                     st.fractions(min_value=-3, max_value=3, max_denominator=6).map(str))
WEIGHT = st.fractions(min_value=0, max_value=1, max_denominator=6).map(str)
INTEGER = st.integers(1, 4)
JUNK = st.sampled_from(["abc", "1/0", "", "1.5", True, None, 0.5, [1], 1.0, 0, -1])
HUGE = st.sampled_from([10**200, -10**200, 10**320, -10**320]).map(str)


def fields(draw, valid):
    """valid itself in three draws of four, else valid mixed with junk."""
    return valid if draw(st.integers(0, 3)) else st.one_of(valid, JUNK)


@st.composite
def polytope_json(draw):
    dim = draw(fields(draw, st.integers(1, 3)))
    size = dim if type(dim) is int and dim >= 1 else 2
    length = st.just(size) if draw(st.integers(0, 3)) else st.integers(0, 4)
    rational, integer = fields(draw, RATIONAL), fields(draw, st.integers(-2, 2))
    if not draw(st.integers(0, 9)):
        rational = st.one_of(rational, HUGE)
    data = {"dim": dim} if draw(st.integers(0, 9)) else {}
    if draw(st.booleans()):
        data["facets"] = draw(st.lists(st.builds(
            lambda normal, offset: {"normal": normal, "offset": offset},
            length.flatmap(lambda k: st.lists(integer, min_size=k, max_size=k)),
            rational), max_size=8))
    else:
        data["vertices"] = draw(st.lists(
            length.flatmap(lambda k: st.lists(rational, min_size=k, max_size=k)),
            max_size=8))
    return data


@st.composite
def weights_json(draw):
    return {"n": draw(fields(draw, INTEGER)),
            "weights": draw(st.lists(fields(draw, WEIGHT), max_size=6))}


@st.composite
def diagonal_json(draw):
    integer = fields(draw, INTEGER)
    n = draw(integer)
    size = n + 2 if type(n) is int and draw(st.integers(0, 3)) else draw(st.integers(0, 6))
    return {"n": n, "d": draw(integer), "a": draw(st.lists(integer, min_size=size, max_size=size))}


@st.composite
def p1_json(draw):
    size = 3 if draw(st.integers(0, 3)) else draw(st.integers(0, 4))
    data = {"weights": draw(st.lists(fields(draw, WEIGHT), min_size=size, max_size=size))}
    if draw(st.booleans()):
        data["precision"] = draw(st.sampled_from([1e-9, 0, -1, "x", "inf", 1e-300]))
    return data


INPUTS = {
    "semistable": st.one_of(polytope_json(), weights_json()),
    "volume": polytope_json(),
    "barycenter": polytope_json(),
    "sx": polytope_json(),
    "gap-check": polytope_json(),
    "arrangement-bound": weights_json(),
    "diagonal": diagonal_json(),
    "p1-zeta-height": p1_json(),
}
SMALL = st.integers(-1, 9).map(str)
TEXT = st.one_of(RATIONAL.map(str), JUNK.map(str))
OPTIONS = {
    "semistable": {"--preset": st.sampled_from(["p3", "p2xp1", "nope"])},
    "volume": {"--preset": st.sampled_from(["p3", "p1xp1"]),
               "--cut-normal": st.sampled_from(["1,1,1", "1,0", "0,0,0", "-1,2,0", "x"]),
               "--cut-offset": TEXT},
    "barycenter": {"--preset": st.sampled_from(["po-o2", "p2"])},
    "sx": {"--preset": st.sampled_from(["p3-blowup", "po-o2", "p3"])},
    "pn-height": {"--n": st.one_of(SMALL, st.sampled_from(["143", "200000", "x"]))},
    "scaled-height": {"--n": st.one_of(SMALL, st.just("200000")),
                      "--t": st.one_of(WEIGHT, TEXT)},
    "universal-bound": {"--n": SMALL, "--volume": TEXT},
    "gap-check": {"--preset": st.sampled_from(["p3-blowup", "p1"])},
    "stability-polytope": {"--n": st.integers(-1, 6).map(str), "--m": SMALL,
                           "--degree": st.one_of(TEXT, st.sampled_from(["7/3", "10/9", "1/10"]))},
    "arrangement-bound": {},
    "diagonal": {"--det-t": st.sampled_from(["2.0", "0", "-1", "nan", "inf", "x"])},
    "p1-zeta-height": {"--precision": st.sampled_from(["1e-6", "0", "inf", "x"])},
    "reproduce-paper": {"--perturb": st.just(None)},
}
assert set(OPTIONS) == set(cli._COMMANDS)
REQUIRED = {"--n", "--t", "--volume", "--m", "--degree"}


@st.composite
def argv(draw, command):
    args = [command]
    for flag, values in OPTIONS[command].items():
        # the options argparse requires nine times in ten; --preset one time
        # in three, so that most polytopes come as JSON; the others every other time
        if draw(st.integers(0, 9)) < {"--preset": 3}.get(flag, 9 if flag in REQUIRED else 5):
            value = draw(values)
            # flag=value, so that argparse reads "-1" as a value
            args.append(flag if value is None else f"{flag}={value}")
    preset = any(a.startswith("--preset=") for a in args)
    if command in INPUTS and draw(st.integers(0, 9)) < (1 if preset else 9):
        data = draw(INPUTS[command])
        if draw(st.integers(0, 5)) == 0:
            data = {"batch": [data, draw(INPUTS[command])]}
        args.append("--json=" + json.dumps(data))
    if draw(st.integers(0, 3)) == 0:
        args.append("--format=" + draw(st.sampled_from(["json", "csv", "table", "xml"])))
    return args


def _refuse_constant(name):
    raise AssertionError(f"{name} is not JSON")


@pytest.mark.parametrize("command", sorted(OPTIONS))
@settings(max_examples=15, deadline=timedelta(seconds=2), derandomize=True,
          database=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_cli_exits_cleanly(command, data):
    args = data.draw(argv(command))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(args)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code:
        assert out.getvalue() == ""
        assert err.getvalue()
    elif not any(a.startswith("--format=") and a != "--format=json" for a in args):
        json.loads(out.getvalue(), parse_constant=_refuse_constant)
