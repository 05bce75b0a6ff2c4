import csv
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import pytest

from fanokit import cli

from helpers import spy_eliminations


def run_cli(argv, capsys):
    code = cli.run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


P3_JSON = json.dumps({
    "dim": 3,
    "facets": [
        {"normal": [1, 0, 0], "offset": "1"},
        {"normal": [0, 1, 0], "offset": "1"},
        {"normal": [0, 0, 1], "offset": "1"},
        {"normal": [-1, -1, -1], "offset": "1"},
    ],
})

PO_O2_JSON = json.dumps({
    "dim": 3,
    "facets": [
        {"normal": [1, 0, 0], "offset": "1"},
        {"normal": [0, 1, 0], "offset": "1"},
        {"normal": [0, 0, 1], "offset": "1"},
        {"normal": [0, 0, -1], "offset": "1"},
        {"normal": [-1, -1, 2], "offset": "1"},
    ],
})

P2_JSON = json.dumps({
    "dim": 2,
    "facets": [{"normal": l, "offset": "1"} for l in ([1, 0], [0, 1], [-1, -1])],
})


class TestSubcommands:
    def test_sx_preset_benchmark(self, capsys):
        code, out, _ = run_cli(["sx", "--preset", "p3-blowup"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["n_factorial_S"] - 41.8) <= 0.05
        assert payload["certified"] is True

    def test_sx_preset_po_o2(self, capsys):
        code, out, _ = run_cli(["sx", "--preset", "po-o2"], capsys)
        payload = json.loads(out)
        assert code == 0
        assert abs(payload["n_factorial_S"] - 30.3) <= 0.05

    def test_pn_height(self, capsys):
        code, out, _ = run_cli(["pn-height", "--n", "1"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == pytest.approx(2 * (1 + math.log(math.pi)),
                                                 abs=1e-9)

    def test_volume_exact_rationals(self, capsys):
        code, out, _ = run_cli(["volume", "--json", PO_O2_JSON], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["degree"] == "62"
        assert payload["poly_volume"] == "31/3"

    def test_semistable_toric(self, capsys):
        code, out, _ = run_cli(["semistable", "--json", P3_JSON], capsys)
        payload = json.loads(out)
        assert code == 0 and payload["semistable"] is True

    def test_semistable_integrates_once(self, capsys, monkeypatch):
        """The verdict and the printed barycenter both read the one moment
        the polytope keeps: one triangulation is walked."""
        from fanokit import geometry

        geometry._vertices_of.cache_clear()
        original = geometry._pulling_simplices
        calls = []

        def spy(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(geometry, "_pulling_simplices", spy)
        code, out, _ = run_cli(["semistable", "--preset", "p3"], capsys)
        assert code == 0
        assert json.loads(out)["semistable"] is True
        assert len(calls) == 1

    def test_semistable_weights(self, capsys):
        code, out, _ = run_cli(
            ["semistable", "--json",
             '{"n": 1, "weights": ["1/2", "1/2", "1/2"]}'], capsys)
        payload = json.loads(out)
        assert code == 0 and payload["semistable"] is True
        assert payload["full_criterion"] is True

    def test_semistable_weights_unbalanced(self, capsys):
        code, out, _ = run_cli(
            ["semistable", "--json", '{"n": 1, "weights": ["9/10", "1/12"]}'], capsys)
        assert code == 0
        assert json.loads(out) == {"kind": "arrangement", "semistable": False,
                                   "full_criterion": False}

    def test_barycenter(self, capsys):
        code, out, _ = run_cli(["barycenter", "--json", P3_JSON], capsys)
        payload = json.loads(out)
        assert payload["barycenter"] == ["0", "0", "0"]
        assert payload["is_origin"] is True

    def test_scaled_height(self, capsys):
        code, out, _ = run_cli(["scaled-height", "--n", "1", "--t", "1/2"], capsys)
        payload = json.loads(out)
        assert code == 0
        assert payload["value"] == pytest.approx(2.837877, abs=1e-4)

    def test_universal_bound(self, capsys):
        code, out, _ = run_cli(
            ["universal-bound", "--n", "1", "--volume", "2"], capsys)
        payload = json.loads(out)
        assert payload["value"] == pytest.approx(2 * math.log(math.pi**2), abs=1e-9)

    def test_gap_check(self, capsys):
        code, out, _ = run_cli(["gap-check", "--json", P3_JSON], capsys)
        payload = json.loads(out)
        assert payload["verdict"] == "IsPn"
        assert payload["gorenstein"] is True

    def test_stability_polytope(self, capsys):
        code, out, _ = run_cli(
            ["stability-polytope", "--n", "1", "--m", "3", "--degree", "1"],
            capsys)
        payload = json.loads(out)
        assert payload["vertex_count"] == 3
        assert ["1/2", "1/2", "0"] in payload["vertices"]

    def test_stability_polytope_degree_beyond_double_range(self, capsys):
        code, out, _ = run_cli(["stability-polytope", "--n", "150", "--m", "2",
                                "--degree", str(151**150 - 1)], capsys)
        payload = json.loads(out)
        assert code == 0
        assert payload["c_exact"] is False
        assert abs(payload["c"]) <= 1e-12

    def test_stability_polytope_over_budget(self, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(["stability-polytope", "--n", "10", "--m", "40",
                                  "--degree", "1"], capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        assert "C(40, 11)" in err and "Traceback" not in err

    def test_arrangement_bound(self, capsys):
        code, out, _ = run_cli(
            ["arrangement-bound", "--json",
             '{"n": 1, "weights": ["1/2", "1/2", "1/2"]}'], capsys)
        payload = json.loads(out)
        assert code == 0
        assert payload["degree"] == "1/2"
        assert payload["t_toric"] == "1/4"

    def test_diagonal(self, capsys):
        code, out, _ = run_cli(
            ["diagonal", "--json", '{"n": 2, "d": 3, "a": [1, 1, 1, 8]}'],
            capsys)
        payload = json.loads(out)
        assert payload["correction"] == pytest.approx(-2 * math.log(8), abs=1e-9)
        assert payload["strict"] is True
        assert payload["lambda"] == pytest.approx(1 / 3, abs=1e-12)

    def test_diagonal_zero_correction_is_positive_zero(self, capsys):
        # (1 - d) (n+2-d)^n * 0.0 is -0.0 for d >= 2; so is the general delta at |det T| = 1
        code, out, err = run_cli(
            ["diagonal", "--json", '{"n": 1, "d": 2, "a": [1, 1, 1]}', "--det-t", "1"], capsys)
        assert (code, err) == (0, "")
        assert "-0.0" not in out
        for key in ("correction", "fermat_delta", "general_delta"):
            assert f'"{key}": 0.0,' in out

    def test_p1_zeta_height(self, capsys):
        code, out, _ = run_cli(
            ["p1-zeta-height", "--json", '{"weights": ["0", "0", "0"]}'],
            capsys)
        payload = json.loads(out)
        assert payload["value"] == pytest.approx(2 * (1 + math.log(math.pi)),
                                                 abs=1e-9)
        assert payload["branch"] == "fano"
        assert payload["semistable_advisory"] is True

    def test_reproduce_paper(self, capsys):
        code, out, _ = run_cli(["reproduce-paper"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["all_pass"] is True
        assert len(payload["rows"]) >= 12

    def test_reproduce_paper_perturbed_fails(self, capsys):
        code, _, err = run_cli(["reproduce-paper", "--perturb"], capsys)
        assert code == 2
        assert "numerical failure" in err


class TestErrorHandling:
    def test_malformed_json(self, capsys):
        code, _, err = run_cli(["volume", "--json", "{oops"], capsys)
        assert code == 1
        assert "input error" in err

    def test_schema_violation(self, capsys):
        code, _, err = run_cli(
            ["volume", "--json", '{"dim": 2, "facets": [{"normal": [1]}]}'],
            capsys)
        assert code == 1
        assert "offset" in err

    def test_missing_input(self, capsys):
        code, _, err = run_cli(["volume"], capsys)
        assert code == 1

    def test_unbounded_polytope(self, capsys):
        code, _, err = run_cli(
            ["volume", "--json",
             '{"dim": 2, "facets": [{"normal": [1, 0], "offset": "1"},'
             ' {"normal": [0, 1], "offset": "1"}]}'], capsys)
        assert code == 1

    def test_bad_weight(self, capsys):
        code, _, err = run_cli(
            ["semistable", "--json", '{"n": 1, "weights": ["3/2"]}'], capsys)
        assert code == 1

    @pytest.mark.parametrize("argv", [
        ["volume", "--json", '{"dim": 2, "facets": 5}'],
        ["volume", "--json", '{"dim": 2, "vertices": "01"}'],
        ["scaled-height", "--n", "2", "--t", "abc"],
        ["universal-bound", "--n", "2", "--volume", "abc"],
        ["universal-bound", "--n", "2", "--volume", "1/0"],
        ["stability-polytope", "--n", "1", "--m", "3", "--degree", "abc"],
        ["volume", "--preset", "p3", "--cut-normal", "1,1,1", "--cut-offset", "1/0"],
        ["p1-zeta-height", "--json", '{"weights": ["0", "0", "0"], "precision": "x"}'],
        ["pn-height", "--n", "400"],
        ["universal-bound", "--n", "400", "--volume", "1"],
        ["p1-zeta-height", "--json", '{"weights": ["0", "0", "0"]}', "--precision", "inf"],
        ["p1-zeta-height", "--json", '{"weights": ["0", "0", "0"], "precision": "inf"}'],
        ["p1-zeta-height", "--json", '{"weights": ["0", "0", "0"]}', "--precision", "0"],
        ["p1-zeta-height", "--json", '{"weights": ["0", "0", "0"], "precision": -1e-9}'],
        ["p1-zeta-height", "--json", '{"weights": ["1/2", "1/3", "1/4"], "precision": true}'],
        ["volume", "--preset", "p3", "--cut-normal=0,0,0", "--cut-offset", "1"],
        ["stability-polytope", "--n", "0", "--m", "3", "--degree", "1"],
        ["stability-polytope", "--n", "-1", "--m", "3", "--degree", "1"],
        ["stability-polytope", "--n", "1", "--m", "-1", "--degree", "1"],
        ["diagonal", "--json", '{"n": 2, "d": 3, "a": [1, 1, true, 8]}'],
        ["diagonal", "--json", '{"n": true, "d": 1, "a": [1, 1, 1]}'],
        ["diagonal", "--json", '{"n": "2", "d": 3, "a": [1, 1, 1, 8]}'],
        ["diagonal", "--json", '{"n": 2, "d": 3.0, "a": [1, 1, 1, 8]}'],
        ["semistable", "--json", '{"n": true, "weights": ["1/2", "1/2"]}'],
        ["volume", "--json", P2_JSON.replace('"normal": [1, 0]', '"normal": [true, 0]')],
        ["volume", "--json", '{"dim": true, "facets": [{"normal": [1], "offset": "1"},'
                             ' {"normal": [-1], "offset": "1"}]}'],
    ], ids=["facets-not-list", "vertices-not-list", "t-abc", "volume-abc", "volume-1/0",
            "degree-abc", "cut-offset-1/0", "precision-x", "pn-height-400",
            "universal-bound-400", "precision-inf-flag", "precision-inf-json",
            "precision-zero-flag", "precision-negative-json", "precision-bool",
            "cut-normal-zero", "stability-n-0", "stability-n-negative", "stability-m-negative",
            "diagonal-a-bool", "diagonal-n-bool", "diagonal-n-string", "diagonal-d-float",
            "weights-n-bool", "normal-bool", "dim-bool"])
    def test_malformed_argument_is_an_input_error(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 1 and out == ""
        assert err.startswith("fanokit: input error:")
        assert "Traceback" not in err


    @pytest.mark.parametrize("argv, missing", [
        (["pn-height"], "--n"),
        (["scaled-height", "--n", "2"], "--t"),
        (["universal-bound", "--volume", "2"], "--n"),
        (["stability-polytope", "--n", "1", "--m", "3"], "--degree"),
        (["stability-polytope", "--n", "1", "--degree", "1"], "--m"),
    ])
    def test_missing_required_option(self, argv, missing, capsys):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, "")
        assert f"the following arguments are required: {missing}" in err


class TestPolytopeInput:
    def test_facets_and_vertices_together_are_refused(self, capsys):
        data = {"dim": 2, "facets": json.loads(P2_JSON)["facets"],
                "vertices": [[-1, -1], [2, -1], [-1, 2]]}
        for command in ("volume", "barycenter", "semistable", "gap-check", "sx"):
            code, out, err = run_cli([command, "--json", json.dumps(data)], capsys)
            assert (code, out, err) == (1, "", "fanokit: input error: give 'facets' or "
                                               "'vertices', not both\n")
            # either key alone is answered
            for key in ("facets", "vertices"):
                alone = {"dim": 2, key: data[key]}
                assert run_cli([command, "--json", json.dumps(alone)], capsys)[0] == 0

    def test_batch_reads_no_vertex_coordinates(self, capsys, monkeypatch):
        # the answers read the integer rows: no value makes its Fraction vertices
        from fanokit import geometry

        made = []
        build = geometry._polytope
        monkeypatch.setattr(geometry, "_polytope", lambda *a: made.append(build(*a)) or made[-1])
        geometry._vertices_of.cache_clear()
        square = {"dim": 2, "vertices": [[-1, -1], [-1, 1], [1, -1], [1, 1], [0, 0]]}
        items = [json.loads(P2_JSON), json.loads(P3_JSON), square] * 2
        for command, key in [("volume", "poly_volume"), ("barycenter", "is_origin"),
                             ("semistable", "semistable"), ("gap-check", "verdict")]:
            code, out, _ = run_cli([command, "--json", json.dumps({"batch": items})], capsys)
            assert code == 0 and len(json.loads(out)["results"]) == 6
            assert all(key in r for r in json.loads(out)["results"])
        assert len(made) >= 3
        assert not any("vertices" in vars(v) for v in made)


class TestPointCloudInput:
    def test_volume_hulls_the_cloud_once(self, capsys, monkeypatch):
        calls = spy_eliminations(monkeypatch)
        cloud = [[x, y, z] for x in (0, 2) for y in (0, 2) for z in (0, 2)] + [[1, 1, 1]]
        code, out, _ = run_cli(["volume", "--json", json.dumps({"dim": 3, "vertices": cloud})],
                               capsys)
        assert code == 0
        assert json.loads(out)["poly_volume"] == "8"
        assert calls == ["rays"]


    @pytest.mark.parametrize("command, expected", [
        ("volume", "8"),
        ("barycenter", ["0", "0", "0"]),
        ("semistable", True),
        ("gap-check", "SatisfiesGap"),
        ("sx", 48.0),
    ])
    def test_cloud_runs_double_description_once(self, command, expected, capsys,
                                                monkeypatch):
        from fanokit import geometry

        geometry._vertices_of.cache_clear()
        original = geometry._extreme_rays
        calls = []

        def spy(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(geometry, "_extreme_rays", spy)
        # the centred 3-cube: corners +-1 and the origin
        cloud = [[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)] + [[0, 0, 0]]
        code, out, _ = run_cli([command, "--json", json.dumps({"dim": 3, "vertices": cloud})],
                               capsys)
        assert code == 0
        key = {"volume": "poly_volume", "barycenter": "barycenter", "semistable": "semistable",
               "gap-check": "verdict", "sx": "n_factorial_S"}[command]
        assert json.loads(out)[key] == expected
        assert len(calls) == 1


class TestParserReuse:
    def test_no_option_leaks_into_the_next_run(self, capsys):
        cut = ["volume", "--preset", "p3", "--cut-normal=1,1,1", "--cut-offset", "0"]
        code, out, _ = run_cli(cut, capsys)
        assert code == 0
        assert json.loads(out)["poly_volume"] == "9/2"
        code, out, _ = run_cli(["volume", "--preset", "p3"], capsys)
        assert code == 0
        assert json.loads(out)["poly_volume"] == "32/3"

    def test_gap_check_reports_singularities_once(self, capsys, monkeypatch):
        # one determinant per vertex cone of P^3, taken once and kept by the polytope
        from fanokit import geometry

        geometry._vertices_of.cache_clear()
        original = geometry.integer_det
        calls = []

        def spy(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(geometry, "integer_det", spy)
        code, out, _ = run_cli(["gap-check", "--preset", "p3"], capsys)
        assert code == 0
        assert json.loads(out)["vertex_dets"] == [1, 1, 1, 1]
        assert len(calls) == 4


class TestGapCheckInput:
    def test_repeated_facet_is_one_facet(self, capsys):
        # P^3 with x_1 >= -1 listed twice; a repeated inequality is no extra facet
        data = json.loads(P3_JSON)
        data["facets"].append(data["facets"][0])
        code, out, _ = run_cli(["gap-check", "--json", json.dumps(data)], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "IsPn"
        assert payload["singular"] is False
        assert payload["vertex_dets"] == [1, 1, 1, 1]


class TestArrangementInput:
    def test_many_weights_decided_fast(self, capsys):
        # 40 weights of 1/2 on P^20: every subset of size <= 20 would be C(40, 20)
        data = json.dumps({"n": 20, "weights": ["1/2"] * 40})
        start = time.perf_counter()
        code, out, _ = run_cli(["semistable", "--json", data], capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert json.loads(out) == {"kind": "arrangement", "semistable": True,
                                   "full_criterion": True}


ZETA_FANO_OUT = """{
  "V": 0.966666666667,
  "abs_error": 6.58332667943e-11,
  "branch": "fano",
  "convention": "raw_height",
  "formula": "p1_three_points_zeta[fano]",
  "semistable_advisory": true,
  "value": 2.67915216032
}
"""
ZETA_CONTINUATION_OUT = """{
  "V": -0.7,
  "abs_error": 6.58393173032e-11,
  "branch": "continuation",
  "convention": "raw_height",
  "formula": "p1_three_points_zeta[continuation]",
  "semistable_advisory": true,
  "value": -2.80831264085
}
"""
ZETA_PRECISION_OUT = """{
  "V": 0.916666666667,
  "abs_error": 6.40001832347e-07,
  "branch": "fano",
  "convention": "raw_height",
  "formula": "p1_three_points_zeta[fano]",
  "semistable_advisory": true,
  "value": 2.50658698582
}
"""
ZETA_BATCH_OUT = """{
  "results": [
    {
      "V": 1.0,
      "abs_error": 6.58341126506e-11,
      "branch": "fano",
      "convention": "raw_height",
      "formula": "p1_three_points_zeta[fano]",
      "semistable_advisory": true,
      "value": 2.83787706641
    },
    {
      "V": -0.25,
      "abs_error": 6.58257470938e-11,
      "branch": "continuation",
      "convention": "raw_height",
      "formula": "p1_three_points_zeta[continuation]",
      "semistable_advisory": true,
      "value": -0.87079294894
    }
  ]
}
"""


class TestP1ZetaHeightOutput:
    # exact stdout, each F argument evaluated once per height
    @pytest.mark.parametrize("data, expected", [
        ({"weights": ["1/2", "1/3", "1/5"]}, ZETA_FANO_OUT),
        ({"weights": ["9/10", "9/10", "9/10"]}, ZETA_CONTINUATION_OUT),
        ({"weights": ["1/4", "1/3", "1/2"], "precision": 1e-8}, ZETA_PRECISION_OUT),
        ({"batch": [{"weights": ["1/2", "1/2", "0"]}, {"weights": ["3/4", "2/3", "5/6"]}]},
         ZETA_BATCH_OUT),
    ], ids=["fano", "continuation", "precision", "batch"])
    def test_pinned_stdout(self, data, expected, capsys):
        code, out, err = run_cli(["p1-zeta-height", "--json", json.dumps(data)], capsys)
        assert (code, out, err) == (0, expected, "")

    @pytest.mark.parametrize("weights, message", [
        (["1/2", "1/4", "2499999999/10000000000"],
         "2*w1 = 1 > w1 + w2 + w3 = 9999999999/10000000000"),
        (["1/4", "3/4", "1/3"], "2*w2 = 3/2 > w1 + w2 + w3 = 4/3"),
        (["0", "0", "1"], "2*w3 = 2 > w1 + w2 + w3 = 1"),
    ], ids=["1e-10", "w2", "w3"])
    def test_refusal_names_the_failed_inequality(self, weights, message, capsys):
        code, out, err = run_cli(["p1-zeta-height", "--json", json.dumps({"weights": weights})],
                                 capsys)
        assert (code, out, err) == (1, "", "fanokit: input error: height formula left its "
                                           f"real-analytic domain: {message}\n")

    def test_answered_reports_are_semistable_iff_no_weight_is_one(self, capsys):
        # an answered triple lies on 2 w_i <= sum(w), the n = 1 arrangement
        # locus, so the advisory flag reads only whether some weight is 1
        answered = 0
        for w in itertools.product([Fraction(k, 12) for k in range(13)], repeat=3):
            data = {"weights": [str(x) for x in w]}
            code, out, _ = run_cli(["p1-zeta-height", "--json", json.dumps(data)], capsys)
            if code == 0:
                answered += 1
                assert json.loads(out)["semistable_advisory"] == all(x < 1 for x in w), w
        assert answered == 1014


class TestDeterminism:
    def test_byte_identical_output(self, capsys):
        argv = ["sx", "--preset", "p3-blowup"]
        _, out1, _ = run_cli(argv, capsys)
        _, out2, _ = run_cli(argv, capsys)
        assert out1 == out2

    def test_twelve_significant_digits(self, capsys):
        _, out, _ = run_cli(["pn-height", "--n", "3"], capsys)
        payload = json.loads(out)
        assert payload["value"] == float(f"{764.8977307716553:.12g}")


class TestFormats:
    def test_csv_round_trips_reproduction_rows(self, capsys):
        _, json_out, _ = run_cli(["reproduce-paper"], capsys)
        rows = json.loads(json_out)["rows"]
        _, csv_out, _ = run_cli(["reproduce-paper", "--format", "csv"], capsys)
        parsed = list(csv.DictReader(io.StringIO(csv_out)))
        assert len(parsed) == len(rows)
        for got, expect in zip(parsed, rows):
            assert got["name"] == expect["name"]
            assert float(got["computed"]) == pytest.approx(
                expect["computed"], rel=1e-11)
            assert got["pass"] == str(expect["pass"])

    def test_table_format(self, capsys):
        code, out, _ = run_cli(["pn-height", "--n", "2", "--format", "table"],
                               capsys)
        assert code == 0
        assert "value" in out


class TestBatchAndEnv:
    def test_batch_jobs(self, capsys):
        batch = json.dumps({
            "batch": [
                {"weights": ["0", "0", "0"]},
                {"weights": ["1/2", "1/2", "1/2"]},
            ]
        })
        code, out, _ = run_cli(
            ["p1-zeta-height", "--json", batch, "--jobs", "2"], capsys)
        assert code == 0
        results = json.loads(out)["results"]
        assert len(results) == 2
        assert results[0]["value"] == pytest.approx(
            2 * (1 + math.log(math.pi)), abs=1e-9)

    def test_batch_items_run_in_the_calling_thread(self, capsys, monkeypatch):
        from fanokit import toric_heights

        original = toric_heights.pn_height
        seen = []

        def spy(n):
            seen.append(threading.get_ident())
            return original(n)

        monkeypatch.setattr(toric_heights, "pn_height", spy)
        batch = json.dumps({"batch": [{}, {}, {}]})
        code, out, _ = run_cli(["pn-height", "--n", "2", "--jobs", "4", "--json", batch],
                               capsys)
        assert code == 0
        assert len(json.loads(out)["results"]) == 3
        assert seen and set(seen) == {threading.get_ident()}


def _polygon_json(normals):
    return {"dim": 2, "facets": [{"normal": l, "offset": "1"} for l in normals]}


# the centred square and hexagon: 4 and 6 simple vertices, one determinant each,
# which is_smooth and is_pn_polytope read off the vertex cones
SQUARE, HEXAGON = (_polygon_json([[1, 0], [-1, 0], [0, 1], [0, -1]]),
                   _polygon_json([[1, 0], [0, 1], [-1, 0], [0, -1], [1, 1], [-1, -1]]))


class TestOneIntegrationPerBatch:
    """A batch that repeats a polytope integrates it, and takes its vertex
    cones, once per polytope: the vertex cache hands every repeat the same
    value, which keeps what was derived from it."""

    @pytest.mark.parametrize("command, dets", [
        ("volume", 0), ("barycenter", 0), ("semistable", 0), ("gap-check", 4 + 6)])
    def test_three_copies_of_two_polytopes(self, command, dets, capsys, monkeypatch):
        from fanokit import geometry

        geometry._vertices_of.cache_clear()
        calls = {"_pulling_simplices": 0, "integer_det": 0}
        for name in calls:
            original = getattr(geometry, name)
            monkeypatch.setattr(geometry, name, lambda *a, name=name, original=original:
                                calls.__setitem__(name, calls[name] + 1) or original(*a))
        batch = json.dumps({"batch": [SQUARE, HEXAGON] * 3})
        code, out, _ = run_cli([command, "--json", batch], capsys)
        assert code == 0
        results = json.loads(out)["results"]
        assert results[:2] * 3 == results
        assert calls == {"_pulling_simplices": 2, "integer_det": dets}


DIAGONAL_CUBIC = '{"n": 2, "d": 3, "a": [1, 1, 1, 8]}'

# printed value of every toric-family height, fixed when the four bounds came
# to share one evaluation; only their abs_error moved
FAMILY_VALUES = [
    (["scaled-height", "--n", "1", "--t", "1/2"], None, "2.83787706641"),
    (["scaled-height", "--n", "3", "--t", "7/11"], None, "241.842063316"),
    (["scaled-height", "--n", "8", "--t", "1/12"], None, "15.7196715042"),
    (["universal-bound", "--n", "1", "--volume", "79/4"], None, "-0.0107941469956"),
    (["universal-bound", "--n", "3", "--volume", "5/2"], None, "240.945903747"),
    (["universal-bound", "--n", "6", "--volume", "80/7"], None, "445234.326564"),
    (["arrangement-bound", "--json", '{"n": 1, "weights": ["1/2", "1/2", "1/2"]}'],
     None, "1.76551212348"),
    (["arrangement-bound", "--json", '{"n": 2, "weights": ["0", "0", "0"]}'],
     None, "55.3002199804"),
    (["arrangement-bound", "--json",
      '{"n": 4, "weights": ["1/2", "1/2", "1/2", "1/2", "1/2", "1/3"]}'], None, "614.993945937"),
    (["diagonal", "--json", DIAGONAL_CUBIC], "fermat_bound", "23.3771619591"),
    (["diagonal", "--json", '{"n": 4, "d": 3, "a": [2, -3, 1, 1, 5, 7]}'],
     "fermat_bound", "5323.05022106"),
    (["diagonal", "--json", '{"n": 6, "d": 7, "a": [1, 1, 1, 1, 1, 1, 1, 1]}'],
     "fermat_bound", "518.632631785"),
]


class TestToricFamilyOutput:
    @pytest.mark.parametrize("argv, field, value", FAMILY_VALUES,
                             ids=[f"{a[0]}-{i}" for i, (a, _, _) in enumerate(FAMILY_VALUES)])
    def test_pinned_value(self, argv, field, value, capsys):
        code, out, err = run_cli(argv, capsys)
        assert (code, err) == (0, "")
        report = json.loads(out)
        report = report[field] if field else report
        assert json.dumps(report["value"]) == value

    def test_diagonal_evaluates_the_fermat_bound_once(self, capsys, monkeypatch):
        from fanokit import hypersurfaces as hyp
        from fanokit import toric_heights as th

        calls = {}

        def count(module, name):
            original = getattr(module, name)

            def spy(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, spy)

        count(hyp, "fermat_height_bound")
        count(hyp, "pn_height")
        count(th, "pn_height")
        code, _, _ = run_cli(["diagonal", "--json", DIAGONAL_CUBIC], capsys)
        assert code == 0
        # the Fermat bound reads a_n off the theorem bound's pn_height report
        assert calls == {"fermat_height_bound": 1, "pn_height": 1}

    def test_pn_height_evaluates_the_height_once(self, capsys, monkeypatch):
        from fanokit import toric_heights as th

        original = th.pn_height
        calls = []

        def spy(n):
            calls.append(n)
            return original(n)

        monkeypatch.setattr(th, "pn_height", spy)
        code, out, _ = run_cli(["pn-height", "--n", "3"], capsys)
        assert code == 0
        assert calls == [3]
        assert '"a_n": 2.98788176083,' in out

    @pytest.mark.parametrize("n", ["-1", "0"])
    def test_universal_bound_rejects_nonpositive_n(self, n, capsys):
        code, out, err = run_cli(["universal-bound", "--n", n, "--volume", "2"], capsys)
        assert (code, out) == (1, "")
        assert "n must be a positive integer" in err

    @pytest.mark.parametrize("argv", [
        ["pn-height", "--n", "2"],
        ["diagonal", "--json", DIAGONAL_CUBIC],
        ["volume", "--json", P3_JSON],
    ])
    def test_precision_belongs_to_p1_zeta_height(self, argv, capsys):
        code, out, err = run_cli(argv + ["--precision", "1e-9"], capsys)
        assert code == 1 and out == ""
        assert "--precision" in err


P3_BLOWUP_JSON = json.dumps({
    "dim": 3,
    "facets": [{"normal": l, "offset": "1"}
               for l in ([1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1], [1, 1, 1])],
})
# po-o2 under the signed permutation x -> (-x_3, x_1, x_2)
PO_O2_IMAGE_JSON = json.dumps({
    "dim": 3,
    "facets": [{"normal": l, "offset": "1"}
               for l in ([0, 0, -1], [1, 0, 0], [0, 1, 0], [0, -1, 0], [-1, 2, 1])],
})
PO_O2_REAL_OUT = """{
  "certified": false,
  "n_factorial_S": 36.3057483268,
  "residual": 0.149780385219,
  "w": 5.88882123317
}
"""
# stdout of sx on the real moment polytopes, fixed before the bisection
# read its objective from slab polynomials instead of one clip per step
SX_OUTPUTS = [
    (P3_BLOWUP_JSON, """{
  "certified": true,
  "n_factorial_S": 41.778100185,
  "residual": 2.27092248898e-17,
  "w": 0.321426489572
}
"""),
    (PO_O2_JSON, PO_O2_REAL_OUT),
    (PO_O2_IMAGE_JSON, PO_O2_REAL_OUT),
]


class TestDiagonalDerivedFields:
    """The fields that diagonal derives from its two height reports by algebra.
    Printed floats carry 12 significant digits, so each is compared, exactly,
    with the rounding of the library's double."""

    def test_seeded_grid(self, capsys):
        from fanokit import hypersurfaces as hyp
        from fanokit.jsonio import round_float

        rng = random.Random(37)
        digits = [x for x in range(-9, 10) if x]
        for n in range(1, 5):
            for d in range(1, n + 2):
                for _ in range(4):
                    a = [rng.choice(digits) for _ in range(n + 2)]
                    code, out, err = run_cli(
                        ["diagonal", "--json", json.dumps({"n": n, "d": d, "a": a})], capsys)
                    assert (code, err) == (0, "")
                    got = json.loads(out)
                    bound = hyp.diagonal_theorem_bound(hyp.DiagonalHypersurfaceSpec(n, d, a))
                    delta = 2 * bound.correction
                    assert got["correction"] == round_float(bound.correction)
                    assert got["fermat_delta"] == round_float(delta)
                    assert got["fermat_bound"]["value"] == round_float(bound.fermat.value)
                    assert got["chain_bound"] == round_float(bound.fermat.value + delta)
                    # the identity itself: TestCoverBookkeeping in test_hypersurfaces.py
                    degree = str(d ** (n + 1))
                    assert got["cover_degree_check"] == {"topological": degree,
                                                         "volume_ratio": degree}
                    assert got["lambda"] == round_float(
                        float(Fraction(d * (n + 2 - d) ** n, (n + 1) ** n)))
                    assert got["strict"] is (d >= 2)

    @pytest.mark.parametrize("correction", [1e308, -1e308, math.inf, math.nan])
    def test_delta_beyond_the_double_range_refused(self, correction):
        from fanokit import hypersurfaces as hyp
        from fanokit.errors import OutOfRange

        fermat = hyp.fermat_height_bound(2, 3)
        hyp.DiagonalBound(fermat, 1e307, True, fermat)   # twice it is finite
        with pytest.raises(OutOfRange, match="double-precision range"):
            hyp.DiagonalBound(fermat, correction, True, fermat)


class TestSxOutput:
    @pytest.mark.parametrize("polytope, expected", SX_OUTPUTS,
                             ids=["p3-blowup", "po-o2", "po-o2-image"])
    def test_pinned_bytes(self, polytope, expected, capsys):
        assert run_cli(["sx", "--json", polytope], capsys) == (0, expected, "")

    @pytest.mark.parametrize("argv", [["sx", "--preset", "p3-blowup"],
                                      ["sx", "--json", PO_O2_JSON]],
                             ids=["p3-blowup-preset", "po-o2-real"])
    def test_no_clip(self, argv, capsys, monkeypatch):
        from fanokit import geometry

        original = geometry.intersect_halfspace
        calls = []

        def spy(*args):
            calls.append(args[2])
            return original(*args)

        monkeypatch.setattr(geometry, "intersect_halfspace", spy)
        code, _, _ = run_cli(argv, capsys)
        assert code == 0
        assert len(calls) == 0   # one slab, fitted from the base's masks


def _child_env():
    # the child imports fanokit from wherever this test run found it
    package_root = str(Path(cli.__file__).parents[1])
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=package_root + (os.pathsep + path if path else ""))


class TestConsoleEntryPoint:
    def test_subprocess_smoke(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fanokit.cli", "pn-height", "--n", "1"],
            capture_output=True, text=True, timeout=60, env=_child_env())
        assert proc.returncode == 0
        assert "4.2894597717" in proc.stdout

    def test_closed_pipe_exits_without_traceback(self):
        # about 400 kB of output, so the child is still writing when the reader
        # closes the pipe after one line
        proc = subprocess.Popen(
            [sys.executable, "-m", "fanokit.cli", "stability-polytope",
             "--n", "3", "--m", "16", "--degree", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env())
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 1
        assert err == ""


OPERATION_COVERAGE = [
    ("fanokit.geometry", "enumerate_vertices", ["volume", "--json", P3_JSON]),
    ("fanokit.geometry", "volume_and_moment", ["volume", "--json", P3_JSON]),
    ("fanokit.geometry", "barycenter", ["barycenter", "--json", P3_JSON]),
    ("fanokit.geometry", "intersect_halfspace",
     ["volume", "--json", P3_JSON, "--cut-normal=-1,-1,-1",
      "--cut-offset", "1"]),
    ("fanokit.geometry", "clip_family", ["sx", "--preset", "p3-blowup"]),
    ("fanokit.toric_heights", "is_k_semistable", ["semistable", "--json", P3_JSON]),
    ("fanokit.toric_heights", "log_fano_degree", ["reproduce-paper"]),
    ("fanokit.hypersurfaces", "pn_family_height",
     ["diagonal", "--json", '{"n": 2, "d": 3, "a": [1, 1, 1, 8]}']),
    ("fanokit.toric_heights", "pn_height", ["pn-height", "--n", "2"]),
    ("fanokit.toric_heights", "a_n_constant", ["pn-height", "--n", "2"]),
    ("fanokit.toric_heights", "scaled_divisor_height",
     ["scaled-height", "--n", "1", "--t", "1/2"]),
    ("fanokit.toric_heights", "universal_height_bound",
     ["universal-bound", "--n", "1", "--volume", "2"]),
    ("fanokit.toric_heights", "gap_check", ["gap-check", "--json", P3_JSON]),
    ("fanokit.toric_heights", "is_gorenstein", ["gap-check", "--json", P3_JSON]),
    ("fanokit.sx_optimizer", "sx_invariant", ["sx", "--preset", "p3-blowup"]),
    ("fanokit.arrangements", "is_arrangement_semistable",
     ["semistable", "--json", '{"n": 1, "weights": ["1/2", "1/2", "1/2"]}']),
    ("fanokit.arrangements", "arrangement_degree",
     ["arrangement-bound", "--json", '{"n": 1, "weights": ["1/2", "1/2", "1/2"]}']),
    ("fanokit.arrangements", "stability_polytope",
     ["stability-polytope", "--n", "1", "--m", "3", "--degree", "1"]),
    ("fanokit.arrangements", "arrangement_height_bound",
     ["arrangement-bound", "--json", '{"n": 1, "weights": ["1/2", "1/2", "1/2"]}']),
    ("fanokit.arrangements", "reduce_to_toric",
     ["arrangement-bound", "--json", '{"n": 1, "weights": ["1/2", "1/2", "1/2"]}']),
    ("fanokit.hypersurfaces", "diagonal_height_correction",
     ["diagonal", "--json", '{"n": 2, "d": 3, "a": [1, 1, 1, 8]}']),
    ("fanokit.hypersurfaces", "general_linear_height_delta",
     ["diagonal", "--json", '{"n": 2, "d": 3, "a": [1, 1, 1, 8]}',
      "--det-t", "2.0"]),
    ("fanokit.hypersurfaces", "branch_arrangement",
     ["diagonal", "--json", '{"n": 2, "d": 3, "a": [1, 1, 1, 8]}']),
    ("fanokit.hypersurfaces", "fermat_height_bound",
     ["diagonal", "--json", '{"n": 2, "d": 3, "a": [1, 1, 1, 8]}']),
    ("fanokit.hypersurfaces", "diagonal_theorem_bound",
     ["diagonal", "--json", '{"n": 2, "d": 3, "a": [1, 1, 1, 8]}']),
    ("fanokit.zeta", "p1_canonical_height",
     ["p1-zeta-height", "--json", '{"weights": ["1/2", "1/2", "0"]}']),
    ("fanokit.zeta", "hurwitz_zeta",
     ["p1-zeta-height", "--json", '{"weights": ["1/2", "1/2", "0"]}']),
    ("fanokit.zeta", "mabuchi_p1_constant", ["reproduce-paper"]),
    ("fanokit.arrangements", "hypersimplex_decomposition",
     ["arrangement-bound", "--json", '{"n": 1, "weights": ["1/2", "1/2", "1/2"]}']),
    ("fanokit.hypersurfaces", "lambda_ratio",
     ["diagonal", "--json", '{"n": 2, "d": 3, "a": [1, 1, 1, 8]}']),
]


class TestOperationCoverage:
    """Every library operation is reachable from at least one subcommand."""

    @pytest.mark.parametrize(
        "module_name,func_name,argv",
        OPERATION_COVERAGE,
        ids=[f"{m.split('.')[-1]}.{f}" for m, f, _ in OPERATION_COVERAGE],
    )
    def test_reachable(self, module_name, func_name, argv, capsys, monkeypatch):
        import importlib

        module = importlib.import_module(module_name)
        original = getattr(module, func_name)
        calls = []

        def spy(*args, **kwargs):
            calls.append(True)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, func_name, spy)
        code = cli.run(argv)
        capsys.readouterr()
        assert code == 0
        assert calls, f"{module_name}.{func_name} never invoked by {argv}"


OCTAHEDRON_JSON = json.dumps({
    "dim": 3,
    "vertices": [[s if j == i else 0 for j in range(3)] for i in range(3) for s in (1, -1)],
})
# stdout of pn-height --n 140, the largest n whose report is finite, fixed
# before n was range-checked ahead of the harmonic sum
PN_HEIGHT_140_OUT = """{
  "a_n": 121.851926076,
  "abs_error": 1.00636618536e+291,
  "convention": "raw_height",
  "formula": "pn_fubini_study",
  "n": 140,
  "value": 1.3357564586e+305
}
"""


class TestInputPaths:
    def test_input_file(self, tmp_path, capsys):
        path = tmp_path / "p3.json"
        path.write_text(P3_JSON, encoding="utf-8")
        from_file = run_cli(["volume", "--input", str(path)], capsys)
        assert from_file == run_cli(["volume", "--json", P3_JSON], capsys)
        assert from_file[0] == 0

    def test_missing_input_file(self, tmp_path, capsys):
        code, out, err = run_cli(["volume", "--input", str(tmp_path / "absent.json")], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("fanokit: input error: cannot read ")

    # json.loads raises a plain ValueError, not a JSONDecodeError, for an
    # integer literal beyond Python's 4,300-digit conversion limit
    @pytest.mark.parametrize("command, text", [
        ("diagonal", '{"n": 1, "d": 2, "a": [1, 1, %s]}' % ("1" * 5000)),
        ("volume", '{"dim": 1, "vertices": [[0], [%s]]}' % ("1" * 5000)),
    ], ids=["diagonal", "volume"])
    def test_integer_beyond_the_digit_limit_refused(self, command, text, tmp_path, capsys):
        path = tmp_path / "big.json"
        path.write_text(text, encoding="utf-8")
        for argv in ([command, "--json", text], [command, "--input", str(path)]):
            code, out, err = run_cli(argv, capsys)
            assert (code, out) == (1, "")
            assert err.startswith("fanokit: input error: malformed JSON: Exceeds the limit")

    @pytest.mark.parametrize("argv, message", [
        (["volume", "--input", "p3.json", "--json", P3_JSON], "use --input or --json, not both"),
        (["volume", "--json", "", "--input", "p3.json"], "use --input or --json, not both"),
        (["volume", "--json", ""], "missing input: give --input, --json or --preset"),
        (["volume", "--json", "[1, 2]"], "top-level JSON must be an object"),
        (["volume", "--preset", "p3", "--json", P3_JSON], "give either --preset or an input"),
        (["sx", "--preset", "p3-blowup", "--json", P3_JSON], "give either --preset or an input"),
        (["sx", "--preset", "p3-blowup", "--json", '{"batch": [1, 2]}'],
         "each batch item must be an object"),
        (["volume", "--json", '{"batch": {"dim": 1}}'], "'batch' must be a list"),
        (["semistable", "--json", '{"batch": [5]}'], "each batch item must be an object"),
        (["p1-zeta-height", "--json", '{"batch": [5]}'], "each batch item must be an object"),
        (["diagonal", "--json", '{"batch": [5]}'], "each batch item must be an object"),
        (["p1-zeta-height", "--json", '{"batch": ["weights"]}'],
         "each batch item must be an object"),
        (["diagonal", "--json", '{"batch": ["weights"]}'], "each batch item must be an object"),
        (["pn-height", "--n", "1", "--json", '{"batch": [1]}'],
         "each batch item must be an object"),
        (["volume", "--json", '{"batch": [' + P3_JSON + ', 5]}'],
         "each batch item must be an object"),
        (["sx"], "missing input: give --input, --json or --preset"),
        (["arrangement-bound"], "weights JSON needs 'n' and a 'weights' list"),
        (["diagonal"], "diagonal needs JSON"),
        (["p1-zeta-height"], "p1-zeta-height needs JSON"),
    ], ids=["input-and-json", "empty-json-and-input", "empty-json", "top-level-array", "preset-and-input", "sx-preset-and-input",
            "sx-preset-and-batch", "batch-not-list", "semistable-batch-number", "p1-zeta-height-batch-number",
            "diagonal-batch-number", "p1-zeta-height-batch-string", "diagonal-batch-string",
            "pn-height-batch-number", "batch-object-then-number", "sx-no-input", "arrangement-bound-no-input",
            "diagonal-no-input", "p1-zeta-height-no-input"])
    def test_refused(self, argv, message, capsys):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, "")
        assert err.startswith("fanokit: input error: " + message)

    def test_gap_check_non_simple_vertices(self, capsys):
        # four facets of the octahedron meet at each of its six vertices
        code, out, _ = run_cli(["gap-check", "--json", OCTAHEDRON_JSON], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["vertex_dets"] == [None] * 6
        assert payload["all_vertices_simple"] is False
        assert payload["singular"] is True

    @pytest.mark.parametrize("argv, message", [
        (["volume", "--json", '{"dim": 2, "vertices": [[0, 0], [1, 0], [0, 1, 1]]}'],
         "point has length 3, not the dimension 2"),
        (["volume", "--json", '{"dim": 2, "facets": [{"normal": [1, 0, 0], "offset": 1}]}'],
         "facet normal has length 3, not the dimension 2"),
        (["volume", "--json", '{"dim": 0, "vertices": []}'],
         "dimension must be a positive integer, got 0"),
        (["volume", "--preset", "p3", "--cut-normal", "1,1", "--cut-offset", "0"],
         "facet normal has length 2, not the dimension 3"),
        (["volume", "--json", '{"dim": 2, "facets": [{"normal": [0, 0], "offset": 1}]}'],
         "normal vector must be nonzero"),
        (["diagonal", "--json", '{"n": 2, "d": 3, "a": [1.5, 1, 1, 8]}'],
         "n, d and the coefficients must be integers"),
        (["semistable", "--json", '{"n": 1.5, "weights": ["1/2"]}'],
         "n must be a positive integer"),
        (["semistable", "--json", '{"n": 1, "weights": []}'], "need at least one hyperplane"),
    ], ids=["vertex-length", "normal-length", "dim-zero", "cut-normal-length", "normal-zero",
            "diagonal-a-float", "weights-n-float", "weights-empty"])
    def test_checked_by_the_value(self, argv, message, capsys):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, "")
        assert err == f"fanokit: input error: {message}\n"


BIG = 10**200
DIAGONAL_JSON = json.dumps({"n": 2, "d": 3, "a": [1, 1, 1, 8]})


def _facets_json(dim, facets):
    return json.dumps({"dim": dim, "facets": [{"normal": l, "offset": str(a)} for l, a in facets]})


def _triangle_json(top):
    """x >= -1, y >= -1, x + y <= top."""
    return _facets_json(2, [([1, 0], 1), ([0, 1], 1), ([-1, -1], top)])


class TestFormerFailures:
    """Valid input that exited 2, input errors that exited 2, and refusals
    that took over 30 s."""

    def test_stability_polytope_irrational_level(self, capsys):
        code, out, err = run_cli(
            ["stability-polytope", "--n", "37", "--m", "38", "--degree", "3"], capsys)
        assert (code, err) == (0, "")
        assert json.loads(out)["c_exact"] is False

    @pytest.mark.parametrize("vertices", [
        [[1, 1], [1, 2], [2, 1], [2, 2]],
        [[0, 0], [1, 0], [0, 1]],
    ], ids=["square-off-origin", "origin-at-vertex"])
    def test_sx_needs_the_origin_inside(self, vertices, capsys):
        data = json.dumps({"dim": 2, "vertices": vertices})
        code, out, err = run_cli(["sx", "--json", data], capsys)
        assert (code, out) == (1, "")
        assert "origin must be interior" in err

    @pytest.mark.parametrize("argv", [
        ["pn-height", "--n", "200000"],
        ["scaled-height", "--n", "200000", "--t", "1"],
        # refused before the exact n! and (n+1)!, which take seconds at n = 10^6
        ["universal-bound", "--n", "1000000", "--volume", "1"],
        ["universal-bound", "--n", str(10**400), "--volume", "1"],
    ])
    def test_large_n_refused_fast(self, argv, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(argv, capsys)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert err == "fanokit: input error: result exceeds the double-precision range\n"

    def test_zero_volume_at_large_n_refused_fast(self, capsys):
        # refused before n!, which took about 12 s at n = 10^6
        start = time.perf_counter()
        result = run_cli(["universal-bound", "--n", "1000000", "--volume", "0"], capsys)
        assert time.perf_counter() - start < 1.0
        assert result == (1, "", "fanokit: input error: anticanonical volume must be positive\n")

    def test_pn_height_range_edge_unchanged(self, capsys):
        assert run_cli(["pn-height", "--n", "140"], capsys) == (0, PN_HEIGHT_140_OUT, "")
        assert run_cli(["pn-height", "--n", "143"], capsys)[0] == 1

    @pytest.mark.parametrize("argv", [["pn-height", "--n", "141"],
                                      ["scaled-height", "--n", "141", "--t", "1"]])
    def test_error_bound_of_n_141_is_finite(self, argv, capsys):
        # the bound was Infinity: lead * (...) overflowed before the ulp scaling
        code, out, err = run_cli(argv, capsys)
        assert (code, err) == (0, "")
        report = json.loads(out, parse_constant=pytest.fail)
        assert report["abs_error"] < 1e-14 * report["value"]

    @pytest.mark.parametrize("argv", [
        ["pn-height", "--n", "142"],
        ["scaled-height", "--n", "142", "--t", "1"],
        # semistable, so S(X) is the degree: 2 * (2 * 10^200)^2
        ["sx", "--json", _facets_json(2, [([1, 0], BIG), ([-1, 0], BIG),
                                          ([0, 1], BIG), ([0, -1], BIG)])],
        # the cut weight is about 10^320
        ["sx", "--json", _triangle_json(10**320)],
        # the correction is -1.08e308, and the Fermat delta doubles it
        ["diagonal", "--json", json.dumps({"n": 141, "d": 2, "a": [10**300] * 143})],
    ])
    def test_heights_beyond_the_double_range_refused(self, argv, capsys):
        assert run_cli(argv, capsys) == (
            1, "", "fanokit: input error: result exceeds the double-precision range\n")

    def test_sx_cut_level_beyond_the_double_range_refused_fast(self, capsys):
        # cmax has 3,195 bits: the bisection would take about 3,244 steps
        cloud = json.dumps({"dim": 3, "vertices": [
            [0, 1, 2], [1, 0, 1], [2, "-3/2", 0], [0, -1, str(-10**320)], [-3, -1, str(BIG)]]})
        start = time.perf_counter()
        result = run_cli(["sx", "--json", cloud], capsys)
        assert time.perf_counter() - start < 1.0
        assert result == (1, "", "fanokit: input error: result exceeds the double-precision range\n")

    def test_sx_large_cut_weight_unchanged(self, capsys):
        assert run_cli(["sx", "--json", _triangle_json(10**160)], capsys) == (0, """{
  "certified": true,
  "n_factorial_S": 9.0,
  "residual": 1.01503221373e-16,
  "w": 1e+160
}
""", "")

    @pytest.mark.parametrize("det_t, message", [("nan", "positive"), ("inf", "finite"),
                                                ("0", "positive")])
    def test_diagonal_det_t_outside_the_positive_doubles_refused(self, det_t, message, capsys):
        argv = ["diagonal", "--json", DIAGONAL_JSON, "--det-t", det_t]
        assert run_cli(argv, capsys) == (1, "", f"fanokit: input error: |det T| must be {message}\n")

    def test_nine_cube_volume_refused_fast(self, capsys):
        # the pulling triangulation of the 9-cube has 9! simplices
        facets = [{"normal": [s * (j == i) for j in range(9)], "offset": "1"}
                  for i in range(9) for s in (1, -1)]
        start = time.perf_counter()
        code, out, err = run_cli(["volume", "--json", json.dumps({"dim": 9, "facets": facets})],
                                 capsys)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert err == ("fanokit: input error: the volume triangulation has 362880 simplices, "
                       "more than the 100000 this computation sums\n")

    def test_moment_curve_cloud_refused_fast(self, capsys):
        # the double description of 40 moment-curve points in dimension 6 outgrows its budget
        cloud = [[t ** k for k in range(1, 7)] for t in range(1, 41)]
        start = time.perf_counter()
        code, out, err = run_cli(["volume", "--json", json.dumps({"dim": 6, "vertices": cloud})],
                                 capsys)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert err.startswith("fanokit: input error: the double description holds ")
        assert err.endswith(" past its budget of 5000 rays or 10000000 tests\n")

    def test_stability_polytope_level_that_rounds_to_one(self, capsys):
        # C = 3 - d^(1/2) rounds to 3.0, so the float level is 1: a numerical
        # failure of the irrational branch, not an input error
        code, out, err = run_cli(["stability-polytope", "--n", "2", "--m", "3",
                                  "--degree", "2/1" + "0" * 50], capsys)
        assert (code, out) == (2, "")
        assert err == f"fanokit: numerical failure: vertex (0, 1, 2) misses degree 1/{5 * 10**49}\n"

    def test_unattainable_precision_refused_fast(self, capsys):
        # the direct sum doubled up to 2^20 terms first: 16-20 s at 1e-100
        start = time.perf_counter()
        code, out, err = run_cli(["p1-zeta-height", "--json", '{"weights": ["1/3", "1/4", "1/5"]}',
                                  "--precision", "1e-100"], capsys)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err == "fanokit: numerical failure: Euler-Maclaurin tail bound above target\n"

    @pytest.mark.parametrize("n", [10**6, 10**20])
    def test_stability_polytope_large_n_fast(self, n, capsys):
        # the range check formed (n+1)^n, 6.9 s at n = 10^6; the n-th root test
        # formed 2^(n-1), which never ended at n = 10^20
        start = time.perf_counter()
        code, out, err = run_cli(["stability-polytope", "--n", str(n), "--m", "5",
                                  "--degree", "2"], capsys)
        assert time.perf_counter() - start < 1.0
        assert (code, err) == (0, "")
        assert json.loads(out)["vertex_count"] == 0

    def test_stability_polytope_n_beyond_doubles_refused(self, capsys):
        # the float level divided by n: an OverflowError traceback
        result = run_cli(["stability-polytope", "--n", str(10**400), "--m", "5",
                          "--degree", "2"], capsys)
        assert result == (1, "", "fanokit: input error: result exceeds the double-precision range\n")

    def test_stability_polytope_tiny_degree_unchanged(self, capsys):
        code, out, err = run_cli(["stability-polytope", "--n", "2", "--m", "3",
                                  "--degree", "2/1" + "0" * 18], capsys)
        assert (code, err) == (0, "")
        weight = "9007199250494957/9007199254740992"
        assert json.loads(out) == {"c": 2.99999999859, "c_exact": False,
                                   "degree": "1/500000000000000000", "m": 3, "n": 2,
                                   "vertex_count": 1, "vertices": [[weight] * 3]}
