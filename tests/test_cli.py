import json
import math
import subprocess
import sys

import pytest

from hccycles import diagrams as dg
from hccycles.claims import SUITES
from hccycles.cli import main

RUN = [sys.executable, "-m", "hccycles.cli"]


def run_cli(args, **kw):
    return subprocess.run(RUN + args, capture_output=True, text=True, **kw)


def test_diagrams_poincare():
    out = run_cli(["diagrams", "poincare", "3"])
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["sum"] == [1, 2, 2, 1]
    assert doc["product"] == [1, 2, 2, 1]
    assert doc["equal"] is True


def test_diagrams_enumerate():
    out = run_cli(["diagrams", "enumerate", "2"])
    doc = json.loads(out.stdout)
    assert doc["count"] == 2
    assert sorted(r["length"] for r in doc["diagrams"]) == [0, 1]


def test_diagrams_order_count_geq():
    out = run_cli(["diagrams", "order", "4", "--count-geq", "w0"])
    doc = json.loads(out.stdout)
    assert doc["count_geq_query"]["count"] == 1
    out = run_cli(["diagrams", "order", "3", "--count-geq", "id"])
    assert json.loads(out.stdout)["count_geq_query"]["count"] == 6


def test_diagrams_bound():
    out = run_cli(["diagrams", "enumerate", "12"])
    assert out.returncode == 2
    assert "exceeds" in out.stderr


def test_series_roundtrip():
    out = run_cli(["series", "--n", "1", "--k", "3/2", "--lambda", "3/10,-3/10", "--depth", "4", "--w", "id"])
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    sol = doc["solutions"][0]
    assert sol["residual"] == "0"
    entries = {tuple(e["offset"]): e["value"] for e in sol["table"]["entries"]}
    assert entries[(0,)] == "1"
    assert entries[(1,)] == "63/32"


def test_series_depth0():
    out = run_cli(["series", "--depth", "0", "--w", "id"])
    doc = json.loads(out.stdout)
    assert len(doc["solutions"][0]["table"]["entries"]) == 1


def test_series_resonance_error():
    out = run_cli(["series", "--lambda", "0,0", "--w", "id"])
    assert out.returncode == 1
    assert "resonant" in json.loads(out.stdout)["error"]


def test_series_float_warning():
    out = run_cli(["series", "--lambda", "0.3,-0.3", "--depth", "1", "--w", "id"])
    assert out.returncode == 0
    assert "warning" in out.stderr
    assert json.loads(out.stdout)["lambda"] == ["3/10", "-3/10"]


def test_integrate_default_deviation():
    out = run_cli(["integrate", "--points", "81", "--w", "id"])
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert set(doc) == {"n", "k", "lambda", "z", "spec", "results"}
    assert doc["spec"]["points_per_axis"] == 81
    rec = doc["results"][0]
    assert rec["w"] == [1, 2]
    assert isinstance(rec["integral"]["re"], float) and isinstance(rec["integral"]["im"], float)
    assert rec["relative_deviation"] < 1e-3
    assert rec["convergence"]["relative_change"] < 1e-8


def test_integrate_k1_check():
    out = run_cli(["integrate", "--k", "1", "--points", "81", "--w", "all", "--z-ratio", "0.01"])
    doc = json.loads(out.stdout)
    assert all(r["k=1 closed-form check"] == "pass" for r in doc["results"])


def test_integrate_divergent_coupling(capsys):
    # k <= 0: the integral diverges, reported as an error record with exit 1
    assert main(["integrate", "--k", "0", "--w", "id", "--points", "33"]) == 1
    assert json.loads(capsys.readouterr().out) == {"error": "the cycle integral diverges at k = 0: it needs k > 0"}


def test_integrate_has_one_rule():
    # tanh-sinh is the one rule: there is no option to choose another
    with pytest.raises(SystemExit) as exc:
        main(["integrate", "--scheme", "tanh-sinh"])
    assert exc.value.code == 2


def test_integrate_bad_lambda():
    out = run_cli(["integrate", "--lambda", "1,1"])
    assert out.returncode == 2


def test_integrate_csv(tmp_path):
    csv = tmp_path / "trace.csv"
    out = run_cli(["integrate", "--points", "61", "--w", "id", "--z-ratio", "0.01", "--csv-out", str(csv), "--csv-steps", "3"])
    assert out.returncode == 0
    lines = csv.read_text().strip().splitlines()
    assert lines[0].startswith("w,r,")
    assert len(lines) == 4


@pytest.mark.parametrize("csv, calls", [(False, 3), (True, 6)])
def test_integrate_integrates_each_z_once(monkeypatch, tmp_path, capsys, csv, calls):
    # Per w: the grid P and the grid 2P-1 at z(r), then z(r/2) for the
    # Richardson estimate; the CSV rows at r, r/2, ..., r/16 reuse those.
    # Every integral goes through `_integrate`, one call per rule, so each
    # (z, rule) it is given counts once.
    from hccycles import cycles as cy

    seen = []
    real = cy._integrate

    def counting(cycles, sp, quad):
        seen.extend((c.z, quad.points_per_axis) for c in cycles)
        return real(cycles, sp, quad)

    monkeypatch.setattr(cy, "_integrate", counting)
    argv = ["integrate", "--points", "33", "--w", "id"]
    if csv:
        argv += ["--csv-out", str(tmp_path / "trace.csv"), "--csv-steps", "5"]
    assert main(argv) == 0
    assert len(seen) == calls
    assert len(set(seen)) == calls
    assert sum(points == 65 for _, points in seen) == 1
    assert "leading_coefficient_estimate" in json.loads(capsys.readouterr().out)["results"][0]


def test_integrate_keeps_results_when_a_w_overflows(capsys):
    # a(w) needs Gamma(181.2), past the float range, but every integral is
    # finite: the overflow is recorded in a_w, as a pole is, and the run
    # goes on instead of dropping every result.  The Richardson estimate
    # needs the integrals at r and r/2 alone, not a(w): it is recorded with
    # the bits of `leading_coeff_estimate`, and only the deviation from a(w)
    # is left out
    from fractions import Fraction as Q

    from hccycles import cycles as cy
    from hccycles import rootsystem as rs
    from hccycles.series import SpectralParam

    assert main(["integrate", "--n", "1", "--lambda", "901/10,-901/10"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert [rec["w"] for rec in results] == [[1, 2], [2, 1]]
    sp = SpectralParam(rs.vec([Q(901, 10), Q(-901, 10)]), Q(3, 2))
    quad = cy.QuadratureSpec(points_per_axis=121)
    for rec in results:
        assert rec["a_w"] == {"error": "math range error"}
        assert all(math.isfinite(rec[key][part]) for key in ("integral", "ratio_to_leading_power") for part in ("re", "im"))
        est = cy.leading_coeff_estimate(dg.Permutation(tuple(rec["w"])), sp, 1e-3, quad)
        assert rec["leading_coefficient_estimate"] == {"re": est.real, "im": est.imag}
        assert "relative_deviation" not in rec


def test_verify_determinism_and_exit():
    a = run_cli(["verify", "combinatorics", "--seed", "42"])
    b = run_cli(["verify", "combinatorics", "--seed", "42"])
    assert a.returncode == 0
    assert a.stdout == b.stdout
    doc = json.loads(a.stdout)
    assert doc["passed"] is True
    assert len(doc["checks"]) == 12


def test_verify_identities():
    out = run_cli(["verify", "identities", "--seed", "7"])
    assert out.returncode == 0
    tags = [c["tag"] for c in json.loads(out.stdout)["checks"]]
    assert "Lemma 6.4 twisted Euler identity" in tags
    assert "Thm 6.8 unit-argument limit" in tags


def test_verify_all_tag_census():
    census = {suite: [tag for tag, _ in checks] for suite, checks in SUITES.items()}
    assert list(census) == ["combinatorics", "series", "integrals", "identities"]
    assert census == {
        "combinatorics": [
            "Def 1.1 / Rem 1.2 diagrams",
            "Prop 2.2 bijection",
            "Rem 2.3 top-row mark",
            "Rem 2.4 component rule",
            "Def 2.5 / Thm 2.6 length",
            "Rem 2.7 left arrows",
            "Thm 2.8 Poincare identity",
            "Thm 2.9 multiparametric identity",
            "Thm 2.10 reduced words",
            "Def 2.12 / Prop 2.13 order counts",
            "Thm 3.1 GZ patterns",
            "Sec 6.2 induction mechanism",
        ],
        "series": [
            "Sec 0.2 root data",
            "Sec 0.4 Harish-Chandra image of L",
            "Thm 0.9(1-2) commuting symbols",
            "Thm 0.9(3) pairwise commutation",
            "Sec 0.14 Freudenthal recurrence",
        ],
        "integrals": [
            "Def 4.1 bump",
            "Def 4.3 / Rem 4.4 cycles",
            "Def 5.1 / 5.2 / Rem 5.3 phases",
            "Sec 0.15 algebraic integral form",
            "Thm 6.1 leading coefficient",
            "Thm 6.3 differential equation",
        ],
        "identities": [
            "Lemma 6.4 twisted Euler identity",
            "Lemma 6.5 Vandermonde identity",
            "Lemma 6.5 summation identity",
            "Thm 6.7 Opdam value",
            "Thm 6.8 unit-argument limit",
        ],
    }


def test_usage_error_exit_code():
    out = run_cli(["nonsense"])
    assert out.returncode == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["integrate", "--w", "1,x"],
        ["diagrams", "order", "3", "--count-geq", "1,2"],
        ["integrate", "--w", "1,2,3"],
        ["series", "--n", "0", "--lambda", "0"],
        ["integrate", "--points", "5"],
        ["integrate", "--epsilon", "0.3"],
        ["series", "--depth", "-1"],
        ["diagrams", "enumerate", "-1"],
        ["diagrams", "poincare", "0"],
        ["integrate", "--csv-steps", "-2", "--csv-out", "f.csv"],
        ["integrate", "--csv-steps", "0"],
        ["integrate", "--z-ratio", "nan"],
        ["integrate", "--z-ratio", "2"],
        ["integrate", "--scale", "0"],
        ["integrate", "--z-ratio", "0.9"],
        ["diagrams", "order", "7", "--count-geq", "1,x"],
        ["diagrams", "poincare", "3", "--count-geq", "w0"],
        ["diagrams", "order", "3", "--count-geq", "all"],
    ],
)
def test_bad_input_is_usage_error(argv, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    calls = []
    monkeypatch.setattr(dg, "_order_values", calls.append)
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("usage error:")
    assert not any(tmp_path.iterdir())
    assert not calls  # rejected before any enumeration


@pytest.mark.parametrize(
    "two_token, joined",
    [
        (["series", "--n", "2", "--lambda", "-1,1/3,2/3", "--k", "1/2"],
         ["series", "--n", "2", "--lambda=-1,1/3,2/3", "--k", "1/2"]),
        (["series", "--n", "1", "--lambda", "3/10,-3/10", "--k", "-1/2"],
         ["series", "--n", "1", "--lambda", "3/10,-3/10", "--k=-1/2"]),
    ],
)
def test_negative_values_in_two_token_form(two_token, joined, capsys):
    rc = main(two_token)
    out = capsys.readouterr().out
    assert rc != 2 and out
    assert main(joined) == rc
    assert capsys.readouterr().out == out


def test_main_entry_inprocess(capsys):
    rc = main(["diagrams", "poincare", "2"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["sum"] == [1, 1]


def test_exact_layers_import_without_numpy():
    # numpy loads with `cycles` only, on first use: not for the exact layers,
    # nor for the parser; every public name still resolves
    code = (
        "import sys\n"
        "import hccycles.diagrams, hccycles.series, hccycles.polynomial, hccycles.cli\n"
        "hccycles.cli.build_parser()\n"
        "assert 'numpy' not in sys.modules, 'numpy loaded'\n"
        "import hccycles\n"
        "missing = [name for name in hccycles.__all__ if getattr(hccycles, name, None) is None]\n"
        "assert not missing, missing\n"
        "assert 'numpy' in sys.modules and hccycles.integrate is hccycles.cycles.integrate\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True)


def test_parser_names_every_verify_suite():
    from hccycles import cli

    assert cli.VERIFY_SUITES == tuple(SUITES)
