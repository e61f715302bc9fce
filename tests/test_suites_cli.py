import json

import pytest

from chernpatch import cli, liecore, suites


SMALL = {
    "partition": {"samples": 200},
    "vanishing": {"samples": 256},
    "patch": {"samples": 5},
    "nilpotent": {"samples": 20},
    "springer": {"samples": 8},
    "classify": {"samples": 10},
    "bridge": {"samples": 4},
    "pifiber": {"samples": 3},
    "extension": {"samples": 10},
    "patched": {"samples": 6},
    "quadrature": {"samples": 120},
    "schubert": {},
}


@pytest.mark.parametrize("name", sorted(suites.SUITES))
def test_suite_passes_at_small_size(name):
    rpt = suites.run_suite(name, seed=1, **SMALL[name])
    assert rpt["pass"], rpt
    assert rpt["schema"] == suites.SCHEMA
    assert all("max_residual" in c for c in rpt["checks"])


def test_corrupt_springer_fails():
    rpt = suites.run_suite("springer", seed=1, samples=8, corrupt=True)
    assert not rpt["pass"]


def test_reports_are_deterministic():
    a = suites.run_suite("patch", seed=7, samples=4)
    b = suites.run_suite("patch", seed=7, samples=4)
    assert suites.render_report(a) == suites.render_report(b)


def test_report_is_valid_json():
    rpt = suites.run_suite("schubert")
    assert json.loads(suites.render_report(rpt)) == rpt


def test_cli_dual(capsys):
    code = cli.main(["dual", "--space", "p:1", "--bundle", "tangent",
                     "--monomial", "c1"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value"] == 2


def test_cli_dual_gr24(capsys):
    code = cli.main(["dual", "--space", "gr:2,4", "--bundle", "tangent",
                     "--monomial", "c1^4"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["value"] == 512


def test_cli_verify_pass(capsys):
    code = cli.main(["verify", "partition", "--samples", "100"])
    assert code == 0
    rpt = json.loads(capsys.readouterr().out)
    assert rpt["pass"]


def test_cli_verify_corrupt_fails(capsys):
    code = cli.main(["verify", "springer", "--samples", "6", "--corrupt"])
    assert code == 1
    assert not json.loads(capsys.readouterr().out)["pass"]


def test_cli_unknown_suite(capsys):
    assert cli.main(["verify", "nonsense"]) == 2


def test_cli_bad_monomial_degree(capsys):
    # degree does not match the dimension of the space
    assert cli.main(["dual", "--space", "p:2", "--bundle", "tangent",
                     "--monomial", "c1"]) == 2


def test_cli_curvature(capsys):
    code = cli.main(["curvature", "--group", "su11", "--rep", "weight:2"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    val = out["curvature"][0]["value"]
    assert abs(val[0][0][0]) < 1e-12 and abs(val[0][0][1] - 2.0) < 1e-12


def test_cli_chern_check(capsys):
    code = cli.main(["chern", "--check", "quadrature"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["pass"]


def test_cli_chern_has_no_model_option(tmp_path, capsys):
    # the geometric checks run on the built-in rank-2 model only
    path = tmp_path / "model.json"
    path.write_text("{}")
    assert cli.main(["chern", "--check", "quadrature", "--samples", "16",
                     "--model", str(path)]) == 2


def test_cli_verify_model_unread_is_an_error(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({
        "strata": [{"name": "Z", "dimC": 0}, {"name": "Y", "dimC": 1}],
        "flags": [["Z", "Y"]]}))
    assert cli.main(["verify", "schubert", "--model", str(path)]) == 2
    assert "--model" in capsys.readouterr().err


def test_cli_verify_corrupt_unread_is_an_error(capsys):
    assert cli.main(["verify", "partition", "--samples", "10",
                     "--corrupt"]) == 2
    assert "--corrupt" in capsys.readouterr().err


def test_spec_from_dict_unitary_family():
    spec = suites.spec_from_dict({"family": "u", "n": 2})
    assert spec == liecore.u_n(2)


def test_spec_from_dict_rejects_other_scalar(capsys):
    assert cli.main(["curvature", "--group",
                     '{"family": "sp2nR", "n": 2, "scalar": "f32"}',
                     "--rep", "std"]) == 2
    assert "f32" in capsys.readouterr().err


def test_model_from_dict_rejects_unknown_profile(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({
        "strata": [{"name": "Z", "dimC": 0}, {"name": "Y", "dimC": 1}],
        "flags": [["Z", "Y"]], "profile": "gauss"}))
    assert cli.main(["verify", "partition", "--model", str(path)]) == 2
    assert "gauss" in capsys.readouterr().err
