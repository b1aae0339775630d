import json

import pytest

from algcalc.cli import dump_report, load_config, main
from algcalc.errors import ConfigError

from conftest import fixture_path


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_flat_metrizability_passes(capsys):
    code, out, _ = run_cli(capsys, "metrizability", fixture_path("flat.json"))
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    for check in payload["residuals"].values():
        assert check["max"] == 0.0


def test_check_structure_on_frame_fixture(capsys):
    code, out, _ = run_cli(capsys, "check-structure",
                           fixture_path("frame_exp.json"))
    assert code == 0
    payload = json.loads(out)
    assert set(payload["residuals"]) == {"antisymmetry",
                                         "anchor_compatibility", "jacobi"}
    assert payload["residuals"]["jacobi"]["argmax"] is not None


def test_connection_probe_table(capsys):
    code, out, _ = run_cli(capsys, "connection", "canonical",
                           fixture_path("poincare.json"))
    assert code == 0
    payload = json.loads(out)
    table = payload["metadata"]["blocks"]["hh"]["probes"][0]["values"]
    assert table[0][0][1] == pytest.approx(-1.0, abs=1e-10)
    assert table[1][0][0] == pytest.approx(1.0, abs=1e-10)
    assert table[1][1][1] == pytest.approx(-1.0, abs=1e-10)


def test_levi_civita_connection_command(capsys):
    code, out, _ = run_cli(capsys, "connection", "levi-civita",
                           fixture_path("so3.json"))
    assert code == 0
    payload = json.loads(out)
    assert set(payload["metadata"]["blocks"]) == {"h", "v"}


def test_finsler_check_command(capsys):
    code, out, _ = run_cli(capsys, "finsler-check",
                           fixture_path("randers.json"))
    assert code == 0
    payload = json.loads(out)
    assert payload["residuals"]["homogeneity"]["pass"] is True


def test_transform_check_command(capsys):
    code, out, _ = run_cli(capsys, "transform-check",
                           fixture_path("transform.json"))
    assert code == 0
    payload = json.loads(out)
    assert payload["residuals"]["gamma_round_trip"]["max"] < 1e-10
    assert payload["residuals"]["dconnection_round_trip"]["max"] < 1e-10


def test_degenerate_lagrangian_is_config_failure(capsys):
    code, _, err = run_cli(capsys, "metrizability",
                           fixture_path("degenerate.json"))
    assert code == 2
    assert "error" in err


def test_missing_file_is_config_failure(capsys):
    code, _, err = run_cli(capsys, "metrizability", "/no/such/file.json")
    assert code == 2


def test_tol_override_can_fail_a_check(capsys):
    # round-trip residuals are roundoff-level, so an absurd tolerance flips
    # the exit code without touching the computation
    code, out, _ = run_cli(capsys, "transform-check",
                           fixture_path("transform.json"), "--tol", "1e-30")
    assert code == 1
    assert json.loads(out)["pass"] is False


def test_output_file_and_probe_flag(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "connection", "canonical",
                           fixture_path("flat.json"),
                           "--probe", "0,0,1,1", "-o", str(target))
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["metadata"]["blocks"]["hh"]["probes"]
    # a negative first coordinate needs the --probe= form
    code, out, _ = run_cli(capsys, "connection", "canonical",
                           fixture_path("flat.json"), "--probe=-0.5,0,1,1")
    assert code == 0
    probe = json.loads(out)["metadata"]["blocks"]["hh"]["probes"][0]
    assert probe["point"] == {"x": [-0.5, 0.0], "y": [1.0, 1.0]}


def test_report_byte_determinism(capsys):
    outputs = []
    for args in (("report", fixture_path("poincare.json")),
                 ("report", fixture_path("poincare.json")),
                 ("report", fixture_path("poincare.json"),
                  "--threads", "4")):
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1] == outputs[2]


def test_dump_samples_flag(capsys):
    code, out, _ = run_cli(capsys, "check-structure",
                           fixture_path("flat.json"), "--dump-samples")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["samples"]) == 25


def test_load_config_validations(tmp_path):
    base = {
        "schema_version": 1,
        "dims": {"m": 2, "p": 2, "r": 2},
        "anchor": "identity",
    }
    geometry = load_config(dict(base))
    assert geometry.m == 2 and geometry.metric is None

    bad = dict(base)
    bad["schema_version"] = 99
    with pytest.raises(ConfigError):
        load_config(bad)

    bad = dict(base)
    bad["anchor"] = [["x3", "0"], ["0", "1"]]
    with pytest.raises(ConfigError) as err:
        load_config(bad)
    assert "anchor[0][0]" in str(err.value)

    bad = dict(base)
    bad["metric"] = {"h": [["1", "0"], ["0", "1"]],
                     "v": [["1", "0"], ["0", "1"]]}
    bad["lagrangian"] = "y1^2"
    with pytest.raises(ConfigError) as err:
        load_config(bad)
    assert "not both" in str(err.value)


def test_dump_report_serialization():
    text = dump_report({"a": 1.0 / 3.0, "b": [True, None, 2]})
    assert "0.33333333333333331" in text
    assert json.loads(text) == {"a": 1.0 / 3.0, "b": [True, None, 2]}
    text = dump_report({"c": [float("nan"), float("inf"), -float("inf")]})
    assert json.loads(text) == {"c": ["NaN", "Infinity", "-Infinity"]}


def write_config(tmp_path, **entries):
    config = {"schema_version": 1, "dims": {"m": 1, "p": 1, "r": 1},
              "sampling": {"count": 3}}
    config.update(entries)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return str(path)


def test_non_finite_residual_fails_with_valid_json(capsys, tmp_path):
    # the entry is 1, but its x1-derivative is inf - inf = NaN on this box
    big = "exp(700)*exp(100*x1)"
    path = write_config(
        tmp_path, metric={"h": [[f"{big} - {big} + 1"]], "v": [["1"]]},
        sampling={"x_box": [[0.06, 0.09]], "count": 3})
    code, out, _ = run_cli(capsys, "metrizability", path)
    assert code == 1
    payload = json.loads(out)
    assert payload["pass"] is False
    check = payload["residuals"]["gh_h_deriv"]
    assert check["max"] == "NaN" and check["pass"] is False
    assert check["argmax"] is not None


def test_overflowing_expression_is_config_failure(capsys, tmp_path):
    path = write_config(tmp_path, dims={"m": 2, "p": 2, "r": 2},
                        finsler="sqrt(y1^2 + y2^2)*exp(1000)")
    code, out, err = run_cli(capsys, "finsler-check", path)
    assert code == 2 and out == ""
    assert "exp(1000.0) overflows" in err


def test_deeply_nested_expression_is_config_failure(capsys, tmp_path):
    deep = "(" * 2000 + "x1" + ")" * 2000
    path = write_config(tmp_path, metric={"h": [[deep]], "v": [["1"]]})
    code, out, err = run_cli(capsys, "metrizability", path)
    assert code == 2 and out == ""
    assert "metric.h[0][0]" in err and "nested deeper than" in err


@pytest.mark.parametrize("section, key, value, path", [
    ("sampling", "x_box", [[0, 1], 5], "sampling.x_box[1]"),
    ("sampling", "seed", [1], "sampling.seed"),
    ("sampling", "count", "abc", "sampling.count"),
    ("sampling", "y_box", [[0], [0]], "sampling.y_box[0]"),
    ("sampling", "fiber_floor", "x", "sampling.fiber_floor"),
    (None, "tolerances", {"default": "abc"}, "tolerances.default"),
    (None, "tolerances", {"structure": -1e-8}, "tolerances.structure"),
    (None, "probes", [[0, 0, "a", 1]], "probes[0][2]"),
])
def test_malformed_config_values_name_their_path(capsys, tmp_path, section,
                                                 key, value, path):
    with open(fixture_path("flat.json")) as handle:
        config = json.load(handle)
    (config[section] if section else config)[key] = value
    target = tmp_path / "config.json"
    target.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "metrizability", str(target))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {path} must")


def test_infinite_constant_structure_fails_with_valid_json(capsys, tmp_path):
    path = write_config(
        tmp_path, dims={"m": 1, "p": 2, "r": 1}, anchor=[[0, 0]],
        structure=[[[0, "1e308*10"], ["-1e308*10", 0]], [[0, 0], [0, 0]]])
    code, out, _ = run_cli(capsys, "check-structure", path)
    assert code == 1
    payload = json.loads(out)
    assert payload["pass"] is False
    assert payload["residuals"]["jacobi"]["pass"] is False
