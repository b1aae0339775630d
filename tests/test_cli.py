import argparse
import hashlib
import json
import math
import pathlib

import pytest

from algcalc import cli
from algcalc.cli import dump_report, load_config, main
from algcalc.errors import ConfigError

from conftest import count_calls, fixture_path


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
    # the --probe= form reads a negative first coordinate too
    code, out, _ = run_cli(capsys, "connection", "canonical",
                           fixture_path("flat.json"), "--probe=-0.5,0,1,1")
    assert code == 0
    probe = json.loads(out)["metadata"]["blocks"]["hh"]["probes"][0]
    assert probe["point"] == {"x": [-0.5, 0.0], "y": [1.0, 1.0]}


def test_probe_value_may_start_with_a_minus_sign(capsys):
    outputs = []
    for flags in (["--probe", "-0.5,0,1,1"], ["--probe=-0.5,0,1,1"]):
        code, out, err = run_cli(capsys, "connection", "canonical",
                                 fixture_path("flat.json"), *flags)
        assert code == 0 and err == ""
        outputs.append(out)
    assert outputs[0] == outputs[1]
    probe = json.loads(outputs[0])["metadata"]["blocks"]["hh"]["probes"][0]
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
    assert "at most one of metric, lagrangian, finsler" in str(err.value)


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
    ("sampling", "count", -1, "sampling.count"),
    ("sampling", "count", 0, "sampling.count"),
    (None, "metric", 0, "metric"),
    (None, "structure", {"frame": True}, "structure.frame"),
    (None, "torsions", 3, "torsions"),
    (None, "deform", 5, "deform"),
    (None, "frame_change", [1], "frame_change"),
    ("dims", "m", 2.5, "dims.m"),
    ("dims", "m", "2", "dims.m"),
    (None, "schema_version", True, "schema_version"),
    ("metric", "h_riemannian", "false", "metric.h_riemannian"),
    (None, "lagrangian", "", "config"),
    (None, "finsler", 0, "config"),
    ("dims", "m", -2, "dims.m"),
    ("dims", "r", 0, "dims.r"),
    ("sampling", "x_box", [[0, 1]] * 3, "sampling.x_box"),
    ("sampling", "y_box", [[-1, 1], [1, 0]], "sampling.y_box[1]"),
    ("metric", "h", [["1", 10 ** 400], ["0", "1"]], "metric.h[0][1]"),
    (None, "probes", [[0, 0, 0]], "probes[0]"),
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


@pytest.mark.parametrize("fixture, key, value", [
    ("randers.json", "lagrangian", "y1^2 + y2^2"),
    ("poincare.json", "lagrangian", ""),
    ("poincare.json", "finsler", None),
])
def test_at_most_one_metric_entry_is_read_by_presence(capsys, tmp_path,
                                                      fixture, key, value):
    with open(fixture_path(fixture)) as handle:
        config = json.load(handle)
    config[key] = value
    target = tmp_path / "config.json"
    target.write_text(json.dumps(config))
    for command in ("finsler-check", "metrizability"):
        code, out, err = run_cli(capsys, command, str(target))
        assert (code, out) == (2, "")
        assert err == "error: config must give at most one of metric, " \
            "lagrangian, finsler\n"


@pytest.mark.parametrize("section, key, value, message", [
    ("metric", "h", [["1", "0"], ["0", "1"]],
     "metric.h must be a list of length 12"),
    (None, "connection", 5,
     "connection must be 'zero' or give 'gamma' or 'ehresmann'"),
    ("sampling", "count", -1, "sampling.count must not be negative"),
    ("tolerances", "default", -1, "tolerances.default must not be negative"),
    (None, "probes", "x", "probes must be a list"),
    ("metric", "h_riemannian", "x", "metric.h_riemannian must be a boolean"),
    ("dims", "p", 11, "anchor 'identity' needs m == p"),
], ids=["metric.h", "connection", "sampling.count", "tolerances.default",
        "probes", "metric.h_riemannian", "anchor"])
def test_grid_shapes_are_checked_before_any_field_is_built(
        capsys, tmp_path, monkeypatch, section, key, value, message):
    from algcalc.jets import ScalarField
    built = []
    init = ScalarField.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ScalarField, "__init__", counted)
    with open(fixture_path("flat.json")) as handle:
        config = json.load(handle)
    n = 12
    eye = [["1" if i == j else "0" for j in range(n)] for i in range(n)]
    config["dims"] = {"m": n, "p": n, "r": n}
    config["structure"] = [[[f"x1*{g} + x2*{a} - x3*{b}" for b in range(n)]
                            for a in range(n)] for g in range(n)]
    config["metric"].update(h=eye, v=eye)
    config["sampling"] = {"count": 25, "seed": 11}
    (config.setdefault(section, {}) if section else config)[key] = value
    target = tmp_path / "config.json"
    target.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "check-structure", str(target))
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"
    assert built == []


DELETE = object()


@pytest.mark.parametrize("fixture, path, value, message", [
    ("flat.json", ("dims",), DELETE, "missing 'dims' in config"),
    ("flat.json", ("dims", "m"), DELETE, "missing 'm' in dims"),
    ("frame_exp.json", ("dims", "p"), 3, "a frame structure needs m == p"),
    ("frame_exp.json", ("structure", "frame", "theta", 1, 1), "exp(x1*y1)",
     "bad frame structure: theta must depend on base coordinates only"),
    ("flat.json", ("structure",),
     [[["0", "y1"], ["0", "0"]], [["0", "0"], ["0", "0"]]],
     "bad structure data: L must depend on base coordinates only"),
    ("flat.json", ("metric", "h", 0, 0), "1 + y1^2",
     "bad metric data: gh flagged Riemannian must depend on base "
     "coordinates only"),
], ids=["dims", "dims.m", "frame", "theta", "structure", "metric"])
def test_config_faults_exit_2_with_their_message(capsys, tmp_path, fixture,
                                                 path, value, message):
    with open(fixture_path(fixture)) as handle:
        config = json.load(handle)
    *keys, last = path
    section = config
    for key in keys:
        section = section[key]
    if value is DELETE:
        del section[last]
    else:
        section[last] = value
    target = tmp_path / "config.json"
    target.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "metrizability", str(target))
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("text, message", [
    ("{", "config is not valid JSON: Expecting property name"),
    ("[1]", "config must be a JSON object"),
])
def test_config_text_that_is_no_json_object_exits_2(capsys, tmp_path, text,
                                                    message):
    target = tmp_path / "config.json"
    target.write_text(text)
    code, out, err = run_cli(capsys, "metrizability", str(target))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}")


def test_ehresmann_coefficients_under_the_identity_anchor_are_gamma(
        capsys, tmp_path):
    with open(fixture_path("transform.json")) as handle:
        config = json.load(handle)
    config["connection"] = {"ehresmann": config["connection"]["gamma"]}
    target = tmp_path / "config.json"
    target.write_text(json.dumps(config))
    for command in (["transform-check"], ["metrizability"],
                    ["connection", "canonical"]):
        given = run_cli(capsys, *command, fixture_path("transform.json"))
        assert given[0] == 0
        assert run_cli(capsys, *command, str(target)) == given, command


def test_ehresmann_coefficients_pull_back_through_the_anchor():
    geometry = load_config({
        "schema_version": 1, "dims": {"m": 2, "p": 3, "r": 2},
        "anchor": [["1 + x2", "x1", "0.5"], ["0", "2", "x1*x2"]],
        "connection": {"ehresmann": [["x1*y1", "x2 + y2^2"],
                                     ["sin(x1)", "y1*y2"]]}})
    x1, x2, y1, y2 = coords = [0.3, -0.7, 1.1, 0.4]
    rho = [[1 + x2, x1, 0.5], [0.0, 2.0, x1 * x2]]
    c = [[x1 * y1, x2 + y2 ** 2], [math.sin(x1), y1 * y2]]
    for a in range(2):
        for alpha in range(3):
            want = sum(rho[k][alpha] * c[a][k] for k in range(2))
            got = geometry.connection.gamma[a][alpha](coords)
            assert got == pytest.approx(want, rel=1e-15), (a, alpha)


def test_infinite_constant_structure_fails_with_valid_json(capsys, tmp_path):
    path = write_config(
        tmp_path, dims={"m": 1, "p": 2, "r": 1}, anchor=[[0, 0]],
        structure=[[[0, "1e308*10"], ["-1e308*10", 0]], [[0, 0], [0, 0]]])
    code, out, _ = run_cli(capsys, "check-structure", path)
    assert code == 1
    payload = json.loads(out)
    assert payload["pass"] is False
    assert payload["residuals"]["jacobi"]["pass"] is False


@pytest.mark.parametrize("flags, message", [
    (["--points", "-1"], "--points -1 must not be negative"),
    (["--probe=nan,0,1,1"], "--probe nan,0,1,1 must be a finite number"),
    (["--probe=a,0,1,1"], "--probe a,0,1,1 must list numbers"),
    (["--probe=0,1,1"], "--probe 0,1,1 must list 4 coordinates"),
    (["--tol", "inf"], "--tol inf must be a finite number"),
    (["--tol", "nan"], "--tol nan must be a finite number"),
    (["--tol", "-1"], "--tol -1 must not be negative"),
    (["--points", "0"], "--points 0 must be positive"),
])
def test_malformed_flag_values_name_the_flag(capsys, flags, message):
    code, out, err = run_cli(capsys, "connection", "canonical",
                             fixture_path("flat.json"), *flags)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_transform_check_fails_on_a_nan_transition_entry(capsys, tmp_path):
    with open(fixture_path("transform.json")) as handle:
        config = json.load(handle)
    # inf - inf (or 0 * inf at x1 = 0): NaN at every point, in the second
    # row, which a max that keeps its first value would drop
    config["frame_change"]["lam"][1][0] = "x1*(1e308*10) - x1*(1e308*10)"
    target = tmp_path / "config.json"
    target.write_text(json.dumps(config))
    code, out, _ = run_cli(capsys, "transform-check", str(target))
    assert code == 1
    check = json.loads(out)["residuals"]["lam_inverse"]
    assert check["max"] == "NaN" and check["pass"] is False
    assert check["argmax"] is not None


def test_metrizability_builds_one_gl_metric(capsys, tmp_path, monkeypatch):
    from algcalc import lagrange
    hessians = count_calls(monkeypatch, lagrange, "hessian_metric")
    path = write_config(tmp_path, dims={"m": 2, "p": 2, "r": 2},
                        lagrangian="(1 + x1^2)*(y1^2 + 2*y2^2)")
    code, _, _ = run_cli(capsys, "metrizability", path)
    assert code == 0
    assert len(hessians) == 1


@pytest.mark.parametrize("command", [["metrizability"],
                                     ["connection", "obata"]])
def test_constant_metric_blocks_are_inverted_once(capsys, monkeypatch,
                                                  command):
    # both blocks of flat.json are constant, so each inverse folds at
    # construction, once per block
    from algcalc import linalg
    inversions = count_calls(monkeypatch, linalg, "invert")
    code, _, _ = run_cli(capsys, *command, fixture_path("flat.json"))
    assert code == 0
    assert len(inversions) == 2


def test_finsler_check_draws_samples_and_builds_hessian_once(capsys,
                                                             monkeypatch):
    from algcalc import lagrange, sampling
    draws = count_calls(monkeypatch, sampling, "generate")
    hessians = count_calls(monkeypatch, lagrange, "hessian_metric")
    code, out, _ = run_cli(capsys, "finsler-check",
                           fixture_path("randers.json"), "--dump-samples")
    assert code == 0
    assert (len(draws), len(hessians)) == (1, 1)
    payload = json.loads(out)
    assert len(payload["samples"]) == payload["points"]
    assert payload["metadata"] == {}


def test_report_draws_samples_once_with_the_flag_overrides(capsys,
                                                           monkeypatch):
    from algcalc import sampling
    draws = count_calls(monkeypatch, sampling, "generate")
    code, out, _ = run_cli(capsys, "report", fixture_path("randers.json"),
                           "--dump-samples", "--points", "4", "--seed", "9",
                           "--tol", "0.5")
    assert code == 0
    assert len(draws) == 1 and draws[0][1:3] == (4, 9)
    payload = json.loads(out)
    assert (payload["points"], payload["seed"]) == (4, 9)
    assert len(payload["samples"]) == 4
    for name in ("jacobi", "gh_h_deriv", "homogeneity"):
        check = payload["residuals"][name]
        assert check["tol"] == 0.5
        assert check["argmax"] in payload["samples"]


@pytest.mark.parametrize("scale", ["1e-6", "1e-12"])
def test_scaled_finsler_function_stays_positive_definite(capsys, tmp_path,
                                                         scale):
    # a constant multiple of F is exactly as definite as F: the pivots of
    # its Hessian are judged against the Hessian's own scale
    with open(fixture_path("randers.json")) as handle:
        config = json.load(handle)
    config["finsler"] = f"{scale}*({config['finsler']})"
    target = tmp_path / "config.json"
    target.write_text(json.dumps(config))
    code, out, _ = run_cli(capsys, "finsler-check", str(target))
    residuals = json.loads(out)["residuals"]
    assert residuals["positive_definite_defect"]["max"] == 0.0
    assert residuals["hessian_rank_defect"]["max"] == 0.0
    assert code == 0


def test_metric_constructions_with_p_unequal_r(capsys, tmp_path):
    # m = 2, p = 3, r = 2: the canonical constructions run over the
    # fiber-derivative base, which puts the fiber derivatives of gamma on
    # the hv block alone
    path = write_config(
        tmp_path, dims={"m": 2, "p": 3, "r": 2},
        anchor=[[1, 0, 0.5], [0, 1, -0.25]],
        connection={"gamma": [["0.1*y1 + 0.2*x1*y2", "0.3*y2", "0.05*y1*y2"],
                              ["-0.2*y2", "0.1*x2*y1", "0.2*y1^2"]]},
        metric={"h": [["2 + 0.1*y1^2", "0.1*x1*y2", "0"],
                      ["0.1*x1*y2", "2 + 0.1*x2^2", "0.05*y1"],
                      ["0", "0.05*y1", "1.5 + 0.1*y2^2"]],
                "v": [["1 + 0.2*y2^2", "0.1*x1*y1"],
                      ["0.1*x1*y1", "1 + 0.2*x2^2 + 0.1*y1^2"]]},
        sampling={"count": 10, "seed": 3})
    code, out, _ = run_cli(capsys, "metrizability", path)
    assert code == 0
    residuals = json.loads(out)["residuals"]
    assert len(residuals) == 4
    for check in residuals.values():
        assert check["max"] <= 1e-12
    for kind in ("canonical", "obata", "base-deform"):
        code, out, _ = run_cli(capsys, "connection", kind, path)
        assert code == 0, kind
        blocks = json.loads(out)["metadata"]["blocks"]
        assert set(blocks) == {"hh", "hv", "vh", "vv"}
    code, out, err = run_cli(capsys, "connection", "berwald", path)
    assert code == 2 and out == ""
    assert err == "error: the fiber-derivative connection needs p = r\n"


def test_main_builds_its_parser_once(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    # the builder imports argparse when it runs; each subparser is built
    # through the same __init__, with a prog of its own
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli._build_parser.cache_clear()
    try:
        for _ in range(3):
            code, _, _ = run_cli(capsys, "check-structure",
                                 fixture_path("flat.json"))
            assert code == 0
    finally:
        cli._build_parser.cache_clear()
    assert built.count("algcalc") == 1 and len(built) == len(set(built))


def test_flags_of_one_call_do_not_reach_the_next(capsys, monkeypatch):
    # the plain run prints the bytes recorded for it, as a fresh process
    # does, after a run whose flags would change them
    root = pathlib.Path(__file__).resolve().parent.parent
    table = json.loads((root / "tests" / "fixture_digests.json").read_text())
    monkeypatch.chdir(root)
    code, flagged, _ = run_cli(capsys, "connection", "canonical",
                               "fixtures/poincare.json",
                               "--probe=-0.5,1,0.2,0.3", "--points", "3",
                               "--tol", "0.5")
    assert code == 0
    payload = json.loads(flagged)
    assert payload["points"] == 3
    assert len(payload["metadata"]["blocks"]["hh"]["probes"]) == 2
    code, plain, err = run_cli(capsys, "connection", "canonical",
                               "fixtures/poincare.json")
    assert (code, err) == (0, "")
    assert hashlib.sha256(plain.encode()).hexdigest() == \
        table["poincare connection canonical"]["stdout"]
