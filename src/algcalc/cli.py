"""Command line interface.

    algcalc <command> <config.json> [options]

Commands: check-structure, connection <kind>, metrizability, finsler-check,
transform-check, report.  Geometry is described by a JSON configuration
(see docs/config-schema.md); results are emitted as a JSON report with
floats serialized to 17 significant digits, byte-identical across runs.
Exit codes: 0 all checks passed, 1 a check failed, 2 the
configuration or invocation was invalid.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from typing import Optional

from . import dtensor, lagrange
from .algebroid import (FrameDiffeoData, GeneralizedAlgebroid, _flatten,
                        from_frame, jacobi_residual, validate_structure)
from .dtensor import DConnection, berwald, fiber_derivatives
from .errors import ConfigError, GeometryError, ShapeError
from .exprlang import parse_field
from .jets import Point, ScalarField
from .lagrange import (FundamentalFunction, TorsionPair, build_gl_space,
                       finsler_checks, hessian_metric, levi_civita_normal,
                       recover_torsions, regularity_check, torsion_deform)
from .metric import (MetricStructure, base_deform, berwald_canonical,
                     metrizability_residual, obata_deform)
from .nlconn import (FrameChange, NonlinearConnection, default_chart,
                     from_ehresmann, transform_chart, transform_gamma,
                     zero_connection)
from .sampling import (DEFAULT_FIBER_FLOOR, SampleBox, ValidationReport,
                       fields_sweep_max, generate)

SCHEMA_VERSION = 1

CONNECTION_KINDS = ("berwald", "canonical", "obata", "base-deform",
                    "levi-civita", "torsion-deform")


# -- deterministic JSON output ---------------------------------------------

# JSON has no literal for these; they are written as strings
_NON_FINITE = {"nan": '"NaN"', "inf": '"Infinity"', "-inf": '"-Infinity"'}


def _dump(obj, indent=0):
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        text = format(obj, ".17g")
        return _NON_FINITE.get(text, text)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{inner}{json.dumps(str(k))}: {_dump(v, indent + 1)}"
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{inner}{_dump(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dump_report(report: dict) -> str:
    return _dump(report) + "\n"


# -- configuration loading -------------------------------------------------


@dataclass
class Geometry:
    """Everything a command may need, assembled from one configuration."""

    m: int
    p: int
    r: int
    algebroid: GeneralizedAlgebroid
    connection: NonlinearConnection
    frame: Optional[FrameDiffeoData] = None
    metric: Optional[MetricStructure] = None
    fundamental: Optional[FundamentalFunction] = None
    frame_change: Optional[FrameChange] = None
    torsions: Optional[TorsionPair] = None
    deform: Optional[dict] = None
    box: Optional[SampleBox] = None
    count: int = 100
    seed: int = 0
    fiber_floor: Optional[float] = DEFAULT_FIBER_FLOOR
    tolerances: dict = field(default_factory=dict)
    probes: list = field(default_factory=list)

    def tol(self, name, override=None):
        if override is not None:
            return override
        return float(self.tolerances.get(name,
                                         self.tolerances.get("default", 1e-8)))

    def samples(self, count=None, seed=None):
        box = self.box
        if box is None:
            box = SampleBox(x=tuple((-1.0, 1.0) for _ in range(self.m)),
                            y=tuple((-1.0, 1.0) for _ in range(self.r)))
        return generate(box, self.count if count is None else count,
                        self.seed if seed is None else seed,
                        self.fiber_floor)


def _expect(config, key, kind, where):
    if key not in config:
        raise ConfigError(f"missing '{key}' in {where}")
    value = config[key]
    if not isinstance(value, kind):
        raise ConfigError(f"'{key}' in {where} has the wrong type")
    return value


def _number(value, where):
    """A finite JSON number at ``where``, as a float."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:   # an integer beyond the float range
            pass
    raise ConfigError(f"{where} must be a finite number")


def _integer(value, where):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer")
    return value


def _box(spec, key, n):
    """The ``sampling`` interval list ``spec[key]``: n [lo, hi] pairs."""
    where = f"sampling.{key}"
    box = spec.get(key, [[-1.0, 1.0] for _ in range(n)])
    if not isinstance(box, list):
        raise ConfigError(f"{where} must be a list of [lo, hi] pairs")
    if len(box) != n:
        raise ConfigError("sampling box does not match dims")
    for i, pair in enumerate(box):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ConfigError(f"{where}[{i}] must be a [lo, hi] pair")
    return tuple(tuple(_number(v, f"{where}[{i}][{j}]")
                       for j, v in enumerate(pair))
                 for i, pair in enumerate(box))


def _coeff_field(value, m, r, where):
    """A config coefficient: an expression string or a bare number."""
    if isinstance(value, str):
        try:
            return parse_field(value, m, r)
        except GeometryError as err:
            raise ConfigError(f"bad expression at {where}: {err}") from err
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return ScalarField.const(m, r, float(value))
    raise ConfigError(f"{where} must be an expression string or a number")


def _field_grid(value, shape, m, r, where):
    if not shape:
        return _coeff_field(value, m, r, where)
    if not isinstance(value, list) or len(value) != shape[0]:
        raise ShapeError(f"{where} must be a list of length {shape[0]}")
    return [_field_grid(v, shape[1:], m, r, f"{where}[{i}]")
            for i, v in enumerate(value)]


def _spec_grid(spec, key, shape, m, r, where):
    """The field grid ``spec[key]``, named ``where.key`` in errors."""
    return _field_grid(_expect(spec, key, list, where), shape, m, r,
                       f"{where}.{key}")


def _identity_grid(n, m, r):
    return [[ScalarField.const(m, r, 1.0 if i == j else 0.0)
             for j in range(n)] for i in range(n)]


def load_config(source) -> Geometry:
    """Build a Geometry from a path, a JSON string, or a parsed dict."""
    if isinstance(source, dict):
        config = source
    else:
        try:
            with open(source) as handle:
                config = json.load(handle)
        except OSError as err:
            raise ConfigError(f"cannot read config: {err}") from err
        except json.JSONDecodeError as err:
            raise ConfigError(f"config is not valid JSON: {err}") from err
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    version = _expect(config, "schema_version", int, "config")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version}")

    dims = _expect(config, "dims", dict, "config")
    try:
        m, p, r = int(dims["m"]), int(dims["p"]), int(dims["r"])
    except (KeyError, TypeError, ValueError) as err:
        raise ConfigError("dims must give integer m, p, r") from err

    frame = None
    structure = config.get("structure", "zero")
    if isinstance(structure, dict) and "frame" in structure:
        if m != p:
            raise ConfigError("a frame structure needs m == p")
        spec = structure["frame"]
        theta = _spec_grid(spec, "theta", (m, m), m, r, "frame")
        theta_inv = _spec_grid(spec, "theta_inv", (m, m), m, r, "frame")
        try:
            frame = FrameDiffeoData(m, r, theta, theta_inv)
            A = from_frame(frame)
        except GeometryError as err:
            raise ConfigError(f"bad frame structure: {err}") from err
    else:
        anchor = config.get("anchor", "identity")
        if anchor == "identity":
            if m != p:
                raise ConfigError("anchor 'identity' needs m == p")
            rho = _identity_grid(m, m, r)
        else:
            rho = _field_grid(anchor, (m, p), m, r, "anchor")
        if structure == "zero":
            zero = ScalarField.const(m, r, 0.0)
            L = [[[zero] * p for _ in range(p)] for _ in range(p)]
        else:
            L = _field_grid(structure, (p, p, p), m, r, "structure")
        try:
            A = GeneralizedAlgebroid(m=m, p=p, r=r, rho=rho, L=L)
        except GeometryError as err:
            raise ConfigError(f"bad structure data: {err}") from err

    conn_spec = config.get("connection", "zero")
    try:
        if conn_spec == "zero":
            C = zero_connection(A)
        elif isinstance(conn_spec, dict) and "gamma" in conn_spec:
            C = NonlinearConnection(
                A, _field_grid(conn_spec["gamma"], (r, p), m, r,
                               "connection.gamma"))
        elif isinstance(conn_spec, dict) and "ehresmann" in conn_spec:
            C = from_ehresmann(
                A, _field_grid(conn_spec["ehresmann"], (r, m), m, r,
                               "connection.ehresmann"))
        else:
            raise ConfigError(
                "connection must be 'zero' or give 'gamma' or 'ehresmann'")
    except GeometryError as err:
        if isinstance(err, ConfigError):
            raise
        raise ConfigError(f"bad connection data: {err}") from err

    geometry = Geometry(m=m, p=p, r=r, algebroid=A, connection=C, frame=frame)

    metric_spec = config.get("metric")
    fundamental_spec = config.get("lagrangian") or config.get("finsler")
    if metric_spec is not None and fundamental_spec is not None:
        raise ConfigError(
            "give either 'metric' or a fundamental function, not both")
    if metric_spec is not None:
        gh = _spec_grid(metric_spec, "h", (p, p), m, r, "metric")
        gv = _spec_grid(metric_spec, "v", (r, r), m, r, "metric")
        try:
            geometry.metric = MetricStructure(
                A, gh=gh, gv=gv,
                h_riemannian=bool(metric_spec.get("h_riemannian", False)),
                v_riemannian=bool(metric_spec.get("v_riemannian", False)))
        except GeometryError as err:
            raise ConfigError(f"bad metric data: {err}") from err
    elif fundamental_spec is not None:
        kind = "lagrange" if config.get("lagrangian") else "finsler"
        value = _coeff_field(fundamental_spec, m, r,
                             "lagrangian" if kind == "lagrange" else "finsler")
        geometry.fundamental = FundamentalFunction(A, value, kind)

    change_spec = config.get("frame_change")
    if change_spec is not None:
        def grid(key, shape):
            return _spec_grid(change_spec, key, shape, m, r, "frame_change")
        try:
            geometry.frame_change = FrameChange(
                m=m, r=r,
                lam=grid("lam", (p, p)), lam_inv=grid("lam_inv", (p, p)),
                mmat=grid("m", (r, r)), mmat_inv=grid("m_inv", (r, r)),
                basemap=grid("basemap", (m,)),
                basemap_inv=grid("basemap_inv", (m,)))
        except GeometryError as err:
            if isinstance(err, ConfigError):
                raise
            raise ConfigError(f"bad frame change: {err}") from err

    torsion_spec = config.get("torsions")
    if torsion_spec is not None:
        geometry.torsions = TorsionPair(
            t=_spec_grid(torsion_spec, "t", (r, r, r), m, r, "torsions"),
            s=_spec_grid(torsion_spec, "s", (r, r, r), m, r, "torsions"))

    deform_spec = config.get("deform")
    if deform_spec is not None:
        geometry.deform = {
            key: _spec_grid(deform_spec, key, shape, m, r, "deform")
            for key, shape in (("xh", (p, p, p)), ("yh", (r, r, p)),
                               ("xv", (p, p, r)), ("yv", (r, r, r)))}

    sampling_spec = config.get("sampling", {})
    if not isinstance(sampling_spec, dict):
        raise ConfigError("'sampling' must be an object")
    x_box = _box(sampling_spec, "x_box", m)
    y_box = _box(sampling_spec, "y_box", r)
    try:
        geometry.box = SampleBox(x=x_box, y=y_box)
    except GeometryError as err:
        raise ConfigError(f"bad sampling box: {err}") from err
    geometry.count = _integer(sampling_spec.get("count", 100),
                              "sampling.count")
    geometry.seed = _integer(sampling_spec.get("seed", 0), "sampling.seed")
    floor = sampling_spec.get("fiber_floor", DEFAULT_FIBER_FLOOR)
    geometry.fiber_floor = None if floor is None else \
        _number(floor, "sampling.fiber_floor")

    tolerances = config.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise ConfigError("'tolerances' must be an object")
    for name, tol in tolerances.items():
        if _number(tol, f"tolerances.{name}") < 0.0:
            raise ConfigError(f"tolerances.{name} must not be negative")
    geometry.tolerances = tolerances

    probes = config.get("probes", [])
    if not isinstance(probes, list):
        raise ConfigError("'probes' must be a list")
    for i, probe in enumerate(probes):
        if not isinstance(probe, list) or len(probe) != m + r:
            raise ConfigError(f"probes[{i}] must list {m + r} coordinates")
        coords = [_number(v, f"probes[{i}][{k}]")
                  for k, v in enumerate(probe)]
        geometry.probes.append(Point(tuple(coords[:m]), tuple(coords[m:])))

    return geometry


# -- shared command pieces -------------------------------------------------


def _require_metric(geometry: Geometry) -> MetricStructure:
    if geometry.metric is not None:
        return geometry.metric
    if geometry.fundamental is not None:
        block = hessian_metric(geometry.fundamental)
        return build_gl_space(geometry.connection, block)
    raise ConfigError(
        "this command needs a 'metric', 'lagrangian', or 'finsler' entry")


def _simple_base(C: NonlinearConnection) -> DConnection:
    """A base d-connection available for any (p, r): fiber derivatives of
    the nonlinear connection on the vertical H-block, zero elsewhere."""
    A = C.algebroid
    if A.p == A.r:
        return berwald(C)
    return DConnection(C,
                       hh=dtensor.zero_blocks(A, A.p, A.p, A.p),
                       hv=fiber_derivatives(C),
                       vh=dtensor.zero_blocks(A, A.p, A.p, A.r),
                       vv=dtensor.zero_blocks(A, A.r, A.r, A.r))


def build_connection(geometry: Geometry, kind: str):
    """Construct a d-connection (or normal d-connection) by kind."""
    A = geometry.algebroid
    C = geometry.connection
    if kind == "berwald":
        return berwald(C)
    if kind == "canonical":
        return berwald_canonical(_require_metric(geometry), C)
    if kind == "obata":
        G = _require_metric(geometry)
        d = geometry.deform or {
            "xh": dtensor.zero_blocks(A, A.p, A.p, A.p),
            "yh": dtensor.zero_blocks(A, A.r, A.r, A.p),
            "xv": dtensor.zero_blocks(A, A.p, A.p, A.r),
            "yv": dtensor.zero_blocks(A, A.r, A.r, A.r)}
        return obata_deform(G, C, d["xh"], d["yh"], d["xv"], d["yv"])
    if kind == "base-deform":
        return base_deform(_require_metric(geometry), _simple_base(C))
    if kind == "levi-civita":
        return levi_civita_normal(C, _require_metric(geometry))
    if kind == "torsion-deform":
        if geometry.torsions is None:
            raise ConfigError("torsion-deform needs a 'torsions' entry")
        G = _require_metric(geometry)
        return torsion_deform(levi_civita_normal(C, G), G,
                              geometry.torsions)
    raise ConfigError(f"unknown connection kind '{kind}'")


def _block_summary(blocks, samples, probes):
    out = {}
    for name, block in blocks:
        value, arg = fields_sweep_max(_flatten(block), samples)
        entry = {"max_abs": value,
                 "argmax": None if arg is None else
                 {"x": list(arg.x), "y": list(arg.y)}}
        if probes:
            def values_at(grid, coords):
                if isinstance(grid, ScalarField):
                    return float(grid(coords))
                return [values_at(item, coords) for item in grid]
            entry["probes"] = [
                {"point": {"x": list(pt.x), "y": list(pt.y)},
                 "values": values_at(block, list(pt.coords()))}
                for pt in probes]
        out[name] = entry
    return out


# -- commands --------------------------------------------------------------


def cmd_check_structure(geometry: Geometry, options) -> ValidationReport:
    samples = geometry.samples(options.points, options.seed)
    tol = geometry.tol("structure", options.tol)
    report = validate_structure(geometry.algebroid, samples, tol)
    value, arg = jacobi_residual(geometry.algebroid, samples)
    report.add("jacobi", value, arg, tol)
    if geometry.frame is not None:
        geometry.frame.check_invertible(samples, tol)
    return report


def cmd_metrizability(geometry: Geometry, options) -> ValidationReport:
    samples = geometry.samples(options.points, options.seed)
    tol = geometry.tol("metrizability", options.tol)
    G = _require_metric(geometry)
    connection = build_connection(geometry, options.kind or "canonical")
    if isinstance(connection, lagrange.NormalDConnection):
        connection = connection.as_dconnection()
    return metrizability_residual(connection, G, samples, tol)


def cmd_finsler_check(geometry: Geometry, options) -> ValidationReport:
    if geometry.fundamental is None or geometry.fundamental.kind != "finsler":
        raise ConfigError("finsler-check needs a 'finsler' entry")
    samples = geometry.samples(options.points, options.seed)
    tol = geometry.tol("finsler", options.tol)
    report = finsler_checks(geometry.fundamental, samples, tol)
    block = hessian_metric(geometry.fundamental)
    report.extend(regularity_check(block, samples))
    return report


def cmd_transform_check(geometry: Geometry, options) -> ValidationReport:
    if geometry.frame_change is None:
        raise ConfigError("transform-check needs a 'frame_change' entry")
    samples = geometry.samples(options.points, options.seed)
    tol = geometry.tol("transform", options.tol)
    F = geometry.frame_change
    A = geometry.algebroid
    C = geometry.connection
    report = F.check_consistency(samples, tol)

    chart0 = default_chart(A)
    chart1 = transform_chart(chart0, F)
    primed = transform_gamma(C, F, chart0)
    back = transform_gamma(primed, F.inverse(), chart1)
    fields = [back.gamma[a][g] - C.gamma[a][g]
              for a in range(A.r) for g in range(A.p)]
    value, arg = fields_sweep_max(fields, samples)
    report.add("gamma_round_trip", value, arg, tol)

    D = _simple_base(C)
    primed_d = dtensor.transform_dconnection(D, F, chart0)
    back_d = dtensor.transform_dconnection(primed_d, F.inverse(), chart1)
    fields = [got - given for name in ("hh", "hv", "vh", "vv")
              for got, given in zip(_flatten(getattr(back_d, name)),
                                    _flatten(getattr(D, name)))]
    value, arg = fields_sweep_max(fields, samples)
    report.add("dconnection_round_trip", value, arg, tol)
    return report


def cmd_connection(geometry: Geometry, options):
    samples = geometry.samples(options.points, options.seed)
    connection = build_connection(geometry, options.kind)
    report = ValidationReport()
    if isinstance(connection, lagrange.NormalDConnection):
        blocks = [("h", connection.h), ("v", connection.v)]
    else:
        blocks = [("hh", connection.hh), ("hv", connection.hv),
                  ("vh", connection.vh), ("vv", connection.vv)]
    report.metadata["blocks"] = _block_summary(blocks, samples,
                                               geometry.probes)
    if options.kind == "torsion-deform":
        recovered = recover_torsions(connection)
        fields = [got - given
                  for given_grid, got_grid in (
                      (geometry.torsions.t, recovered.t),
                      (geometry.torsions.s, recovered.s))
                  for got, given in zip(_flatten(got_grid),
                                        _flatten(given_grid))]
        value, arg = fields_sweep_max(fields, samples)
        report.add("torsion_round_trip", value, arg,
                   geometry.tol("torsion", options.tol))
    return report


def cmd_report(geometry: Geometry, options) -> ValidationReport:
    report = cmd_check_structure(geometry, options)
    if geometry.metric is not None or geometry.fundamental is not None:
        report.extend(cmd_metrizability(geometry, options))
    if geometry.fundamental is not None and \
            geometry.fundamental.kind == "finsler":
        report.extend(cmd_finsler_check(geometry, options))
    if geometry.frame_change is not None:
        report.extend(cmd_transform_check(geometry, options))
    return report


COMMANDS = {
    "check-structure": cmd_check_structure,
    "connection": cmd_connection,
    "metrizability": cmd_metrizability,
    "finsler-check": cmd_finsler_check,
    "transform-check": cmd_transform_check,
    "report": cmd_report,
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="algcalc",
        description="Checks and constructions for anchored-bundle geometry")
    parser.set_defaults(kind=None)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("config", help="path to a JSON geometry config")
        p.add_argument("--tol", type=float, default=None,
                       help="override the residual tolerance")
        p.add_argument("--seed", type=int, default=None,
                       help="override the sampling seed")
        p.add_argument("--points", type=int, default=None,
                       help="override the sample count")
        p.add_argument("--probe", action="append", default=[],
                       help="extra probe point, comma-separated coordinates;"
                       " write --probe=-0.5,... when the first coordinate"
                       " is negative")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility; has no effect")
        p.add_argument("--dump-samples", action="store_true",
                       help="include the sample list in the report")
        p.add_argument("-o", "--output", default=None,
                       help="write the JSON report to this file")

    for name in ("check-structure", "metrizability", "finsler-check",
                 "transform-check", "report"):
        common(sub.add_parser(name))
    conn = sub.add_parser("connection")
    conn.add_argument("kind", choices=CONNECTION_KINDS)
    common(conn)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        geometry = load_config(args.config)
        for raw in args.probe:
            values = [float(v) for v in raw.split(",")]
            if len(values) != geometry.m + geometry.r:
                raise ConfigError(
                    f"--probe needs {geometry.m + geometry.r} coordinates")
            geometry.probes.append(Point(tuple(values[:geometry.m]),
                                         tuple(values[geometry.m:])))
        report = COMMANDS[args.command](geometry, args)
    except (ConfigError, GeometryError, ValueError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 2
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command if args.kind is None
        else f"{args.command} {args.kind}",
        "seed": geometry.seed if args.seed is None else args.seed,
        "points": geometry.count if args.points is None else args.points,
    }
    if args.dump_samples:
        payload["samples"] = [
            {"x": list(pt.x), "y": list(pt.y)}
            for pt in geometry.samples(args.points, args.seed)]
    payload.update(report.to_dict())
    text = dump_report(payload)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
