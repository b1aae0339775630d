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

import json
import math
import sys
from functools import cache, cached_property

from .algebroid import (FrameDiffeoData, GeneralizedAlgebroid, from_frame,
                        jacobi_residual, validate_structure)
from .errors import ConfigError, GeometryError, ShapeError
from .exprlang import parse_field
from .jets import Point, ScalarField, evaluate_grid, leaves
from .nlconn import (FrameChange, NonlinearConnection, default_chart,
                     from_ehresmann, transform_chart, transform_gamma,
                     zero_connection)
from .record import Record
from .sampling import (DEFAULT_FIBER_FLOOR, SampleBox, ValidationReport,
                       generate, sweep)

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


class Geometry(Record):
    """Everything a command may need, assembled from one configuration."""

    m: int
    p: int
    r: int
    algebroid: GeneralizedAlgebroid
    connection: NonlinearConnection
    box: SampleBox
    count: int
    seed: int
    fiber_floor: float | None
    tolerances: dict
    probes: list
    frame: FrameDiffeoData | None = None
    metric: MetricStructure | None = None  # or the GL metric, once built
    fundamental: FundamentalFunction | None = None
    frame_change: FrameChange | None = None
    torsions: TorsionPair | None = None
    deform: dict | None = None

    def tol(self, name):
        return float(self.tolerances.get(name,
                                         self.tolerances.get("default", 1e-8)))

    @cached_property
    def samples(self):
        """The sample points, drawn on first use and shared from then on."""
        return generate(self.box, self.count, self.seed, self.fiber_floor)


def _expect(section, key, check, where):
    """``check(section[key], path)`` for the required entry ``key`` of the
    object ``section`` at ``where`` (None for the top level)."""
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be an object")
    if key not in section:
        raise ConfigError(f"missing '{key}' in {where or 'config'}")
    return check(section[key], key if where is None else f"{where}.{key}")


def _typed(kind, noun):
    """The check that a JSON value at ``where`` is a ``kind``."""
    def check(value, where):
        if not isinstance(value, kind):
            raise ConfigError(f"{where} must be {noun}")
        return value
    return check


_object = _typed(dict, "an object")
_list = _typed(list, "a list")
_boolean = _typed(bool, "a boolean")


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


def _nonnegative(value, where):
    if value < 0:
        raise ConfigError(f"{where} must not be negative")
    return value


def _positive(value, where):
    if value <= 0:
        raise ConfigError(f"{where} must be positive")
    return value


def _count(value, where):
    """A sample count: a check that looked at no point would pass."""
    return _positive(_nonnegative(value, where), where)


def _box(spec, key, n):
    """The checked ``sampling`` interval list ``spec[key]``: n pairs."""
    where = f"sampling.{key}"
    box = spec.get(key, [[-1.0, 1.0] for _ in range(n)])
    if not isinstance(box, list):
        raise ConfigError(f"{where} must be a list of [lo, hi] pairs")
    if len(box) != n:
        raise ConfigError(f"{where} must list {n} [lo, hi] pairs")
    for i, pair in enumerate(box):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ConfigError(f"{where}[{i}] must be a [lo, hi] pair")
        lo, hi = (_number(v, f"{where}[{i}][{j}]") for j, v in enumerate(pair))
        if lo > hi:
            raise ConfigError(f"{where}[{i}] must have lo <= hi")
    return box


# Every field grid a config may give, by path, with its shape written in
# the dims m, p and r ("" for one coefficient), in the order the grids
# are built.
_GRIDS = {
    "structure.frame.theta": "mm", "structure.frame.theta_inv": "mm",
    "anchor": "mp", "structure": "ppp",
    "connection.gamma": "rp", "connection.ehresmann": "rm",
    "metric.h": "pp", "metric.v": "rr",
    "lagrangian": "", "finsler": "",
    "frame_change.lam": "pp", "frame_change.lam_inv": "pp",
    "frame_change.m": "rr", "frame_change.m_inv": "rr",
    "frame_change.basemap": "m", "frame_change.basemap_inv": "m",
    "torsions.t": "rrr", "torsions.s": "rrr",
    "deform.xh": "ppp", "deform.yh": "rrp", "deform.xv": "ppr",
    "deform.yv": "rrr",
}


def _check_grid(value, shape, where):
    """Check a raw JSON grid against ``shape``: nested lists of those
    lengths around expression strings or numbers."""
    if not shape:
        if isinstance(value, bool) or \
                not isinstance(value, (str, int, float)):
            raise ConfigError(
                f"{where} must be an expression string or a number")
        if isinstance(value, int):
            _number(value, where)   # refuses one beyond the float range
    elif not isinstance(value, list) or len(value) != shape[0]:
        raise ShapeError(f"{where} must be a list of length {shape[0]}")
    else:
        for i, v in enumerate(value):
            _check_grid(v, shape[1:], f"{where}[{i}]")


def _read(config):
    """Check all of the raw JSON of ``config`` before any field is built,
    since building grows as the cube of ``dims``.  Returns the dims, the raw
    grid of each path of ``_GRIDS`` that the config gives, the Riemannian
    flags of its metric, and the sampling, tolerance and probe entries of
    a Geometry."""
    version = _expect(config, "schema_version", _integer, None)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version}")
    dims_spec = _expect(config, "dims", _object, None)
    dims = {key: _positive(_expect(dims_spec, key, _integer, "dims"),
                           f"dims.{key}") for key in "mpr"}
    m, p, r = dims["m"], dims["p"], dims["r"]
    grids = {}

    def give(path, value):
        _check_grid(value, tuple(dims[d] for d in _GRIDS[path]), path)
        grids[path] = value

    def section(spec, where):
        for path in _GRIDS:
            if path.startswith(f"{where}."):
                give(path, _expect(spec, path[len(where) + 1:], _list, where))

    structure = config.get("structure", "zero")
    if isinstance(structure, dict) and "frame" in structure:
        if m != p:
            raise ConfigError("a frame structure needs m == p")
        section(structure["frame"], "structure.frame")
    else:
        anchor = config.get("anchor", "identity")
        if anchor != "identity":
            give("anchor", anchor)
        elif m != p:
            raise ConfigError("anchor 'identity' needs m == p")
        if structure != "zero":
            give("structure", structure)
    connection = config.get("connection", "zero")
    if connection != "zero":
        given = [key for key in ("gamma", "ehresmann")
                 if isinstance(connection, dict) and key in connection]
        if not given:
            raise ConfigError(
                "connection must be 'zero' or give 'gamma' or 'ehresmann'")
        give(f"connection.{given[0]}", connection[given[0]])
    if sum(key in config for key in ("metric", "lagrangian", "finsler")) > 1:
        raise ConfigError(
            "config must give at most one of metric, lagrangian, finsler")
    for where in ("metric", "lagrangian", "finsler", "frame_change",
                  "torsions", "deform"):
        if where in _GRIDS and where in config:
            give(where, config[where])
        elif where in config:
            section(config[where], where)
    flags = {key: _boolean(config["metric"].get(key, False), f"metric.{key}")
             for key in ("h_riemannian", "v_riemannian")
             if "metric" in config}

    sampling = _object(config.get("sampling", {}), "sampling")
    box = SampleBox(x=_box(sampling, "x_box", m), y=_box(sampling, "y_box", r))
    count = _count(_integer(sampling.get("count", 100), "sampling.count"),
                   "sampling.count")
    seed = _integer(sampling.get("seed", 0), "sampling.seed")
    floor = sampling.get("fiber_floor", DEFAULT_FIBER_FLOOR)
    if floor is not None:
        floor = _number(floor, "sampling.fiber_floor")
    tolerances = _object(config.get("tolerances", {}), "tolerances")
    for name, tol in tolerances.items():
        _nonnegative(_number(tol, f"tolerances.{name}"), f"tolerances.{name}")
    probes = []
    for i, probe in enumerate(_list(config.get("probes", []), "probes")):
        if not isinstance(probe, list) or len(probe) != m + r:
            raise ConfigError(f"probes[{i}] must list {m + r} coordinates")
        coords = [_number(v, f"probes[{i}][{k}]")
                  for k, v in enumerate(probe)]
        probes.append(Point(tuple(coords[:m]), tuple(coords[m:])))
    return dims, grids, flags, dict(
        box=box, count=count, seed=seed, fiber_floor=floor,
        tolerances=tolerances, probes=probes)


def _fields(value, m, r, where):
    """The fields of a raw grid that ``_read`` has checked."""
    if isinstance(value, list):
        return [_fields(v, m, r, f"{where}[{i}]") for i, v in enumerate(value)]
    if isinstance(value, str):
        try:
            return parse_field(value, m, r)
        except GeometryError as err:
            raise ConfigError(f"bad expression at {where}: {err}") from err
    return ScalarField.const(m, r, float(value))


def _section(fields, where):
    """The fields of the section at ``where`` by key; empty when the config
    gives none."""
    start = f"{where}."
    return {path[len(start):]: grid for path, grid in fields.items()
            if path.startswith(start)}


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
    dims, grids, flags, settings = _read(config)
    m, p, r = dims["m"], dims["p"], dims["r"]
    fields = {path: _fields(value, m, r, path)
              for path, value in grids.items()}

    frame = None
    theta = _section(fields, "structure.frame")
    if theta:
        try:
            frame = FrameDiffeoData(m, r, **theta)
            A = from_frame(frame)
        except GeometryError as err:
            raise ConfigError(f"bad frame structure: {err}") from err
    else:
        zero = ScalarField.const(m, r, 0.0)
        one = ScalarField.const(m, r, 1.0)
        rho = fields["anchor"] if "anchor" in fields else \
            [[one if i == j else zero for j in range(m)] for i in range(m)]
        L = fields["structure"] if "structure" in fields else \
            [[[zero] * p for _ in range(p)] for _ in range(p)]
        try:
            A = GeneralizedAlgebroid(m=m, p=p, r=r, rho=rho, L=L)
        except GeometryError as err:
            raise ConfigError(f"bad structure data: {err}") from err

    if "connection.gamma" in fields:
        C = NonlinearConnection(A, fields["connection.gamma"])
    elif "connection.ehresmann" in fields:
        C = from_ehresmann(A, fields["connection.ehresmann"])
    else:
        C = zero_connection(A)

    geometry = Geometry(m=m, p=p, r=r, algebroid=A, connection=C,
                        frame=frame, **settings)
    metric = _section(fields, "metric")
    if metric:
        from .metric import MetricStructure
        try:
            geometry.metric = MetricStructure(A, gh=metric["h"],
                                              gv=metric["v"], **flags)
        except GeometryError as err:
            raise ConfigError(f"bad metric data: {err}") from err
    for key, kind in (("lagrangian", "lagrange"), ("finsler", "finsler")):
        if key in fields:
            from .lagrange import FundamentalFunction
            geometry.fundamental = FundamentalFunction(A, fields[key], kind)
    change = _section(fields, "frame_change")
    if change:
        # a field that is not x-only raises a ShapeError, a ConfigError
        geometry.frame_change = FrameChange(
            m=m, r=r, lam=change["lam"], lam_inv=change["lam_inv"],
            mmat=change["m"], mmat_inv=change["m_inv"],
            basemap=change["basemap"], basemap_inv=change["basemap_inv"])
    torsions = _section(fields, "torsions")
    if torsions:
        from .lagrange import TorsionPair
        geometry.torsions = TorsionPair(**torsions)
    geometry.deform = _section(fields, "deform") or None
    return geometry


# -- shared command pieces -------------------------------------------------


def _require_metric(geometry: Geometry) -> MetricStructure:
    if geometry.metric is None and geometry.fundamental is not None:
        from .lagrange import build_gl_space, hessian_metric
        geometry.metric = build_gl_space(
            geometry.connection, hessian_metric(geometry.fundamental))
    if geometry.metric is None:
        raise ConfigError(
            "this command needs a 'metric', 'lagrangian', or 'finsler' entry")
    return geometry.metric


def build_connection(geometry: Geometry, kind: str):
    """Construct a d-connection (or normal d-connection) by kind."""
    A = geometry.algebroid
    C = geometry.connection
    if kind == "berwald":
        from .dtensor import berwald
        return berwald(C)
    if kind == "canonical":
        from .metric import berwald_canonical
        return berwald_canonical(_require_metric(geometry), C)
    if kind == "obata":
        from .dtensor import zero_blocks
        from .metric import obata_deform
        G = _require_metric(geometry)
        d = geometry.deform or {
            "xh": zero_blocks(A, A.p, A.p, A.p),
            "yh": zero_blocks(A, A.r, A.r, A.p),
            "xv": zero_blocks(A, A.p, A.p, A.r),
            "yv": zero_blocks(A, A.r, A.r, A.r)}
        return obata_deform(G, C, d["xh"], d["yh"], d["xv"], d["yv"])
    if kind == "base-deform":
        from .dtensor import fiber_base
        from .metric import base_deform
        return base_deform(_require_metric(geometry), fiber_base(C))
    if kind == "levi-civita":
        from .lagrange import levi_civita_normal
        return levi_civita_normal(C, _require_metric(geometry))
    if kind == "torsion-deform":
        if geometry.torsions is None:
            raise ConfigError("torsion-deform needs a 'torsions' entry")
        from .lagrange import levi_civita_normal, torsion_deform
        G = _require_metric(geometry)
        return torsion_deform(levi_civita_normal(C, G), G,
                              geometry.torsions)
    raise ConfigError(f"unknown connection kind '{kind}'")


def _block_summary(blocks, sweeps, probes):
    """Max, argmax and probe values of each named block, given the
    block sweeps in the same order."""
    at_probes = [evaluate_grid([block for _, block in blocks], pt.coords())
                 for pt in probes]
    out = {}
    for k, ((name, _), (value, arg)) in enumerate(zip(blocks, sweeps)):
        entry = {"max_abs": value,
                 "argmax": None if arg is None else
                 {"x": list(arg.x), "y": list(arg.y)}}
        if probes:
            entry["probes"] = [
                {"point": {"x": list(pt.x), "y": list(pt.y)},
                 "values": values[k]}
                for pt, values in zip(probes, at_probes)]
        out[name] = entry
    return out


# -- commands --------------------------------------------------------------


def cmd_check_structure(geometry: Geometry, options) -> ValidationReport:
    samples = geometry.samples
    tol = geometry.tol("structure")
    report = validate_structure(geometry.algebroid, samples, tol)
    value, arg = jacobi_residual(geometry.algebroid, samples)
    report.add("jacobi", value, arg, tol)
    if geometry.frame is not None:
        geometry.frame.check_invertible(samples, tol)
    return report


def cmd_metrizability(geometry: Geometry, options) -> ValidationReport:
    samples = geometry.samples
    tol = geometry.tol("metrizability")
    from .metric import metrizability_residual
    G = _require_metric(geometry)
    connection = build_connection(geometry, "canonical")
    return metrizability_residual(connection, G, samples, tol)


def cmd_finsler_check(geometry: Geometry, options) -> ValidationReport:
    if geometry.fundamental is None or geometry.fundamental.kind != "finsler":
        raise ConfigError("finsler-check needs a 'finsler' entry")
    from .lagrange import finsler_checks
    return finsler_checks(geometry.fundamental, geometry.samples,
                          geometry.tol("finsler"))


def cmd_transform_check(geometry: Geometry, options) -> ValidationReport:
    if geometry.frame_change is None:
        raise ConfigError("transform-check needs a 'frame_change' entry")
    from .dtensor import fiber_base, transform_dconnection
    samples = geometry.samples
    tol = geometry.tol("transform")
    F = geometry.frame_change
    A = geometry.algebroid
    C = geometry.connection
    report = F.check_consistency(samples, tol)

    chart0 = default_chart(A)
    chart1 = transform_chart(chart0, F)
    primed = transform_gamma(C, F, chart0)
    back = transform_gamma(primed, F.inverse(), chart1)
    gamma_trip = [back.gamma[a][g] - C.gamma[a][g]
                  for a in range(A.r) for g in range(A.p)]

    D = fiber_base(C)
    primed_d = transform_dconnection(D, F, chart0)
    back_d = transform_dconnection(primed_d, F.inverse(), chart1)
    blocks = ("hh", "hv", "vh", "vv")
    d_trip = [got - given for got, given in zip(
        leaves([getattr(back_d, name) for name in blocks]),
        leaves([getattr(D, name) for name in blocks]))]
    report.add_all(("gamma_round_trip", "dconnection_round_trip"),
                   sweep([gamma_trip, d_trip], samples), tol)
    return report


def cmd_connection(geometry: Geometry, options):
    samples = geometry.samples
    connection = build_connection(geometry, options.kind)
    report = ValidationReport()
    if options.kind in ("levi-civita", "torsion-deform"):
        # a normal d-connection: its two H-blocks and two V-blocks coincide
        blocks = [("h", connection.h), ("v", connection.v)]
    else:
        blocks = [("hh", connection.hh), ("hv", connection.hv),
                  ("vh", connection.vh), ("vv", connection.vv)]
    groups = [list(leaves(block)) for _, block in blocks]
    torsions = geometry.torsions if options.kind == "torsion-deform" else None
    if torsions is not None:
        from .lagrange import recover_torsions
        recovered = recover_torsions(connection)
        groups.append([got - given for got, given in zip(
            leaves([recovered.t, recovered.s]),
            leaves([torsions.t, torsions.s]))])
    sweeps = sweep(groups, samples)
    report.metadata["blocks"] = _block_summary(blocks, sweeps,
                                               geometry.probes)
    if torsions is not None:
        report.add("torsion_round_trip", *sweeps[-1],
                   geometry.tol("torsion"))
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


@cache
def _build_parser():
    """The argument parser, built once per process."""
    import argparse
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
                       help="extra probe point, comma-separated coordinates")
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


def _check_flags(args):
    """Refuse the flag values a config would refuse, naming the flag and
    the value."""
    if args.points is not None:
        _count(args.points, f"--points {args.points}")
    if args.tol is not None:
        where = f"--tol {args.tol:g}"
        _nonnegative(_number(args.tol, where), where)


def _probe_point(raw, m, r):
    """The point of one ``--probe`` value."""
    try:
        values = [_number(float(v), f"--probe {raw}") for v in raw.split(",")]
    except ValueError:
        raise ConfigError(f"--probe {raw} must list numbers") from None
    if len(values) != m + r:
        raise ConfigError(f"--probe {raw} must list {m + r} coordinates")
    return Point(tuple(values[:m]), tuple(values[m:]))


def _attach_probe_values(argv):
    """``argv`` with ``--probe VALUE`` written ``--probe=VALUE``, so that a
    value such as ``-0.5,0,1,1`` is not taken for an option."""
    out = []
    for arg in argv:
        if out[-1:] == ["--probe"]:
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(_attach_probe_values(
        sys.argv[1:] if argv is None else argv))
    try:
        _check_flags(args)
        geometry = load_config(args.config)
        if args.points is not None:
            geometry.count = args.points
        if args.seed is not None:
            geometry.seed = args.seed
        if args.tol is not None:
            geometry.tolerances = {"default": args.tol}
        geometry.probes.extend(_probe_point(raw, geometry.m, geometry.r)
                               for raw in args.probe)
        report = COMMANDS[args.command](geometry, args)
    except (ConfigError, GeometryError, ValueError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 2
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command if args.kind is None
        else f"{args.command} {args.kind}",
        "seed": geometry.seed,
        "points": geometry.count,
    }
    if args.dump_samples:
        payload["samples"] = [{"x": list(pt.x), "y": list(pt.y)}
                              for pt in geometry.samples]
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
