"""Seeded generators for the benchmark's configurations and operations.

Every generated configuration comes with the facts its checks need, worked
out here without the program: Jacobi defects of structure constants,
closed-form connection coefficients, and metric values and derivatives at
the probe points.  Coefficients vary with the seed; the shape of every
expression does not, so the cost of an operation hardly depends on the seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

SCHEMA_VERSION = 1
DEFAULT_FIBER_FLOOR = 1e-3


# -- polynomials with their own derivatives --------------------------------


class Poly:
    """A polynomial over the coordinates (x1..xm, y1..yr): a map from
    exponent tuples to coefficients."""

    def __init__(self, n, terms):
        self.n = n
        self.terms = {k: c for k, c in terms.items() if c != 0.0}

    def __call__(self, coords):
        total = 0.0
        for exps, coef in self.terms.items():
            term = coef
            for v, e in zip(coords, exps):
                for _ in range(e):
                    term *= v
            total += term
        return total

    def partial(self, index):
        out = {}
        for exps, coef in self.terms.items():
            e = exps[index]
            if e:
                lowered = exps[:index] + (e - 1,) + exps[index + 1:]
                out[lowered] = out.get(lowered, 0.0) + coef * e
        return Poly(self.n, out)

    def source(self, m):
        """The polynomial in the program's expression language."""
        names = [f"x{i + 1}" for i in range(m)] + \
            [f"y{i + 1}" for i in range(self.n - m)]
        parts = []
        for exps in sorted(self.terms, reverse=True):
            coef = self.terms[exps]
            factors = [repr(abs(coef))]
            for name, e in zip(names, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            sign = "-" if coef < 0 else "+"
            parts.append((sign, "*".join(factors)))
        if not parts:
            return "0"
        text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text


def _monomial(n, *powers):
    """Exponent tuple from (index, power) pairs."""
    exps = [0] * n
    for index, power in powers:
        exps[index] += power
    return tuple(exps)


def _coef(rng, scale):
    """A seeded coefficient in [-scale, scale], rounded to 4 decimals and
    kept away from zero so no template term drops out."""
    value = 0.0
    while abs(value) < 0.1 * scale:
        value = round(rng.uniform(-scale, scale), 4)
    return value


def _random_poly(rng, n, monomials, scale, constant=0.0):
    terms = {exps: _coef(rng, scale) for exps in monomials}
    if constant:
        terms[(0,) * n] = terms.get((0,) * n, 0.0) + constant
    return Poly(n, terms)


def _sources(grid, m):
    if isinstance(grid, Poly):
        return grid.source(m)
    return [_sources(item, m) for item in grid]


def _values(grid, coords):
    if isinstance(grid, Poly):
        return grid(coords)
    return [_values(item, coords) for item in grid]


def _partials(grid, index):
    if isinstance(grid, Poly):
        return grid.partial(index)
    return [_partials(item, index) for item in grid]


# -- operations -------------------------------------------------------------


@dataclass
class Op:
    """One CLI command of a round and what its report must show.

    ``expect`` holds the facts the checks compare against; ``threads_ref``
    asks for a byte comparison with a ``--threads 1`` run of the same
    command.
    """

    name: str
    config: str
    command: list
    points: int
    expect: dict
    threads: int = 1
    probes: list = field(default_factory=list)
    dump_samples: bool = False
    threads_ref: bool = False

    def argv(self, config_path, output_path, threads=None):
        out = list(self.command) + [config_path, "--points", str(self.points)]
        threads = self.threads if threads is None else threads
        if threads != 1:
            out += ["--threads", str(threads)]
        for probe in self.probes:
            # one token, so a leading minus sign is not read as an option
            out.append("--probe=" + ",".join(repr(v) for v in probe))
        if self.dump_samples:
            out.append("--dump-samples")
        return out + ["-o", output_path]


@dataclass
class Workload:
    configs: dict     # config name -> config dict
    ops: list         # the operations of one round, in order


def _sampling(rng, m, r, floor=None):
    """Sampling over the unit box; ``--points`` overrides the count."""
    spec = {"x_box": [[-1.0, 1.0] for _ in range(m)],
            "y_box": [[-1.0, 1.0] for _ in range(r)], "count": 10,
            "seed": rng.randrange(1, 10 ** 6)}
    if floor is not None:
        spec["fiber_floor"] = floor
    return spec


def _samples_expect(config, points):
    spec = config["sampling"]
    return {"x_box": spec["x_box"], "y_box": spec["y_box"],
            "floor": spec.get("fiber_floor", DEFAULT_FIBER_FLOOR),
            "count": points}


def _op(configs, config, command, points, expect, **extra):
    """An operation on ``configs[config]``; with ``dump_samples`` its
    samples are checked against the config's box and fiber floor."""
    expect = dict(expect)
    expect.setdefault("exit", 0)
    if extra.get("dump_samples"):
        expect["samples"] = _samples_expect(configs[config], points)
    return Op(name=f"{config}:{' '.join(command)}", config=config,
              command=command, points=points, expect=expect, **extra)


def _probe_points(rng, m, r, count, fiber_min=0.3):
    """Probe points inside the unit box, with fiber norm at least
    ``fiber_min`` so fiber-singular functions stay smooth there."""
    out = []
    while len(out) < count:
        x = [round(rng.uniform(-0.9, 0.9), 4) for _ in range(m)]
        y = [round(rng.uniform(-0.9, 0.9), 4) for _ in range(r)]
        if math.sqrt(sum(v * v for v in y)) >= fiber_min:
            out.append(x + y)
    return out


# -- structure-jacobi -------------------------------------------------------


def jacobi_defect(L):
    """Largest component of the cyclic double bracket of the constant basis
    sections, for constant structure functions and a zero anchor:
    J^g_{abc} = sum_d L^d_{ab} L^g_{dc} + L^d_{bc} L^g_{da} + L^d_{ca} L^g_{db}.
    Triples with a vertical basis section bracket to zero."""
    p = len(L)
    worst = 0.0
    for a in range(p):
        for b in range(p):
            for c in range(p):
                for g in range(p):
                    total = 0.0
                    for d in range(p):
                        total += (L[d][a][b] * L[g][d][c]
                                  + L[d][b][c] * L[g][d][a]
                                  + L[d][c][a] * L[g][d][b])
                    worst = max(worst, abs(total))
    return worst


def _antisymmetric(p, upper):
    """Structure constants with L[g][b][a] = -L[g][a][b] exactly."""
    L = [[[0.0] * p for _ in range(p)] for _ in range(p)]
    for g in range(p):
        for a in range(p):
            for b in range(a + 1, p):
                L[g][a][b] = upper[g][a][b]
                L[g][b][a] = -upper[g][a][b]
    return L


def _invert3(P):
    (a, b, c), (d, e, f), (g, h, i) = P
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    cof = [[e * i - f * h, c * h - b * i, b * f - c * e],
           [f * g - d * i, a * i - c * g, c * d - a * f],
           [d * h - e * g, b * g - a * h, a * e - b * d]]
    return [[v / det for v in row] for row in cof], det


def _lie_constants(rng):
    """A 3-dimensional Lie algebra in a random basis: so(3), or the
    semidirect product R^2 x| R with a random 2x2 action, then changed to
    the basis e'_a = sum_k P[k][a] e_k."""
    p = 3
    base = [[[0.0] * p for _ in range(p)] for _ in range(p)]
    if rng.random() < 0.5:
        for g, a, b in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            base[g][a][b], base[g][b][a] = 1.0, -1.0
    else:
        act = [[_coef(rng, 1.0) for _ in range(2)] for _ in range(2)]
        for g in range(2):
            for a in range(2):
                base[g][a][2] = act[g][a]
                base[g][2][a] = -act[g][a]
    while True:
        P = [[(1.0 if i == j else 0.0) + round(rng.uniform(-0.3, 0.3), 4)
              for j in range(p)] for i in range(p)]
        Pinv, det = _invert3(P)
        if abs(det) > 0.3:
            break
    upper = [[[0.0] * p for _ in range(p)] for _ in range(p)]
    for g in range(p):
        for a in range(p):
            for b in range(a + 1, p):
                total = 0.0
                for d in range(p):
                    for e in range(p):
                        for f in range(p):
                            total += Pinv[g][d] * base[d][e][f] \
                                * P[e][a] * P[f][b]
                upper[g][a][b] = round(total, 6)
    return _antisymmetric(p, upper)


def _non_lie_constants(rng):
    p = 3
    while True:
        upper = [[[round(rng.uniform(-1.0, 1.0), 4) for _ in range(p)]
                  for _ in range(p)] for _ in range(p)]
        L = _antisymmetric(p, upper)
        if jacobi_defect(L) > 0.1:
            return L


def _constant_structure_config(rng, L):
    m, p, r = 1, 3, 3
    return {
        "schema_version": SCHEMA_VERSION,
        "dims": {"m": m, "p": p, "r": r},
        "anchor": [["0"] * p],
        "structure": [[[repr(v) for v in row] for row in plane]
                      for plane in L],
        "connection": "zero",
        "sampling": _sampling(rng, m, r),
    }


def _frame_config(rng):
    """A moving frame e1 = a d1 + q d2, e2 = E (d d1 + c d2) with
    E = exp(k x1 + s x1^2): [e1, e2] = a (k + 2 s x1) e2, a non-constant
    anchor and structure function over an m = p = r = 2 bundle."""
    m = r = 2
    while True:
        a, c = (round(rng.uniform(0.5, 1.5), 4) for _ in range(2))
        d, q = (round(rng.uniform(-0.5, 0.5), 4) for _ in range(2))
        if abs(a * c - q * d) > 0.2:
            break
    k = round(rng.uniform(-1.0, 1.0), 4)
    s = round(rng.uniform(-0.5, 0.5), 4)
    det = a * c - q * d
    expo = f"{k!r}*x1 + {s!r}*x1^2"
    theta = [[repr(a), f"{d!r}*exp({expo})"],
             [repr(q), f"{c!r}*exp({expo})"]]
    theta_inv = [[repr(c / det), repr(-d / det)],
                 [f"{-q / det!r}*exp(-({expo}))",
                  f"{a / det!r}*exp(-({expo}))"]]
    return {
        "schema_version": SCHEMA_VERSION,
        "dims": {"m": m, "p": m, "r": r},
        "structure": {"frame": {"theta": theta, "theta_inv": theta_inv}},
        "connection": "zero",
        "sampling": _sampling(rng, m, r),
    }


def structure_jacobi(rng):
    lie = _lie_constants(rng)
    non_lie = _non_lie_constants(rng)
    configs = {
        "const_lie": _constant_structure_config(rng, lie),
        "const_non_lie": _constant_structure_config(rng, non_lie),
        "frame": _frame_config(rng),
    }
    ops = []
    for name, L in (("const_lie", lie), ("const_non_lie", non_lie)):
        defect = jacobi_defect(L)
        ops.append(_op(
            configs, name, ["check-structure"], 2, {
                "exit": 1 if defect > 1e-8 else 0,
                "values": {"antisymmetry": 0.0, "anchor_compatibility": 0.0,
                           "jacobi": defect},
                "within_tol": ["antisymmetry", "anchor_compatibility"]
                + (["jacobi"] if defect <= 1e-8 else [])},
            dump_samples=True))
    # 6 frame points cost about as much as one constant structure, so the
    # median operation of a round is a Jacobi construction either way
    ops.append(_op(configs, "frame", ["check-structure"], 6, {
        "within_tol": ["antisymmetry", "anchor_compatibility", "jacobi"]},
        dump_samples=True))
    return Workload(configs, ops)


# -- metric-sweep -----------------------------------------------------------


def _spd_block(rng, n, dim, monomials):
    """A symmetric polynomial block that is diagonally dominant on the unit
    box: diagonal 2 + (at most 0.45), off-diagonal at most 0.45."""
    block = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            if i == j:
                entry = _random_poly(rng, n, monomials, 0.15, constant=2.0)
            else:
                entry = _random_poly(rng, n, monomials, 0.15)
            block[i][j] = block[j][i] = entry
    return block


def _metric_facts(gh, gv, gamma, probes, m):
    """Metric values, first partials and connection values at each probe,
    as the metricity check reads them."""
    n = len(probes[0])
    facts = []
    for point in probes:
        facts.append({
            "gh": _values(gh, point), "gv": _values(gv, point),
            "gamma": _values(gamma, point),
            "dgh": [_values(_partials(gh, i), point) for i in range(n)],
            "dgv": [_values(_partials(gv, i), point) for i in range(n)],
        })
    return {"m": m, "points": facts}


def _dense_config(rng, probes):
    m = p = r = 2
    n = m + r
    x1, x2, y1, y2 = range(4)
    metric_terms = [_monomial(n, (x1, 2)), _monomial(n, (x2, 1), (y1, 1)),
                    _monomial(n, (y2, 1)), _monomial(n, (x1, 1), (y2, 1))]
    gamma_terms = [_monomial(n, (y1, 1)), _monomial(n, (x2, 1), (y2, 1)),
                   _monomial(n, (x1, 1), (y1, 1))]
    gh = _spd_block(rng, n, p, metric_terms)
    gv = _spd_block(rng, n, r, metric_terms)
    gamma = [[_random_poly(rng, n, gamma_terms, 0.3) for _ in range(p)]
             for _ in range(r)]
    # Lambda = [[1, 0], [l x1, 1]], M = [[u, 0], [w x2, 1]], base map
    # (x1 + v x2, x2): all invertible in closed form.
    lam_c, w = _coef(rng, 1.0), _coef(rng, 1.0)
    u = round(rng.uniform(0.5, 2.0), 4)
    v = _coef(rng, 1.0)
    frame_change = {
        "lam": [["1", "0"], [f"{lam_c!r}*x1", "1"]],
        "lam_inv": [["1", "0"], [f"{-lam_c!r}*x1", "1"]],
        "m": [[repr(u), "0"], [f"{w!r}*x2", "1"]],
        "m_inv": [[repr(1.0 / u), "0"], [f"{-w / u!r}*x2", "1"]],
        "basemap": [f"x1 + {v!r}*x2", "x2"],
        "basemap_inv": [f"x1 - {v!r}*x2", "x2"],
    }

    def grid(*shape):
        if not shape:
            return repr(_coef(rng, 0.5))
        return [grid(*shape[1:]) for _ in range(shape[0])]

    config = {
        "schema_version": SCHEMA_VERSION,
        "dims": {"m": m, "p": p, "r": r},
        "anchor": "identity",
        "structure": "zero",
        "connection": {"gamma": _sources(gamma, m)},
        "metric": {"h": _sources(gh, m), "v": _sources(gv, m)},
        "frame_change": frame_change,
        "deform": {"xh": grid(p, p, p), "yh": grid(r, r, p),
                   "xv": grid(p, p, r), "yv": grid(r, r, r)},
        "sampling": _sampling(rng, m, r),
    }
    return config, _metric_facts(gh, gv, gamma, probes, m)


def conformal_gamma(dphi):
    """Gamma^a_{bc} = d^a_b dphi_c + d^a_c dphi_b - d_{bc} dphi_a, the
    Levi-Civita symbols of exp(2 phi) times the flat metric."""
    n = len(dphi)
    return [[[(dphi[c] if a == b else 0.0) + (dphi[b] if a == c else 0.0)
              - (dphi[a] if b == c else 0.0) for c in range(n)]
             for b in range(n)] for a in range(n)]


def _phi(rng, n):
    x1, x2 = 0, 1
    terms = [_monomial(n, (x1, 1)), _monomial(n, (x2, 1)),
             _monomial(n, (x1, 1), (x2, 1)), _monomial(n, (x1, 2))]
    return _random_poly(rng, n, terms, 0.4)


def _conformal_block(phi, m, dim):
    entry = f"exp(2*({phi.source(m)}))"
    return [[entry if i == j else "0" for j in range(dim)]
            for i in range(dim)]


def _conformal_config(rng, probes):
    """g = exp(2 phi(x)) delta on both blocks, zero connection.  The
    canonical (and zero-parameter Obata) blocks at a probe are hh = Gamma,
    hv[a][b][c] = delta_ab dphi_c, vh = vv = 0."""
    m = p = r = 2
    phi = _phi(rng, m + r)
    block = _conformal_block(phi, m, p)
    config = {
        "schema_version": SCHEMA_VERSION,
        "dims": {"m": m, "p": p, "r": r},
        "anchor": "identity",
        "structure": "zero",
        "connection": "zero",
        "metric": {"h": block, "v": block,
                   "h_riemannian": True, "v_riemannian": True},
        "sampling": _sampling(rng, m, r),
    }
    blocks = {"hh": [], "hv": [], "vh": [], "vv": []}
    for point in probes:
        dphi = [phi.partial(i)(point) for i in range(m)]
        blocks["hh"].append(conformal_gamma(dphi))
        blocks["hv"].append([[[dphi[c] if a == b else 0.0 for c in range(p)]
                              for b in range(r)] for a in range(r)])
        blocks["vh"].append([[[0.0] * r for _ in range(p)] for _ in range(p)])
        blocks["vv"].append([[[0.0] * r for _ in range(r)] for _ in range(r)])
    return config, blocks


METRIC_THREADS = 2
METRIZABLE = ["gh_h_deriv", "gv_h_deriv", "gh_v_deriv", "gv_v_deriv"]


def metric_sweep(rng):
    """Point counts give every operation about the same cost (0.6 s on a
    shared 2-core VM), so the median operation is a typical one."""
    probes = _probe_points(rng, 2, 2, 2)
    dense, facts = _dense_config(rng, probes)
    conformal, blocks = _conformal_config(rng, probes)
    configs = {"dense": dense, "conformal": conformal}
    round_trips = ["lam_inverse", "mmat_inverse", "basemap_inverse",
                   "gamma_round_trip", "dconnection_round_trip"]

    def op(config, command, points, expect, **extra):
        return _op(configs, config, command, points, expect,
                   threads=METRIC_THREADS, threads_ref=True, **extra)

    return Workload(configs, [
        op("dense", ["metrizability"], 30, {"within_tol": METRIZABLE},
           dump_samples=True),
        op("dense", ["transform-check"], 52, {"within_tol": round_trips}),
        op("dense", ["connection", "canonical"], 38, {"metricity": facts},
           probes=probes),
        op("dense", ["connection", "obata"], 36, {"metricity": facts},
           probes=probes),
        op("dense", ["connection", "base-deform"], 110, {"metricity": facts},
           probes=probes),
        op("conformal", ["metrizability"], 85, {"within_tol": METRIZABLE},
           dump_samples=True),
        op("conformal", ["connection", "canonical"], 84, {"blocks": blocks},
           probes=probes),
        op("conformal", ["connection", "obata"], 63, {"blocks": blocks},
           probes=probes),
    ])


# -- finsler-nested ---------------------------------------------------------


def _sym2(a11, a12, a22):
    return [[a11, a12], [a12, a22]]


def _randers_config(rng, torsions):
    """F = sqrt(y^T A(x) y) + b(x)^T y with A(x) = A0 + x1 A1 and
    b(x) = b0 + x2 b1.  A0 has eigenvalues in [1, 2] and |A1| <= 0.2, so
    A(x) >= 0.8 on the box; |b(x)| <= 0.57 keeps |b|_A <= 0.64 < 1."""
    t = rng.uniform(0.0, math.pi)
    l1, l2 = rng.uniform(1.0, 2.0), rng.uniform(1.0, 2.0)
    cs, sn = math.cos(t), math.sin(t)
    A0 = _sym2(round(l1 * cs * cs + l2 * sn * sn, 4),
               round((l1 - l2) * cs * sn, 4),
               round(l1 * sn * sn + l2 * cs * cs, 4))
    A1 = _sym2(*(round(rng.uniform(-0.1, 0.1), 4) for _ in range(3)))
    b0 = [round(rng.uniform(-0.3, 0.3), 4) for _ in range(2)]
    b1 = [round(rng.uniform(-0.1, 0.1), 4) for _ in range(2)]

    def affine(c0, c1, var):
        return f"({c0!r} + {c1!r}*{var})"

    quad = (f"{affine(A0[0][0], A1[0][0], 'x1')}*y1^2"
            f" + 2*{affine(A0[0][1], A1[0][1], 'x1')}*y1*y2"
            f" + {affine(A0[1][1], A1[1][1], 'x1')}*y2^2")
    finsler = (f"sqrt({quad}) + {affine(b0[0], b1[0], 'x2')}*y1"
               f" + {affine(b0[1], b1[1], 'x2')}*y2")
    return {
        "schema_version": SCHEMA_VERSION,
        "dims": {"m": 2, "p": 2, "r": 2},
        "anchor": "identity",
        "structure": "zero",
        "connection": "zero",
        "finsler": finsler,
        "torsions": torsions,
        "sampling": _sampling(rng, 2, 2, floor=0.1),
    }


def _torsion_constants(rng, n):
    t = [[[0.0] * n for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for b in range(n):
            for c in range(b + 1, n):
                value = _coef(rng, 0.5)
                t[a][b][c], t[a][c][b] = value, -value
    return t


def contorsion(tor):
    """(1/2)(T^a_{bc} - T^b_{ac} + T^c_{ba}): what torsion-deform adds to
    each block when the metric is a multiple of the identity."""
    n = len(tor)
    return [[[0.5 * (tor[a][b][c] - tor[b][a][c] + tor[c][b][a])
              for c in range(n)] for b in range(n)] for a in range(n)]


def _torsion_spec(t, s):
    def strings(tor):
        return [[[repr(v) for v in row] for row in plane] for plane in tor]
    return {"t": strings(t), "s": strings(s)}


def _lagrange_config(rng, probes, t, s):
    """L = exp(2 phi(x)) |y|^2: the Hessian metric is exp(2 phi) delta, so
    levi-civita has h = Gamma and v = 0, and torsion-deform adds the
    contorsion of each prescribed torsion."""
    m = r = 2
    phi = _phi(rng, m + r)
    config = {
        "schema_version": SCHEMA_VERSION,
        "dims": {"m": m, "p": m, "r": r},
        "anchor": "identity",
        "structure": "zero",
        "connection": "zero",
        "lagrangian": f"exp(2*({phi.source(m)}))*(y1^2 + y2^2)",
        "torsions": _torsion_spec(t, s),
        "sampling": _sampling(rng, m, r, floor=0.1),
    }
    lc = {"h": [], "v": []}
    td = {"h": [], "v": []}
    kt, ks = contorsion(t), contorsion(s)
    for point in probes:
        gamma = conformal_gamma([phi.partial(i)(point) for i in range(m)])
        lc["h"].append(gamma)
        lc["v"].append([[[0.0] * r for _ in range(r)] for _ in range(r)])
        td["h"].append([[[gamma[a][b][c] + kt[a][b][c] for c in range(r)]
                         for b in range(r)] for a in range(r)])
        td["v"].append(ks)
    return config, lc, td


def finsler_nested(rng):
    """Point counts give every operation about the same cost (0.7 s on a
    shared 2-core VM), so the median operation is a typical one."""
    probes = _probe_points(rng, 2, 2, 2)
    t, s = _torsion_constants(rng, 2), _torsion_constants(rng, 2)
    randers = _randers_config(rng, _torsion_spec(t, s))
    lagrange, lc_blocks, td_blocks = _lagrange_config(rng, probes, t, s)
    configs = {"randers": randers, "lagrange": lagrange}
    finsler = ["homogeneity", "euler_identity", "positive_definite_defect",
               "hessian_rank_defect"]
    torsion = ["torsion_round_trip"]

    def op(*args, **extra):
        return _op(configs, *args, **extra)

    return Workload(configs, [
        op("randers", ["finsler-check"], 200, {"within_tol": finsler},
           dump_samples=True),
        op("randers", ["metrizability"], 1, {"within_tol": METRIZABLE}),
        op("randers", ["connection", "levi-civita"], 2, {}),
        op("randers", ["connection", "torsion-deform"], 2,
           {"within_tol": torsion}),
        op("lagrange", ["metrizability"], 7, {"within_tol": METRIZABLE},
           dump_samples=True),
        op("lagrange", ["connection", "levi-civita"], 16,
           {"blocks": lc_blocks}, probes=probes),
        op("lagrange", ["connection", "torsion-deform"], 11,
           {"blocks": td_blocks, "within_tol": torsion}, probes=probes),
    ])


BUILDERS = {
    "structure-jacobi": structure_jacobi,
    "metric-sweep": metric_sweep,
    "finsler-nested": finsler_nested,
}


def build(name, seed):
    return BUILDERS[name](random.Random(f"{name}:{seed}"))
