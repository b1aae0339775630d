"""Checks on one operation's output, and their negative controls.

A check takes the operation, its exit code, the report text and the parsed
report, and returns a list of problems; an empty list means it passed.
Every expected value comes from ``workloads`` (worked out without the
program) or from another run of the program made in the same benchmark run;
nothing is compared against stored output.

``CORRUPTIONS`` pairs each check with a way to damage an output that passed
it.  ``negative_control`` applies the damage and confirms that the check now
reports a problem, so that no check passes vacuously.
"""

from __future__ import annotations

import copy
import json
import math

REL_TOL = 1e-9


def _close(got, want):
    return abs(got - want) <= REL_TOL * max(abs(want), 1.0)


def _finite_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and math.isfinite(value)


def _flat(values):
    if isinstance(values, list):
        for item in values:
            yield from _flat(item)
    else:
        yield values


# -- checks ------------------------------------------------------------------


def check_envelope(op, code, text, report):
    """Exit code, header fields, and a verdict consistent with every
    residual: finite maxima, each pass flag equal to max <= tol."""
    problems = []
    if code != op.expect["exit"]:
        problems.append(f"exit code {code}, expected {op.expect['exit']}")
    if report.get("schema_version") != 1:
        problems.append("schema_version is not 1")
    if report.get("command") != " ".join(op.command):
        problems.append(f"command is {report.get('command')!r}")
    if report.get("points") != op.points:
        problems.append(f"points is {report.get('points')!r}")
    residuals = report.get("residuals")
    if not isinstance(residuals, dict):
        return problems + ["no residuals object"]
    verdict = True
    for name, entry in residuals.items():
        value, tol = entry.get("max"), entry.get("tol")
        if not (_finite_number(value) and _finite_number(tol)):
            problems.append(f"{name}: max {value!r} or tol {tol!r} is not a"
                            " finite number")
            verdict = False
            continue
        passed = value <= tol
        if entry.get("pass") is not passed:
            problems.append(f"{name}: pass flag disagrees with max <= tol")
        verdict = verdict and passed
    if report.get("pass") is not verdict:
        problems.append("report pass flag disagrees with its residuals")
    if code != (0 if verdict else 1):
        problems.append(f"exit code {code} disagrees with the verdict")
    return problems


def check_within_tol(op, code, text, report):
    """Residuals that theory says must pass are finite and within tol."""
    problems = []
    residuals = report.get("residuals", {})
    for name in op.expect.get("within_tol", ()):
        entry = residuals.get(name)
        if entry is None:
            problems.append(f"{name}: missing")
            continue
        value, tol = entry.get("max"), entry.get("tol")
        if not (_finite_number(value) and _finite_number(tol)
                and value <= tol):
            problems.append(f"{name}: max {value!r} is not within tol"
                            f" {tol!r}")
    return problems


def check_values(op, code, text, report):
    """Residual maxima equal values computed apart from the program (the
    Jacobi defect of the structure constants, exact zeros)."""
    problems = []
    residuals = report.get("residuals", {})
    for name, want in op.expect.get("values", {}).items():
        got = residuals.get(name, {}).get("max")
        if not _finite_number(got) or not _close(got, want):
            problems.append(f"{name}: max {got!r}, computed {want!r}")
    return problems


def check_samples(op, code, text, report):
    """--dump-samples points number --points, lie in the box and clear the
    fiber floor."""
    want = op.expect["samples"]
    samples = report.get("samples")
    if not isinstance(samples, list):
        return ["no samples in the report"]
    problems = []
    if len(samples) != want["count"]:
        problems.append(f"{len(samples)} samples, expected {want['count']}")
    for i, point in enumerate(samples):
        for part in ("x", "y"):
            box = want[f"{part}_box"]
            coords = point.get(part, [])
            if len(coords) != len(box) or not all(
                    _finite_number(v) and lo <= v <= hi
                    for v, (lo, hi) in zip(coords, box)):
                problems.append(f"sample {i}: {part} {coords} outside the"
                                " box")
        fiber = point.get("y", [])
        if all(_finite_number(v) for v in fiber) and want["floor"] is not None \
                and math.sqrt(sum(v * v for v in fiber)) < want["floor"]:
            problems.append(f"sample {i}: fiber norm below {want['floor']}")
    return problems


def _probe_values(report, block, index):
    entry = report.get("metadata", {}).get("blocks", {}).get(block, {})
    probes = entry.get("probes", [])
    if index >= len(probes):
        return None
    return probes[index].get("values")


def check_blocks_finite(op, code, text, report):
    """Connection summaries and probe tables hold finite numbers only."""
    blocks = report.get("metadata", {}).get("blocks")
    if not isinstance(blocks, dict) or not blocks:
        return ["no connection blocks in the report"]
    problems = []
    for name, entry in blocks.items():
        if not _finite_number(entry.get("max_abs")):
            problems.append(f"{name}: max_abs {entry.get('max_abs')!r}")
        probes = entry.get("probes", [])
        if len(probes) != len(op.probes):
            problems.append(f"{name}: {len(probes)} probe tables, expected"
                            f" {len(op.probes)}")
        for i, probe in enumerate(probes):
            if not all(_finite_number(v) for v in _flat(probe["values"])):
                problems.append(f"{name}: probe {i} has a non-finite value")
    return problems


def check_closed_form(op, code, text, report):
    """Probe tables equal the closed-form coefficients."""
    problems = []
    for block, per_probe in op.expect["blocks"].items():
        for i, want in enumerate(per_probe):
            got = _probe_values(report, block, i)
            if got is None:
                problems.append(f"{block}: no probe {i}")
                continue
            want_flat, got_flat = list(_flat(want)), list(_flat(got))
            if len(want_flat) != len(got_flat) or not all(
                    _finite_number(g) and _close(g, w)
                    for g, w in zip(got_flat, want_flat)):
                problems.append(f"{block}: probe {i} differs from the"
                                " closed form")
    return problems


def _metricity_residuals(blocks, facts):
    """The four covariant derivatives of the metric blocks at one probe,
    from the reported coefficients and the metric's own derivatives:
    D_c g_ab = delta_c g_ab - G^d_{ac} g_db - G^d_{bc} g_ad, where delta_c is
    d/dx_c - gamma^e_c d/dy_e (identity anchor) horizontally and d/dy_c
    vertically.  Returns (largest residual, largest term)."""
    m = facts["m"]
    worst, scale = 0.0, 1.0
    for metric, dmetric, h_block, v_block in (
            ("gh", "dgh", "hh", "vh"), ("gv", "dgv", "hv", "vv")):
        g = facts[metric]
        dim = len(g)
        for vertical, coef in ((False, blocks[h_block]),
                               (True, blocks[v_block])):
            nderiv = len(facts["gv"]) if vertical else len(facts["gh"])
            for c in range(nderiv):
                for a in range(dim):
                    for b in range(dim):
                        if vertical:
                            deriv = facts[dmetric][m + c][a][b]
                        else:
                            deriv = facts[dmetric][c][a][b] - sum(
                                facts["gamma"][e][c]
                                * facts[dmetric][m + e][a][b]
                                for e in range(len(facts["gamma"])))
                        terms = [deriv]
                        terms += [-coef[d][a][c] * g[d][b]
                                  for d in range(dim)]
                        terms += [-coef[d][b][c] * g[a][d]
                                  for d in range(dim)]
                        worst = max(worst, abs(sum(terms)))
                        scale = max(scale, *(abs(t) for t in terms))
    return worst, scale


def check_metricity(op, code, text, report):
    """At every probe the reported blocks make both metric blocks parallel,
    as the canonical, Obata and base-deformed constructions must."""
    problems = []
    for i, facts in enumerate(op.expect["metricity"]["points"]):
        blocks = {}
        for name in ("hh", "hv", "vh", "vv"):
            blocks[name] = _probe_values(report, name, i)
            if blocks[name] is None:
                return [f"{name}: no probe {i}"]
        facts = dict(facts, m=op.expect["metricity"]["m"])
        try:
            worst, scale = _metricity_residuals(blocks, facts)
        except (IndexError, TypeError) as err:
            return [f"probe {i}: malformed block table ({err})"]
        if not worst <= REL_TOL * scale:
            problems.append(f"probe {i}: metric not parallel, residual"
                            f" {worst!r}")
    return problems


def check_threads_identical(text, reference):
    """The report is byte-identical to a --threads 1 run."""
    if reference is None:
        return ["no --threads 1 reference"]
    if text != reference:
        return ["report differs from the --threads 1 run"]
    return []


def checks_for(op):
    """The checks that apply to an operation, by name."""
    out = {"envelope": check_envelope}
    if op.expect.get("within_tol"):
        out["within_tol"] = check_within_tol
    if op.expect.get("values"):
        out["values"] = check_values
    if "samples" in op.expect:
        out["samples"] = check_samples
    if op.command[0] == "connection":
        out["blocks_finite"] = check_blocks_finite
    if "blocks" in op.expect:
        out["closed_form"] = check_closed_form
    if "metricity" in op.expect:
        out["metricity"] = check_metricity
    return out


def run_checks(op, code, text, reference=None):
    """All problems with one operation's output; parses the report."""
    try:
        report = json.loads(text)
    except ValueError as err:
        return [f"report is not valid JSON: {err}"], None
    if not isinstance(report, dict):
        return ["report is not a JSON object"], None
    problems = []
    for name, check in checks_for(op).items():
        problems += [f"{name}: {p}" for p in check(op, code, text, report)]
    if op.threads_ref:
        problems += [f"threads: {p}"
                     for p in check_threads_identical(text, reference)]
    return problems, report


# -- negative controls -------------------------------------------------------


def _first_residual(report, names=None):
    for name in names or report["residuals"]:
        if name in report["residuals"]:
            return report["residuals"][name]
    raise LookupError("no residual to corrupt")


def _bump_probe(report, blocks):
    for name in blocks:
        entry = report["metadata"]["blocks"].get(name, {})
        if entry.get("probes"):
            values = entry["probes"][0]["values"]
            while isinstance(values[0], list):
                values = values[0]
            values[0] += 1e-3
            return
    raise LookupError("no probe value to corrupt")


def _corrupt_envelope(op, code, text, report):
    return 1 - code if code in (0, 1) else 0, report


def _corrupt_within_tol(op, code, text, report):
    entry = _first_residual(report, op.expect["within_tol"])
    entry["max"] = 10.0 * entry["tol"] + 1.0
    return code, report


def _corrupt_values(op, code, text, report):
    name = max(op.expect["values"], key=lambda k: op.expect["values"][k])
    report["residuals"][name]["max"] += 1e-3
    return code, report


def _corrupt_samples(op, code, text, report):
    report["samples"][0]["y"] = [0.0 for _ in report["samples"][0]["y"]]
    return code, report


def _corrupt_blocks_finite(op, code, text, report):
    name = next(iter(report["metadata"]["blocks"]))
    report["metadata"]["blocks"][name]["max_abs"] = float("nan")
    return code, report


def _corrupt_closed_form(op, code, text, report):
    _bump_probe(report, op.expect["blocks"])
    return code, report


def _corrupt_metricity(op, code, text, report):
    _bump_probe(report, ("hh", "hv", "vh", "vv"))
    return code, report


CORRUPTIONS = {
    "envelope": _corrupt_envelope,
    "within_tol": _corrupt_within_tol,
    "values": _corrupt_values,
    "samples": _corrupt_samples,
    "blocks_finite": _corrupt_blocks_finite,
    "closed_form": _corrupt_closed_form,
    "metricity": _corrupt_metricity,
}


def negative_control(op, name, code, text, report):
    """True when the named check rejects a damaged copy of an output that
    it accepted."""
    check = checks_for(op)[name]
    bad_code, bad_report = CORRUPTIONS[name](op, code, text,
                                             copy.deepcopy(report))
    return bool(check(op, bad_code, text, bad_report))


def threads_negative_control(text, reference):
    """True when the byte comparison rejects a one-byte change."""
    damaged = text[:-2] + ("0" if text[-2] != "0" else "1") + text[-1:]
    return bool(check_threads_identical(damaged, reference))
