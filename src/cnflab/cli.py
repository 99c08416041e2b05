"""Command-line front end.

Every run emits a JSON result envelope that echoes the full configuration,
the package version, and the PRNG identifier, so any artifact can be
regenerated bit-for-bit from the envelope alone.  Sweeps additionally write
their table as CSV.  Seeds are always explicit — there is no entropy-source
default anywhere.

Exit codes: 0 success, 1 domain failure (unsatisfiable input, infeasible
pinning, mismatched formulas, exhausted budgets, unreadable files),
2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .core import (
    CnfError,
    VERSION,
    parse_dimacs,
    write_dimacs,
)
from .generators import (
    GadgetSpec,
    HardFamilySpec,
    RandomCnfSpec,
    gen_counterexample,
    gen_disjoint_family,
    gen_gadget,
    gen_hard_family,
    gen_linear_cnf,
    gen_random_cnf,
)
from .learner import exact_learning_trial, sample_complexity_sweep
from .rand import ALGORITHM
from .resilience import check_local_uniformity, resilience_theta
from .reveal import RevealParams, estimate_nice_probability
from .solutions import (
    DEFAULT_SOLUTION_CAP,
    Space,
    enumerate_solutions,
    count_solutions,
    marginals,
    sample_uniform,
    tv_distance,
    verify_gadget_counts,
)
from .structure import (
    asymptotic_parameters,
    check_clause_sizes,
    check_degree_one_property,
    check_edge_expansion,
    check_pairwise_intersection,
)


@dataclass(frozen=True)
class ExperimentConfig:
    command: str
    values: dict


class ConfigUsageError(Exception):
    def __init__(self, errors):
        super().__init__("; ".join(errors))
        self.errors = list(errors)


def _rat(x) -> dict:
    f = Fraction(x)
    return {"num": str(f.numerator), "den": str(f.denominator)}


def _assignment_str(assignment: int, n: int) -> str:
    return "".join("1" if (assignment >> v) & 1 else "0" for v in range(n))


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_num(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_seed(v) -> bool:
    return _is_int(v) or (isinstance(v, str) and v != "")


# Per-family parameter schema: name -> (predicate, required, description).
_POSINT = (lambda v: _is_int(v) and v > 0, "a positive integer")
_NONNEG = (lambda v: _is_int(v) and v >= 0, "a non-negative integer")
_POSNUM = (lambda v: _is_num(v) and v > 0, "a positive number")
_SEED = (_is_seed, "an integer or non-empty string")
_BOOL = (lambda v: isinstance(v, bool), "a boolean")

_FAMILY_SCHEMAS = {
    "disjoint": {"k": (_POSINT, True), "n": (_POSINT, True), "seed": (_SEED, True)},
    "gadget": {
        "k": (_POSINT, True),
        "ell": (_POSINT, True),
        "restricted": (_BOOL, False),
    },
    "hard": {
        "k": (_POSINT, True),
        "ell": (_POSINT, True),
        "m": (_POSINT, True),
        "index": (_NONNEG, True),
    },
    "random": {
        "k": (_POSINT, True),
        "n": (_POSINT, True),
        "alpha": (_POSNUM, True),
        "seed": (_SEED, True),
    },
    "linear": {
        "k": (_POSINT, True),
        "d": (_POSINT, True),
        "n": (_POSINT, True),
        "seed": (_SEED, True),
        "m": (_POSINT, False),
        "reject_budget": (_POSINT, False),
    },
    "counterexample": {"k": (_POSINT, True)},
}


def validate_family_spec(path, spec):
    """Errors (with JSON paths) for one formula-family description."""
    errors = []
    if not isinstance(spec, dict):
        return ["%s: must be an object" % path]
    family = spec.get("family")
    if family not in _FAMILY_SCHEMAS:
        return [
            "%s.family: must be one of %s"
            % (path, ", ".join(sorted(_FAMILY_SCHEMAS)))
        ]
    schema = _FAMILY_SCHEMAS[family]
    for key in spec:
        if key not in schema and key not in ("family", "label"):
            errors.append("%s.%s: unknown key" % (path, key))
    if "label" in spec and not isinstance(spec["label"], str):
        errors.append("%s.label: must be a string" % path)
    for key, ((pred, desc), required) in schema.items():
        if key not in spec:
            if required:
                errors.append("%s.%s: required" % (path, key))
        elif not pred(spec[key]):
            errors.append("%s.%s: must be %s" % (path, key, desc))
    return errors


def build_family(spec):
    """(label, formula) from a validated family description."""
    family = spec["family"]
    label = spec.get("label", family)
    if family == "disjoint":
        f = gen_disjoint_family(spec["k"], spec["n"], spec["seed"])
    elif family == "gadget":
        f = gen_gadget(
            GadgetSpec(spec["k"], spec["ell"], bool(spec.get("restricted", False)))
        )
    elif family == "hard":
        f = gen_hard_family(
            HardFamilySpec(spec["k"], spec["ell"], spec["m"], spec["index"])
        )
    elif family == "random":
        f = gen_random_cnf(
            RandomCnfSpec(spec["k"], spec["n"], spec["alpha"], spec["seed"])
        )
    elif family == "linear":
        f = gen_linear_cnf(
            spec["k"], spec["d"], spec["n"], spec["seed"],
            m=spec.get("m"), reject_budget=spec.get("reject_budget"),
        )
    elif family == "counterexample":
        f = gen_counterexample(spec["k"])
    else:
        raise ValueError("unknown family %r" % (family,))
    return label, f


_SWEEP_KEYS = {
    "instances", "k", "t_grid", "trials", "delta", "seed_base", "out_csv", "limit",
}
_REVEAL_KEYS = {
    "target", "prefix", "trials", "seed", "alpha", "p_hd", "eps_bd", "zeta",
    "k", "target_value", "limit", "traces",
}


def _validate_sweep(data):
    errors = []
    for key in data:
        if key not in _SWEEP_KEYS:
            errors.append("$.%s: unknown key" % key)
    if "seed_base" not in data:
        errors.append("$.seed_base: required (seeds are never implicit)")
    elif not _is_seed(data["seed_base"]):
        errors.append("$.seed_base: must be an integer or non-empty string")
    if "k" not in data:
        errors.append("$.k: required")
    elif not (_is_int(data["k"]) and data["k"] > 0):
        errors.append("$.k: must be a positive integer")
    if "t_grid" not in data:
        errors.append("$.t_grid: required")
    elif not isinstance(data["t_grid"], list) or not data["t_grid"]:
        errors.append("$.t_grid: must be a non-empty list")
    else:
        for i, t in enumerate(data["t_grid"]):
            if not (_is_int(t) and t > 0):
                errors.append("$.t_grid[%d]: must be a positive integer" % i)
    if "instances" not in data:
        errors.append("$.instances: required")
    elif not isinstance(data["instances"], list) or not data["instances"]:
        errors.append("$.instances: must be a non-empty list")
    else:
        for i, spec in enumerate(data["instances"]):
            errors.extend(validate_family_spec("$.instances[%d]" % i, spec))
    if "trials" in data and not (_is_int(data["trials"]) and data["trials"] > 0):
        errors.append("$.trials: must be a positive integer")
    if "delta" in data and not (_is_num(data["delta"]) and 0 < data["delta"] < 1):
        errors.append("$.delta: must lie strictly between 0 and 1")
    if "out_csv" not in data:
        errors.append("$.out_csv: required")
    elif not isinstance(data["out_csv"], str) or not data["out_csv"]:
        errors.append("$.out_csv: must be a non-empty string")
    if "limit" in data and not (_is_int(data["limit"]) and data["limit"] > 0):
        errors.append("$.limit: must be a positive integer")
    return errors


def _validate_reveal_sim(data):
    errors = []
    for key in data:
        if key not in _REVEAL_KEYS:
            errors.append("$.%s: unknown key" % key)
    if "target" not in data:
        errors.append("$.target: required")
    elif not (_is_int(data["target"]) and data["target"] >= 0):
        errors.append("$.target: must be a non-negative integer")
    if "seed" not in data:
        errors.append("$.seed: required (seeds are never implicit)")
    elif not _is_seed(data["seed"]):
        errors.append("$.seed: must be an integer or non-empty string")
    if "trials" not in data:
        errors.append("$.trials: required")
    elif not (_is_int(data["trials"]) and data["trials"] > 0):
        errors.append("$.trials: must be a positive integer")
    for key in ("alpha", "p_hd", "eps_bd", "zeta"):
        if key not in data:
            errors.append("$.%s: required" % key)
        elif not (_is_num(data[key]) and data[key] > 0):
            errors.append("$.%s: must be a positive number" % key)
    if "prefix" in data:
        if not isinstance(data["prefix"], dict):
            errors.append("$.prefix: must map variable indices to booleans")
        else:
            for key, value in data["prefix"].items():
                if not (isinstance(key, str) and key.isdigit()):
                    errors.append("$.prefix.%s: key must be a decimal variable index" % key)
                if not isinstance(value, bool):
                    errors.append("$.prefix.%s: value must be a boolean" % key)
    if "k" in data and not (_is_int(data["k"]) and data["k"] > 0):
        errors.append("$.k: must be a positive integer")
    if "target_value" in data and not isinstance(data["target_value"], bool):
        errors.append("$.target_value: must be a boolean")
    if "limit" in data and not (_is_int(data["limit"]) and data["limit"] > 0):
        errors.append("$.limit: must be a positive integer")
    if "traces" in data and not (_is_int(data["traces"]) and data["traces"] >= 0):
        errors.append("$.traces: must be a non-negative integer")
    return errors


def validate_config(data, command="sweep"):
    """Schema-check a JSON config; unknown keys are rejected.

    Returns an ExperimentConfig on success, or the list of error strings
    (each anchored to a JSON path like $.t_grid[2]) on failure.
    """
    if not isinstance(data, dict):
        return ["$: config must be a JSON object"]
    if command == "sweep":
        errors = _validate_sweep(data)
    elif command == "reveal-sim":
        errors = _validate_reveal_sim(data)
    else:
        return ["$: unknown config command %r" % (command,)]
    if errors:
        return errors
    return ExperimentConfig(command=command, values=dict(data))


def _read_config(path, command):
    """The validated values of a JSON config file: an unreadable file is a
    CnfError (exit 1), invalid JSON or a schema error a ConfigUsageError
    (exit 2)."""
    try:
        data = json.loads(Path(path).read_text())
    except OSError as e:
        raise CnfError("cannot read %s: %s" % (path, e)) from e
    except json.JSONDecodeError as e:
        raise ConfigUsageError(["$: invalid JSON: %s" % e])
    config = validate_config(data, command=command)
    if isinstance(config, list):
        raise ConfigUsageError(config)
    return config.values


def _read_formula(path):
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise CnfError("cannot read %s: %s" % (path, e)) from e
    return parse_dimacs(text)


def _flag_config(args, skip=("command", "func")):
    config = {}
    for key, value in sorted(vars(args).items()):
        if key in skip or key.startswith("_") or value is None:
            continue
        config[key] = value
    return config


# ---------------------------------------------------------------------------
# Subcommand handlers.  Each returns (config-echo dict, payload dict); the
# envelope destination may be overridden by returning a third element.


def _cmd_generate(args):
    spec = {"family": args.family}
    for key in ("k", "n", "ell", "m", "index", "d", "alpha", "seed", "reject_budget"):
        value = getattr(args, key)
        if value is not None:
            spec[key] = value
    if args.restricted:
        spec["restricted"] = True
    errors = validate_family_spec("$", spec)
    if errors:
        raise ConfigUsageError(errors)
    label, formula = build_family(spec)
    Path(args.out).write_text(write_dimacs(formula))
    params = formula.params
    payload = {
        "dimacs": args.out,
        "label": label,
        "n": formula.n,
        "clauses": len(formula.clauses),
        "kds": {
            "k_min": params.k_min,
            "k_max": params.k_max,
            "d_max": params.d_max,
            "s_max": params.s_max,
        },
    }
    return _flag_config(args), payload, args.out + ".json"


def _cmd_enumerate(args):
    formula = _read_formula(args.formula)
    sols = enumerate_solutions(formula, cap=args.cap, limit=args.limit)
    payload = {
        "count": sols.count,
        "solutions": [_assignment_str(a, formula.n) for a in sols.solutions],
    }
    return _flag_config(args), payload


def _cmd_count(args):
    formula = _read_formula(args.formula)
    payload = {"count": count_solutions(formula, limit=args.limit)}
    return _flag_config(args), payload


def _cmd_sample(args):
    formula = _read_formula(args.formula)
    draws = sample_uniform(
        formula, args.t, args.seed, limit=args.limit,
        method=args.method, reject_budget=args.reject_budget,
    )
    payload = {"samples": [_assignment_str(a, formula.n) for a in draws]}
    return _flag_config(args), payload


def _cmd_marginal(args):
    formula = _read_formula(args.formula)
    probs = marginals(formula, limit=args.limit)
    if args.var is not None:
        if not 0 <= args.var < formula.n:
            raise ValueError("variable %d out of range [0, %d)" % (args.var, formula.n))
        rows = [{"var": args.var, "prob": _rat(probs[args.var])}]
    else:
        rows = [{"var": v, "prob": _rat(p)} for v, p in enumerate(probs)]
    return _flag_config(args), {"marginals": rows}


def _cmd_tv(args):
    a = _read_formula(args.formula_a)
    b = _read_formula(args.formula_b)
    payload = {"tv": _rat(tv_distance(a, b, limit=args.limit))}
    return _flag_config(args), payload


def _cmd_learn(args):
    formula = _read_formula(args.formula)
    record = exact_learning_trial(
        formula, args.k, args.t, args.seed,
        family=args.family, report_tv=args.report_tv, limit=args.limit,
    )
    payload = {
        "family": record.family,
        "n": record.n,
        "k": record.k,
        "T": record.T,
        "seed": record.seed,
        "success": record.success,
        "learned_clause_count": record.learned_clause_count,
        "wall_time_s": record.wall_time_s,
        "tv": None if record.tv is None else _rat(record.tv),
    }
    return _flag_config(args), payload


def _cmd_sweep(args):
    values = _read_config(args.config, "sweep")
    instances = [build_family(spec) for spec in values["instances"]]
    result = sample_complexity_sweep(
        instances,
        values["k"],
        values["t_grid"],
        trials=values.get("trials", 200),
        delta=values.get("delta", 0.1),
        seed_base=values["seed_base"],
        limit=values.get("limit"),
    )
    csv_text = result.to_csv()
    Path(values["out_csv"]).write_text(csv_text)
    t_star = {
        "%s:%d" % (family, n): t for (family, n), t in sorted(result.t_star.items())
    }
    payload = {
        "csv": values["out_csv"],
        "rows": len(result.rows),
        "t_star": t_star,
        "delta": values.get("delta", 0.1),
        "trials": values.get("trials", 200),
    }
    return dict(values), payload


def _cmd_resilience(args):
    space = Space(_read_formula(args.formula), limit=args.limit)
    report = resilience_theta(space, args.k)
    payload = {
        "theta": _rat(report.theta),
        "zero_set_size": report.zero_set_size,
        "candidates": report.candidates,
        "solution_count": report.solution_count,
        "argmin": {
            "vars": list(report.argmin.vars),
            "forbidden_pattern": report.argmin.forbidden,
        },
    }
    if args.t is not None:
        lu = check_local_uniformity(space, args.t)
        payload["local_uniformity"] = {
            "max_marginal": _rat(lu.max_marginal),
            "bound": lu.bound,
            "holds": lu.holds,
            "condition_holds": lu.condition_holds,
        }
    return _flag_config(args), payload


def _check_to_json(check):
    return {
        "name": check.name,
        "passed": check.passed,
        "verdict": check.verdict,
        "note": check.note,
        "witness": None if check.witness is None else repr(check.witness),
    }


def _cmd_props(args):
    formula = _read_formula(args.formula)
    k = args.k if args.k is not None else formula.params.k_max
    preset = asymptotic_parameters(max(k, 1))
    beta = args.beta if args.beta is not None else preset["beta"]
    rho = args.rho if args.rho is not None else preset["rho"]
    eta = args.eta if args.eta is not None else preset["eta"]
    zeta = args.zeta if args.zeta is not None else preset["zeta"]
    checks = [
        check_clause_sizes(formula, k),
        check_pairwise_intersection(formula, args.intersection_bound),
        check_degree_one_property(formula, beta, args.size_limit, k=k),
        check_edge_expansion(formula, rho, eta, args.expansion_b, args.ell_limit),
    ]
    payload = {
        "k": k,
        "parameters": {"beta": beta, "rho": rho, "eta": eta, "zeta": zeta},
        "checks": [_check_to_json(c) for c in checks],
        "all_passed": all(c.passed for c in checks),
    }
    return _flag_config(args), payload


def _cmd_reveal_sim(args):
    formula = _read_formula(args.formula)
    values = _read_config(args.config, "reveal-sim")
    target = values["target"]
    if not 0 <= target < formula.n:
        raise ValueError("target %d out of range [0, %d)" % (target, formula.n))
    prefix = {int(v): bool(b) for v, b in values.get("prefix", {}).items()}
    params = RevealParams(
        alpha=values["alpha"],
        p_hd=values["p_hd"],
        eps_bd=values["eps_bd"],
        zeta=values["zeta"],
        k=values.get("k"),
    )
    estimate = estimate_nice_probability(
        formula, target, prefix, values["trials"], values["seed"], params,
        target_value=values.get("target_value"), limit=values.get("limit"),
        traces=values.get("traces", 3),
    )
    traces = [
        {
            "solution": _assignment_str(tau, formula.n),
            "S": list(r.S),
            "tau_S": {str(v): bool(b) for v, b in sorted(r.tau_S.items())},
            "c0": r.c0,
            "order": list(r.trace),
            "early_reason": r.early_reason,
            "nice": report.nice,
            "diagnosis": report.diagnosis,
        }
        for tau, r, report in estimate.traces
    ]
    payload = {
        "fraction": _rat(estimate.fraction),
        "successes": estimate.successes,
        "trials": estimate.trials,
        "wilson_95": [estimate.wilson_low, estimate.wilson_high],
        "diagnosis_counts": dict(sorted(estimate.diagnosis_counts.items())),
        "traces": traces,
    }
    return dict(values), payload


def _cmd_gadget_verify(args):
    report = verify_gadget_counts(args.k, args.ell, limit=args.limit)
    payload = {
        "k": report.k,
        "ell": report.ell,
        "count_unrestricted": report.count_unrestricted,
        "count_restricted": report.count_restricted,
        "ratio": _rat(report.ratio),
        "lower": _rat(report.lower),
        "upper": _rat(report.upper),
        "bounds_hold": report.bounds_hold,
        "extra": [
            _assignment_str(a, report.k * report.ell) for a in report.extra
        ],
        "extra_is_alternating": report.extra_is_alternating,
    }
    return _flag_config(args), payload


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cnflab",
        description="Exact, seeded experiments on small CNF formulas.",
    )
    parser.add_argument(
        "--version", action="version", version="cnflab " + VERSION
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--limit", type=int, default=None,
                       help="refuse formulas with more than this many variables")
        p.add_argument("--out", default=None,
                       help="write the JSON envelope here instead of stdout")

    p = sub.add_parser("generate", help="write a formula family instance as DIMACS")
    p.add_argument("--family", required=True, choices=sorted(_FAMILY_SCHEMAS))
    p.add_argument("--k", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--ell", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--index", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--restricted", action="store_true")
    p.add_argument("--seed")
    p.add_argument("--reject-budget", type=int, dest="reject_budget")
    p.add_argument("--out", required=True, help="DIMACS output path; the JSON sidecar lands at this path + .json")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("enumerate", help="list all solutions")
    p.add_argument("formula")
    p.add_argument("--cap", type=int, default=DEFAULT_SOLUTION_CAP)
    add_common(p)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("count", help="count solutions exactly")
    p.add_argument("formula")
    add_common(p)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("sample", help="draw i.i.d. uniform solutions")
    p.add_argument("formula")
    p.add_argument("--t", type=int, required=True, help="number of draws")
    p.add_argument("--seed", required=True)
    p.add_argument("--method", choices=("enumerate", "rejection"),
                   default="enumerate")
    p.add_argument("--reject-budget", type=int, dest="reject_budget")
    add_common(p)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("marginal", help="exact variable marginals")
    p.add_argument("formula")
    p.add_argument("--var", type=int, default=None)
    add_common(p)
    p.set_defaults(func=_cmd_marginal)

    p = sub.add_parser("tv", help="exact total variation distance")
    p.add_argument("formula_a")
    p.add_argument("formula_b")
    add_common(p)
    p.set_defaults(func=_cmd_tv)

    p = sub.add_parser("learn", help="one clause-elimination learning trial")
    p.add_argument("formula")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=int, required=True, help="sample count")
    p.add_argument("--seed", required=True)
    p.add_argument("--family", default="")
    p.add_argument("--report-tv", action="store_true", dest="report_tv")
    add_common(p)
    p.set_defaults(func=_cmd_learn)

    p = sub.add_parser("sweep", help="sample-complexity sweep from a JSON config")
    p.add_argument("config")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("resilience", help="exact resilience threshold")
    p.add_argument("formula")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=int, default=None,
                   help="also report the local-uniformity check at this t")
    add_common(p)
    p.set_defaults(func=_cmd_resilience)

    p = sub.add_parser("props", help="structural property battery")
    p.add_argument("formula")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--zeta", type=float, default=None)
    p.add_argument("--intersection-bound", type=int, default=1,
                   dest="intersection_bound")
    p.add_argument("--size-limit", type=int, default=3, dest="size_limit")
    p.add_argument("--expansion-b", type=float, default=2.0, dest="expansion_b")
    p.add_argument("--ell-limit", type=int, default=4, dest="ell_limit")
    add_common(p)
    p.set_defaults(func=_cmd_props)

    p = sub.add_parser("reveal-sim", help="empirical niceness of the revealing process")
    p.add_argument("formula")
    p.add_argument("config", help="JSON with target, prefix, trials, seed, parameters")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_reveal_sim)

    p = sub.add_parser("gadget-verify", help="exact gadget-pair counting check")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    add_common(p)
    p.set_defaults(func=_cmd_gadget_verify)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        code = e.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    start = time.monotonic()
    try:
        result = args.func(args)
    except ConfigUsageError as e:
        for err in e.errors:
            print("config error: %s" % err, file=sys.stderr)
        return 2
    except (CnfError, ValueError, OSError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    if len(result) == 3:
        config, payload, destination = result
    else:
        config, payload = result
        destination = getattr(args, "out", None)
    envelope = {
        "command": args.command,
        "config": config,
        "version": VERSION,
        "prng": ALGORITHM,
        "wall_time_s": round(time.monotonic() - start, 6),
        "payload": payload,
    }
    text = json.dumps(envelope, indent=2, sort_keys=True) + "\n"
    if destination:
        try:
            Path(destination).write_text(text)
        except OSError as e:
            print("error: cannot write %s: %s" % (destination, e), file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
