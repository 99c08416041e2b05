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
import math
import sys
import time
from dataclasses import dataclass, fields
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


def _payload(record, **override):
    """A result dataclass as a JSON object, field by field, with Fractions
    written as _rat; `override` gives the fields that need another form."""
    out = {f.name: getattr(record, f.name) for f in fields(record)}
    out = {key: _rat(v) if isinstance(v, Fraction) else v for key, v in out.items()}
    return {**out, **override}


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_num(v) -> bool:
    """An integer or a finite float: Infinity and NaN are not numbers here."""
    return _is_int(v) or (isinstance(v, float) and math.isfinite(v))


# A field check maps (JSON path, value) to a list of error strings.
def _field(pred, must):
    return lambda path, v: [] if pred(v) else ["%s: %s" % (path, must)]


_POSINT = _field(lambda v: _is_int(v) and v > 0, "must be a positive integer")
_NONNEG = _field(lambda v: _is_int(v) and v >= 0, "must be a non-negative integer")
_POSNUM = _field(lambda v: _is_num(v) and v > 0, "must be a positive number")
_SEED = _field(
    lambda v: _is_int(v) or (isinstance(v, str) and v != ""),
    "must be an integer or non-empty string",
)
_BOOL = _field(lambda v: isinstance(v, bool), "must be a boolean")
_PROBABILITY = _field(
    lambda v: _is_num(v) and 0 < v < 1, "must lie strictly between 0 and 1"
)
_PATH = _field(lambda v: isinstance(v, str) and v != "", "must be a non-empty string")
_LABEL = _field(lambda v: isinstance(v, str), "must be a string")


def _list_of(item):
    """Field check of a non-empty list whose entries pass `item`."""
    def check(path, v):
        if not isinstance(v, list) or not v:
            return ["%s: must be a non-empty list" % path]
        return [e for i, x in enumerate(v) for e in item("%s[%d]" % (path, i), x)]
    return check


def _prefix(path, v):
    if not isinstance(v, dict):
        return ["%s: must map variable indices to booleans" % path]
    errors = []
    for key, value in v.items():
        if not (isinstance(key, str) and key.isdecimal()):
            errors.append("%s.%s: key must be a decimal variable index" % (path, key))
        if not isinstance(value, bool):
            errors.append("%s.%s: value must be a boolean" % (path, key))
    return errors


# A schema maps each key to (field check, the error for a missing key, or
# None when the key is optional).
_REQUIRED = "required"
_SEEDED = "required (seeds are never implicit)"


def _validate(path, data, schema):
    """Errors (with JSON paths) of an object against a schema: its unknown
    keys first, then each schema key in table order."""
    errors = ["%s.%s: unknown key" % (path, key) for key in data if key not in schema]
    for key, (check, missing) in schema.items():
        if key in data:
            errors += check("%s.%s" % (path, key), data[key])
        elif missing:
            errors.append("%s.%s: %s" % (path, key, missing))
    return errors


# Each formula family: its generator, called with the spec's parameters as
# keywords, and its parameter schema.  The `generate` flags come from here.
_FAMILIES = {
    "disjoint": (gen_disjoint_family, {
        "k": (_POSINT, _REQUIRED),
        "n": (_POSINT, _REQUIRED),
        "seed": (_SEED, _REQUIRED),
    }),
    "gadget": (lambda **p: gen_gadget(GadgetSpec(**p)), {
        "k": (_POSINT, _REQUIRED),
        "ell": (_POSINT, _REQUIRED),
        "restricted": (_BOOL, None),
    }),
    "hard": (lambda **p: gen_hard_family(HardFamilySpec(**p)), {
        "k": (_POSINT, _REQUIRED),
        "ell": (_POSINT, _REQUIRED),
        "m": (_POSINT, _REQUIRED),
        "index": (_NONNEG, _REQUIRED),
    }),
    "random": (lambda **p: gen_random_cnf(RandomCnfSpec(**p)), {
        "k": (_POSINT, _REQUIRED),
        "n": (_POSINT, _REQUIRED),
        "alpha": (_POSNUM, _REQUIRED),
        "seed": (_SEED, _REQUIRED),
    }),
    "linear": (gen_linear_cnf, {
        "k": (_POSINT, _REQUIRED),
        "d": (_POSINT, _REQUIRED),
        "n": (_POSINT, _REQUIRED),
        "seed": (_SEED, _REQUIRED),
        "m": (_POSINT, None),
        "reject_budget": (_POSINT, None),
    }),
    "counterexample": (gen_counterexample, {"k": (_POSINT, _REQUIRED)}),
}
_SPEC_KEYS = {
    "family": (lambda path, v: [], None),  # checked before the schema is known
    "label": (_LABEL, None),
}

# One `generate` flag per family parameter, typed by its field check.
_GENERATE_FLAGS = {
    key: check for _, params in _FAMILIES.values() for key, (check, _) in params.items()
}
_FLAG_KWARGS = {
    _POSINT: {"type": int},
    _NONNEG: {"type": int},
    _POSNUM: {"type": float},
    _SEED: {},
    _BOOL: {"action": "store_true"},
}


def validate_family_spec(path, spec):
    """Errors (with JSON paths) for one formula-family description."""
    if not isinstance(spec, dict):
        return ["%s: must be an object" % path]
    family = spec.get("family")
    if not isinstance(family, str) or family not in _FAMILIES:
        return ["%s.family: must be one of %s" % (path, ", ".join(sorted(_FAMILIES)))]
    return _validate(path, spec, {**_SPEC_KEYS, **_FAMILIES[family][1]})


def build_family(spec):
    """(label, formula) from a validated family description."""
    family = spec["family"]
    if family not in _FAMILIES:
        raise ValueError("unknown family %r" % (family,))
    make, params = _FAMILIES[family]
    formula = make(**{key: spec[key] for key in params if key in spec})
    return spec.get("label", family), formula


_CONFIG_SCHEMAS = {
    "sweep": {
        "seed_base": (_SEED, _SEEDED),
        "k": (_POSINT, _REQUIRED),
        "t_grid": (_list_of(_POSINT), _REQUIRED),
        "instances": (_list_of(validate_family_spec), _REQUIRED),
        "trials": (_POSINT, None),
        "delta": (_PROBABILITY, None),
        "out_csv": (_PATH, _REQUIRED),
        "limit": (_POSINT, None),
    },
    "reveal-sim": {
        "target": (_NONNEG, _REQUIRED),
        "seed": (_SEED, _SEEDED),
        "trials": (_POSINT, _REQUIRED),
        "alpha": (_POSNUM, _REQUIRED),
        "p_hd": (_POSNUM, _REQUIRED),
        "eps_bd": (_POSNUM, _REQUIRED),
        "zeta": (_POSNUM, _REQUIRED),
        "prefix": (_prefix, None),
        "k": (_POSINT, None),
        "target_value": (_BOOL, None),
        "limit": (_POSINT, None),
        "traces": (_NONNEG, None),
    },
}


def validate_config(data, command="sweep"):
    """Schema-check a JSON config; unknown keys are rejected.

    Returns an ExperimentConfig on success, or the list of error strings
    (each anchored to a JSON path like $.t_grid[2]) on failure.
    """
    if not isinstance(data, dict):
        return ["$: config must be a JSON object"]
    if command not in _CONFIG_SCHEMAS:
        return ["$: unknown config command %r" % (command,)]
    errors = _validate("$", data, _CONFIG_SCHEMAS[command])
    return errors or ExperimentConfig(command=command, values=dict(data))


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


def _flag_config(args):
    return {
        key: value for key, value in sorted(vars(args).items())
        if value is not None and key not in ("command", "func") and not key.startswith("_")
    }


# ---------------------------------------------------------------------------
# Subcommand handlers.  Each returns (config-echo dict, payload dict); the
# envelope destination may be overridden by returning a third element.


def _cmd_generate(args):
    spec = {"family": args.family}
    for key in _GENERATE_FLAGS:
        value = getattr(args, key)
        if value is not None and value is not False:  # False: an absent switch
            spec[key] = value
    errors = validate_family_spec("$", spec)
    if errors:
        raise ConfigUsageError(errors)
    label, formula = build_family(spec)
    Path(args.out).write_text(write_dimacs(formula))
    payload = {
        "dimacs": args.out,
        "label": label,
        "n": formula.n,
        "clauses": len(formula.clauses),
        "kds": formula.params._asdict(),
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
    return _flag_config(args), _payload(record)


def _cmd_sweep(args):
    values = _read_config(args.config, "sweep")
    instances = [build_family(spec) for spec in values["instances"]]
    result = sample_complexity_sweep(
        instances, values["k"], values["t_grid"], trials=values.get("trials", 200),
        delta=values.get("delta", 0.1), seed_base=values["seed_base"],
        limit=values.get("limit"),
    )
    Path(values["out_csv"]).write_text(result.to_csv())
    t_star = {
        "%s:%d" % (family, n): t for (family, n), t in sorted(result.t_star.items())
    }
    payload = {
        "csv": values["out_csv"],
        "rows": len(result.rows),
        "t_star": t_star,
        "delta": result.delta,
        "trials": result.trials,
    }
    return dict(values), payload


def _cmd_resilience(args):
    space = Space(_read_formula(args.formula), limit=args.limit)
    report = resilience_theta(space, args.k)
    argmin = report.argmin
    payload = _payload(
        report, argmin={"vars": list(argmin.vars), "forbidden_pattern": argmin.forbidden}
    )
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
    if args.k is not None and args.k < 1:
        raise ValueError("need k >= 1, got %d" % args.k)
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
        **{key: values.get(key) for key in ("alpha", "p_hd", "eps_bd", "zeta", "k")}
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
    extra = [_assignment_str(a, report.k * report.ell) for a in report.extra]
    return _flag_config(args), _payload(report, extra=extra)


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
    p.add_argument("--family", required=True, choices=sorted(_FAMILIES))
    for key, check in _GENERATE_FLAGS.items():
        p.add_argument("--" + key.replace("_", "-"), dest=key, **_FLAG_KWARGS[check])
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
