"""Command-line interface: exit codes, JSON envelopes, config validation."""

import json
from pathlib import Path

import pytest

from cnflab import (
    Clause,
    CnfFormula,
    GadgetSpec,
    RandomCnfSpec,
    RevealParams,
    estimate_nice_probability,
    gen_disjoint_family,
    gen_gadget,
    gen_linear_cnf,
    gen_random_cnf,
    write_dimacs,
)
from cnflab.cli import ExperimentConfig, run, validate_config

from util import F, count_bitmap_builds, pos


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def invoke_json(capsys, *argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def formula_file(tmp_path, name, formula):
    path = tmp_path / name
    path.write_text(write_dimacs(formula))
    return str(path)


def test_version_and_usage_exit_codes(capsys):
    code, out, _ = invoke(capsys, "--version")
    assert code == 0
    assert out.strip() == "cnflab 0.1.0"
    code, _, err = invoke(capsys)
    assert code == 2
    code, _, err = invoke(capsys, "no-such-command")
    assert code == 2


def test_generate_writes_dimacs_and_sidecar(tmp_path, capsys):
    out = tmp_path / "gadget.cnf"
    code, stdout, err = invoke(
        capsys, "generate", "--family", "gadget", "--k", "3", "--ell", "2",
        "--restricted", "--out", str(out),
    )
    assert code == 0, err
    assert stdout == ""  # envelope goes to the sidecar, not stdout
    assert out.exists()
    envelope = json.loads((tmp_path / "gadget.cnf.json").read_text())
    assert envelope["command"] == "generate"
    payload = envelope["payload"]
    assert payload["n"] == 6 and payload["clauses"] == 4
    assert payload["kds"] == {"k_min": 3, "k_max": 3, "d_max": 3, "s_max": 2}
    assert payload["label"] == "gadget"
    # the DIMACS file round-trips through the count command
    result = invoke_json(capsys, "count", str(out))
    assert result["payload"]["count"] == 44


def test_generate_rejects_incomplete_spec(capsys, tmp_path):
    code, _, err = invoke(
        capsys, "generate", "--family", "gadget", "--k", "3",
        "--out", str(tmp_path / "x.cnf"),
    )
    assert code == 2
    assert "config error: $.ell: required" in err


def test_enumerate_lists_bitstrings(tmp_path, capsys):
    path = formula_file(tmp_path, "or2.cnf", F(2, pos(0, 1)))
    result = invoke_json(capsys, "enumerate", path)
    assert result["payload"]["count"] == 3
    assert result["payload"]["solutions"] == ["10", "01", "11"]


def test_envelope_shape_and_prng_stamp(tmp_path, capsys):
    path = formula_file(tmp_path, "or2.cnf", F(2, pos(0, 1)))
    result = invoke_json(capsys, "count", path)
    assert set(result) == {
        "command", "config", "version", "prng", "wall_time_s", "payload",
    }
    assert result["version"] == "0.1.0"
    assert result["prng"] == "mt19937+fisher-yates"


def test_marginal_single_variable_rational(tmp_path, capsys):
    path = formula_file(tmp_path, "or2.cnf", F(2, pos(0, 1)))
    result = invoke_json(capsys, "marginal", path, "--var", "1")
    assert result["payload"]["marginals"] == [
        {"var": 1, "prob": {"num": "2", "den": "3"}}
    ]
    full = invoke_json(capsys, "marginal", path)
    assert len(full["payload"]["marginals"]) == 2
    code, _, err = invoke(capsys, "marginal", path, "--var", "7")
    assert code == 1
    assert "error:" in err and "out of range" in err


def test_tv_mismatched_variable_counts(tmp_path, capsys):
    a = formula_file(tmp_path, "a.cnf", F(2, pos(0, 1)))
    b = formula_file(tmp_path, "b.cnf", F(3, pos(0, 1, 2)))
    code, _, err = invoke(capsys, "tv", a, b)
    assert code == 1
    assert "variable counts differ: 2 vs 3" in err


def test_tv_gadget_pair(tmp_path, capsys):
    u = formula_file(tmp_path, "u.cnf", gen_gadget(GadgetSpec(3, 1)))
    r = formula_file(tmp_path, "r.cnf", gen_gadget(GadgetSpec(3, 1, True)))
    result = invoke_json(capsys, "tv", u, r)
    assert result["payload"]["tv"] == {"num": "1", "den": "8"}


def test_sample_is_seed_deterministic(tmp_path, capsys):
    path = formula_file(tmp_path, "g.cnf", gen_gadget(GadgetSpec(3, 1, True)))
    first = invoke_json(capsys, "sample", path, "--t", "5", "--seed", "s1")
    second = invoke_json(capsys, "sample", path, "--t", "5", "--seed", "s1")
    other = invoke_json(capsys, "sample", path, "--t", "5", "--seed", "s2")
    assert first["payload"] == second["payload"]
    assert first["payload"] != other["payload"]
    assert len(first["payload"]["samples"]) == 5
    assert all(len(s) == 3 for s in first["payload"]["samples"])


def test_negative_sample_count_is_an_error(tmp_path, capsys):
    path = formula_file(tmp_path, "g.cnf", gen_gadget(GadgetSpec(3, 1, True)))
    for argv in (["sample", path, "--t", "-3", "--seed", "s"],
                 ["sample", path, "--t", "-3", "--seed", "s", "--method", "rejection"],
                 ["learn", path, "--k", "3", "--t", "-3", "--seed", "s"]):
        code, out, err = invoke(capsys, *argv)
        assert code == 1 and out == ""
        assert "error: T must be >= 0, got -3" in err


def test_missing_formula_file_is_runtime_error(capsys):
    code, _, err = invoke(capsys, "count", "/nonexistent/path.cnf")
    assert code == 1
    assert err.startswith("error:")


def test_learn_trial_payload(tmp_path, capsys):
    path = formula_file(tmp_path, "g.cnf", gen_gadget(GadgetSpec(3, 1, True)))
    result = invoke_json(
        capsys, "learn", path, "--k", "3", "--t", "60", "--seed", "trial",
        "--family", "gadget-r", "--report-tv",
    )
    payload = result["payload"]
    assert payload["family"] == "gadget-r"
    assert payload["n"] == 3 and payload["k"] == 3 and payload["T"] == 60
    assert payload["success"] is True
    assert payload["tv"] == {"num": "0", "den": "1"}
    again = invoke_json(
        capsys, "learn", path, "--k", "3", "--t", "60", "--seed", "trial",
        "--family", "gadget-r", "--report-tv",
    )
    assert again["payload"]["learned_clause_count"] == payload["learned_clause_count"]


def test_resilience_payload(tmp_path, capsys):
    path = formula_file(tmp_path, "g32r.cnf", gen_gadget(GadgetSpec(3, 2, True)))
    result = invoke_json(capsys, "resilience", path, "--k", "3")
    payload = result["payload"]
    assert payload["theta"] == {"num": "1", "den": "22"}
    assert payload["solution_count"] == 44
    assert "local_uniformity" not in payload
    with_t = invoke_json(capsys, "resilience", path, "--k", "3", "--t", "7")
    lu = with_t["payload"]["local_uniformity"]
    assert set(lu) == {"max_marginal", "bound", "holds", "condition_holds"}


def test_resilience_with_local_uniformity_builds_one_bitmap(tmp_path, capsys, monkeypatch):
    path = formula_file(tmp_path, "d9.cnf", gen_disjoint_family(3, 9, "builds"))
    builds = count_bitmap_builds(monkeypatch)
    result = invoke_json(capsys, "resilience", path, "--k", "3", "--t", "3")
    assert builds == [9]
    assert "local_uniformity" in result["payload"]


def test_props_battery_on_disjoint_family(tmp_path, capsys):
    path = formula_file(tmp_path, "d.cnf", gen_disjoint_family(3, 9, "cli"))
    result = invoke_json(capsys, "props", path)
    payload = result["payload"]
    assert payload["k"] == 3
    assert payload["all_passed"] is True
    assert len(payload["checks"]) == 4
    for check in payload["checks"]:
        assert set(check) == {"name", "passed", "verdict", "note", "witness"}


def test_gadget_verify_command(capsys):
    result = invoke_json(capsys, "gadget-verify", "--k", "3", "--ell", "1")
    payload = result["payload"]
    assert payload["count_unrestricted"] == 8
    assert payload["count_restricted"] == 7
    assert payload["ratio"] == {"num": "7", "den": "8"}
    assert payload["bounds_hold"] is True
    assert payload["extra"] == ["111"]
    assert payload["extra_is_alternating"] is True


def test_out_flag_redirects_envelope(tmp_path, capsys):
    path = formula_file(tmp_path, "or2.cnf", F(2, pos(0, 1)))
    dest = tmp_path / "report.json"
    code, out, err = invoke(capsys, "count", path, "--out", str(dest))
    assert code == 0 and out == ""
    assert json.loads(dest.read_text())["payload"]["count"] == 3


SWEEP_CONFIG = {
    "instances": [{"family": "disjoint", "k": 2, "n": 4, "seed": "s"}],
    "k": 2,
    "t_grid": [2, 6],
    "trials": 8,
    "seed_base": "sb2",
}


def test_sweep_runs_and_is_reproducible(tmp_path, capsys):
    csv_path = tmp_path / "sweep.csv"
    config = dict(SWEEP_CONFIG, out_csv=str(csv_path))
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(config))
    result = invoke_json(capsys, "sweep", str(cfg_path))
    first_bytes = csv_path.read_bytes()
    assert result["payload"]["rows"] == 2
    assert result["payload"]["csv"] == str(csv_path)
    assert first_bytes.startswith(
        b"family,n,k,T,trials,successes,t_star_flag,seed_base"
    )
    # a second run must reproduce the archive byte for byte
    invoke_json(capsys, "sweep", str(cfg_path))
    assert csv_path.read_bytes() == first_bytes


def test_sweep_config_errors_are_usage_errors(tmp_path, capsys):
    bad = dict(SWEEP_CONFIG, out_csv="x.csv", t_grid=[2, -6], bogus=1)
    del bad["seed_base"]
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(bad))
    code, _, err = invoke(capsys, "sweep", str(cfg_path))
    assert code == 2
    assert "config error: $.t_grid[1]: must be a positive integer" in err
    assert "config error: $.seed_base: required (seeds are never implicit)" in err
    assert "config error: $.bogus: unknown key" in err
    cfg_path.write_text("{not json")
    code, _, err = invoke(capsys, "sweep", str(cfg_path))
    assert code == 2
    assert "invalid JSON" in err


def test_validate_config_returns_config_or_errors():
    config = dict(SWEEP_CONFIG, out_csv="out.csv")
    ok = validate_config(config)
    assert isinstance(ok, ExperimentConfig)
    assert ok.command == "sweep"
    assert ok.values["t_grid"] == [2, 6]
    errors = validate_config({"instances": "nope"})
    assert isinstance(errors, list)
    assert "$.instances: must be a non-empty list" in errors
    assert validate_config([], command="sweep") == ["$: config must be a JSON object"]
    errors = validate_config(
        dict(SWEEP_CONFIG, out_csv="x.csv",
             instances=[{"family": "disjoint", "k": 0, "n": 4, "seed": "s"}])
    )
    assert "$.instances[0].k: must be a positive integer" in errors


def test_reveal_sim_report(tmp_path, capsys):
    path = formula_file(tmp_path, "easy.cnf", F(12, pos(0, 1)))
    config = {
        "target": 0,
        "trials": 10,
        "seed": "rs",
        "alpha": 1 / 12,
        "p_hd": 100.0,
        "eps_bd": 0.5,
        "zeta": 1.0,
        "traces": 2,
    }
    cfg_path = tmp_path / "reveal.json"
    cfg_path.write_text(json.dumps(config))
    result = invoke_json(capsys, "reveal-sim", path, str(cfg_path))
    payload = result["payload"]
    assert payload["fraction"] == {"num": "1", "den": "1"}
    assert payload["successes"] == 10 and payload["trials"] == 10
    assert payload["diagnosis_counts"] == {"component": 10}
    assert len(payload["traces"]) == 2
    for trace in payload["traces"]:
        assert trace["early_reason"] == "sparse-alpha"
        assert trace["nice"] is True
        assert trace["S"] == [] and trace["c0"] is None
        assert len(trace["solution"]) == 12
    # with a prefix, the traces are the library estimate's first runs
    gadget = gen_gadget(GadgetSpec(3, 2))
    path = formula_file(tmp_path, "gadget.cnf", gadget)
    config = {"target": 0, "trials": 12, "seed": "tr", "alpha": 0.5,
              "p_hd": 100.0, "eps_bd": 0.5, "zeta": 0.4, "prefix": {"4": True}}
    cfg_path.write_text(json.dumps(config))
    payload = invoke_json(capsys, "reveal-sim", path, str(cfg_path))["payload"]
    params = RevealParams(alpha=0.5, p_hd=100.0, eps_bd=0.5, zeta=0.4)
    est = estimate_nice_probability(gadget, 0, {4: True}, 12, "tr", params, traces=3)
    assert payload["successes"] == est.successes
    assert payload["traces"] == [
        {
            "solution": "".join(str((tau >> v) & 1) for v in range(6)),
            "S": list(r.S),
            "tau_S": {str(v): b for v, b in sorted(r.tau_S.items())},
            "c0": r.c0,
            "order": list(r.trace),
            "early_reason": r.early_reason,
            "nice": report.nice,
            "diagnosis": report.diagnosis,
        }
        for tau, r, report in est.traces
    ]


ARTIFACTS = Path(__file__).parent / "artifacts"


def _reveal_sim_canary_cases():
    """(name, formula, config) of the archived reveal-sim runs: a linear
    3-CNF without prefix, and a random 3-CNF with a unit clause on its
    target, once with a prefix and once with a target_value."""
    linear = gen_linear_cnf(3, 2, 18, "canary-a")
    random = gen_random_cnf(RandomCnfSpec(3, 14, 1.2, "canary-b"))
    unit = CnfFormula(random.n, random.clauses + (Clause.from_literals([(4, False)]),))
    common = {"trials": 60, "p_hd": 12.0, "eps_bd": 0.7}
    return [
        ("linear", linear, dict(common, target=0, seed="canary-a", zeta=0.4,
                                alpha=11 / 18, traces=4)),
        ("prefix", unit, dict(common, target=4, seed="canary-b", zeta=0.5,
                              alpha=17 / 14, traces=3, prefix={"5": True})),
        ("target-value", unit, dict(common, target=4, seed="canary-c", zeta=1.0,
                                    alpha=17 / 14, traces=2, target_value=False)),
    ]


def test_reveal_sim_matches_archived_envelopes(tmp_path, capsys):
    # the committed JSON is the byte-identity canary of seeded reveal-sim runs
    envelopes = []
    for name, formula, config in _reveal_sim_canary_cases():
        path = formula_file(tmp_path, name + ".cnf", formula)
        cfg_path = tmp_path / (name + ".json")
        cfg_path.write_text(json.dumps(config))
        envelope = invoke_json(capsys, "reveal-sim", path, str(cfg_path))
        del envelope["wall_time_s"]
        assert envelope["payload"]["traces"]
        envelopes.append(envelope)
    text = json.dumps(envelopes, indent=2, sort_keys=True) + "\n"
    assert text == (ARTIFACTS / "reveal_sim.json").read_text()


def test_reveal_sim_prefix_variable_out_of_range(tmp_path, capsys):
    path = formula_file(tmp_path, "three.cnf", F(3, pos(0, 1)))
    cfg_path = tmp_path / "reveal.json"
    cfg_path.write_text(json.dumps({
        "target": 0, "trials": 3, "seed": "s", "alpha": 0.1, "p_hd": 1.0,
        "eps_bd": 0.1, "zeta": 0.1, "prefix": {"5": True},
    }))
    code, out, err = invoke(capsys, "reveal-sim", path, str(cfg_path))
    assert code == 1 and out == ""
    assert "variable 5 out of range [0, 3)" in err


def test_reveal_sim_config_validation(tmp_path, capsys):
    path = formula_file(tmp_path, "easy.cnf", F(12, pos(0, 1)))
    cfg_path = tmp_path / "reveal.json"
    cfg_path.write_text(json.dumps({"target": 0, "trials": 3, "seed": "s"}))
    code, _, err = invoke(capsys, "reveal-sim", path, str(cfg_path))
    assert code == 2
    for key in ("alpha", "p_hd", "eps_bd", "zeta"):
        assert "config error: $.%s: required" % key in err
    errors = validate_config(
        {"target": 0, "trials": 3, "seed": "s", "alpha": 0.1, "p_hd": 1.0,
         "eps_bd": 0.1, "zeta": 0.1, "prefix": {"x": 1}},
        command="reveal-sim",
    )
    assert "$.prefix.x: key must be a decimal variable index" in errors
    assert "$.prefix.x: value must be a boolean" in errors
