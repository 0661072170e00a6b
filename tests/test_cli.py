"""Command-line harness: files written, schemas, exit codes."""
import copy
import csv
import hashlib
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from slicelab import baseline
from slicelab.scenario import reference_scenario, scenario_to_dict
from slicelab.cli import main, parse_seeds

from conftest import make_tiny_scenario

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_YAML = ROOT / "scenarios" / "reference.yaml"
REFERENCE = yaml.safe_load(REFERENCE_YAML.read_text())


def leaves(node, path=()):
    """(path, value) of every scalar in YAML data; list items by index."""
    if isinstance(node, dict):
        for k, v in node.items():
            yield from leaves(v, path + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from leaves(v, path + (i,))
    else:
        yield path, node


def key_name(path):
    """How an error names the key at `path`: <section>.<key>, a list by its key."""
    keys = [str(p) for p in path if not isinstance(p, int)]
    if path[0] == "slices":
        keys[0] = f"slice {REFERENCE['slices'][path[1]]['id']!r}"
    return ".".join(keys)


# "bogus" in every leaf but the names, -1 in every number and every tau_ms,
# and every number as its own value quoted ("200.0"): a string is no number
CORRUPTIONS = [(path, "bogus") for path, _ in leaves(REFERENCE)
               if path[-1] not in ("name", "id")] + [
    (path, -1) for path, v in leaves(REFERENCE)
    if isinstance(v, (int, float)) or path[-1] == "tau_ms"] + [
    (path, str(v)) for path, v in leaves(REFERENCE) if isinstance(v, (int, float))]


# the only corruptions that still validate: a rank only orders the slices
ACCEPTED = {(("slices", i, "priority_rank"), -1) for i in range(len(REFERENCE["slices"]))}


@pytest.fixture()
def tiny_yaml(tmp_path):
    p = tmp_path / "tiny.yaml"
    p.write_text(yaml.safe_dump(scenario_to_dict(make_tiny_scenario(max_iters=4))))
    return p


def run_cli(*args):
    """`python -m slicelab *args` in a fresh interpreter that imports src/."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "slicelab", *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=300)


def read_csv(path: Path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestGoldenOutputs:
    """What the CLI prints and writes for the built-in reference, by sha256;
    a change that means to move these outputs updates the digests and
    states the drift."""

    def test_validate_stdout(self, capsys):
        assert main(["validate"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
            "0b070a74064d9996237f71c5d99ec8e43ce22421678bcd7bdad4063cc89e7dd6")

    @pytest.mark.parametrize("command, digest", [
        ("run", "baf32a8d33391475bc1fc8e48d5616efd1ef07392788bdc335fb0741ad2d8c59"),
        ("compare", "69bd4acb5b5f5136d3067eeb167816743945040acb317626929a1ff7891ce914"),
    ], ids=["run", "compare"])
    def test_output_directory(self, tmp_path, capsys, command, digest):
        # every file's name and bytes, in sorted order of names
        out = tmp_path / "out"
        assert main([command, "--out", str(out), "--seeds", "0..2"]) == 0
        h = hashlib.sha256()
        for path in sorted(out.iterdir()):
            h.update(path.name.encode())
            h.update(path.read_bytes())
        assert h.hexdigest() == digest


class TestParseSeeds:
    def test_comma_list(self):
        assert parse_seeds("0,5,7") == [0, 5, 7]

    def test_inclusive_range(self):
        assert parse_seeds("3..6") == [3, 4, 5, 6]
        assert parse_seeds("0..0") == [0]

    def test_stray_commas_ignored(self):
        assert parse_seeds("0,,2,") == [0, 2]

    def test_garbage_rejected(self):
        import argparse
        with pytest.raises(argparse.ArgumentTypeError, match="seeds must be"):
            parse_seeds("a,b")
        with pytest.raises(argparse.ArgumentTypeError, match="empty seed range"):
            parse_seeds("9..3")
        with pytest.raises(argparse.ArgumentTypeError, match="seeds must be"):
            parse_seeds(",")
        # a malformed range gets the same message, not int()'s ValueError
        for text in ("0..", "a..b", "0..2..3", "0..3,5"):
            with pytest.raises(argparse.ArgumentTypeError,
                               match=re.escape(f"seeds must be like '0,1,2' or '0..9', "
                                               f"got {text!r}")):
                parse_seeds(text)

    @pytest.mark.parametrize("text", ["-1", "0,-2", "-3..2", "-5..-1"])
    def test_negative_seed_rejected(self, text):
        import argparse
        with pytest.raises(argparse.ArgumentTypeError, match="seeds must be non-negative"):
            parse_seeds(text)

    @pytest.mark.parametrize("text", ["0,0", "1,2,1"])
    def test_repeated_seed_rejected(self, text):
        import argparse
        with pytest.raises(argparse.ArgumentTypeError, match="seeds must not repeat"):
            parse_seeds(text)

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_repeated_seed_exits_2(self, tiny_yaml, tmp_path, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--scenario", str(tiny_yaml), "--out", str(tmp_path), "--seeds=0,0"])
        assert exc.value.code == 2
        assert "--seeds: seeds must not repeat" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "compare"])
    @pytest.mark.parametrize("seeds", ["--seeds=-1", "--seeds=-3..2"])
    def test_negative_seed_exits_2(self, tiny_yaml, tmp_path, capsys, command, seeds):
        with pytest.raises(SystemExit) as exc:
            main([command, "--scenario", str(tiny_yaml), "--out", str(tmp_path), seeds])
        assert exc.value.code == 2
        assert "--seeds: seeds must be non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_empty_seed_list_exits_2(self, tiny_yaml, tmp_path, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--scenario", str(tiny_yaml), "--out", str(tmp_path),
                  "--seeds", ","])
        assert exc.value.code == 2
        assert "seeds must be like" in capsys.readouterr().err


class TestValidate:
    def test_builtin_reference(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# scenario 'reference' OK: 3 slices, new slice 'slice1', "
                              "lower-priority [slice2, slice3]")
        assert yaml.safe_load(out) == scenario_to_dict(reference_scenario())

    def test_prints_resolved_scenario_and_writes_nothing(self, tiny_yaml, tmp_path,
                                                         monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["validate", "--scenario", str(tiny_yaml)]) == 0
        printed = yaml.safe_load(capsys.readouterr().out)
        assert printed == yaml.safe_load(tiny_yaml.read_text())
        assert sorted(p.name for p in tmp_path.iterdir()) == ["tiny.yaml"]

    @pytest.mark.parametrize("command", ["run", "compare"])
    @pytest.mark.parametrize("flag", ["--transfer-rule=conservative", "--statistic=p90",
                                      "--dry-run"])
    def test_no_flag_sets_a_knob(self, tiny_yaml, tmp_path, command, flag):
        # the scenario's osra section is the one setter of the algorithm's
        # knobs, and validate the one printer of the scenario a run reads
        with pytest.raises(SystemExit) as exc:
            main([command, "--scenario", str(tiny_yaml), "--out", str(tmp_path), flag])
        assert exc.value.code == 2

    def test_module_entry_point(self):
        proc = run_cli("validate")
        assert proc.returncode == 0, proc.stderr
        assert "OK" in proc.stdout

    def test_scenario_file(self, tiny_yaml, capsys):
        assert main(["validate", "--scenario", str(tiny_yaml)]) == 0
        assert "'new'" in capsys.readouterr().out

    def test_malformed_names_the_key(self, tmp_path, capsys):
        p = tmp_path / "broken.yaml"
        data = scenario_to_dict(make_tiny_scenario())
        del data["slices"][0]["tau_ms"]
        p.write_text(yaml.safe_dump(data))
        assert main(["validate", "--scenario", str(p)]) == 2
        err = capsys.readouterr().err
        assert "tau_ms" in err

    @pytest.mark.parametrize("name, content", [
        ("nope.yaml", None),
        (".", None),
        ("f.yaml", b"name: x\nslices: [\n"),
        ("f.yaml", b"name: \xff\xfe\n"),
    ], ids=["missing", "directory", "unclosed-list", "not-utf8"])
    def test_unreadable_file_exits_2(self, tmp_path, name, content):
        path = tmp_path / name
        if content is not None:
            path.write_bytes(content)
        proc = run_cli("validate", "--scenario", str(path))
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"error: {path}: ")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("path, key, value, named", [
        (["osra"], "transfer_rule", "bogus", "osra.transfer_rule"),
        (["sim"], "horizon_s", -1.0, "sim.horizon_s"),
        (["osra"], "probes", 0, "osra.probes"),
        (["osra"], "penalty_exponent", 3, "osra.penalty_exponent"),
        (["slices", 1], "rho", "high", "slice 'slice2'.rho"),
        (["topology"], "buffer_pkts", "many", "topology.buffer_pkts"),
        (["slices", 1, "traffic"], "mean_rate", -150.0, "slice 'slice2'.traffic.mean_rate"),
        (["osra"], "delta", 1e-20, "osra.delta"),
        (["sim"], "horizon_s", math.inf, "sim.horizon_s"),
        (["sim"], "propagation_ms", math.inf, "sim.propagation_ms"),
        (["slices", 0], "traffic", {"kind": "poisson", "mean_rate": math.inf, "size_min": 20,
                                    "size_max": 65535, "size_dist": "uniform"},
         "slice 'slice1'.traffic.mean_rate"),
        (["slices", 0, "traffic"], "burst_len", math.inf, "slice 'slice1'.traffic.burst_len"),
        (["slices", 0, "traffic"], "off_time_ms", math.inf,
         "slice 'slice1'.traffic.off_time_ms"),
        (["slices", 0], "demand_mi", math.inf, "slice 'slice1'.demand_mi"),
        (["topology", "edges"], "link", math.inf, "topology.edges.link"),
        (["topology", "cores"], "core0", math.inf, "topology.cores.core0"),
        (["topology"], "buffer_pkts", 2.5, "topology.buffer_pkts"),
        (["osra"], "probes", True, "osra.probes"),
        (["slices", 0], "alpha_rho", math.nan, "slice 'slice1'.alpha_rho"),
        (["slices", 0], "alpha_tau", math.inf, "slice 'slice1'.alpha_tau"),
        (["slices", 1], "rho", True, "slice 'slice2'.rho"),
        (["slices", 0], "traffic", {"kind": "poisson", "mean_rate": 200.0, "size_min": 20,
                                    "size_max": 65535, "size_dist": "exponential",
                                    "size_mean": math.inf},
         "slice 'slice1'.traffic.size_mean"),
        (["slices", 1], "tau_ms", True, "slice 'slice2'.tau_ms"),
        (["osra"], "eta", True, "osra.eta"),
        (["osra"], "eta", math.inf, "osra.eta"),
        (["osra"], "delay_ceiling_ms", math.inf, "osra.delay_ceiling_ms"),
        (["osra"], "delta", math.inf, "osra.delta"),
        (["osra"], "probes", "3", "osra.probes"),
        (["osra"], "epsilon", math.inf, "osra.epsilon"),
        (["osra"], "statistic", "p105", "osra.statistic"),
    ], ids=["transfer_rule", "horizon_s", "probes", "penalty_exponent", "rho",
            "buffer_pkts", "mean_rate", "delta", "horizon_s-inf", "propagation_ms-inf",
            "poisson-mean_rate-inf", "burst_len-inf", "off_time_ms-inf", "demand_mi-inf",
            "edge-inf", "core-inf", "buffer_pkts-fraction", "probes-bool", "alpha_rho-nan",
            "alpha_tau-inf", "rho-bool", "size_mean-inf", "tau_ms-bool", "eta-bool",
            "eta-inf", "delay_ceiling_ms-inf", "delta-inf",
            "probes-string", "epsilon-inf", "statistic"])
    def test_bad_value_names_the_key(self, tmp_path, capsys, path, key, value, named):
        data = yaml.safe_load(REFERENCE_YAML.read_text())
        section = data
        for part in path:
            section = section[part]
        section[key] = value
        p = tmp_path / "bad.yaml"
        p.write_text(yaml.safe_dump(data))
        assert main(["validate", "--scenario", str(p)]) == 2
        assert named in capsys.readouterr().err

    def test_statistic_just_above_100_exits_2(self, tmp_path, capsys):
        # the check and the rank read one parse, so validate refuses what run cannot use
        data = yaml.safe_load(REFERENCE_YAML.read_text())
        data["osra"]["statistic"] = "p100.0000000000000001"
        p = tmp_path / "above.yaml"
        p.write_text(yaml.safe_dump(data))
        assert main(["validate", "--scenario", str(p)]) == 2
        assert "osra.statistic: percentile out of (0,100]" in capsys.readouterr().err

    @pytest.mark.parametrize("path, value", CORRUPTIONS, ids=[
        "/".join(map(str, path)) + f"={value}" for path, value in CORRUPTIONS])
    def test_every_rejected_leaf_names_its_key(self, tmp_path, capsys, path, value):
        data = copy.deepcopy(REFERENCE)
        section = data
        for part in path[:-1]:
            section = section[part]
        section[path[-1]] = value
        p = tmp_path / "bad.yaml"
        p.write_text(yaml.safe_dump(data))
        rc = main(["validate", "--scenario", str(p)])
        if (path, value) in ACCEPTED:
            assert rc == 0
        else:
            assert rc == 2
            assert key_name(path) in capsys.readouterr().err

    @pytest.mark.parametrize("mutate, named", [
        (lambda d: d.update(slices=5), "slices"),
        (lambda d: d["slices"].__setitem__(0, 5), "slices"),
        (lambda d: d["initial_alloc"]["slice1"].update(flows=[0.04, 0.1]),
         "initial_alloc.slice1.flows"),
        (lambda d: d["initial_alloc"]["slice3"].update(cpu=[0.43]), "initial_alloc.slice3.cpu"),
        (lambda d: d["initial_alloc"]["slice1"].update(flows=0.04),
         "initial_alloc.slice1.flows: flows must be 1-D"),
        (lambda d: d["osra"].update(eta={"slice2": 0.05, "slice3": -0.1}), "osra.eta"),
        (lambda d: d["sim"].update(seed=0), "sim"),
        (lambda d: d["osra"].update(eta={"slice2": 0.04, "slice3": 0.08}),
         "osra.eta: eta must be in [0, inf), got {"),
        (lambda d: d["osra"].update(eta_schedule="constant"),
         "unknown key(s) ['eta_schedule'] in osra"),
        (lambda d: d["osra"].update(donor_gradients="probed"),
         "unknown key(s) ['donor_gradients'] in osra"),
        (lambda d: d["osra"].pop("epsilon"), "missing key 'epsilon' in osra"),
        (lambda d: d.pop("osra"), "missing key 'osra' in scenario"),
        (lambda d: d.pop("sim"), "missing key 'sim' in scenario"),
        (lambda d: d["topology"].pop("buffer_pkts"), "missing key 'buffer_pkts' in topology"),
        (lambda d: d["slices"][0]["traffic"].pop("size_dist"),
         "missing key 'size_dist' in slice 'slice1'.traffic"),
    ], ids=["slices-not-a-list", "slice-not-a-mapping", "ragged-flows", "short-cpu",
            "flows-not-a-list",
            "negative-eta-in-map", "sim-seed", "eta-map", "eta_schedule", "donor_gradients",
            "no-epsilon", "no-osra", "no-sim", "no-buffer_pkts", "no-size_dist"])
    def test_malformed_section_names_its_key(self, tmp_path, capsys, mutate, named):
        data = copy.deepcopy(REFERENCE)
        mutate(data)
        p = tmp_path / "bad.yaml"
        p.write_text(yaml.safe_dump(data))
        assert main(["validate", "--scenario", str(p)]) == 2
        assert named in capsys.readouterr().err


class TestRun:
    def test_writes_one_trace_per_seed_plus_summaries(self, tiny_yaml,
                                                      tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["run", "--scenario", str(tiny_yaml), "--out", str(out),
                   "--seeds", "0,1"])
        assert rc == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "final_alloc.csv", "iterations_0.csv", "iterations_1.csv",
            "qoe_per_iter.csv"]
        stdout = capsys.readouterr().out
        assert "iteration trace(s)" in stdout

        header, rows = read_csv(out / "iterations_0.csv")
        assert header[:3] == ["k", "stop_metric", "rule_used"]
        for col in ("penalty_new", "delay_stat_donor", "throughput_new",
                    "f_new_link", "cpu_donor_core"):
            assert col in header
        assert rows and rows[0][0] == "0"
        ks = [int(r[0]) for r in rows]
        assert ks == list(range(len(rows)))

        header, rows = read_csv(out / "qoe_per_iter.csv")
        assert header == ["k", "slice", "mean_delay_ms", "max_delay_ms",
                          "throughput", "penalty", "n_seeds"]
        assert {r[1] for r in rows} == {"new", "donor"}
        assert max(int(r[6]) for r in rows) == 2

        header, rows = read_csv(out / "final_alloc.csv")
        assert header[:4] == ["seed", "slice", "converged", "iterations"]
        assert len(rows) == 2 * 2  # seeds x slices
        for r in rows:
            for frac in r[4:]:
                assert 0.0 <= float(frac) <= 1.0

    def test_a_capped_run_writes_the_allocation_it_last_measured(self, tmp_path, capsys):
        # a 0.05 ms bound is never met, so all three iterations are made
        p = tmp_path / "capped.yaml"
        p.write_text(yaml.safe_dump(scenario_to_dict(
            make_tiny_scenario(tau_new=0.05, epsilon=0.0, max_iters=3))))
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(p), "--out", str(out), "--seeds", "0"]) == 0
        trace_header, trace_rows = read_csv(out / "iterations_0.csv")
        last = dict(zip(trace_header, trace_rows[-1]))
        header, rows = read_csv(out / "final_alloc.csv")
        assert len(trace_rows) == 3
        for r in rows:
            row = dict(zip(header, r))
            assert row["converged"] == "0" and row["iterations"] == "2"
            for col in header[4:]:
                kind, edge = col.split("_", 1)
                assert row[col] == last[f"{kind}_{row['slice']}_{edge}"], col

    @pytest.mark.parametrize("below", [(), ("sub",)], ids=["file", "under-a-file"])
    def test_out_that_is_no_directory_exits_2(self, tiny_yaml, tmp_path, capsys, below):
        out = tmp_path.joinpath("taken", *below)
        (tmp_path / "taken").write_text("")
        rc = main(["run", "--scenario", str(tiny_yaml), "--out", str(out), "--seeds", "0"])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: --out {out}: ")

    def test_out_that_is_a_file_exits_2_without_a_traceback(self, tmp_path):
        taken = tmp_path / "taken"
        taken.write_text("")
        proc = run_cli("run", "--out", str(taken), "--seeds", "0")
        assert proc.returncode == 2
        assert proc.stderr == f"error: --out {taken}: File exists\n"
        assert taken.read_text() == ""


class TestCompare:
    def test_two_seeds_include_pooled_rows(self, tiny_yaml, tmp_path, capsys):
        out = tmp_path / "cmp"
        rc = main(["compare", "--scenario", str(tiny_yaml), "--out", str(out),
                   "--seeds", "0,1"])
        assert rc == 0
        header, rows = read_csv(out / "compare.csv")
        for col in ("method", "slice", "violation_fraction", "mean_delay",
                    "throughput"):
            assert col in header
        methods = {r[0] for r in rows}
        assert methods == {"baseline", "osra"}
        seeds = {r[2] for r in rows}
        assert seeds == {"0", "1", "pooled"}
        for r in rows:
            assert 0.0 <= float(r[header.index("violation_fraction")]) <= 1.0

        hh, hrows = read_csv(out / "histograms.csv")
        assert hh == ["method", "slice", "bin_left_ms", "bin_right_ms", "count"]
        assert all(int(r[4]) >= 0 for r in hrows)
        assert {r[0] for r in hrows} == {"baseline", "osra"}

    def test_each_audited_seed_is_simulated_once(self, tiny_yaml, tmp_path,
                                                 monkeypatch, capsys):
        calls = []
        run_sim = baseline.run_sim
        monkeypatch.setattr(baseline, "run_sim",
                            lambda *a, **kw: calls.append(kw["seed"]) or run_sim(*a, **kw))
        rc = main(["compare", "--scenario", str(tiny_yaml), "--out", str(tmp_path),
                   "--seeds", "0..3"])
        assert rc == 0
        assert calls == [0, 1, 2, 3] * 2  # 2 methods x 4 seeds

    def test_single_seed_has_no_pooled_row(self, tiny_yaml, tmp_path, capsys):
        out = tmp_path / "cmp1"
        rc = main(["compare", "--scenario", str(tiny_yaml), "--out", str(out),
                   "--seeds", "5"])
        assert rc == 0
        _, rows = read_csv(out / "compare.csv")
        assert all(r[2] != "pooled" for r in rows)
        assert "wrote compare.csv" in capsys.readouterr().out
