"""Command-line harness: files written, schemas, exit codes."""
import copy
import csv
from pathlib import Path

import pytest
import yaml

from slicelab import baseline
from slicelab.scenario import save_scenario
from slicelab.cli import main, parse_seeds

from conftest import make_tiny_scenario

REFERENCE_YAML = Path(__file__).resolve().parent.parent / "scenarios" / "reference.yaml"
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


# "bogus" in every leaf but the names, -1 in every number and every tau_ms
CORRUPTIONS = [(path, "bogus") for path, _ in leaves(REFERENCE)
               if path[-1] not in ("name", "id")] + [
    (path, -1) for path, v in leaves(REFERENCE)
    if isinstance(v, (int, float)) or path[-1] == "tau_ms"]


@pytest.fixture()
def tiny_yaml(tmp_path):
    p = tmp_path / "tiny.yaml"
    save_scenario(make_tiny_scenario(max_iters=4), p)
    return p


def read_csv(path: Path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


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
        assert "OK" in out
        assert "slice2" in out and "slice3" in out

    def test_scenario_file(self, tiny_yaml, capsys):
        assert main(["validate", "--scenario", str(tiny_yaml)]) == 0
        assert "'new'" in capsys.readouterr().out

    def test_malformed_names_the_key(self, tmp_path, capsys):
        p = tmp_path / "broken.yaml"
        sc_path = tmp_path / "ok.yaml"
        save_scenario(make_tiny_scenario(), sc_path)
        data = yaml.safe_load(sc_path.read_text())
        del data["slices"][0]["tau_ms"]
        p.write_text(yaml.safe_dump(data))
        assert main(["validate", "--scenario", str(p)]) == 2
        err = capsys.readouterr().err
        assert "tau_ms" in err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", "--scenario", str(tmp_path / "nope.yaml")]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("path, key, value, named", [
        (["osra"], "transfer_rule", "bogus", "osra.transfer_rule"),
        (["sim"], "horizon_s", -1.0, "sim.horizon_s"),
        (["osra"], "probes", 0, "osra.probes"),
        (["osra"], "penalty_exponent", 3, "osra.penalty_exponent"),
        (["slices", 1], "rho", "high", "slice 'slice2'.rho"),
        (["topology"], "buffer_pkts", "many", "topology.buffer_pkts"),
        (["slices", 1, "traffic"], "mean_rate", -150.0, "slice 'slice2'.traffic.mean_rate"),
    ], ids=["transfer_rule", "horizon_s", "probes", "penalty_exponent", "rho",
            "buffer_pkts", "mean_rate"])
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
        if rc != 0:
            assert rc == 2
            assert key_name(path) in capsys.readouterr().err

    def test_invalid_statistic_override(self, tiny_yaml, capsys):
        rc = main(["run", "--scenario", str(tiny_yaml), "--statistic", "p105",
                   "--dry-run"])
        assert rc == 2
        assert "osra.statistic" in capsys.readouterr().err


class TestDryRun:
    def test_prints_resolved_scenario_and_writes_nothing(self, tiny_yaml,
                                                         tmp_path, capsys):
        out_dir = tmp_path / "never-created"
        rc = main(["run", "--scenario", str(tiny_yaml), "--out", str(out_dir),
                   "--dry-run"])
        assert rc == 0
        printed = yaml.safe_load(capsys.readouterr().out)
        assert printed["new_slice"] == "new"
        assert not out_dir.exists()

    def test_overrides_show_up(self, tiny_yaml, capsys):
        rc = main(["run", "--scenario", str(tiny_yaml), "--dry-run",
                   "--transfer-rule", "conservative", "--statistic", "p90"])
        assert rc == 0
        printed = yaml.safe_load(capsys.readouterr().out)
        assert printed["osra"]["transfer_rule"] == "conservative"
        assert printed["osra"]["statistic"] == "p90"


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

    def test_env_var_out_dir(self, tiny_yaml, tmp_path, monkeypatch, capsys):
        env_out = tmp_path / "from-env"
        monkeypatch.setenv("SLICELAB_OUT", str(env_out))
        rc = main(["run", "--scenario", str(tiny_yaml), "--seeds", "0"])
        assert rc == 0
        assert (env_out / "iterations_0.csv").exists()


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
