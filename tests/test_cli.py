import contextlib
import dataclasses
import hashlib
import io
import json
import signal
import string
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from congestspan import cli
from congestspan import graph as gr
from congestspan import polylog, sparse


# builds that pass verification, though closed-form bounds of their report
# do not fit in a float (those keys are listed; they are null)
OVERFLOWING = [
    ({"alg": "skeleton", "graph": "gen:cycle:n=3", "rho": "0.001"},
     ["rounds_model", "stretch_closed_form"]),
    ({"alg": "polylog", "graph": "gen:path:n=5", "kappa": 1000}, ["rounds_model"]),
]

# parameters whose exact stretch bound has more digits than Python turns an
# int into text with by default, each refused before it builds; the last
# schedule has about 100 000 phases
UNPRINTABLE = [
    {"alg": "polylog", "graph": "gen:path:n=5", "kappa": 5000},
    {"alg": "skeleton", "graph": "gen:path:n=30", "rho": "0.0003"},
    {"alg": "skeleton", "graph": "gen:path:n=30", "rho": "0.00001"},
]
UNPRINTABLE_IDS = ["polylog kappa 5000", "skeleton rho 0.0003",
                   "skeleton rho 0.00001"]


def _parameter_flags(point: dict) -> list:
    """The --kappa and --rho flags of a bench point."""
    return [arg for key in ("kappa", "rho") if key in point
            for arg in (f"--{key}", str(point[key]))]


class TestGraphSpec:
    def test_generator_spec(self):
        g = cli.parse_graph_spec("gen:gnp_connected:n=20,p=0.2,seed=3")
        assert g.n == 20

    def test_file_spec(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("1 2\n2 3\n")
        assert cli.parse_graph_spec(str(p)).n == 3

    def test_bad_spec(self):
        with pytest.raises(gr.GraphError):
            cli.parse_graph_spec("gen:")
        with pytest.raises(gr.GraphError):
            cli.parse_graph_spec("gen:cycle:n")


class TestBuild:
    def test_build_cycle_passes(self, tmp_path, capsys):
        rc = cli.main(["build", "--alg", "polylog", "--graph", "gen:cycle:n=8",
                       "--kappa", "2", "--out", str(tmp_path / "o")])
        assert rc == 0
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert report["passed"] is True
        assert report["verification"]["passed"] is True
        assert (tmp_path / "o" / "spanner.edges").exists()

    @pytest.mark.parametrize("graph, kappa", [("gen:path:n=17", "5"),
                                              ("gen:grid:n=20", "3")])
    def test_knockout_blocks_nest(self, graph, kappa, tmp_path, capsys):
        # ID ranges of 17 and 20 at t = 2: knock-out blocks that did not nest
        # left two ruling members at distance 2 on both
        rc = cli.main(["build", "--alg", "polylog", "--graph", graph,
                       "--kappa", kappa, "--out", str(tmp_path / "o")])
        assert rc == 0
        assert capsys.readouterr().out.startswith("PASS")

    def test_small_gnp_at_large_kappa_passes_size(self, tmp_path, capsys):
        # 27 edges: more than 18^(9/8) = 25.83, within the charge caps'
        # 17 + 18*(ceil(18^(1/8)) - 1) = 35
        rc = cli.main(["build", "--alg", "polylog", "--graph",
                       "gen:gnp_connected:n=18,p=0.3212,seed=18", "--kappa", "8",
                       "--out", str(tmp_path / "o")])
        assert rc == 0
        assert capsys.readouterr().out.startswith("PASS polylog n=18 |H|=27 ")
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        size, = (v for v in report["verification"]["verdicts"] if v["name"] == "size")
        assert size["detail"] == "27 edges vs (n-1) + n*(ceil(n^(1/8)) - 1) = 35"
        assert report["bounds"]["size"] == 35.0

    def test_rho_out_of_range_fails_cleanly(self, tmp_path, capsys):
        rc = cli.main(["build", "--alg", "sparse", "--graph", "gen:cycle:n=8",
                       "--kappa", "3", "--rho", "0.6", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "rho" in capsys.readouterr().err

    def test_rho_past_the_digit_limit_names_the_range(self, tmp_path, capsys):
        # 10^4300 has 4 301 digits, one more than Python turns into text
        rc = cli.main(["build", "--alg", "skeleton", "--rho", "1e4300", "--graph",
                       "gen:path:n=4", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: rho must satisfy 1/kappa <= rho < 1/2, got a number of over "
            "4300 digits with kappa=3\n")
        assert not (tmp_path / "o").exists()

    def test_tree_input_emits_input_edges(self, tmp_path):
        rc = cli.main(["build", "--alg", "sparse", "--graph",
                       "gen:random_tree:n=20,seed=4", "--kappa", "3",
                       "--rho", "1/3", "--out", str(tmp_path / "o")])
        assert rc == 0
        g = cli.parse_graph_spec("gen:random_tree:n=20,seed=4")
        emitted = cli.parse_graph_spec(str(tmp_path / "o" / "spanner.edges"))
        assert emitted.edge_set() == g.edge_set()

    def test_skeleton_preset(self, tmp_path):
        rc = cli.main(["build", "--alg", "skeleton", "--graph",
                       "gen:gnp_connected:n=64,p=0.1,seed=7", "--rho", "0.34",
                       "--out", str(tmp_path / "o")])
        assert rc == 0
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert report["config"]["kappa"] == 7  # ceil(log2 64) + 1
        assert report["spanner_size"] if "spanner_size" in report else True

    @pytest.mark.parametrize("n", [1, 2])
    def test_skeleton_preset_on_the_smallest_paths(self, n, tmp_path, capsys):
        rc = cli.main(["build", "--alg", "skeleton", "--rho", "0.34", "--graph",
                       f"gen:path:n={n}", "--out", str(tmp_path / "o")])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert report["config"]["kappa"] == 3

    @pytest.mark.parametrize("n, kappa", [(4, 5), (8, 5), (64, 7)])
    def test_skeleton_preset_raises_kappa_to_admit_rho(self, n, kappa, tmp_path,
                                                       capsys):
        # rho = 1/5 lies below 1/3 and 1/4, the preset's kappa at n = 4 and
        # 8, which then becomes ceil(1/rho) = 5; n = 64 keeps log2(64) + 1
        rc = cli.main(["build", "--alg", "skeleton", "--rho", "0.2", "--graph",
                       f"gen:path:n={n}", "--out", str(tmp_path / "o")])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert report["config"]["kappa"] == kappa

    @pytest.mark.parametrize("point, nulls", OVERFLOWING,
                             ids=[p["alg"] for p, _ in OVERFLOWING])
    def test_bounds_past_a_float_are_null(self, point, nulls, tmp_path, capsys):
        rc = cli.main(["build", "--alg", point["alg"], "--graph", point["graph"],
                       *_parameter_flags(point), "--out", str(tmp_path / "o")])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out
        bounds = json.loads((tmp_path / "o" / "report.json").read_text())["bounds"]
        assert sorted(k for k, v in bounds.items() if v is None) == nulls
        assert isinstance(bounds["size"], float)

    def test_bounds_run_one_sparse_schedule(self, monkeypatch):
        # the report derives the schedule once for its bounds, config and
        # phase rows, beside the one derivation in verify_build
        g = gr.generate_graph("cycle", n=3)
        result = sparse.build_skeleton(g, "0.001")
        calls = []

        def counted(*args):
            calls.append(args)
            return schedule(*args)

        schedule = sparse.degree_schedule
        monkeypatch.setattr(sparse, "degree_schedule", counted)
        report = cli.build_report(g, result)
        assert len(calls) == 2
        radii = schedule(*calls[0]).radius_bounds
        assert report["bounds"]["stretch_checked"] == \
            report["verification"]["stretch_bound"] == 4 * radii[-1] + 1
        assert [row["radius_bound"] for row in report["phases"]] == list(radii)

    def test_report_of_a_phase_outside_the_schedule(self):
        # a copy of the last phase numbered 99 fails phase_counts; its row
        # is still reported, with no bound, since the schedule has none
        g = gr.generate_graph("gnp_connected", n=48, p=0.1, seed=2)
        result = polylog.build_spanner(g, 3)
        result.snapshots.append(dataclasses.replace(result.snapshots[-1], phase=99))
        report = cli.build_report(g, result)
        assert not report["passed"]
        assert "phase_counts" in [v["name"] for v in
                                  report["verification"]["verdicts"] if not v["ok"]]
        row = report["phases"][-1]
        assert (row["phase"], row["radius_bound"], row["threshold"]) == (99, None, None)

    def test_report_roundtrips(self, tmp_path):
        out = tmp_path / "o"
        cli.main(["build", "--alg", "polylog", "--graph", "gen:grid:n=16",
                  "--kappa", "2", "--out", str(out)])
        text = (out / "report.json").read_text()
        assert json.dumps(json.loads(text), indent=2, sort_keys=True) == text

    def test_dump_clusters_is_pinned(self, tmp_path):
        # phases 1 and 2 both hold clusters of several members, so the dump
        # covers tree parents across two phases of superclustering
        out = tmp_path / "o"
        rc = cli.main(["build", "--alg", "skeleton", "--graph",
                       "gen:gnp_connected:n=128,p=0.05,seed=3", "--rho", "0.34",
                       "--out", str(out), "--dump-clusters"])
        assert rc == 0
        data = (out / "clusters.json").read_bytes()
        phases = json.loads(data)
        assert [len(s["clusters"]) for s in phases] == [128, 6, 1, 0, 0]
        assert hashlib.sha256(data).hexdigest() == (
            "06e2b4e5158f0848970df5878108828210b03f35a5767999585be88e05a53698")

    @pytest.mark.parametrize("alg_args, digest", [
        (["polylog", "--kappa", "3"],
         "4aaaf68d2e29739e5568c1e4d96a1a5eda00d084c87e3713ff17299358575c1b"),
        (["skeleton", "--rho", "0.34"],
         "707af27e00fd76d7e23fd03fe9c84c7d7d5f608754250fb26a440e680c59756d"),
    ], ids=["polylog", "skeleton"])
    def test_report_is_pinned(self, tmp_path, alg_args, digest):
        # the whole report, per-phase rows included
        out = tmp_path / "o"
        rc = cli.main(["build", "--alg", *alg_args, "--graph",
                       "gen:gnp_connected:n=128,p=0.05,seed=3", "--out", str(out)])
        assert rc == 0
        data = (out / "report.json").read_bytes()
        assert len(json.loads(data)["phases"]) > 1
        assert hashlib.sha256(data).hexdigest() == digest

    @pytest.mark.parametrize("alg_args, digest", [
        (["polylog", "--kappa", "2"],
         "7efa73510fa19294dfd35ecd958caf0a6eb554619af15777df199171f463d63e"),
        (["skeleton", "--rho", "0.34"],
         "51319a418138fc0f7c9a72d4306dea3831f3a897b9f1a34f6e118365d5544656"),
    ], ids=["polylog", "skeleton"])
    def test_single_vertex_report_is_pinned(self, tmp_path, alg_args, digest):
        # a single vertex runs no phase: no schedule keys in config, no rows
        out = tmp_path / "o"
        rc = cli.main(["build", "--alg", *alg_args, "--graph", "gen:path:n=1",
                       "--out", str(out)])
        assert rc == 0
        data = (out / "report.json").read_bytes()
        assert json.loads(data)["phases"] == []
        assert hashlib.sha256(data).hexdigest() == digest

    def test_config_file_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kappa": 2, "out": str(tmp_path / "o")}))
        rc = cli.main(["--config", str(cfg), "build", "--alg", "polylog",
                       "--graph", "gen:cycle:n=8"])
        assert rc == 0
        assert (tmp_path / "o" / "report.json").exists()

    def test_config_file_sets_a_switch(self, tmp_path):
        # a switch left unset holds False, not None, and the file sets it
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dump_clusters": True, "out": str(tmp_path / "o")}))
        rc = cli.main(["--config", str(cfg), "build", "--alg", "polylog",
                       "--kappa", "2", "--graph", "gen:cycle:n=8"])
        assert rc == 0
        assert json.loads((tmp_path / "o" / "clusters.json").read_text())


RANDOM_TEXT = st.text(
    alphabet=st.sampled_from(string.digits + " \t\n#-+_.x")
    | st.characters(blacklist_categories=("Cs",)), max_size=80)
# "u v" lines over a few IDs, some out of range or past 2**63, with comments
# and extra fields; some of these files hold a valid connected graph
_ID = st.sampled_from([0, 1, 2, 3, 4, 5, 2 ** 63 - 1, 2 ** 80])
RANDOM_EDGE_LINES = st.lists(
    st.tuples(_ID, _ID, st.sampled_from(["", "", "", " # c", " 3"])),
    unique_by=lambda line: frozenset(line[:2]), max_size=12,
).map(lambda lines: "".join(f"{u} {v}{tail}\n" for u, v, tail in lines))


class TestMalformedInput:
    """Bad input exits 2 with one error line, never a traceback; exit 1
    stays reserved for a failed verification."""

    @pytest.mark.parametrize("spec", [
        "missing.edges", ".", "gen:path", "gen:path:foo=1", "gen:path:n=3,foo=1",
        "gen:grid:rows=2.5,cols=2"])
    def test_bad_graph_exits_2(self, spec, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = cli.main(["build", "--alg", "polylog", "--kappa", "2",
                       "--graph", spec, "--out", "o"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("text", [None, "{", "[1, 2]"],
                             ids=["missing", "not json", "not an object"])
    def test_bad_config_exits_2(self, text, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        if text is not None:
            cfg.write_text(text)
        rc = cli.main(["--config", str(cfg), "build", "--alg", "polylog",
                       "--kappa", "2", "--graph", "gen:cycle:n=8",
                       "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: --config")

    @pytest.mark.parametrize("key, val, command", [
        ("bound", "abc", ["verify", "--spanner", "s.edges"]),
        ("out", 5, ["build", "--alg", "polylog", "--kappa", "2"]),
        ("rho", [1], ["build", "--alg", "sparse", "--kappa", "3"])],
        ids=["bound not a number", "out not a string", "rho a list"])
    def test_config_value_its_flag_cannot_hold_exits_2(self, key, val, command,
                                                       tmp_path, capsys,
                                                       monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "s.edges").write_text("1 2\n")
        (tmp_path / "cfg.json").write_text(json.dumps({key: val}))
        rc = cli.main(["--config", "cfg.json", *command, "--graph", "gen:path:n=2"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --config cfg.json: {key}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("val", ["yes", 1, None], ids=["string", "number", "null"])
    def test_config_switch_not_a_boolean_exits_2(self, val, tmp_path, capsys,
                                                 monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps({"dump_clusters": val}))
        rc = cli.main(["--config", "cfg.json", "build", "--alg", "polylog",
                       "--kappa", "2", "--graph", "gen:cycle:n=8"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --config cfg.json: dump_clusters: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag, config", [
        (["--bound", "nan"], None), (["--bound=-NaN"], None),
        ([], '{"bound": "NaN"}'), ([], '{"bound": NaN}')],
        ids=["flag", "negative flag", "config string", "config literal"])
    def test_nan_bound_exits_2(self, flag, config, tmp_path, capsys, monkeypatch):
        # every comparison with NaN is false, so each verdict would fail
        monkeypatch.chdir(tmp_path)
        gr.save_edgelist(gr.generate_graph("cycle", n=8).edges(), "h.edges")
        argv = ["verify", "--graph", "gen:cycle:n=8", "--spanner", "h.edges", *flag]
        if config is not None:
            (tmp_path / "cfg.json").write_text(config)
            argv = ["--config", "cfg.json", *argv]
        rc = cli.main(argv)
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --bound nan: not a number\n"
        assert captured.out == ""

    @pytest.mark.parametrize("flags", [
        ["--alg", "sparse", "--kappa", "1", "--rho", "0.9"],
        ["--alg", "polylog", "--kappa", "0"]], ids=["sparse", "polylog"])
    def test_bad_parameters_exit_2_at_one_vertex(self, flags, tmp_path, capsys):
        # a single vertex needs no phases, but its parameters are still
        # checked, with the same error line as on two vertices
        errors = []
        for n in (1, 2):
            rc = cli.main(["build", *flags, "--graph", f"gen:path:n={n}",
                           "--out", str(tmp_path / f"o{n}")])
            assert rc == 2
            errors.append(capsys.readouterr().err)
        assert errors[0].startswith("error: ") and errors[0] == errors[1]

    @pytest.mark.parametrize("point", UNPRINTABLE, ids=UNPRINTABLE_IDS)
    def test_unprintable_stretch_bound_exits_2(self, point, tmp_path, capsys):
        out = tmp_path / "o"
        rc = cli.main(["build", "--alg", point["alg"], "--graph", point["graph"],
                       *_parameter_flags(point), "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: the stretch bound ")
        assert "more than 4300 digits" in captured.err
        assert not out.exists()   # refused before the build

    @pytest.mark.parametrize("flag, config", [
        (["--rho", "1/0"], None), ([], '{"rho": "1/0"}')], ids=["flag", "config"])
    def test_zero_denominator_rho_exits_2(self, flag, config, tmp_path, capsys,
                                          monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = ["build", "--alg", "skeleton", *flag, "--graph", "gen:path:n=8"]
        if config is not None:
            (tmp_path / "cfg.json").write_text(config)
            argv = ["--config", "cfg.json", *argv]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == "error: '1/0' has a zero denominator\n"
        assert not (tmp_path / "out").exists()

    def test_out_is_a_file_exits_2(self, tmp_path, capsys):
        out = tmp_path / "o"
        out.write_text("")
        rc = cli.main(["build", "--alg", "polylog", "--kappa", "2",
                       "--graph", "gen:cycle:n=8", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: --out")

    @pytest.mark.parametrize("text", [None, "{", "{}", "[1]", '[{"kappa": NaN}]'],
                             ids=["missing", "not json", "not a list",
                                  "entry not an object", "not a JSON number"])
    def test_bad_series_exits_2(self, text, tmp_path, capsys):
        series = tmp_path / "series.json"
        if text is not None:
            series.write_text(text)
        rc = cli.main(["bench", "--series", str(series), "--out",
                       str(tmp_path / "b"), "--workers", "1"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_bench_out_is_a_file_exits_2(self, tmp_path, capsys):
        series = tmp_path / "series.json"
        series.write_text("[]")
        out = tmp_path / "o"
        out.write_text("")
        rc = cli.main(["bench", "--series", str(series), "--out", str(out),
                       "--workers", "1"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: --out")

    def test_bad_workers_variable_exits_2(self, tmp_path, capsys, monkeypatch):
        series = tmp_path / "series.json"
        series.write_text("[]")
        monkeypatch.setenv("CONGESTSPAN_WORKERS", "abc")
        rc = cli.main(["bench", "--series", str(series), "--out",
                       str(tmp_path / "b")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: CONGESTSPAN_WORKERS")

    @pytest.mark.parametrize("token", [
        "1_0", "１", "٣", "+5", "-5", "0", str(2 ** 64), "9" * 4001],
        ids=["underscore", "full-width digit", "arabic-indic digit",
             "plus sign", "minus sign", "zero", "2^64", "4001 digits"])
    def test_bad_vertex_id_exits_2(self, token, tmp_path, capsys):
        """The graph loader and the spanner-file reader take a vertex ID only
        as ASCII digits in [1, 2^64 - 1]; any other token exits 2 with an
        error line naming the file and the line."""
        path = tmp_path / "g.edges"
        path.write_text(f"1 2\n2 {token}\n", encoding="utf-8")
        for argv in (["build", "--alg", "polylog", "--kappa", "2",
                      "--graph", str(path), "--out", str(tmp_path / "o")],
                     ["verify", "--graph", "gen:path:n=3", "--spanner", str(path)]):
            assert cli.main(argv) == 2
            assert capsys.readouterr().err == (
                f"error: {path}:2: vertex id {token!r} is not an integer "
                f"in [1, 2^64 - 1]\n")

    def test_largest_vertex_id_builds_and_verifies(self, tmp_path, capsys):
        top = 2 ** 64 - 1
        path = tmp_path / "g.edges"
        path.write_text(f"1 {top}\n{top} 2\n2 3\n3 1\n")
        out = tmp_path / "o"
        assert cli.main(["build", "--alg", "polylog", "--kappa", "2",
                         "--graph", str(path), "--out", str(out)]) == 0
        assert cli.main(["verify", "--graph", str(path),
                         "--spanner", str(out / "spanner.edges")]) == 0

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=st.one_of(RANDOM_TEXT, RANDOM_EDGE_LINES))
    def test_random_edge_list_text_never_crashes(self, text, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text(text, encoding="utf-8")
        rc = cli.main(["build", "--alg", "polylog", "--kappa", "2",
                       "--graph", str(path), "--out", str(tmp_path / "o")])
        assert rc in (0, 1, 2)


class TestVerify:
    def test_identity_spanner_stretch_one(self, tmp_path, capsys):
        g = gr.generate_graph("cycle", n=8)
        sp = tmp_path / "h.edges"
        gr.save_edgelist(g.edges(), str(sp))
        rc = cli.main(["verify", "--graph", "gen:cycle:n=8", "--spanner", str(sp)])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["max_edge_stretch"] == 1

    def test_cycle_minus_edge_stretch_seven(self, tmp_path, capsys):
        g = gr.generate_graph("cycle", n=8)
        edges = [e for e in g.edges() if e != (1, 8)]
        sp = tmp_path / "h.edges"
        gr.save_edgelist(edges, str(sp))
        rc = cli.main(["verify", "--graph", "gen:cycle:n=8", "--spanner", str(sp)])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["max_edge_stretch"] == 7

    def test_missing_bridge_is_infinite_and_named(self, tmp_path, capsys):
        g = gr.generate_graph("path", n=4)
        edges = [e for e in g.edges() if e != (2, 3)]
        sp = tmp_path / "h.edges"
        gr.save_edgelist(edges, str(sp))
        rc = cli.main(["verify", "--graph", "gen:path:n=4", "--spanner", str(sp)])
        assert rc == 1
        report = json.loads(capsys.readouterr().out)
        finite = [v for v in report["verdicts"] if v["name"] == "stretch_finite"][0]
        assert not finite["ok"] and "(2, 3)" in finite["detail"]

    def test_output_is_strict_json(self, tmp_path, capsys):
        """A spanner that leaves a pair of vertices disconnected, on a graph
        of n <= 64, has no finite all-pairs stretch: the report writes null
        there, not the Infinity that strict JSON parsers reject."""
        sp = tmp_path / "s.edges"
        sp.write_text("1 2\n2 3\n")
        rc = cli.main(["verify", "--graph", "gen:path:n=5", "--spanner", str(sp)])
        assert rc == 1

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        report = json.loads(capsys.readouterr().out, parse_constant=refuse)
        assert report["max_edge_stretch"] is None
        assert report["max_pair_stretch"] is None

    def test_not_a_subgraph(self, tmp_path, capsys):
        sp = tmp_path / "h.edges"
        sp.write_text("1 3\n1 2\n2 3\n3 4\n")
        rc = cli.main(["verify", "--graph", "gen:path:n=4", "--spanner", str(sp)])
        assert rc == 1

    def test_edges_outside_the_graph_leave_stretch_unmeasured(self, tmp_path, capsys):
        sp = tmp_path / "h.edges"
        sp.write_text("1 3\n1 2\n2 3\n3 4\n")
        rc = cli.main(["verify", "--graph", "gen:path:n=4", "--spanner", str(sp)])
        assert rc == 1
        report = json.loads(capsys.readouterr().out)
        assert report["max_edge_stretch"] is None and not report["passed"]
        finite = next(v for v in report["verdicts"] if v["name"] == "stretch_finite")
        assert not finite["ok"]
        assert finite["detail"] == ("stretch not measured: the spanner has edges "
                                    "outside the graph")
        assert not any("None" in v["detail"] for v in report["verdicts"])

    def test_bound_check(self, tmp_path, capsys):
        g = gr.generate_graph("cycle", n=8)
        edges = [e for e in g.edges() if e != (1, 8)]
        sp = tmp_path / "h.edges"
        gr.save_edgelist(edges, str(sp))
        rc = cli.main(["verify", "--graph", "gen:cycle:n=8", "--spanner", str(sp),
                       "--bound", "3"])
        assert rc == 1

    @pytest.mark.parametrize("flag, config, ok", [
        (["--bound", "inf"], None, True), ([], {"bound": 3}, False),
        ([], {"bound": 7}, True)], ids=["inf flag", "config 3", "config 7"])
    def test_bound_values_still_taken(self, flag, config, ok, tmp_path, capsys,
                                      monkeypatch):
        monkeypatch.chdir(tmp_path)
        g = gr.generate_graph("cycle", n=8)
        gr.save_edgelist([e for e in g.edges() if e != (1, 8)], "h.edges")
        argv = ["verify", "--graph", "gen:cycle:n=8", "--spanner", "h.edges", *flag]
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
            argv = ["--config", "cfg.json", *argv]
        assert cli.main(argv) == (0 if ok else 1)
        report = json.loads(capsys.readouterr().out)
        bound = next(v for v in report["verdicts"] if v["name"] == "stretch_bound")
        assert bound["ok"] is ok
        assert bound["detail"].startswith("max per-edge stretch 7 vs bound ")


class TestBench:
    def test_series_runs_and_isolates_failures(self, tmp_path, capsys):
        series = [
            {"alg": "polylog", "graph": "gen:cycle:n=16", "kappa": 2},
            {"alg": "sparse", "graph": "gen:grid:n=16", "kappa": 3, "rho": "1/3"},
            {"alg": "sparse", "graph": "gen:cycle:n=16", "kappa": 3, "rho": "0.9"},
        ]
        sfile = tmp_path / "series.json"
        sfile.write_text(json.dumps(series))
        rc = cli.main(["bench", "--series", str(sfile), "--out",
                       str(tmp_path / "b"), "--workers", "1"])
        assert rc == 1  # the bad rho point fails, the others pass
        rows = json.loads((tmp_path / "b" / "bench.json").read_text())["rows"]
        assert [r["ok"] for r in rows] == [True, True, False]
        assert rows[2]["error"]
        assert (tmp_path / "b" / "bench.csv").exists()

    def test_bench_json_is_pinned(self, tmp_path):
        # one passing polylog point and one passing sparse point, bounds included
        series = [
            {"alg": "polylog", "graph": "gen:grid:n=16", "kappa": 3},
            {"alg": "sparse", "graph": "gen:gnp_connected:n=32,p=0.2,seed=5",
             "kappa": 3, "rho": "1/3"},
        ]
        sfile = tmp_path / "series.json"
        sfile.write_text(json.dumps(series))
        rc = cli.main(["bench", "--series", str(sfile), "--out",
                       str(tmp_path / "b"), "--workers", "1"])
        assert rc == 0
        data = (tmp_path / "b" / "bench.json").read_bytes()
        assert hashlib.sha256(data).hexdigest() == (
            "83459707c55eb00a44bd8347fe710abe38658964ddd8701ad2345bd6ceb00f08")

    def test_bounds_past_a_float_are_null(self, tmp_path):
        sfile = tmp_path / "series.json"
        sfile.write_text(json.dumps([point for point, _ in OVERFLOWING]))
        rc = cli.main(["bench", "--series", str(sfile), "--out",
                       str(tmp_path / "b"), "--workers", "1"])
        assert rc == 0
        rows = json.loads((tmp_path / "b" / "bench.json").read_text())["rows"]
        assert [(r["ok"], r["error"], r["rounds_model"]) for r in rows] == [
            (True, None, None)] * 2
        assert all(isinstance(r["size_bound"], float) for r in rows)

    def test_unprintable_stretch_bound_fails_the_point(self, tmp_path):
        sfile = tmp_path / "series.json"
        sfile.write_text(json.dumps(UNPRINTABLE))
        rc = cli.main(["bench", "--series", str(sfile), "--out",
                       str(tmp_path / "b"), "--workers", "1"])
        assert rc == 1
        rows = json.loads((tmp_path / "b" / "bench.json").read_text())["rows"]
        assert [r["point"] for r in rows] == UNPRINTABLE
        for r in rows:
            assert not r["ok"]
            assert r["error"].startswith("ValueError: the stretch bound ")
            assert "more than 4300 digits" in r["error"]

    def test_empty_series(self, tmp_path):
        sfile = tmp_path / "series.json"
        sfile.write_text("[]")
        rc = cli.main(["bench", "--series", str(sfile), "--out", str(tmp_path / "b")])
        assert rc == 0

    def test_parallel_workers(self, tmp_path):
        series = [{"alg": "polylog", "graph": f"gen:gnp_connected:n=24,p=0.2,seed={s}",
                   "kappa": 2} for s in range(4)]
        sfile = tmp_path / "series.json"
        sfile.write_text(json.dumps(series))
        rc = cli.main(["bench", "--series", str(sfile), "--out",
                       str(tmp_path / "b"), "--workers", "4"])
        assert rc == 0


# Generated builds: every generator kind on 1 to 64 vertices, with kappa and
# rho drawn from small, extreme and invalid values, strings that do not parse
# among them. The largest kappa and the smallest rho give stretch bounds too
# long to print, or sparse exponents of too high a degree, which are refused
# before the build.
GEN_KINDS = ("path", "cycle", "complete", "grid", "random_tree", "gnp_connected")
# the first branch of each is drawn as often as the others together, so that
# most sparse draws are valid
KAPPAS = st.one_of(st.integers(2, 12), st.one_of(
    st.none(), st.integers(-2, 1),
    st.sampled_from([64, 1000, 3000, 5000, 10 ** 6, 2 ** 64])))
RHOS = st.one_of(
    st.fractions(min_value=Fraction(1, 12), max_value=Fraction(1, 2),
                 max_denominator=64).map(str),
    st.one_of(st.none(),
              st.fractions(min_value=0, max_value=1, max_denominator=64).map(str),
              st.sampled_from(["0.34", "1/10", "0.49", "1/2", "0.001", "0.0003",
                               "1e-4", "-1/3", "1/0", "nan", "inf", "x",
                               "0.3400000001", "1e-999999999", "1e999999999"])))
P_VALUES = st.one_of(st.floats(0.01, 1.0).map(repr),
                     st.sampled_from(["0", "1.5", "-0.1", "nan"]))
BUILD_SECONDS = 30


@st.composite
def build_flags(draw) -> list:
    """build's flags but --out: an algorithm, a generator spec and the
    kappa and rho it was drawn, each left out when drawn None."""
    kind = draw(st.sampled_from(GEN_KINDS))
    spec = f"gen:{kind}:n={draw(st.integers(1, 64))}"
    if kind in ("random_tree", "gnp_connected"):
        spec += f",seed={draw(st.integers(0, 2 ** 32))}"
    if kind == "gnp_connected":
        spec += f",p={draw(P_VALUES)}"
    flags = ["--alg", draw(st.sampled_from(["polylog", "sparse", "skeleton"])),
             "--graph", spec]
    for name, values in (("--kappa", KAPPAS), ("--rho", RHOS)):
        value = draw(values)
        if value is not None:
            flags += [name, str(value)]
    return flags


class BuildTimeout(Exception):
    pass


@contextlib.contextmanager
def time_limit(seconds: float):
    """Raises BuildTimeout in the block once seconds of wall time pass."""
    def expire(signum, frame):
        raise BuildTimeout(f"the build ran past {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@settings(max_examples=40, deadline=None)
@given(flags=build_flags())
def test_every_build_passes_or_exits_2(flags):
    """A build exits 0 with a passing strict-JSON report, or 2 with an error
    line and no report, in bounded time: never 1, never a traceback. A flag
    value that argparse takes for an option, as in --rho -1/3, exits 2
    through argparse, whose last line names the error."""
    with tempfile.TemporaryDirectory() as tmp:
        out, err = io.StringIO(), io.StringIO()
        with time_limit(BUILD_SECONDS), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            try:
                rc = cli.main(["build", *flags, "--out", tmp + "/o"])
            except SystemExit as exc:   # argparse refused a flag
                rc = exc.code
        lines = err.getvalue().splitlines()
        report_file = Path(tmp) / "o" / "report.json"
        if rc == 2:
            # one line of ours, or argparse's usage and error lines
            assert lines[-1].startswith("error: ") or ": error: " in lines[-1]
            assert len(lines) == 1 or lines[0].startswith("usage: ")
            assert not report_file.exists()
        else:
            assert rc == 0, err.getvalue()
            assert out.getvalue().startswith("PASS ")
            report = json.loads(report_file.read_text(),
                                parse_constant=cli._not_json)
            assert report["passed"] is True
