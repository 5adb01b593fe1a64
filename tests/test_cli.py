import io
import json

import pytest

from exactmatching import (
    SKIP_WEIGHTS,
    CycleSet,
    SolverParams,
    apply_cycles,
    approx_em,
    find_biskip,
    find_skip,
    parse_graph,
    random_colored_graph,
    run_phase1,
    serialize_graph,
)
from exactmatching.cli import (
    EXIT_INPUT,
    EXIT_INTERNAL,
    EXIT_LIMIT,
    EXIT_NO,
    EXIT_UNKNOWN,
    EXIT_USAGE,
    EXIT_YES,
    main,
)
from exactmatching.generators import gen_alternating_cycle_instance

C4_JSON = ('{"n": 4, "edges": [[0, 1, "red"], [2, 3, "red"],'
           ' [1, 2, "blue"], [0, 3, "blue"]]}')
K33_JSON = ('{"n": 6, "edges": ['
            '[0, 3, "blue"], [0, 4, "blue"], [0, 5, "blue"],'
            '[1, 3, "blue"], [1, 4, "blue"], [1, 5, "blue"],'
            '[2, 3, "blue"], [2, 4, "blue"], [2, 5, "blue"]],'
            ' "bipartition": [[0, 1, 2], [3, 4, 5]]}')
K4_JSON = ('{"n": 4, "edges": [[0, 1, "red"], [0, 2, "red"], [0, 3, "red"],'
           ' [1, 2, "red"], [1, 3, "red"], [2, 3, "red"]]}')


@pytest.fixture
def c4_file(tmp_path):
    p = tmp_path / "c4.json"
    p.write_text(C4_JSON)
    return str(p)


@pytest.fixture
def k33_file(tmp_path):
    p = tmp_path / "k33.json"
    p.write_text(K33_JSON)
    return str(p)


class TestSolve:
    def test_yes(self, c4_file, capsys):
        assert main(["solve", c4_file, "-k", "2"]) == EXIT_YES
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "yes"
        assert out[1] == "witness: (0,1) (2,3)"

    def test_no(self, c4_file, capsys):
        assert main(["solve", c4_file, "-k", "1"]) == EXIT_NO
        out = capsys.readouterr().out
        assert out.startswith("no\n")
        assert "reason:" in out

    def test_range_certificate(self, tmp_path, capsys):
        # Both perfect matchings of the all-red 4-cycle have two red edges.
        p = tmp_path / "red4.json"
        p.write_text('{"n": 4, "edges": [[0, 1, "red"], [1, 2, "red"],'
                     ' [2, 3, "red"], [0, 3, "red"]]}')
        assert main(["solve", str(p), "-k", "1", "--json"]) == EXIT_NO
        doc = json.loads(capsys.readouterr().out)
        assert (doc["verdict"], doc["L_used"], doc["reason"]) == (
            "no", 0, "k outside the red-count range [2, 2]")

    def test_unknown_under_budget(self, k4_mixed, tmp_path, capsys):
        # k=1 is in the red-count lattice, so no certificate decides it, and
        # the guess that finds it is larger than the cap.
        p = tmp_path / "k4.json"
        p.write_text(serialize_graph(k4_mixed))
        assert main(["solve", str(p), "-k", "1", "--L-cap", "0"]) == EXIT_UNKNOWN
        assert capsys.readouterr().out.startswith("unknown")

    def test_lattice_certificate_under_budget(self, c4_file, capsys):
        # The 4-cycle's red counts are 0 and 2: a capped search that ends
        # without a hit consults the lattice before answering unknown.
        assert main(["solve", c4_file, "-k", "1", "--L-cap", "0", "--json"]) == EXIT_NO
        doc = json.loads(capsys.readouterr().out)
        assert (doc["verdict"], doc["L_used"], doc["reason"]) == (
            "no", 0, "k outside the red-count lattice")

    def test_json_output(self, c4_file, capsys):
        assert main(["solve", c4_file, "-k", "2", "--json"]) == EXIT_YES
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "yes"
        assert doc["witness"] == [[0, 1], [2, 3]]

    def test_missing_k_is_usage_error(self, c4_file):
        with pytest.raises(SystemExit) as exc:
            main(["solve", c4_file])
        assert exc.value.code == EXIT_USAGE

    def test_missing_file_is_input_error(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert main(["solve", missing, "-k", "0"]) == EXIT_INPUT

    def test_malformed_graph_is_input_error(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text('{"edges": []}')
        assert main(["solve", str(p), "-k", "0"]) == EXIT_INPUT

    def test_bad_hint_is_limit_error(self, c4_file, capsys):
        assert main(["solve", c4_file, "-k", "2", "--alpha", "0"]) == EXIT_LIMIT

    def test_unmeasurable_bound_names_its_own_hint(self, tmp_path, capsys):
        # A bipartite graph's walk reads only the beta hint, so --alpha does
        # not stand in for it; the message names the hint that would.  The
        # walk reads no bound below n = 1024, so solve decides without one,
        # and approx, whose report states the bound, asks for it.
        path = str(tmp_path / "b.json")
        assert main(["gen", "planted-beta", "-n", "60", "-k", "15", "--seed", "3",
                     "-o", path]) == 0
        capsys.readouterr()
        assert main(["solve", path, "-k", "15", "--alpha", "1"]) == EXIT_YES
        capsys.readouterr()
        assert main(["approx", path, "-k", "15", "--alpha", "1"]) == EXIT_LIMIT
        err = capsys.readouterr().err
        assert "cannot measure the beta bound" in err
        assert err.rstrip().endswith("; pass beta_hint (--beta)")

    def test_engine_verdict_needs_no_hint(self, tmp_path, capsys):
        # An all-blue G(60, 0.3): k=10 lies outside the red-count range
        # [0, 0], which the engines certify without the alpha bound.  approx
        # reports the bound, so it still asks for a hint, and a hint below 1
        # is rejected before anything runs.
        path = tmp_path / "blue.json"
        g = random_colored_graph(60, 0.3, 1)
        path.write_text(json.dumps({"n": 60, "edges": [[u, v, "blue"] for u, v in g.colors]}))
        p = str(path)
        assert main(["solve", p, "-k", "10", "--json"]) == EXIT_NO
        doc = json.loads(capsys.readouterr().out)
        assert (doc["verdict"], doc["reason"]) == ("no", "k outside the red-count range [0, 0]")
        assert main(["approx", p, "-k", "10"]) == EXIT_LIMIT
        assert "pass alpha_hint (--alpha)" in capsys.readouterr().err
        for command in ("solve", "approx"):
            assert main([command, p, "-k", "10", "--alpha", "0"]) == EXIT_LIMIT
            assert "alpha hint must be >= 1, got 0" in capsys.readouterr().err

    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(C4_JSON))
        assert main(["solve", "-", "-k", "0"]) == EXIT_YES

    @pytest.mark.parametrize("header", ["digraph", "strict digraph"])
    def test_directed_dot_on_stdin_is_input_error(self, header, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(header + " { 0 -> 1 [color=red]; }"))
        assert main(["solve", "-", "--format", "dot", "-k", "0"]) == EXIT_INPUT
        assert "directed DOT graphs are not supported" in capsys.readouterr().err

    def test_dot_keyword_case_and_attribute_lists_on_stdin(self, capsys, monkeypatch):
        text = "Graph { 0 -- 1 [color=red] [penwidth=2]; }"
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert main(["solve", "-", "--format", "dot", "-k", "1"]) == EXIT_YES
        assert capsys.readouterr().out.splitlines()[:2] == ["yes", "witness: (0,1)"]

    @pytest.mark.parametrize("text, fmt, message", [
        ('{"n": 2, "edges": [[0, 1, "red"]], "bipartition": [[0, 0], [1]]}', "json",
         "bipartition names vertex 0 twice"),
        ("graph { 0 [side=A]; 0 [side=B]; 1 [side=B]; 0 -- 1 [color=red]; }", "dot",
         "node 0 is given a side twice"),
    ])
    def test_vertex_named_twice_in_bipartition_is_input_error(
            self, text, fmt, message, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert main(["solve", "-", "--format", fmt, "-k", "1"]) == EXIT_INPUT
        assert message in capsys.readouterr().err

    def test_unexpected_exception_is_internal_error(self, c4_file, capsys, monkeypatch):
        def crash(*args, **kwargs):
            raise RecursionError("maximum recursion depth exceeded")
        monkeypatch.setattr("exactmatching.cli.solve_em", crash)
        assert main(["solve", c4_file, "-k", "1"]) == EXIT_INTERNAL
        assert "emsolve: internal error: RecursionError" in capsys.readouterr().err

    def test_failed_optimality_check_is_internal_error(self, c4_file, capsys,
                                                       monkeypatch):
        from dataclasses import replace

        from exactmatching import blossom

        check = blossom.check_optimum

        def corrupted(adj, mate, duals, sign, top):
            vertex2 = list(duals.vertex2)
            vertex2[0] += 2
            check(adj, mate, replace(duals, vertex2=vertex2), sign, top)

        monkeypatch.setattr(blossom, "check_optimum", corrupted)
        assert main(["solve", c4_file, "-k", "2"]) == EXIT_INTERNAL
        assert "emsolve: internal error: OptimalityError" in capsys.readouterr().err

    def test_broken_walk_step_is_internal_error(self, tmp_path, capsys, monkeypatch):
        from exactmatching import GraphError, solver

        def broken(*args):
            raise GraphError("cycle flip did not preserve matching size")

        path = str(tmp_path / "w.json")
        assert main(["gen", "planted-alpha", "-n", "128", "-k", "32", "--seed", "1",
                     "-o", path]) == 0
        monkeypatch.setattr(solver, "apply_cycles", broken)
        assert main(["solve", path, "-k", "42", "--alpha", "1"]) == EXIT_INTERNAL
        assert "emsolve: internal error: phase-1 walk" in capsys.readouterr().err

    def test_dot_format_sniffing(self, tmp_path, capsys):
        g = parse_graph(C4_JSON)
        p = tmp_path / "c4.dot"
        p.write_text(serialize_graph(g, "dot"))
        assert main(["solve", str(p), "-k", "2"]) == EXIT_YES


class TestIgnoredHint:
    # The walk reads --alpha on a graph without a bipartition and --beta on
    # one with it.  The other hint gets one note on stderr, ahead of any
    # other line, and changes neither the exit code nor stdout.
    @pytest.mark.parametrize("command", ["solve", "approx"])
    @pytest.mark.parametrize("family, k, flag, note", [
        (["random", "-n", "16", "--edge-prob", "0.6", "--seed", "27"], "3", "--beta",
         "--beta is ignored: the graph is not bipartite, so the walk reads --alpha"),
        (["planted-beta", "-n", "20", "-k", "5", "--seed", "3"], "5", "--alpha",
         "--alpha is ignored: the graph is bipartite, so the walk reads --beta"),
    ], ids=["beta-on-general", "alpha-on-bipartite"])
    def test_note_names_the_hint_the_walk_reads(self, command, family, k, flag, note,
                                                tmp_path, capsys):
        path = str(tmp_path / "g.json")
        assert main(["gen", *family, "-o", path]) == EXIT_YES
        capsys.readouterr()
        code = main([command, path, "-k", k])
        plain = capsys.readouterr()
        assert plain.err == ""
        assert main([command, path, "-k", k, flag, "1"]) == code
        hinted = capsys.readouterr()
        assert hinted.out == plain.out
        assert hinted.err == f"emsolve: note: {note}\n"


class TestApprox:
    def test_human_report(self, c4_file, capsys):
        assert main(["approx", c4_file, "-k", "2"]) == EXIT_YES
        out = capsys.readouterr().out
        assert "red_count: 2  target: 2  red_range: [0, 2]" in out

    def test_json_report(self, c4_file, capsys):
        assert main(["approx", c4_file, "-k", "0", "--json"]) == EXIT_YES
        doc = json.loads(capsys.readouterr().out)
        assert doc["red_count"] == 0
        assert doc["red_range"] == [0, 2]
        assert doc["bipartite"] is False
        assert doc["threshold"] == 2 * 4 ** doc["bound"]

    def test_guess_size_cap_is_usage_error(self, c4_file):
        # Phase 1 makes no guesses, so approx takes no --L-cap.
        with pytest.raises(SystemExit) as exc:
            main(["approx", c4_file, "-k", "1", "--L-cap", "3"])
        assert exc.value.code == EXIT_USAGE

    def test_odd_n_is_limit_error(self, tmp_path, capsys):
        p = tmp_path / "odd.json"
        p.write_text('{"n": 3, "edges": [[0, 1, "red"]]}')
        assert main(["approx", str(p), "-k", "0"]) == EXIT_LIMIT

    def test_k_out_of_range_is_limit_error(self, c4_file, capsys):
        assert main(["approx", c4_file, "-k", "3"]) == EXIT_LIMIT
        assert "k=3 outside [0, 2]" in capsys.readouterr().err

    def test_follows_the_bipartition(self, tmp_path, capsys):
        # approx_em, run_phase1 and the CLI all take the bipartite walk on a
        # graph that carries a bipartition.
        path = tmp_path / "b.json"
        p = str(path)
        main(["gen", "planted-beta", "-n", "60", "-k", "15", "--seed", "3", "-o", p])
        assert main(["approx", p, "-k", "15", "--beta", "1", "--t-override", "4",
                     "--json"]) == EXIT_YES
        doc = json.loads(capsys.readouterr().out)
        assert (doc["bipartite"], doc["iterations"], doc["red_count"]) == (True, 13, 12)
        g = parse_graph(path.read_text())
        params = SolverParams(beta_hint=1, t_override=4)
        pm = approx_em(g, 15, params)
        assert pm == run_phase1(g, 15, params).matching
        assert pm.sorted_edges() == [tuple(e) for e in doc["matching"]]
        assert pm.red_count == 12

    def test_override_below_the_guarantee_is_named(self, c4_file, tmp_path, capsys):
        # The 4-cycle's measured alpha is 2 (threshold 32) and the planted
        # bipartite graph's beta hint is 1 (threshold 512); a zero override
        # replaces either, so the message names it and not a hint.
        b = str(tmp_path / "b.json")
        main(["gen", "planted-beta", "-n", "60", "-k", "15", "--seed", "3", "-o", b])
        for args, shortcut, guaranteed in (([c4_file, "-k", "1"], "skip", 32),
                                           ([b, "-k", "15", "--beta", "1"], "biskip", 512)):
            capsys.readouterr()
            assert main(["approx", *args, "--t-override", "0"]) == EXIT_LIMIT
            assert capsys.readouterr().err.rstrip().endswith(
                f"no negative {shortcut} on a heavy cycle; t_override (--t-override) 0 "
                f"is below the guaranteed threshold {guaranteed}")

    def test_negative_t_override_is_limit_error(self, tmp_path, capsys):
        # Both commands reject it before the walk, whose loop test would
        # admit a low matching above k; without the flag, solve certifies a no.
        p = str(tmp_path / "g.json")
        assert main(["gen", "random", "-n", "16", "--edge-prob", "0.6", "--seed", "27",
                     "-o", p]) == 0
        for command in ("solve", "approx"):
            capsys.readouterr()
            assert main([command, p, "-k", "0", "--alpha", "1",
                         "--t-override", "-1"]) == EXIT_LIMIT
            assert "t_override must be >= 0, got -1" in capsys.readouterr().err
        assert main(["solve", p, "-k", "0", "--alpha", "1"]) == EXIT_NO

    def test_missing_skip_names_the_hint(self, tmp_path, capsys):
        # The alternating 42-cycle has no chord, so the heavy cycle (weight
        # 21 over the threshold 8 of --alpha 1) has no skip.
        p = tmp_path / "c42.json"
        p.write_text(json.dumps({"n": 42, "edges": [
            [i, (i + 1) % 42, "red" if i % 2 == 0 else "blue"] for i in range(42)]}))
        assert main(["approx", str(p), "-k", "10", "--alpha", "1"]) == EXIT_LIMIT
        assert capsys.readouterr().err.rstrip().endswith(
            "no negative skip on a heavy cycle; "
            "the independence bound hint alpha_hint (--alpha) is too small")

    def test_no_pm(self, tmp_path, capsys):
        p = tmp_path / "star.json"
        p.write_text('{"n": 4, "edges": [[0, 1, "red"], [0, 2, "red"],'
                     ' [0, 3, "red"]]}')
        assert main(["approx", str(p), "-k", "0"]) == EXIT_NO
        assert capsys.readouterr().out.startswith("no perfect matching")
        # With --json the report keeps its keys, with null values where
        # there is no matching to describe.
        assert main(["approx", str(p), "-k", "0", "--json"]) == EXIT_NO
        doc = json.loads(capsys.readouterr().out)
        assert doc["matching"] is None
        assert doc["red_count"] is None
        assert doc["red_range"] is None
        assert doc["target"] == 0 and doc["iterations"] == 0
        assert set(doc) == {"red_count", "target", "red_range", "threshold",
                            "bound", "bipartite", "iterations", "matching"}
        e = tmp_path / "empty.json"
        e.write_text('{"n": 2, "edges": []}')
        assert main(["approx", str(e), "-k", "0", "--json"]) == EXIT_NO
        assert json.loads(capsys.readouterr().out)["matching"] is None


class TestOracle:
    def test_decide(self, c4_file, capsys):
        assert main(["oracle", c4_file, "-k", "2"]) == EXIT_YES
        assert capsys.readouterr().out.strip() == "yes"
        assert main(["oracle", c4_file, "-k", "1"]) == EXIT_NO
        assert capsys.readouterr().out.strip() == "no"

    def test_count(self, tmp_path, capsys):
        p = tmp_path / "k4.json"
        p.write_text(K4_JSON)
        assert main(["oracle", str(p), "--count"]) == EXIT_YES
        assert capsys.readouterr().out.strip() == "3"

    def test_alpha_beta(self, k33_file, capsys):
        assert main(["oracle", k33_file, "--alpha", "--beta"]) == EXIT_YES
        assert capsys.readouterr().out.split() == ["3", "0"]

    def test_empty_graph_k0_is_yes(self, tmp_path, capsys):
        p = tmp_path / "empty.json"
        p.write_text('{"n": 0, "edges": []}')
        assert main(["oracle", str(p), "-k", "0"]) == EXIT_YES
        assert capsys.readouterr().out.strip() == "yes"

    def test_no_flags_is_usage_error(self, c4_file, capsys):
        assert main(["oracle", c4_file]) == EXIT_USAGE

    def test_cap_violation_is_limit_error(self, c4_file, capsys):
        assert main(["oracle", c4_file, "--count", "--cap", "2"]) == EXIT_LIMIT


def analyze_one_cycle(tmp_path, capsys, g, pm, cyc):
    """The report's entry for ``cyc``, from ``emsolve analyze`` on ``pm`` and
    ``pm`` flipped along ``cyc``."""
    flip = apply_cycles(pm, CycleSet.from_cycles([cyc]))
    paths = []
    for name, text in (("g.json", serialize_graph(g)),
                       ("m1.json", json.dumps(pm.sorted_edges())),
                       ("m2.json", json.dumps(flip.sorted_edges()))):
        (tmp_path / name).write_text(text)
        paths.append(str(tmp_path / name))
    assert main(["analyze", paths[0], "--matchings", *paths[1:]]) == EXIT_YES
    [cycle] = json.loads(capsys.readouterr().out)["cycles"]
    return cycle


class TestAnalyze:
    def test_report(self, c4_file, tmp_path, capsys):
        m1 = tmp_path / "m1.json"
        m2 = tmp_path / "m2.json"
        m1.write_text('[[0, 1], [2, 3]]')
        m2.write_text('[[0, 3], [1, 2]]')
        code = main(["analyze", c4_file, "--matchings", str(m1), str(m2)])
        assert code == EXIT_YES
        doc = json.loads(capsys.readouterr().out)
        assert doc["red_counts"] == [2, 0]
        assert doc["total_weight"] == -2
        [cycle] = doc["cycles"]
        assert sorted(cycle) == ["skip", "vertices", "weight"]
        assert cycle["weight"] == -2
        assert cycle["skip"] is None
        assert "biskip" not in cycle

    def test_bipartite_report_has_biskip_field(self, k33_file, tmp_path, capsys):
        m1 = tmp_path / "m1.json"
        m2 = tmp_path / "m2.json"
        m1.write_text('[[0, 3], [1, 4], [2, 5]]')
        m2.write_text('[[0, 4], [1, 3], [2, 5]]')
        main(["analyze", k33_file, "--matchings", str(m1), str(m2)])
        doc = json.loads(capsys.readouterr().out)
        [cycle] = doc["cycles"]
        assert sorted(cycle) == ["biskip", "skip", "vertices", "weight"]

    def test_bipartite_report_carries_the_found_biskip(self, tmp_path, capsys):
        g, pm, cyc = gen_alternating_cycle_instance(12, 0.6, 0, bipartite=True)
        cycle = analyze_one_cycle(tmp_path, capsys, g, pm, cyc)
        want = find_biskip(g, pm, cyc, SKIP_WEIGHTS)
        assert want is not None
        assert cycle["biskip"] == {
            "arcs": [list(want.a1), list(want.a2)],
            "weight": want.weight,
            "cycle_lengths": [len(c) for c in want.cycles],
        }

    def test_report_carries_the_found_skip(self, tmp_path, capsys):
        g, pm, cyc = gen_alternating_cycle_instance(12, 0.6, 0)
        cycle = analyze_one_cycle(tmp_path, capsys, g, pm, cyc)
        assert "biskip" not in cycle
        want = find_skip(g, pm, cyc, SKIP_WEIGHTS)
        assert (want.e1, want.e2, want.weight, len(want.shortcut_cycle)) == (
            (0, 2), (1, 3), -1, 4)
        assert cycle["skip"] == {
            "chords": [list(want.e1), list(want.e2)],
            "weight": want.weight,
            "shortcut_length": len(want.shortcut_cycle),
        }

    def test_bad_matching_is_input_error(self, c4_file, tmp_path, capsys):
        m1 = tmp_path / "m1.json"
        m2 = tmp_path / "m2.json"
        m1.write_text('[[0, 1]]')
        m2.write_text('[[0, 3], [1, 2]]')
        code = main(["analyze", c4_file, "--matchings", str(m1), str(m2)])
        assert code == EXIT_INPUT

    def test_repeated_matching_edge_is_input_error(self, c4_file, tmp_path, capsys):
        m1 = tmp_path / "dup.json"
        m2 = tmp_path / "m2.json"
        m1.write_text('[[0, 1], [1, 0], [2, 3]]')
        m2.write_text('[[0, 3], [1, 2]]')
        code = main(["analyze", c4_file, "--matchings", str(m1), str(m2)])
        assert code == EXIT_INPUT
        assert "edge (0, 1) is listed twice in the matching" in capsys.readouterr().err


class TestGen:
    def test_random_graph_to_stdout(self, capsys):
        assert main(["gen", "random", "-n", "8", "--seed", "3"]) == EXIT_YES
        g = parse_graph(capsys.readouterr().out)
        assert g.n == 8

    def test_planted_family_roundtrip(self, capsys):
        code = main(["gen", "planted-alpha", "-n", "8", "-k", "2",
                     "--bound", "2", "--seed", "1"])
        assert code == EXIT_YES
        g = parse_graph(capsys.readouterr().out)
        assert g.n == 8

    def test_planted_needs_k(self, capsys):
        assert main(["gen", "planted-alpha", "-n", "8"]) == EXIT_USAGE

    def test_output_file_and_dot(self, tmp_path):
        out = tmp_path / "g.dot"
        code = main(["gen", "beta", "-n", "6", "--bound", "1",
                     "--format", "dot", "-o", str(out)])
        assert code == EXIT_YES
        g = parse_graph(out.read_text(), "dot")
        assert g.bipartition is not None
        assert g.m == 9

    def test_unknown_family_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "heptagon", "-n", "8"])
        assert exc.value.code == EXIT_USAGE

    def test_impossible_family_is_limit_error(self, capsys):
        # beta bound 3 on a large graph needs rejection sampling over the cap
        assert main(["gen", "beta", "-n", "44", "--bound", "3"]) == EXIT_LIMIT

    FAMILIES = [["alpha"], ["beta"], ["planted-alpha", "-k", "2"],
                ["planted-beta", "-k", "2"], ["random"], ["random-bipartite"]]

    @pytest.mark.parametrize("prob", ["7", "-0.5", "nan"])
    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f[0])
    def test_edge_prob_outside_unit_interval_is_limit_error(self, family, prob, capsys):
        assert main(["gen", *family, "-n", "8", "--edge-prob", prob]) == EXIT_LIMIT
        assert "edge keep probability must lie in [0, 1]" in capsys.readouterr().err

    def test_exhausted_reroll_budget_is_limit_error(self, capsys):
        # Without kept edges the alpha-3 base graph is cliques of 4, 3 and 3
        # vertices, which has no perfect matching on any re-roll.
        code = main(["gen", "planted-alpha", "-n", "10", "-k", "1", "--bound", "3",
                     "--edge-prob", "0"])
        assert code == EXIT_LIMIT
        assert "no base graph with a perfect matching found in 60 attempts" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("family, name", [("alpha", "alpha_max"), ("beta", "beta_max")])
    def test_bound_below_one_is_limit_error(self, family, name, capsys):
        assert main(["gen", family, "-n", "8", "--bound", "0"]) == EXIT_LIMIT
        assert f"{name} must be >= 1, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f[0])
    def test_negative_vertex_count_is_limit_error(self, family, capsys):
        assert main(["gen", *family, "-n", "-2"]) == EXIT_LIMIT
        assert "vertex count must be" in capsys.readouterr().err

    @pytest.mark.parametrize("prob", ["0", "1"])
    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f[0])
    def test_edge_prob_at_the_ends_is_accepted(self, family, prob, capsys):
        assert main(["gen", *family, "-n", "8", "--edge-prob", prob]) == EXIT_YES
        assert parse_graph(capsys.readouterr().out).n == 8


class TestReduce:
    def test_general_lift(self, c4_file, capsys):
        assert main(["reduce", c4_file]) == EXIT_YES
        g = parse_graph(capsys.readouterr().out)
        assert g.n == 6

    def test_bipartite_lift(self, k33_file, capsys):
        assert main(["reduce", k33_file]) == EXIT_YES
        g = parse_graph(capsys.readouterr().out)
        assert g.n == 10
        assert g.bipartition is not None
