"""CLI: edge-list parsing, round trips, commands, exit codes, determinism."""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    bridged_cliques,
    complete_bipartite,
    complete_graph,
    dumbbell_graph,
    exhaust_on_call,
)
from walksparse import cli, sparsify, verify
from walksparse.cli import (
    build_parser,
    load_graph,
    load_vectors,
    main,
    parse_edge_list,
    serialize_graph,
)
from walksparse.errors import ParseError
from walksparse.graph import Graph


class TestParse:
    def test_minimal(self):
        g = parse_edge_list("n 2\n0 1\n")
        assert g.n == 2 and g.edges == ((0, 1, 1.0),) and not g.directed

    def test_directed_header(self):
        g = parse_edge_list("n 3 directed\n0 1 2.5\n1 2 1\n")
        assert g.directed and g.m == 2 and g.edges[0] == (0, 1, 2.5)

    def test_comments_and_blanks(self):
        g = parse_edge_list("# a file\n\nn 2  # two vertices\n0 1 3.0 # heavy\n")
        assert g.edges == ((0, 1, 3.0),)

    def test_duplicate_merge(self):
        g = parse_edge_list("n 3\n0 1 1.0\n1 0 2.0\n")
        assert g.edges == ((0, 1, 3.0),)

    def test_self_loop_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_edge_list("n 3\n0 1\n0 0 1\n")
        assert err.value.line == 3

    def test_malformed_line(self):
        with pytest.raises(ParseError):
            parse_edge_list("n 2\n0 x\n")

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse_edge_list("0 1\n")

    def test_bad_header_flag(self):
        with pytest.raises(ParseError):
            parse_edge_list("n 2 weird\n0 1\n")

    @given(st.integers(0, 5000))
    def test_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.5:
                    edges.append((i, j, float(rng.uniform(0.1, 5.0))))
        g = Graph(n, tuple(edges))
        back = parse_edge_list(serialize_graph(g))
        assert back == g  # exact: weights round-trip losslessly


def write_graph(tmp_path, g, name="g.txt"):
    path = tmp_path / name
    path.write_text(serialize_graph(g))
    return str(path)


class TestCommands:
    def test_sparsify_check_passes(self, tmp_path):
        path = write_graph(tmp_path, complete_graph(12))
        out = tmp_path / "out.txt"
        rep = tmp_path / "rep.json"
        code = main(
            ["sparsify", path, "--epsilon", "0.5", "--check",
             "--out", str(out), "--report", str(rep)]
        )
        assert code == 0
        payload = json.loads(rep.read_text())
        assert payload["pass"] is True

    def test_sparsify_stops_on_a_short_restricted_subspace(self, tmp_path):
        # K_16 at eps 0.5, c_support 1: the threshold 64 lies below 5n = 80,
        # where the degree subspace falls under (4/5) of the support; the
        # run stops at the last completed round instead of exiting 2
        path = write_graph(tmp_path, complete_graph(16))
        rep = tmp_path / "rep.json"
        code = main(["sparsify", path, "--epsilon", "0.5", "--c-support", "1",
                     "--check", "--report", str(rep)])
        assert code in (0, 1)
        payload = json.loads(rep.read_text())
        assert code == (0 if payload["pass"] else 1)
        assert 64 < payload["support_size"] < 120

    def test_walk_that_runs_out_exits_by_its_check(self, tmp_path, monkeypatch):
        # the second round's walk raises: the run reports the first round
        # and exits by its check instead of 2
        exhaust_on_call(monkeypatch, sparsify, "partial_color", 2)
        path = write_graph(tmp_path, complete_graph(16))
        rep = tmp_path / "rep.json"
        code = main(["sparsify", path, "--epsilon", "0.45", "--c-support", "1",
                     "--check", "--report", str(rep)])
        payload = json.loads(rep.read_text())
        assert code == (0 if payload["pass"] else 1)
        assert payload["stopped_early"] == "patched" and len(payload["rounds"]) == 1
        assert payload["support_size"] == payload["rounds"][0]["support"]

    def test_verify_identical(self, tmp_path):
        path = write_graph(tmp_path, complete_graph(8))
        rep = tmp_path / "rep.json"
        code = main(["verify", path, path, "--check", "--report", str(rep)])
        assert code == 0
        assert json.loads(rep.read_text())["measured_eps"] == 0.0

    def test_verify_failure_exit_code(self, tmp_path):
        g = complete_graph(8)
        path = write_graph(tmp_path, g)
        scaled = write_graph(tmp_path, g.reweighted(np.full(g.m, 1.5)), "h.txt")
        code = main(["verify", path, scaled, "--epsilon", "0.1", "--check"])
        assert code == 1

    def test_malformed_file_exit_two(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("n 3\n0 0 1\n")
        assert main(["sparsify", str(path)]) == 2

    def test_missing_file_exit_two(self, tmp_path):
        assert main(["sparsify", str(tmp_path / "nope.txt")]) == 2

    def test_bad_epsilon_exit_two(self, tmp_path):
        path = write_graph(tmp_path, complete_graph(6))
        assert main(["sparsify", path, "--epsilon", "3.0"]) == 2

    @pytest.mark.parametrize("command,flag,value", [
        ("sparsify", "--c-support", "nan"),
        ("sparsify", "--c-support", "inf"),
        ("resist", "--c-resist", "-1"),
        ("sketch", "--c-sketch", "nan"),
    ])
    def test_bad_setting_exit_two(self, tmp_path, capsys, command, flag, value):
        path = write_graph(tmp_path, complete_graph(16))
        vec_path = tmp_path / "vecs.txt"
        np.savetxt(vec_path, np.eye(16))
        vectors = ["--vectors", str(vec_path)] if command == "sketch" else []
        code = main([command, path, "--epsilon", "0.45", flag, value, *vectors, "--check"])
        assert code == 2
        assert "is not a positive finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("header,command,flag,value,message", [
        ("n 5", "sparsify", "--c-support", "nan", "is not a positive finite number"),
        ("n 5", "sparsify", "--c-support", "-1", "is not a positive finite number"),
        ("n 5", "sparsify", "--epsilon", "0.7", "outside (0, 1/2]"),
        ("n 5", "uc", "--c-support", "nan", "is not a positive finite number"),
        ("n 4 directed", "sv", "--c-support", "nan", "is not a positive finite number"),
    ])
    def test_bad_setting_on_edgeless_graph_exit_two(self, tmp_path, capsys, header, command,
                                                     flag, value, message):
        # no component reaches a halving loop, so the pipeline checks on entry
        path = tmp_path / "empty.txt"
        path.write_text(header + "\n")
        assert main([command, str(path), flag, value]) == 2
        assert message in capsys.readouterr().err

    def test_partial_color_on_edgeless_graph_exit_two(self, tmp_path, capsys):
        # its target 16 sqrt(2n/m) needs an edge
        path = tmp_path / "empty.txt"
        path.write_text("n 3\n")
        assert main(["partial-color", str(path), "--check"]) == 2
        assert "the graph has 0 edges" in capsys.readouterr().err

    @pytest.mark.parametrize("command,flags", [
        ("partial-color", []), ("sparsify", []), ("uc", []), ("sv", []),
        ("sketch", ["--vectors", "v.txt"]), ("resist", []),
        ("verify", ["g.txt", "--kind", "resistance"]),
    ])
    def test_graph_too_large_for_dense_work_exit_two(self, tmp_path, capsys, monkeypatch,
                                                     command, flags):
        # refused before any n x n matrix is built
        def unreachable(*args, **kwargs):
            raise AssertionError("dense work on a graph above the size bound")

        n = cli.MAX_DENSE_N + 1
        (tmp_path / "g.txt").write_text(f"n {n}\n0 1\n")
        monkeypatch.chdir(tmp_path)
        # decompose runs at any n; it measures its small pieces densely
        assert main(["decompose", "g.txt", "--report", "d.json"]) == 0
        for name in ("adjacency", "laplacian", "unsigned_laplacian", "normalized_laplacian"):
            monkeypatch.setattr(Graph, name, unreachable)
        assert main([command, "g.txt", *flags]) == 2
        assert f"n = {n} exceeds {cli.MAX_DENSE_N}" in capsys.readouterr().err

    def test_sv_undirected_rejects_phi_target(self, tmp_path, capsys):
        path = write_graph(tmp_path, complete_bipartite(4, 4))
        assert main(["sv", path, "--phi-target", "0.01"]) == 2
        assert "--phi-target" in capsys.readouterr().err

    def test_partial_color_check(self, tmp_path):
        path = write_graph(tmp_path, complete_graph(12))
        out = tmp_path / "out.txt"
        code = main(["partial-color", path, "--check", "--out", str(out)])
        assert code == 0
        colored = parse_edge_list(out.read_text())
        degs = colored.weighted_degrees()
        assert np.max(np.abs(degs - complete_graph(12).weighted_degrees())) <= 1e-6

    def test_decompose_writes_pieces(self, tmp_path):
        path = write_graph(tmp_path, dumbbell_graph(8))
        out = tmp_path / "pieces"
        rep = tmp_path / "rep.json"
        code = main(
            ["decompose", path, "--phi-target", "0.1",
             "--out", str(out), "--report", str(rep)]
        )
        assert code == 0
        payload = json.loads(rep.read_text())
        assert payload["pieces"] >= 2
        piece0 = parse_edge_list((tmp_path / "pieces.piece0").read_text())
        assert piece0.m >= 1

    def test_sv_directed(self, tmp_path):
        g = Graph(6, tuple((i, (i + 1) % 6, 1.0) for i in range(6)), directed=True)
        path = write_graph(tmp_path, g)
        rep = tmp_path / "rep.json"
        code = main(["sv", path, "--check", "--report", str(rep), "--epsilon", "0.5"])
        assert code == 0

    def test_sketch_requires_vectors(self, tmp_path):
        path = write_graph(tmp_path, complete_graph(8))
        assert main(["sketch", path]) == 2

    def test_verify_sketch_requires_vectors(self, tmp_path, capsys):
        path = write_graph(tmp_path, complete_graph(8))
        assert main(["verify", path, path, "--kind", "sketch"]) == 2
        assert "requires --vectors" in capsys.readouterr().err

    def test_sketch_with_vectors(self, tmp_path):
        g = complete_graph(12)
        path = write_graph(tmp_path, g)
        rng = np.random.default_rng(3)
        vecs = rng.normal(size=(14, 12))
        vec_path = tmp_path / "vecs.txt"
        vec_path.write_text(
            "\n".join(" ".join(f"{x:.17g}" for x in row) for row in vecs) + "\n"
        )
        rep = tmp_path / "rep.json"
        code = main(
            ["sketch", path, "--vectors", str(vec_path), "--epsilon", "0.4",
             "--check", "--report", str(rep), "--out", str(tmp_path / "out.txt")]
        )
        assert code == 0
        assert json.loads(rep.read_text())["pass"] is True

    @pytest.mark.parametrize("command,pipeline,eps,n_big", [
        ("sparsify", sparsify.spectral_sparsify, 0.45, 14),
        ("uc", sparsify.uc_sparsify, 0.5, 18),
    ])
    def test_disconnected_input_per_component(self, tmp_path, command, pipeline, eps, n_big):
        # K_big on 0..n_big-1, K_12 on the next 12 vertices, the last isolated
        big, k12 = complete_graph(n_big), complete_graph(12)
        n = n_big + 13
        shifted = tuple((u + n_big, v + n_big, w) for u, v, w in k12.edges)
        g = Graph(n, big.edges + shifted)
        path = write_graph(tmp_path, g)
        out = tmp_path / "out.txt"
        code = main([command, path, "--epsilon", str(eps), "--c-support", "1",
                     "--out", str(out), "--report", str(tmp_path / "rep.json")])
        assert code == 0
        got = parse_edge_list(out.read_text())
        a = pipeline(big, eps, c_support=1.0).graph
        b = pipeline(k12, eps, c_support=1.0).graph
        expect = a.edges + tuple((u + n_big, v + n_big, w) for u, v, w in b.edges)
        assert got == Graph(n, expect)
        assert got.m < g.m
        assert np.allclose(got.weighted_degrees(), g.weighted_degrees())

    @pytest.mark.parametrize("command,side,bridge,ratio", [
        ("sparsify", 16, 1e-8, "7.812e-11"),
        ("uc", 16, 1e-8, "7.812e-11"),
        # two K_12 are the smallest pair whose degree subspace a walk takes;
        # on two K_16 the partial-color walk runs for seconds before the check
        ("partial-color", 12, 1e-10, "1.389e-12"),
    ])
    def test_numerically_disconnected_input_exit_two(self, tmp_path, capsys, command, side,
                                                     bridge, ratio):
        # two K_side joined by a light bridge: lambda_2/lambda_max is below
        # the kernel cut-off, and the check refuses before any output
        path = write_graph(tmp_path, bridged_cliques(side, bridge))
        out, rep = tmp_path / "out.txt", tmp_path / "rep.json"
        flags = [] if command == "partial-color" else ["--epsilon", "0.45", "--c-support", "1"]
        assert main([command, path, *flags, "--check", "--out", str(out),
                     "--report", str(rep)]) == 2
        err = capsys.readouterr().err
        assert f"numerically disconnected: lambda_2/lambda_max = {ratio}" in err
        assert not out.exists() and not rep.exists()

    @pytest.mark.parametrize("command", ["sparsify", "uc"])
    def test_light_bridge_above_the_kernel_cut_off_passes_its_check(self, tmp_path, command):
        # two K_16 joined by a 3e-7 bridge (lambda_2/lambda_max 2.3e-9) are one
        # numerically connected component; whitening sums the family to 1 only
        # up to ~1e-6 rounding, inside FAMILY_NORM_SLACK, and the output keeps
        # the bridge and passes its from-scratch check
        path = write_graph(tmp_path, bridged_cliques(16, 3e-7))
        out = tmp_path / "out.txt"
        assert main([command, path, "--epsilon", "0.45", "--c-support", "1", "--check",
                     "--out", str(out)]) == 0
        got = parse_edge_list(out.read_text())
        assert any(e[:2] == (0, 16) for e in got.edges)
        if command == "sparsify":
            assert got.m < 241  # the halving rounds ran (uc's 2n threshold takes none)

    def test_numerically_disconnected_input_is_refused_before_the_walk(
            self, tmp_path, capsys, monkeypatch):
        # the family builder refuses the input, so no walk runs before exit 2
        walks = []
        monkeypatch.setattr(cli, "partial_color", lambda *args: walks.append(args))
        path = write_graph(tmp_path, bridged_cliques(16, 1e-8))
        out = tmp_path / "out.txt"
        assert main(["partial-color", path, "--check", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "numerically disconnected: lambda_2/lambda_max = 7.812e-11" in err
        assert not walks and not out.exists()

    def test_vectors_loader_validates(self, tmp_path):
        vec_path = tmp_path / "vecs.txt"
        vec_path.write_text("1 2 3\n4 5\n")
        with pytest.raises(ParseError):
            load_vectors(str(vec_path), 3)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_verify_sketch_rejects_non_finite_vector(self, tmp_path, capsys, bad):
        path = write_graph(tmp_path, complete_graph(8))
        vecs = np.random.default_rng(2).normal(size=(6, 8)).astype(object)
        vecs[3, 5] = bad
        vec_path = tmp_path / "vecs.txt"
        vec_path.write_text("\n".join(" ".join(str(x) for x in row) for row in vecs) + "\n")
        code = main(["verify", path, path, "--kind", "sketch", "--vectors", str(vec_path),
                     "--epsilon", "0.5", "--check"])
        assert code == 2
        assert "line 4" in capsys.readouterr().err
        with pytest.raises(ParseError) as err:
            load_vectors(str(vec_path), 8)
        assert err.value.line == 4

    @pytest.mark.parametrize("kind", ["spectral", "uc", "sv", "sketch", "resistance"])
    def test_verify_mismatched_graphs_exit_two(self, tmp_path, capsys, kind):
        cycle = tuple((i, (i + 1) % 4, 1.0) for i in range(4))
        four = write_graph(tmp_path, Graph(4, cycle), "four.txt")
        five = write_graph(tmp_path, complete_graph(5), "five.txt")
        arcs = write_graph(tmp_path, Graph(4, cycle, directed=True), "arcs.txt")
        vec_path = tmp_path / "vecs.txt"
        vec_path.write_text("1 0 0 -1\n0 1 -1 0\n1 1 -1 -1\n1 -1 1 -1\n")
        flags = ["--kind", kind, "--vectors", str(vec_path), "--check"]
        assert main(["verify", four, five, *flags]) == 2
        assert "n 4 against 5" in capsys.readouterr().err
        assert main(["verify", arcs, four, *flags]) == 2
        assert "directed True against False" in capsys.readouterr().err

    def test_non_utf8_files_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "utf16.txt"
        bad.write_bytes(b"\xff\xfe" + "n 4\n0 1\n".encode("utf-16-le"))
        with pytest.raises(ParseError, match="not UTF-8 text"):
            load_graph(str(bad))
        with pytest.raises(ParseError, match="not UTF-8 text"):
            load_vectors(str(bad), 4)
        assert main(["sparsify", str(bad)]) == 2
        assert "not UTF-8 text" in capsys.readouterr().err
        path = write_graph(tmp_path, complete_graph(4))
        assert main(["verify", path, path, "--kind", "sketch", "--vectors", str(bad)]) == 2
        assert "not UTF-8 text" in capsys.readouterr().err


# the check of each verify kind, as `verify` names it
CHECK_OF_KIND = {
    "spectral": "check_spectral",
    "uc": "check_uc_undirected",
    "sv": "check_sv",
    "sketch": "check_sketch",
    "resistance": "check_resistance",
}


class TestCheckTable:
    """A construction command's report is the report that `verify --kind`
    gives on its output, from the same `verify.check_*` attribute."""

    @pytest.mark.parametrize("command,kind,flags,factor", [
        ("sparsify", "spectral", ["--epsilon", "0.5", "--c-support", "1"], 1.0),
        ("uc", "uc", ["--epsilon", "0.5", "--c-support", "0.5"], 1.0),
        ("sv", "sv", ["--epsilon", "0.5", "--c-support", "1"], 1.0),
        ("sketch", "sketch", ["--epsilon", "0.25"], 4.0),  # the --c-sketch default
        ("resist", "resistance", ["--epsilon", "0.25", "--c-resist", "1"], 1.0),
    ])
    def test_report_is_the_verify_report(self, tmp_path, monkeypatch, command, kind, flags,
                                         factor):
        if command == "sv":
            # K_12,12 less a perfect matching: a connected bipartite expander
            g = Graph(24, tuple((i, 12 + (i + k) % 12, 1.0) for i in range(12) for k in range(11)))
        else:
            g = complete_graph(16 if command in ("sparsify", "resist") else 12)
        path = write_graph(tmp_path, g)
        vectors = []
        if command == "sketch":
            rows = np.random.default_rng(3).normal(size=(14, 12))
            (tmp_path / "v.txt").write_text(
                "".join(" ".join(repr(float(x)) for x in r) + "\n" for r in rows))
            vectors = ["--vectors", str(tmp_path / "v.txt")]
        calls = []
        for name in CHECK_OF_KIND.values():
            def counting(*args, _name=name, _check=getattr(verify, name), **kwargs):
                calls.append(_name)
                return _check(*args, **kwargs)
            monkeypatch.setattr(verify, name, counting)
        out, built, checked = (str(tmp_path / f) for f in ("out.txt", "built.json", "v.json"))
        assert main([command, path, *flags, *vectors, "--out", out, "--report", built]) == 0
        assert json.loads(open(built).read())["support_size"] < g.m
        target = factor * float(flags[1])
        assert main(["verify", path, out, "--kind", kind, "--epsilon", repr(target),
                     *vectors, "--report", checked]) == 0
        assert calls == [CHECK_OF_KIND[kind]] * 2
        # the halving command's report is verify's, then its rounds and stop reason
        built, checked = json.loads(open(built).read()), json.loads(open(checked).read())
        assert list(built) == [*checked, "rounds", "stopped_early"]
        assert {key: built[key] for key in checked} == checked
        assert built["rounds"][-1]["support"] == built["support_size"]
        assert all(set(r) == {"support", "error", "walk_iterations"} for r in built["rounds"])

    def test_stop_reason_reaches_the_report(self, tmp_path):
        # K_12 at eps 1.5 with these 30 vectors: the seventh sketch round's
        # walk finds its update subspace empty
        path = write_graph(tmp_path, complete_graph(12))
        rows = np.random.default_rng(0).normal(size=(30, 12))
        (tmp_path / "v.txt").write_text(
            "".join(" ".join(repr(float(x)) for x in r) + "\n" for r in rows))
        report = tmp_path / "r.json"
        assert main(["sketch", path, "--epsilon", "1.5", "--vectors", str(tmp_path / "v.txt"),
                     "--out", str(tmp_path / "o.txt"), "--report", str(report)]) == 0
        fields = json.loads(report.read_text())
        assert fields["stopped_early"].startswith("update subspace is empty")
        assert len(fields["rounds"]) == 7 and fields["rounds"][-1]["support"] == 20


# every flag of the CLI with a sample value, and the flags each command reads
FLAG_VALUES = {
    "--epsilon": "0.5", "--c-support": "1", "--phi-target": "0.1", "--vectors": "v.txt",
    "--c-sketch": "4", "--c-resist": "4", "--out": "o.txt", "--report": "r.json",
    "--check": None,
}
OUTPUT_FLAGS = {"--out", "--report", "--check"}
READS = {
    "partial-color": OUTPUT_FLAGS,
    "sparsify": {"--epsilon", "--c-support"} | OUTPUT_FLAGS,
    "uc": {"--epsilon", "--c-support"} | OUTPUT_FLAGS,
    "sv": {"--epsilon", "--c-support", "--phi-target"} | OUTPUT_FLAGS,
    "sketch": {"--epsilon", "--phi-target", "--vectors", "--c-sketch"} | OUTPUT_FLAGS,
    "resist": {"--epsilon", "--phi-target", "--c-resist"} | OUTPUT_FLAGS,
    "decompose": {"--phi-target"} | OUTPUT_FLAGS,
    "verify": {"--epsilon", "--vectors", "--report", "--check"},
}


def command_line(command, flags):
    argv = [command, "g.txt"] + (["h.txt"] if command == "verify" else [])
    for flag in flags:
        argv += [flag] if FLAG_VALUES[flag] is None else [flag, FLAG_VALUES[flag]]
    return argv


class TestFlags:
    @pytest.mark.parametrize("command", sorted(READS))
    def test_own_flags_accepted(self, command):
        args = build_parser().parse_args(command_line(command, sorted(READS[command])))
        assert args.command == command

    @pytest.mark.parametrize("command,flag", [
        (command, flag) for command in sorted(READS) for flag in FLAG_VALUES
        if flag not in READS[command]
    ])
    def test_unread_flag_exits_two(self, command, flag):
        with pytest.raises(SystemExit) as err:
            main(command_line(command, [flag]))
        assert err.value.code == 2


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        path = write_graph(tmp_path, complete_graph(12))
        outputs = []
        for tag in ("a", "b"):
            out = tmp_path / f"out_{tag}.txt"
            rep = tmp_path / f"rep_{tag}.json"
            code = main(
                ["partial-color", path, "--out", str(out), "--report", str(rep)]
            )
            assert code == 0
            outputs.append((out.read_bytes(), rep.read_bytes()))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("command,flags", [
        ("sketch", ["--epsilon", "0.4"]),
        ("resist", ["--epsilon", "0.4", "--c-resist", "1"]),
    ])
    def test_vector_side_reruns_byte_identical(self, tmp_path, command, flags):
        # the vector side's step search is a fixed number of halvings, so a
        # sketch or resist rerun repeats every step
        path = write_graph(tmp_path, complete_graph(14))
        if command == "sketch":
            vec_path = tmp_path / "vecs.txt"
            vecs = np.random.default_rng(5).normal(size=(40, 14))
            vec_path.write_text(
                "\n".join(" ".join(f"{x:.17g}" for x in row) for row in vecs) + "\n"
            )
            flags = [*flags, "--vectors", str(vec_path)]
        outputs = []
        for tag in ("a", "b"):
            out, rep = tmp_path / f"out_{tag}.txt", tmp_path / f"rep_{tag}.json"
            assert main([command, path, *flags, "--check", "--out", str(out),
                         "--report", str(rep)]) == 0
            outputs.append((out.read_bytes(), rep.read_bytes()))
        assert outputs[0] == outputs[1]
        assert parse_edge_list(outputs[0][0].decode()).m < complete_graph(14).m

    def test_byte_identical_across_processes(self, tmp_path):
        # fresh interpreters rule out in-process state leaking into outputs
        import subprocess
        import sys

        path = write_graph(tmp_path, complete_graph(12))
        blobs = []
        for tag in ("p1", "p2"):
            out = tmp_path / f"out_{tag}.txt"
            rep = tmp_path / f"rep_{tag}.json"
            proc = subprocess.run(
                [sys.executable, "-m", "walksparse.cli", "sparsify", path,
                 "--epsilon", "0.45", "--c-support", "1",
                 "--out", str(out), "--report", str(rep)],
                capture_output=True,
            )
            assert proc.returncode == 0, proc.stderr.decode()
            blobs.append((out.read_bytes(), rep.read_bytes()))
        assert blobs[0] == blobs[1]

    def test_byte_identical_across_blas_thread_counts(self, tmp_path):
        # unpinned, OpenBLAS rounds K_20's N differently at two threads and
        # the walk ends at 94 edges instead of 90 (K_16 happens to agree)
        import os
        import subprocess
        import sys

        path = write_graph(tmp_path, complete_graph(20))
        blobs = []
        for threads in ("1", "2"):
            out = tmp_path / f"out_{threads}.txt"
            rep = tmp_path / f"rep_{threads}.json"
            proc = subprocess.run(
                [sys.executable, "-m", "walksparse.cli", "sparsify", path,
                 "--epsilon", "0.5", "--c-support", "1",
                 "--out", str(out), "--report", str(rep)],
                capture_output=True,
                env={**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads},
            )
            assert proc.returncode == 0, proc.stderr.decode()
            blobs.append((out.read_bytes(), rep.read_bytes()))
        assert blobs[0] == blobs[1]

    def test_report_states_threads_when_unpinned(self, tmp_path, monkeypatch):
        from walksparse import linalg

        monkeypatch.setattr(linalg, "_numpy_openblas", lambda: None)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        path = write_graph(tmp_path, complete_graph(6))
        rep = tmp_path / "rep.json"
        assert main(["sparsify", path, "--epsilon", "0.5", "--report", str(rep)]) == 0
        assert json.loads(rep.read_text())["blas_threads"] == 3
