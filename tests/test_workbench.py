import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gadgets
from twodist import (
    Coloring,
    EmbeddingInvalid,
    GenerationFailed,
    ParseError,
    TwodistError,
    gen_planar,
    hunt,
    parse_coloring,
    parse_graph,
    write_coloring,
    write_graph,
)
from twodist import reductions
from twodist.cli import main

DATA = Path(__file__).parent / "data"

K4_TEXT = """\
# tetrahedron
p 4 6
r 1 3 2 4 3
r 2 3 3 4 1
r 3 3 1 4 2
r 4 3 2 3 1
"""


class TestGraphFiles:
    def test_parse_k4(self):
        g = parse_graph(K4_TEXT)
        assert g.n == 4 and g.m == 6
        assert len(g.faces) == 4

    def test_round_trip_identity(self):
        for g in (
            gadgets.complete4(),
            gadgets.octahedron(),
            gadgets.icosahedron(),
            gen_planar(50, min_delta=6, seed=50),
        ):
            assert parse_graph(write_graph(g)) == g

    def test_golden_files_normalize(self):
        for name in ("k4.graph", "octahedron.graph", "gen42.graph"):
            text = (DATA / name).read_text()
            g = parse_graph(text)
            canonical = write_graph(g)
            # re-serializing drops comments but keeps every rotation line
            assert parse_graph(canonical) == g
            body = [l for l in text.splitlines() if not l.startswith("#")]
            assert body == canonical.splitlines()[-len(body):]

    def test_asymmetric_rotation_rejected(self):
        bad = "p 2 1\nr 1 1 2\nr 2 0\n"
        with pytest.raises((ParseError, EmbeddingInvalid)):
            parse_graph(bad)

    def test_header_mismatch(self):
        bad = "p 3 2\nr 1 2 2 3\nr 2 2 3 1\nr 3 2 1 2\n"
        with pytest.raises(ParseError):
            parse_graph(bad)

    def test_missing_rotation_line(self):
        with pytest.raises(ParseError):
            parse_graph("p 2 1\nr 1 1 2\n")

    def test_header_fields_must_be_integers(self):
        with pytest.raises(ParseError, match="^line 1: header fields must be integers$"):
            parse_graph("p x 3\n")

    def test_negative_header_rejected(self):
        with pytest.raises(ParseError):
            parse_graph("p -1 0\n")

    def test_duplicate_vertex(self):
        with pytest.raises(ParseError):
            parse_graph("p 2 1\nr 1 1 2\nr 1 1 2\n")

    def test_vertex_out_of_range(self):
        with pytest.raises(ParseError):
            parse_graph("p 2 1\nr 1 1 2\nr 5 1 1\n")

    @pytest.mark.parametrize(
        "text, error, message",
        [
            ("p 2 1\nr 1 1 x\nr 2 1 1\n", ParseError, "line 2: rotation fields must be integers"),
            ("p 2 1\nr 1 1 2.0\nr 2 1 1\n", ParseError, "line 2: rotation fields must be integers"),
            ("p 2 1\nr x 1 2\nr 2 1 1\n", ParseError, "line 2: rotation fields must be integers"),
            ("p 2 1\nr 1 1 2\nr 2 1 1 3x\n", ParseError, "line 3: rotation fields must be integers"),
            ("p 2 1\nr 1\nr 2 1 1\n", ParseError, "line 2: rotation line too short"),
            ("p 2 1\nr 1 2 2\nr 2 1 1\n", ParseError, "line 2: vertex 1 declares degree 2 but lists 1"),
            ("p 2 1\n\nr 1 1 2_0\nr 2 1 1\n", EmbeddingInvalid, "vertex 1 lists unknown neighbor 20"),
            ("p 2 1\nr 1 1 +2\nr 2 1 -1\n", EmbeddingInvalid, "vertex 2 lists unknown neighbor -1"),
        ],
    )
    def test_rotation_fields_are_read_as_int_reads_them(self, text, error, message):
        # each field goes through int(), which takes signs and underscores
        with pytest.raises(error) as refused:
            parse_graph(text)
        assert str(refused.value) == message

    def test_coloring_round_trip(self):
        c = Coloring({1: 3, 2: 1, 7: 2}, budget=5)
        parsed = parse_coloring(write_coloring(c), budget=5)
        assert parsed.assignment == c.assignment


class TestGenerator:
    def test_n4_without_deletions_is_k4(self):
        g = gen_planar(4, seed=9, deletions=0)
        assert g.n == 4 and g.m == 6
        assert all(g.degree(v) == 3 for v in g.vertices())

    def test_same_seed_same_graph(self):
        a = gen_planar(80, min_delta=6, seed=123)
        b = gen_planar(80, min_delta=6, seed=123)
        assert a == b
        assert write_graph(a) == write_graph(b)

    def test_different_seeds_differ(self):
        assert gen_planar(80, min_delta=6, seed=1) != gen_planar(
            80, min_delta=6, seed=2
        )

    def test_min_delta_respected(self):
        for seed in range(10):
            g = gen_planar(30, min_delta=6, seed=seed)
            assert g.max_degree() >= 6

    def test_generation_failed_at_tiny_n(self):
        with pytest.raises(GenerationFailed):
            gen_planar(4, min_delta=6, seed=0)

    def test_generated_graphs_satisfy_invariants(self):
        # construction itself checks symmetry, simplicity, connectivity and
        # the Euler count; just confirm the face-degree sum as well
        for seed in range(5):
            g = gen_planar(40, min_delta=6, seed=seed)
            assert sum(map(len, g.faces)) == 2 * g.m

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=3, max_value=150),
        st.integers(min_value=0, max_value=12),
        st.integers(),
        st.none() | st.integers(min_value=0, max_value=60),
    )
    def test_generated_graphs_round_trip_within_bounds(
        self, n, min_delta, seed, deletions
    ):
        try:
            g = gen_planar(n, min_delta, seed, deletions)
        except GenerationFailed:
            return
        assert parse_graph(write_graph(g)) == g
        assert g.max_degree() >= min_delta
        full = 3 * n - 6  # the stacked triangulation's edge count
        target = deletions if deletions is not None else full // 5
        assert full - target <= g.m <= full


class TestHunt:
    def test_small_hunt_is_clean(self):
        report = hunt(trials=4, n=30, min_delta=6, seed=77)
        assert report.gap_count == 0
        assert report.colorings_valid == 4
        # hunt colors every trial or raises, so the summary counts the trials
        assert report.summary().splitlines()[1] == "colored 4, valid 4"
        assert set(report.audit_totals) == {"-8"}
        assert report.lemma_fires  # something fired on every reduction step

    def test_hunt_determinism(self):
        a = hunt(trials=2, n=25, seed=5)
        b = hunt(trials=2, n=25, seed=5)
        assert a.lemma_fires == b.lemma_fires
        assert a.seeds == b.seeds
        assert a.audit_totals == b.audit_totals

    def test_unaudited_hunt_finds_what_the_audited_one_does(self):
        audited = hunt(4, 40, 6, 3)
        fast = hunt(4, 40, 6, 3, audit_each=False)
        for field in ("lemma_fires", "gap_count", "colorings_valid"):
            assert getattr(fast, field) == getattr(audited, field)
        assert audited.audit_totals and fast.audit_totals == {}
        assert "audit totals" in audited.summary()
        assert "audit totals" not in fast.summary()

    def test_hunt_summary_golden(self):
        # one audit total per intermediate graph with n >= 2: 225 is the
        # hunt's step count, on which the benchmark's steps_per_s rests
        assert hunt(3, 80, 6, 1).summary() == (
            "trials=3 n=80 min_delta=6\n"
            "colored 3, valid 3\n"
            "gap count: 0\n"
            "audit totals: -8 x225\n"
            "  L2.1: 13\n"
            "  L2.2: 64\n"
            "  L2.3.1: 132"
        )


class TestCli:
    def test_gen_color_verify_cycle(self, tmp_path):
        gfile = tmp_path / "g.graph"
        cfile = tmp_path / "g.colors"
        assert main(["gen", "--n", "40", "--min-delta", "6", "--seed", "3",
                     "-o", str(gfile)]) == 0
        assert main(["color", str(gfile), "-o", str(cfile)]) == 0
        assert main(["verify", str(gfile), str(cfile)]) == 0

    def test_verify_rejects_bad_coloring(self, tmp_path):
        gfile = tmp_path / "g.graph"
        cfile = tmp_path / "bad.colors"
        gfile.write_text(K4_TEXT)
        cfile.write_text("1 1\n2 1\n3 2\n4 3\n")
        assert main(["verify", str(gfile), str(cfile)]) == 1

    def test_audit_tsv(self, tmp_path, capsys):
        gfile = tmp_path / "g.graph"
        gfile.write_text((DATA / "octahedron.graph").read_text())
        assert main(["audit", str(gfile)]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == "kind\tid\tinitial\tfinal"
        assert any(l.startswith("vertex\t1\t0\t-4/3") for l in lines)
        assert lines[-1].endswith("-8")

    def test_audit_trace_includes_transfers(self, tmp_path, capsys):
        gfile = tmp_path / "g.graph"
        gfile.write_text(K4_TEXT)
        assert main(["audit", str(gfile), "--trace"]) == 0
        out = capsys.readouterr().out
        assert "transfer\tR1" in out

    def test_oracle_command(self, tmp_path, capsys):
        gfile = tmp_path / "g.graph"
        gfile.write_text(K4_TEXT)
        assert main(["oracle", str(gfile)]) == 0
        assert "chi2 = 4 (exact)" in capsys.readouterr().out

    def test_oracle_witness_verifies_in_the_file_ids(self, tmp_path, capsys):
        gfile = tmp_path / "g.graph"
        wfile = tmp_path / "w.colors"
        gfile.write_text(write_graph(gen_planar(14, min_delta=6, seed=2)))
        assert main(["oracle", str(gfile), "-o", str(wfile)]) == 0
        chi2 = capsys.readouterr().out.split()[2]
        assert main(["verify", str(gfile), str(wfile), "-k", chi2]) == 0
        assert capsys.readouterr().out == f"valid: {chi2} colors within budget {chi2}\n"

    def test_oracle_on_a_long_cycle(self, tmp_path, capsys):
        gfile = tmp_path / "c1201.graph"
        gfile.write_text(write_graph(gadgets.cycle(1201)))
        assert main(["oracle", str(gfile)]) == 0
        assert "chi2 = 4 (exact)" in capsys.readouterr().out

    def test_color_below_the_guarantee_exits_1(self, tmp_path, capsys):
        # with -k 8 every color is forbidden at a pending vertex
        gfile = tmp_path / "g.graph"
        assert main(["gen", "--n", "60", "--min-delta", "6", "--seed", "7",
                     "-o", str(gfile)]) == 0
        assert main(["color", str(gfile), "-k", "8"]) == 1
        assert "all 8 colors forbidden" in capsys.readouterr().err

    def test_audit_total_of_one_vertex(self, tmp_path, capsys):
        gfile = tmp_path / "one.graph"
        gfile.write_text("p 1 0\nr 1 0\n")
        assert main(["audit", str(gfile)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "total\t-\t-4\t-4"

    def test_reduce_command(self, tmp_path, capsys):
        gfile = tmp_path / "g.graph"
        gfile.write_text((DATA / "octahedron.graph").read_text())
        assert main(["reduce", str(gfile), "--steps", "3"]) == 0
        out = capsys.readouterr().out
        assert "L2.4" in out and "proper=yes" in out

    def test_reduce_reports_a_gap_below_delta_6_and_exits_0(self, tmp_path, capsys):
        from test_reductions import dodecahedron

        gfile = tmp_path / "g.graph"
        gfile.write_text(write_graph(dodecahedron()))
        assert main(["reduce", str(gfile)]) == 0
        assert capsys.readouterr().out == (
            "step 0: no rule fires (delta=3)\n"
            "  degrees: 3:20\n"
            "  L2.2: minimum degree 3\n"
            "  shapes: none of the catalog shapes present\n"
        )

    def test_reduce_exits_1_on_a_gap_from_delta_6(self, capsys, monkeypatch):
        # with the catalog emptied every graph is a gap; at Delta = 15 that
        # is a violation of the coloring guarantee, as hunt counts it
        monkeypatch.setattr(reductions, "MATCHER_ORDER", ())
        assert main(["reduce", str(DATA / "gen42.graph")]) == 1
        assert capsys.readouterr().out == (
            "step 0: no rule fires (delta=15)\n"
            "  degrees: 1:2, 2:10, 3:11, 4:6, 5:3, 6:1, 7:1, 8:1, 9:2, 10:2, 11:1, 13:1, 15:1\n"
            "  L2.2: minimum degree 1\n"
            "  shapes: (4,4):2, (4,3):2, (4,2):2, (5,5):2\n"
        )

    def test_hunt_command(self, capsys):
        assert main(["hunt", "--trials", "2", "--n", "20", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "gap count: 0" in out

    def test_hunt_command_without_audit(self, capsys):
        assert main(["hunt", "--trials", "2", "--n", "20", "--seed", "1", "--no-audit"]) == 0
        out = capsys.readouterr().out
        assert "gap count: 0" in out and "audit totals" not in out

    def test_hunt_command_golden(self, capsys):
        assert main(["hunt", "--trials", "2", "--n", "20", "--seed", "1"]) == 0
        assert capsys.readouterr().out == (
            "trials=2 n=20 min_delta=6\n"
            "colored 2, valid 2\n"
            "gap count: 0\n"
            "audit totals: -8 x24\n"
            "  L2.1: 2\n"
            "  L2.2: 9\n"
            "  L2.3.1: 9\n"
        )

    def test_verify_rejects_incomplete_coloring(self, tmp_path, capsys):
        # colors vertex 1 only, and names a vertex the graph does not have
        gfile = tmp_path / "g.graph"
        cfile = tmp_path / "partial.colors"
        gfile.write_text(write_graph(gen_planar(30, min_delta=6, seed=3)))
        cfile.write_text("1 1\n999 2\n")
        assert main(["verify", str(gfile), str(cfile)]) == 1
        out = capsys.readouterr().out
        assert "valid:" not in out
        assert "uncolored vertices: 2, 3, 4, 5, 6, ... (29 in all)" in out
        assert "colored ids not in 1..30: 999" in out

    def test_huge_header_gives_a_short_error(self, tmp_path, capsys):
        gfile = tmp_path / "huge.graph"
        gfile.write_text("p 5000000 0\n")
        assert main(["audit", str(gfile)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "(5000000 in all)" in captured.err
        assert len(captured.err) < 200

    def test_bad_header_exits_2(self, tmp_path, capsys):
        gfile = tmp_path / "bad.graph"
        gfile.write_text("p x 3\n")
        assert main(["color", str(gfile)]) == 2
        assert capsys.readouterr().err == "error: line 1: header fields must be integers\n"

    def test_gen_below_three_vertices_exits_2(self, capsys):
        assert main(["gen", "--n", "2"]) == 2
        assert capsys.readouterr().err == "error: need n >= 3\n"

    def test_color_below_the_base_case_exits_1(self, tmp_path, capsys):
        gfile = tmp_path / "g.graph"
        gfile.write_text((DATA / "octahedron.graph").read_text())
        assert main(["color", str(gfile), "-k", "2"]) == 1
        assert capsys.readouterr().err == (
            "budget exhausted: base case n=6 needs more than 2 colors\n"
        )

    def test_verify_names_a_color_outside_the_palette(self, tmp_path, capsys):
        # the octahedron has Delta = 4, so the default palette is 1..14
        gfile = tmp_path / "g.graph"
        cfile = tmp_path / "g.colors"
        gfile.write_text((DATA / "octahedron.graph").read_text())
        cfile.write_text("1 99\n")
        assert main(["verify", str(gfile), str(cfile)]) == 1
        assert "color 99 at vertex 1 outside 1..14\n" in capsys.readouterr().out

    def test_missing_file_exits_2(self):
        assert main(["color", "/nonexistent/file.graph"]) == 2

    def test_bad_file_exits_2(self, tmp_path):
        gfile = tmp_path / "bad.graph"
        gfile.write_text("p 2 1\nr 1 1 2\n")
        assert main(["color", str(gfile)]) == 2

    def test_directory_exits_2(self, tmp_path, capsys):
        assert main(["color", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_non_utf8_file_exits_2(self, tmp_path, capsys):
        gfile = tmp_path / "binary.graph"
        gfile.write_bytes(b"\xff\xfe\n" + K4_TEXT.encode())
        assert main(["audit", str(gfile)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "g.graph", "c.colors", "-k", "0"],
            ["color", "g.graph", "-k", "-3"],
            ["reduce", "g.graph", "--steps", "0"],
            ["reduce", "g.graph", "--steps", "-1"],
            ["oracle", "g.graph", "--budget", "-5"],
            ["hunt", "--trials", "0", "--n", "20"],
            ["hunt", "--trials", "-1", "--n", "20"],
            ["gen", "--n", "20", "--min-delta", "-1"],
            ["hunt", "--trials", "1", "--n", "20", "--min-delta", "-1"],
        ],
    )
    def test_out_of_range_counts_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "must be at least" in capsys.readouterr().err

    def test_zero_oracle_budget_is_accepted(self, tmp_path, capsys):
        gfile = tmp_path / "g.graph"
        gfile.write_text(K4_TEXT)
        assert main(["oracle", str(gfile), "--budget", "0"]) == 0
        assert "chi2 = 4" in capsys.readouterr().out


# -- fuzzing the boundaries ------------------------------------------------

_numbers = st.one_of(
    st.integers(min_value=-2, max_value=9),
    st.sampled_from([10**9, 2**63, -(10**12)]),
)
_graph_lines = st.one_of(
    st.builds(lambda a, b: f"p {a} {b}", _numbers, _numbers),
    st.lists(_numbers, max_size=8).map(lambda xs: " ".join(["r", *map(str, xs)])),
    st.sampled_from(K4_TEXT.splitlines() + ["p", "r", "p 4", "r 1 x", "q 1 2", ""]),
    st.text(max_size=12),
)
_graph_texts = st.lists(_graph_lines, max_size=8).map("\n".join)
_coloring_texts = st.lists(
    st.one_of(
        st.lists(_numbers, max_size=3).map(lambda xs: " ".join(map(str, xs))),
        st.text(max_size=8),
    ),
    max_size=6,
).map("\n".join)


class TestFuzz:
    """Malformed input ends in a TwodistError, or exit code 2 from the CLI,
    never in a traceback."""

    @settings(max_examples=300, deadline=None)
    @given(_graph_texts)
    def test_parse_graph(self, text):
        try:
            g = parse_graph(text)
        except TwodistError:
            return
        assert parse_graph(write_graph(g)) == g

    @settings(max_examples=200, deadline=None)
    @given(_coloring_texts)
    def test_parse_coloring(self, text):
        try:
            c = parse_coloring(text, budget=5)
        except TwodistError:
            return
        assert parse_coloring(write_coloring(c), budget=5).assignment == c.assignment

    @settings(max_examples=80, deadline=None)
    @given(
        st.one_of(_graph_texts.map(str.encode), st.binary(max_size=40)),
        _coloring_texts,
        st.sampled_from(["color", "verify", "audit", "oracle", "reduce"]),
    )
    def test_cli(self, graph_bytes, coloring_text, command):
        try:
            parse_graph(graph_bytes.decode())
            malformed = False
        except (UnicodeDecodeError, TwodistError):
            malformed = True
        with tempfile.TemporaryDirectory() as tmp:
            gfile, cfile = Path(tmp, "g.graph"), Path(tmp, "c.colors")
            gfile.write_bytes(graph_bytes)
            cfile.write_text(coloring_text)
            argv = {
                "verify": ["verify", str(gfile), str(cfile)],
                "oracle": ["oracle", str(gfile), "--budget", "1000"],
                "reduce": ["reduce", str(gfile), "--steps", "3"],
            }.get(command, [command, str(gfile)])
            code = main(argv)
        assert code == 2 if malformed else code in (0, 1, 2)
