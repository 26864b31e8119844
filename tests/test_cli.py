"""Problem parsing, flag surface, emitters, and exit codes."""

import json
import pathlib

import pytest

from sigbasis.cli import main, parse_problem
from sigbasis.errors import ParseError
from sigbasis.textio import render_element

MORA_TEXT = """\
vars: y x
order: degrevlex
field: Q
setting: ring
gens:
x^2*y^2 - 1
y^5 - x^2*y
x^5 - x*y^2
"""


class TestParseProblem:
    def test_mora_file(self):
        spec = parse_problem(MORA_TEXT)
        assert spec.variables == ("y", "x")
        assert spec.field == "q" and spec.setting == "ring"
        assert len(spec.generators) == 3

    def test_comments_and_blanks_ignored(self):
        spec = parse_problem("# heading\n\nvars: x\n" "gens:\nx - 1\n")
        assert spec.generators == ("x - 1",)

    def test_empty_generators_valid(self):
        spec = parse_problem("vars: x\ngens:\n")
        assert spec.generators == ()

    def test_gf_field(self):
        spec = parse_problem("vars: x\nfield: GF 32003\ngens:\nx - 1\n")
        assert spec.field == "gf:32003"
        assert spec.build_field().p == 32003

    def test_monoid_setting(self):
        spec = parse_problem(
            "vars: x y\nsetting: monoid degmin=2\ngens:\nx^2 - x*y\n"
        )
        ctx = spec.build_context()
        assert not ctx.monoid.member((1, 0))

    def test_module_setting(self):
        spec = parse_problem(
            "vars: x y\nsetting: module rank=2 order=pot\ngens:\nx*e_1 - y*e_2\n"
        )
        ctx = spec.build_context()
        assert ctx.rank == 2

    def test_unknown_variable_diagnostic(self):
        with pytest.raises(ParseError) as info:
            parse_problem("vars: x\ngens:\nx - z\n")
        assert info.value.line == 3

    def test_malformed_coefficient_diagnostic(self):
        with pytest.raises(ParseError):
            parse_problem("vars: x\ngens:\n1/ - x\n")

    def test_inconsistent_rank_rejected(self):
        with pytest.raises(ParseError):
            parse_problem(
                "vars: x\nsetting: module rank=2 order=pot\ngens:\nx*e_5\n"
            )

    def test_canonical_fields(self):
        spec = parse_problem(MORA_TEXT)
        assert (spec.order, spec.sig_order, spec.sig_init) == ("degrevlex", "top", "shifted")
        assert spec.generators == ("x^2*y^2 - 1", "y^5 - x^2*y", "x^5 - x*y^2")
        assert spec.generators2 == ()
        two_block = parse_problem(
            "vars: y x\nsig_init: sum\ngens:\nx - 1\ngens2:\ny - 1\n"
        )
        assert two_block.generators == ("x - 1",) and two_block.generators2 == ("y - 1",)
        gf = parse_problem("vars: x y\norder: DegRevLex\nfield: GF 7\nsig_order: POT\n"
                           "sig_init: Unshifted\ngens:\n3*x + y\n")
        assert gf.variables == ("x", "y") and gf.order == "degrevlex"
        assert (gf.field, gf.sig_order, gf.sig_init) == ("gf:7", "pot", "unshifted")
        # generator text stays as written; its field reads it when it is built
        assert gf.generators == ("3*x + y",)
        assert render_element(gf.build_generators(gf.build_context())[0]) == "y + 3*x"

    def test_monoid_exclusions_reach_monoid_spec(self):
        spec = parse_problem(
            "vars: y x\nsetting: monoid degmin=2 exclude=x^3,x*y\ngens:\nx^2*y^2 - 1\n"
        )
        monoid = spec.build_context().monoid
        assert monoid.kind == "degree_truncated" and monoid.min_degree == 2
        assert monoid.exclusions == {(0, 3), (1, 1)}
        assert not monoid.member((1, 1)) and monoid.member((2, 0))

    def test_generated_list_order_gives_equal_contexts(self):
        # the monoid is its generators' degree, not the order they are listed in
        texts = [
            f"vars: y x\nfield: GF 32003\nsetting: monoid generated={gens}\n"
            "gens:\nx^2*y^2 - 1\ny^5 - x^2*y\n"
            for gens in ("x^2,x*y,y^2", "y^2,x*y,x^2,x*y")
        ]
        ctx_a, ctx_b = (parse_problem(t).build_context() for t in texts)
        assert ctx_a == ctx_b and hash(ctx_a) == hash(ctx_b)
        f = parse_problem(texts[0]).build_generators(ctx_a)[0]
        g = parse_problem(texts[1]).build_generators(ctx_b)[0]
        assert f.sub_scaled(g, ctx_a.field.one).is_zero


class TestMainExitCodes:
    def test_run_file_ok(self, tmp_path, capsys):
        path = tmp_path / "mora.sys"
        path.write_text(MORA_TEXT)
        code = main(
            [
                "run",
                str(path),
                "--strategy",
                "in-order",
                "--sig-order",
                "top",
                "--sig-init",
                "shifted",
                "--verify",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "certificate=pass" in out

    def test_builtin_katsura4_f5_verify(self, capsys):
        assert main(["run", "--builtin", "katsura4", "--strategy", "f5", "--verify"]) == 0

    def test_builtin_mora_f4(self):
        assert main(["run", "--builtin", "mora", "--strategy", "f4", "--batch", "8"]) == 0

    def test_builtin_katsura6_f5_verify(self, capsys):
        assert (
            main(["run", "--builtin", "katsura6", "--strategy", "f5", "--verify"]) == 0
        )

    def test_sum_initialization_from_file(self, tmp_path, capsys):
        path = tmp_path / "sum.sys"
        path.write_text(
            "vars: y x\nsig_init: sum\ngens:\nx - 1\ngens2:\ny - 1\n"
        )
        assert main(["run", str(path), "--verify"]) == 0

    def test_sum_rejects_non_basis_block(self, tmp_path, capsys):
        # {x^2 y^2 - 1, y^5 - x^2 y} is not a Groebner basis by itself
        path = tmp_path / "sum.sys"
        path.write_text(
            "vars: y x\nsig_init: sum\ngens:\nx^2*y^2 - 1\ny^5 - x^2*y\ngens2:\nx - 1\n"
        )
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == "error: the first generator set is not a Groebner basis\n"

    def test_sum_without_second_block_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "sum.sys"
        path.write_text("vars: y x\nsig_init: sum\ngens:\nx - 1\n")
        assert main(["run", str(path)]) == 1

    def test_empty_generator_list_runs(self, tmp_path, capsys):
        path = tmp_path / "empty.sys"
        path.write_text("vars: x\ngens:\n")
        assert main(["run", str(path)]) == 0

    def test_empty_generator_list_verify_deep(self, tmp_path, capsys):
        # a shifted run with nothing to check: the empty kernel is covered
        path = tmp_path / "empty.sys"
        path.write_text("vars: y x\ngens:\n")
        assert main(["run", str(path), "--verify-deep", "3"]) == 0
        out = capsys.readouterr().out
        assert [line for line in out.splitlines() if line.startswith("verify-deep:")] == [
            "verify-deep: signature-slices=pass",
            "verify-deep: syzygy-cover=pass",
        ]

    def test_parse_error_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.sys"
        bad.write_text("vars: x\ngens:\nx - q\n")
        assert main(["run", str(bad)]) == 1

    def test_exponent_past_the_limit_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "big.sys"
        bad.write_text("vars: y x\ngens:\nx^2147483648 - y\n")
        assert main(["run", str(bad)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "2147483647" in err

    def test_usage_error_exit_1(self, capsys):
        assert main(["run", "--builtin", "mora", "--strategy", "bogus"]) == 1

    def test_missing_input_exit_1(self, capsys):
        assert main(["run"]) == 1

    def test_limit_exit_3(self, capsys):
        assert (
            main(["run", "--builtin", "mora", "--max-insertions", "1"]) == 3
        )

    def test_verification_bounded_by_max_seconds(self, monkeypatch, capsys):
        # the engine finishes inside the cap; the clock reads past it once
        # the oracle starts
        from sigbasis import cli, errors

        real = cli.buchberger

        def late_oracle(*args, **kwargs):
            monkeypatch.setattr(errors, "monotonic", lambda: float("inf"))
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "buchberger", late_oracle)
        argv = ["run", "--builtin", "mora", "--verify", "--max-seconds", "60"]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out.startswith("basis: ")
        assert captured.err == "limit exceeded: time cap exceeded during verification\n"

    def test_sum_basis_check_bounded_by_max_seconds(self, tmp_path, monkeypatch, capsys):
        # both blocks are Groebner bases; the clock reads past the deadline
        # while the first block's closure is checked, before the engine runs
        from sigbasis import errors

        path = tmp_path / "sum.sys"
        path.write_text("vars: y x\nsig_init: sum\ngens:\nx - 1\ny - 1\ngens2:\nx + y\n")
        assert main(["run", str(path)]) == 0
        capsys.readouterr()
        monkeypatch.setattr(errors, "monotonic", lambda: float("inf"))
        assert main(["run", str(path), "--max-seconds", "60"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        # the closure check's own message: the engine's would lack the suffix
        assert captured.err == "limit exceeded: time cap exceeded during verification\n"

    def test_tree_check_bounded_by_max_seconds(self, monkeypatch, capsys):
        # the run and its own certificate finish; the clock reads past the
        # deadline once --verify validates the sigtree
        from sigbasis import cli, engine, errors

        real = engine.validate_sigtree

        def late_tree_check(tree, G, *, deadline=None):
            monkeypatch.setattr(errors, "monotonic", lambda: float("inf"))
            return real(tree, G, deadline=deadline)

        monkeypatch.setattr(cli, "validate_sigtree", late_tree_check)
        argv = ["run", "--builtin", "mora", "--verify", "--max-seconds", "60"]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out.startswith("basis: ")
        # the tree check's own message: the oracle after it would add a suffix
        assert captured.err == "limit exceeded: time cap exceeded\n"

    def test_prebasis_pair_search_bounded_by_max_seconds(self, monkeypatch, capsys):
        # the clock reads past the deadline once the first prebasis member's
        # pairs are searched: the next member's search never starts
        from sigbasis import engine, errors

        real = engine.queue_update
        searched = []

        def late_queue_update(Q, G):
            searched.append(G.members[-1].id)
            monkeypatch.setattr(errors, "monotonic", lambda: float("inf"))
            return real(Q, G)

        monkeypatch.setattr(engine, "queue_update", late_queue_update)
        assert main(["run", "--builtin", "mora", "--max-seconds", "60"]) == 3
        assert searched == [1]
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("limit exceeded: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "flag, value",
        [("--max-seconds", "nan"), ("--max-seconds", "inf"), ("--max-seconds", "-1"),
         ("--debug-invariants", "-1"), ("--max-insertions", "-5"), ("--verify-deep", "-1")],
    )
    def test_malformed_limit_flag(self, flag, value, monkeypatch, capsys):
        from sigbasis import cli

        def no_problem(args):
            raise AssertionError("the problem was loaded before the flags were checked")

        monkeypatch.setattr(cli, "_load_problem", no_problem)
        assert main(["run", "--builtin", "mora", flag, value]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} ") and err.count("\n") == 1

    @pytest.mark.parametrize("strategy", ["in-order", "min-lm", "f5", "f5-pruned"])
    def test_batch_rejected_without_f4(self, strategy, capsys):
        assert main(["run", "--builtin", "mora", "--strategy", strategy, "--batch", "8"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_f4_default_batch(self, tmp_path):
        out = tmp_path / "run.json"
        assert main(["run", "--builtin", "mora", "--strategy", "f4", "--emit-json", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["batch"] == 4

    @pytest.mark.parametrize(
        "field, code",
        [("q", 0), ("gf:32003", 0), ("gf", 1), ("gf:abc", 1), ("gf:4", 1), ("foo", 1),
         ("gf:\u00b2", 1)],
    )
    def test_field_flag(self, field, code, capsys):
        assert main(["run", "--builtin", "mora", "--field", field]) == code
        err = capsys.readouterr().err
        if code:
            assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "setting",
        ["module order=pot", "module rank=z", "module rank", "monoid degmin=x", "monoid",
         "ring extra", "monoid degmin=2 generated=x", "module rank=1 order=pot foo=bar"],
    )
    def test_malformed_setting_option(self, setting, tmp_path, capsys):
        path = tmp_path / "bad.sys"
        path.write_text(f"vars: y x\nsetting: {setting}\ngens:\nx - 1\n")
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "generators", ["x*y^2,x^4*y,x^2", "y^2,x^2"], ids=["mixed-degrees", "not-all"]
    )
    def test_generated_monoid_refused(self, generators, tmp_path, capsys):
        # no common-multiple search box is known complete for these monoids
        path = tmp_path / "gen.sys"
        path.write_text(
            f"vars: y x\nfield: GF 32003\nsetting: monoid generated={generators}\n"
            "gens:\nx^2*y^2 - 1\ny^5 - x^2*y\n"
        )
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "one total degree" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "field, flags",
        [("GF 7", []), ("Q", ["--field", "gf:7"])],
        ids=["file-field", "field-flag"],
    )
    def test_gf_zero_denominator(self, field, flags, tmp_path, capsys):
        # 7 divides the denominator of 1/7 in GF(7)
        path = tmp_path / "den.sys"
        path.write_text(f"vars: y x\nfield: {field}\ngens:\nx + 1/7\n")
        assert main(["run", str(path), *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "zero denominator" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "header",
        [
            "vars y x",
            "order: lex",
            "vars:",
            "vars: y 1x",
            "vars: y e_1",
            "vars: x x",
            "vars: y x\norder: grlex",
            "vars: y x\nsetting: torus",
            "vars: y x\nsetting:",
            "vars: y x\nsig_order: mid",
            "vars: y x\nsig_init: twisted",
            "vars: y x\ncolour: red",
            "vars: y x\nfield: GF 7\nfield: Q",
            "vars: y x\nvars: y x",
            "vars: y x\ngens:\ny - 1",
            "vars: y x\ngens2:\ny - 1\ngens2:\nx + y",
            "vars: y x\ngens2:\ny - 1\nfield: GF 7\nfield: GF 7",
        ],
        ids=["no-colon", "no-vars", "empty-vars", "bad-name", "reserved-name",
             "duplicate-name", "order", "setting", "empty-setting", "sig-order",
             "sig-init", "unknown-key", "repeated-field", "repeated-vars",
             "repeated-gens", "repeated-gens2", "repeated-field-after-block"],
    )
    def test_malformed_header(self, header, tmp_path, capsys):
        path = tmp_path / "bad.sys"
        path.write_text(f"{header}\ngens:\nx - 1\n")
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "text, lineno",
        [
            ("vars: y x\nfield: GF 7\nfield: Q\ngens:\nx - 1\n", 3),
            ("vars: y x\ngens:\nx - 1\n# again\ngens: y - 1\n", 5),
        ],
        ids=["header", "block"],
    )
    def test_repeated_key_names_its_line(self, text, lineno, tmp_path, capsys):
        path = tmp_path / "twice.sys"
        path.write_text(text)
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: line {lineno}, col 1: duplicate ")
        assert err.count("\n") == 1

    def test_gens2_block_before_gens(self, tmp_path, capsys):
        # the same two blocks in the other order, with a header between them
        first, second = "x - 1\ny - 1\n", "x + y\n"
        swapped = f"vars: y x\ngens2:\n{second}sig_init: sum\ngens:\n{first}"
        ordered = f"vars: y x\nsig_init: sum\ngens:\n{first}gens2:\n{second}"
        assert parse_problem(swapped) == parse_problem(ordered)
        path = tmp_path / "swapped.sys"
        path.write_text(swapped)
        assert main(["run", str(path), "--verify"]) == 0
        assert "oracle-lm-ideal=pass" in capsys.readouterr().out

    def test_certificate_failure_exit_2(self, monkeypatch, capsys):
        from sigbasis import engine

        monkeypatch.setattr(
            engine,
            "faugere_certificate",
            lambda G, deadline=None: engine.CertificateReport(False, ["forced"]),
        )
        assert main(["run", "--builtin", "mora"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: completed run failed its own certificate")

    def test_verify_deep(self, capsys):
        code = main(
            ["run", "--builtin", "mora", "--verify", "--verify-deep", "8"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "signature-slices=pass" in out and "syzygy-cover=pass" in out
        heads = [line.split(":")[0] for line in out.splitlines()]
        assert heads == ["basis", "verify", "verify-deep", "verify-deep"]

    def test_verify_deep_bound_refused_before_oracle(self, monkeypatch, capsys):
        from sigbasis import cli

        def no_oracle(*args, **kwargs):
            raise AssertionError("the oracle ran before the degree bound was checked")

        monkeypatch.setattr(cli, "buchberger", no_oracle)
        argv = ["run", "--builtin", "mora", "--verify", "--verify-deep", "1"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "verify:" not in captured.out
        assert captured.err.startswith("error: degree bound 1 below max part degree")
        assert captured.err.count("\n") == 1


PERFBENCH_INPUTS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "inputs"

GF7_TEXT = "vars: y x\nfield: GF 7\ngens:\n1/2*x - y\nx^2 - 3\n"


def emitted_basis(tmp_path, argv):
    out = tmp_path / "out.json"
    assert main(["run", *argv, "--strategy", "f5", "--emit-json", str(out)]) == 0
    return json.loads(out.read_text())["basis"]


class TestFieldFlagAndSecondBlock:
    """``--field`` means what the file's ``field:`` line would, and a ``gens2:``
    block joins the module of every initialization."""

    def test_field_flag_on_gf_file_solves_the_builtin(self, tmp_path):
        path = str(PERFBENCH_INPUTS / "katsura6-gf.sys")
        assert emitted_basis(tmp_path, [path, "--field", "q"]) == emitted_basis(
            tmp_path, ["--builtin", "katsura6"]
        )

    @pytest.mark.parametrize("field", ["q", "gf:11"])
    def test_field_flag_reads_the_text_as_written(self, field, tmp_path):
        gf7, q = tmp_path / "gf7.sys", tmp_path / "q.sys"
        gf7.write_text(GF7_TEXT)
        q.write_text(GF7_TEXT.replace("GF 7", "Q"))
        flags = ["--field", field, "--verify"]
        assert emitted_basis(tmp_path, [str(gf7), *flags]) == emitted_basis(
            tmp_path, [str(q), *flags]
        )

    def test_field_flag_rescues_text_invalid_in_the_file_field(self, tmp_path, capsys):
        # 1/7 has no value in GF(7), but the file is read in the field of --field
        text = "vars: y x\nfield: GF 7\ngens:\n1/7*x - y\nx^2 - 3\n"
        gf7, q = tmp_path / "gf7.sys", tmp_path / "q.sys"
        gf7.write_text(text)
        q.write_text(text.replace("GF 7", "Q"))
        flags = ["--field", "q", "--verify"]
        outputs = []
        for path in (gf7, q):
            outputs.append(emitted_basis(tmp_path, [str(path), *flags]))
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[2] and outputs[1] == outputs[3]
        assert "oracle-lm-ideal=pass" in outputs[1].out

    def test_field_flag_checks_the_text_in_its_own_field(self, tmp_path, capsys):
        path = tmp_path / "q.sys"
        path.write_text("vars: y x\nfield: Q\ngens:\nx^2 - 3\n1/7*x - y\n")
        assert main(["run", str(path), "--field", "gf:7"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: line 5, col 1:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "sig_init, flags",
        [("", []), ("sig_init: sum\n", ["--sig-init", "shifted"]),
         ("sig_init: sum\n", ["--sig-init", "unshifted"])],
        ids=["default", "sum-as-shifted", "sum-as-unshifted"],
    )
    def test_second_block_joins_the_module(self, sig_init, flags, tmp_path, capsys):
        path = tmp_path / "two.sys"
        path.write_text(f"vars: y x\n{sig_init}gens:\ny^4 - x^2\ngens2:\nx*y - 1\n")
        assert main(["run", str(path), "--strategy", "f5", "--verify", *flags]) == 0
        assert "oracle-lm-ideal=pass" in capsys.readouterr().out


class TestEmitters:
    def test_outputs_deterministic(self, tmp_path):
        args = [
            "run", "--builtin", "mora", "--verify",
            "--emit-dot", "", "--emit-json", "", "--emit-trace", "",
        ]

        def snapshot(tag):
            dot = tmp_path / f"{tag}.dot"
            js = tmp_path / f"{tag}.json"
            tr = tmp_path / f"{tag}.jsonl"
            argv = list(args)
            argv[argv.index("--emit-dot") + 1] = str(dot)
            argv[argv.index("--emit-json") + 1] = str(js)
            argv[argv.index("--emit-trace") + 1] = str(tr)
            assert main(argv) == 0
            return dot.read_bytes(), js.read_bytes(), tr.read_bytes()

        assert snapshot("a") == snapshot("b")

    def test_trace_streamed_before_limit(self, tmp_path, capsys):
        trace = tmp_path / "cut.jsonl"
        argv = ["run", "--builtin", "mora", "--max-insertions", "1", "--emit-trace", str(trace)]
        assert main(argv) == 3
        rows = [json.loads(line) for line in trace.read_text().splitlines()]
        events = [row["event"] for row in rows]
        assert events.count("insert") == 1 and events[-1] == "queue_add"

    @pytest.mark.parametrize("cap", ["insertions", "seconds"])
    def test_capped_run_emits_partial_json(self, cap, tmp_path, monkeypatch, capsys):
        # the partial result goes out uncertified; exit code and message stay
        from sigbasis import errors

        out = tmp_path / "cut.json"
        argv = ["run", "--builtin", "mora", "--emit-json", str(out)]
        if cap == "insertions":
            argv += ["--max-insertions", "1"]
        else:
            argv += ["--max-seconds", "60"]
            monkeypatch.setattr(errors, "monotonic", lambda: float("inf"))
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("limit exceeded: ") and captured.err.count("\n") == 1
        if cap == "seconds":
            # the loop's own check, not one inside a reduction
            assert captured.err == "limit exceeded: time cap exceeded\n"
        payload = json.loads(out.read_text())
        assert payload["certified"] is False
        assert set(payload) == {
            "config", "basis", "syzygies", "redundant_member_ids", "stats", "certified"
        }
        assert payload["config"]["strategy"] == "in-order"
        assert payload["stats"]["insertions"] == (1 if cap == "insertions" else 0)
        # the time cap stops the run after the first input's pair search
        assert len(payload["basis"]) == (4 if cap == "insertions" else 1)

    def test_json_payload_shape(self, tmp_path):
        out = tmp_path / "run.json"
        assert main(["run", "--builtin", "mora", "--emit-json", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"config", "basis", "syzygies", "redundant_member_ids", "stats"}
        assert payload["stats"]["insertions"] > 0
        assert all("@" in row for row in payload["basis"])

    def test_json_stats_count_predicted_zeros(self, tmp_path):
        out = tmp_path / "run.json"
        argv = ["run", "--builtin", "katsura4", "--strategy", "f5", "--emit-json", str(out)]
        assert main(argv) == 0
        stats = json.loads(out.read_text())["stats"]
        assert 0 < stats["koszul_zeros"] <= stats["zero_reductions"]

    def test_dot_contains_highlights_with_verify(self, tmp_path):
        out = tmp_path / "run.dot"
        assert (
            main(["run", "--builtin", "mora", "--verify", "--emit-dot", str(out)]) == 0
        )
        text = out.read_text()
        assert "style=bold" in text

    def test_gf_flag_override(self, tmp_path):
        assert (
            main(["run", "--builtin", "katsura4", "--field", "gf:32003",
                  "--strategy", "f5", "--verify"]) == 0
        )
