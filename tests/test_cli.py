"""Document parsing, serialization, command dispatch, exit codes."""

import re

import pytest

from heytop import cli, hset, optable as ot
from heytop.errors import (
    CapExceeded, ParseError, UnknownCommand, UnknownName, ValidationError,
)
from heytop.galois import JJ, galois_check
from heytop.heyting import boolean2, chain

DOC = """\
# 3-chain workspace
algebra chain 3
carrier a b

operator Id identity
operator Bot bottom
operator Top top
operator DNeg double-complement
operator Ju red-family {a:u} {a,b:u}
operator Ap sat-family {a}
operator T1 table
  {} -> {}
  {b:u} -> {b:u}
  {b} -> {b}
  {a:u} -> {a:u}
  {a:u,b:u} -> {a:u,b:u}
  {a:u,b} -> {a:u,b}
  {a} -> {a}
  {a,b:u} -> {a,b:u}
  {a,b} -> {a,b}
end

axiom_set ax1
  cover a {b}
end

operator GenA generated-sat ax1
operator GenJ generated-red ax1

relation r
  domain x y
  edge x a
  edge y b u
end

topology T Id Bot
"""


@pytest.fixture(scope="module")
def ws():
    return cli.parse_document(DOC)


def test_parse_counts(ws):
    assert len(ws.algebra) == 3
    assert ws.carrier.points == ("a", "b")
    assert set(ws.operators) == {
        "Id", "Bot", "Top", "DNeg", "Ju", "Ap", "T1", "GenA", "GenJ",
    }
    assert set(ws.axiom_sets) == {"ax1"}
    assert set(ws.relations) == {"r"}
    assert set(ws.topologies) == {"T"}


def test_table_operator_is_identity(ws):
    assert ot.op_eq(ws.operators["T1"], ws.operators["Id"])


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as exc:
        cli.parse_document("algebra chain 3\ncarrier a\nbogus x\n")
    assert exc.value.line == 3
    with pytest.raises(ParseError):
        cli.parse_document("carrier a\n")  # no algebra
    with pytest.raises(ParseError):
        cli.parse_document("algebra chain 3\n")  # no carrier


def test_validation_errors():
    with pytest.raises(ValidationError):
        cli.parse_document(
            "algebra chain 3\ncarrier a\noperator X identity\noperator X identity\n"
        )
    with pytest.raises(ValidationError):
        cli.parse_document(
            "algebra chain 3\ncarrier a\naxiom_set ax\n  cover zzz {a}\nend\n"
        )
    with pytest.raises(ValidationError):
        cli.parse_document("algebra chain 3\ncarrier a\noperator C const {zzz}\n")
    with pytest.raises(ValidationError):
        # topology over an incompatible pair
        cli.parse_document(
            "algebra boolean\ncarrier a b\n"
            "operator A sat-family {a}\noperator J red-family {a}\n"
            "topology T A J\n"
        )


def test_serialize_round_trip(ws):
    text = cli.serialize(ws)
    ws2 = cli.parse_document(text)
    assert cli.serialize(ws2) == text
    for name in ws.operators:
        assert (
            ws2.operators[name].rank_table() == ws.operators[name].rank_table()
        )


def test_run_reports_byte_identical(ws):
    out1, code1 = cli.run("galois", ["Id", "Id"], ws)
    out2, code2 = cli.run("galois", ["Id", "Id"], ws)
    assert out1 == out2 and code1 == code2 == cli.EXIT_OK


def test_run_galois_id_id(ws):
    out, code = cli.run("galois", ["Id", "Id"], ws)
    assert code == cli.EXIT_OK
    assert "degree=1" in out


def test_run_compat_failure_exit(ws):
    out, code = cli.run("compat", ["DNeg", "Id"], ws)
    assert code == cli.EXIT_LAW_FAILED
    assert "= u" in out and "witness" in out


def test_run_classify(ws):
    out, code = cli.run("classify", ["DNeg"], ws)
    assert code == cli.EXIT_OK
    assert "contractive: refuted" in out


def test_run_ll_rr_aa_jj(ws):
    for cmd, arg in [("ll", "Id"), ("rr", "Id"), ("aa", "Ju"), ("jj", "Ap")]:
        out, code = cli.run(cmd, [arg], ws)
        assert code == cli.EXIT_OK
        assert "->" in out


def test_run_laws(ws):
    out, code = cli.run("laws", [], ws)
    assert code == cli.EXIT_OK
    for suite in ("galois", "positivity", "antitone", "unit", "triangle", "union-to-meet"):
        assert f"law {suite}: holds" in out


def test_run_generate(ws):
    out, code = cli.run("generate", ["ax1"], ws)
    assert code == cli.EXIT_OK
    assert "JJ(A) == J: True" in out
    assert "saturated: True" in out


def test_run_represent(ws):
    out, code = cli.run("represent", ["r"], ws)
    assert code == cli.EXIT_OK
    assert "law symmetry: holds" in out
    assert "reduced: True" in out


def test_run_diagram(ws):
    out, code = cli.run("diagram", ["T"], ws)
    assert code == cli.EXIT_OK
    assert out.startswith("digraph")
    assert out.count("label=") == 3


def test_run_counterexample_without_workspace():
    out, code = cli.run("counterexample", ["id-bot-topology"], None)
    assert code == cli.EXIT_OK
    assert "[PASS]" in out and "[FAIL]" not in out


def test_run_unknowns(ws):
    with pytest.raises(UnknownCommand):
        cli.run("frobnicate", [], ws)
    with pytest.raises(UnknownName):
        cli.run("classify", ["nope"], ws)
    with pytest.raises(UnknownCommand):
        cli.run("classify", [], None)


def test_main_exit_codes(tmp_path, capsys):
    doc = tmp_path / "w.doc"
    doc.write_text(DOC)
    assert cli.main(["-d", str(doc), "validate"]) == cli.EXIT_OK
    capsys.readouterr()
    assert cli.main(["-d", str(doc), "compat", "DNeg", "Id"]) == cli.EXIT_LAW_FAILED
    capsys.readouterr()
    bad = tmp_path / "bad.doc"
    bad.write_text("nonsense\n")
    assert cli.main(["-d", str(bad), "validate"]) == cli.EXIT_USAGE
    capsys.readouterr()
    assert (
        cli.main(["-d", str(doc), "--subset-cap", "4", "ll", "Id"]) == cli.EXIT_CAP
    )
    capsys.readouterr()
    assert cli.main(["-d", str(doc), "nope"]) == cli.EXIT_USAGE
    capsys.readouterr()
    assert cli.main(["counterexample", "sat-not-reduced"]) == cli.EXIT_OK
    capsys.readouterr()


def test_main_sampled_compat_above_cap(tmp_path, capsys):
    doc = tmp_path / "w.doc"
    doc.write_text(DOC)
    code = cli.main(
        ["-d", str(doc), "--subset-cap", "4", "--seed", "5", "compat", "Id", "Id"]
    )
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    assert "no-counterexample-found" in out
    assert "seed: 5" in out


def test_m3_document_rejected(tmp_path, capsys):
    doc = tmp_path / "m3.doc"
    doc.write_text(
        "algebra custom\n"
        "  elements 0 x y z 1\n"
        "  below 0 x\n  below 0 y\n  below 0 z\n"
        "  below x 1\n  below y 1\n  below z 1\n"
        "end\n"
        "carrier a\n"
    )
    assert cli.main(["-d", str(doc), "validate"]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "witness" in err


@pytest.mark.parametrize(
    "size, code", [("0", cli.EXIT_USAGE), ("1000000000000", cli.EXIT_CAP)]
)
def test_chain_size_out_of_range(tmp_path, capsys, size, code):
    doc = tmp_path / "c.doc"
    doc.write_text(f"algebra chain {size}\ncarrier a\n")
    assert cli.main(["-d", str(doc), "validate"]) == code
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_downsets_document_accepted(tmp_path, capsys):
    doc = tmp_path / "d.doc"
    doc.write_text(
        "algebra downsets\n  elements p q\n  below p q\nend\ncarrier a\n"
    )
    assert cli.main(["-d", str(doc), "validate"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "3 elements" in out


def test_empty_subset_literal(ws):
    lit = cli.parse_subset_literal("{}", ws.algebra, ws.carrier, 1)
    assert lit == hset.empty(ws.algebra, ws.carrier)


def test_operator_forward_reference():
    ws = cli.parse_document(
        "algebra boolean\ncarrier a\n"
        "operator C compose Later Later\n"
        "operator Later identity\n"
    )
    assert ot.op_eq(ws.operators["C"], ws.operators["Later"])


def test_operator_self_reference_rejected():
    with pytest.raises(ValidationError):
        cli.parse_document(
            "algebra boolean\ncarrier a\noperator C compose C C\n"
        )


def test_env_fallback_for_caps(tmp_path, capsys, monkeypatch):
    doc = tmp_path / "w.doc"
    doc.write_text(DOC)
    monkeypatch.setenv("HEYTOP_SUBSET_CAP", "4")
    assert cli.main(["-d", str(doc), "ll", "Id"]) == cli.EXIT_CAP
    capsys.readouterr()
    # the explicit flag wins over the environment
    assert (
        cli.main(["-d", str(doc), "--subset-cap", "4096", "ll", "Id"])
        == cli.EXIT_OK
    )
    capsys.readouterr()


def test_each_main_call_reads_the_environment_afresh(tmp_path, capsys, monkeypatch):
    # one parser serves every call in the process; its fallbacks do not stick
    doc = tmp_path / "w.doc"
    doc.write_text(DOC)
    for cap, code in (("4", cli.EXIT_CAP), ("9", cli.EXIT_OK), ("4", cli.EXIT_CAP)):
        monkeypatch.setenv("HEYTOP_SUBSET_CAP", cap)
        assert cli.main(["-d", str(doc), "ll", "Id"]) == code
        capsys.readouterr()


def _one_line_usage_error(code, capsys):
    err = capsys.readouterr().err
    assert code == cli.EXIT_USAGE
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_relation_with_duplicate_domain_point_is_a_usage_error(tmp_path, capsys):
    doc = tmp_path / "w.doc"
    doc.write_text(
        "algebra boolean\ncarrier a\nrelation r\n  domain x x\n  edge x a\nend\n"
    )
    with pytest.raises(ValidationError, match="duplicate point names"):
        cli.parse_document(doc.read_text())
    _one_line_usage_error(cli.main(["-d", str(doc), "validate"]), capsys)


def test_relation_with_second_domain_line_is_a_usage_error(tmp_path, capsys):
    # the second line must not silently replace the first
    doc = tmp_path / "w.doc"
    doc.write_text(
        "algebra boolean\ncarrier a\nrelation r\n  domain x y\n  domain z\n"
        "  edge z a\nend\n"
    )
    with pytest.raises(ValidationError, match="relation 'r' has a second domain line"):
        cli.parse_document(doc.read_text())
    _one_line_usage_error(cli.main(["-d", str(doc), "validate"]), capsys)


@pytest.mark.parametrize(
    "rule",
    ["identity", "bottom", "top", "complement", "double-complement", "inhabited"],
)
@pytest.mark.parametrize("args", ["extra", "extra args"])
def test_argument_less_rule_with_arguments_is_a_usage_error(tmp_path, capsys, rule, args):
    doc = tmp_path / "w.doc"
    doc.write_text(f"algebra boolean\ncarrier a\noperator O {rule} {args}\n")
    with pytest.raises(ParseError, match=f"line 3, column 1: {rule} takes no arguments"):
        cli.parse_document(doc.read_text())
    _one_line_usage_error(cli.main(["-d", str(doc), "validate"]), capsys)


@pytest.mark.parametrize(
    "head, message",
    [
        ("algebra boolean\ncarrier a,b c\n", "carrier section: point name 'a,b' contains ','"),
        ("algebra boolean\ncarrier a:1 c\n", "carrier section: point name 'a:1' contains ':'"),
        ("algebra boolean\ncarrier {} b\n", "carrier section: point name '{}' contains '{'"),
        (
            "algebra custom\n  elements 0 x,y 1\n  below 0 x,y\n  below x,y 1\nend\n"
            "carrier a\n",
            "algebra section: element name 'x,y' contains ','",
        ),
        (
            "algebra downsets\n  elements p q}\n  below p q}\nend\ncarrier a\n",
            "algebra section: poset point name 'q}' contains '}'",
        ),
    ],
    ids=["comma", "colon", "braces", "custom-element", "downsets-point"],
)
def test_name_with_literal_syntax_is_a_usage_error(tmp_path, capsys, head, message):
    doc = tmp_path / "w.doc"
    doc.write_text(head)
    with pytest.raises(ValidationError, match=re.escape(message)):
        cli.parse_document(doc.read_text())
    _one_line_usage_error(cli.main(["-d", str(doc), "validate"]), capsys)


def test_repeated_table_input_is_a_usage_error(tmp_path, capsys):
    doc = tmp_path / "w.doc"
    doc.write_text(
        "algebra boolean\ncarrier a\noperator T table\n"
        "  {} -> {a}\n  {} -> {}\n  {a} -> {a}\nend\n"
    )
    with pytest.raises(ValidationError, match=r"operator 'T': repeated table input \{\}"):
        cli.parse_document(doc.read_text())
    _one_line_usage_error(cli.main(["-d", str(doc), "validate"]), capsys)


def test_repeated_relation_edge_is_a_usage_error(tmp_path, capsys):
    doc = tmp_path / "w.doc"
    doc.write_text(
        "algebra chain 3\ncarrier a\nrelation r\n  domain x\n"
        "  edge x a u\n  edge x a 0\nend\n"
    )
    with pytest.raises(ValidationError, match="relation 'r': repeated edge x a"):
        cli.parse_document(doc.read_text())
    _one_line_usage_error(cli.main(["-d", str(doc), "validate"]), capsys)


def test_document_not_utf8_is_a_usage_error(tmp_path, capsys):
    doc = tmp_path / "w.doc"
    doc.write_bytes(b"algebra boolean\ncarrier \xff\xfe\n")
    _one_line_usage_error(cli.main(["-d", str(doc), "validate"]), capsys)


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_subset_cap_below_one_is_a_usage_error(tmp_path, capsys, monkeypatch, cap):
    doc = tmp_path / "w.doc"
    doc.write_text(DOC)
    _one_line_usage_error(
        cli.main(["-d", str(doc), "--subset-cap", cap, "ll", "Id"]), capsys
    )
    monkeypatch.setenv("HEYTOP_SUBSET_CAP", cap)
    _one_line_usage_error(cli.main(["-d", str(doc), "ll", "Id"]), capsys)


# the cap contract: the document is built under the larger of the default
# cap and --subset-cap, every command runs under --subset-cap

DOCUMENT_COMMANDS_AT_CAP_4 = [
    (["validate"], cli.EXIT_OK),
    (["classify", "Id"], cli.EXIT_CAP),
    (["compat", "Id", "Id"], cli.EXIT_OK),  # samples above the cap
    (["ll", "Id"], cli.EXIT_CAP),
    (["rr", "Id"], cli.EXIT_CAP),
    (["aa", "Ju"], cli.EXIT_CAP),
    (["jj", "Ap"], cli.EXIT_CAP),
    (["galois", "Ap", "Ju"], cli.EXIT_CAP),
    (["laws"], cli.EXIT_CAP),
    (["generate", "ax1"], cli.EXIT_CAP),
    (["represent", "r"], cli.EXIT_CAP),
    (["diagram", "T"], cli.EXIT_CAP),
]


def test_cap_contract_covers_every_document_command():
    covered = {argv[0] for argv, _ in DOCUMENT_COMMANDS_AT_CAP_4}
    assert covered == {c for c, (_, _, needs_ws) in cli.COMMANDS.items() if needs_ws}


@pytest.mark.parametrize("argv, code", DOCUMENT_COMMANDS_AT_CAP_4)
def test_document_commands_at_cap_4(tmp_path, capsys, argv, code):
    doc = tmp_path / "w.doc"
    doc.write_text(DOC)
    assert cli.main(["-d", str(doc), "--subset-cap", "4"] + argv) == code
    captured = capsys.readouterr()
    if code == cli.EXIT_CAP:
        assert captured.err.endswith("above the cap of 4\n")
        assert captured.err.count("\n") == 1
    else:
        assert captured.err == ""
    if argv[0] == "compat":
        assert "compat-sampled: no-counterexample-found" in captured.out


def test_counterexample_runs_under_the_cap(capsys):
    assert cli.main(["counterexample", "finite-line-meet-law"]) == cli.EXIT_OK
    capsys.readouterr()
    code = cli.main(["--subset-cap", "4", "counterexample", "finite-line-meet-law"])
    assert code == cli.EXIT_CAP
    assert capsys.readouterr().err.endswith("above the cap of 4\n")


def _cap_in_force():
    """The subset cap in force, as check_cap reports it."""
    huge = hset.Carrier([f"p{i}" for i in range(64)])
    with pytest.raises(CapExceeded) as exc:
        hset.check_cap(boolean2(), huge)
    return int(str(exc.value).rsplit(" ", 1)[1])


@pytest.mark.parametrize(
    "argv",
    [
        ["ll", "Id"],  # exits 3 inside the command
        ["compat", "Id", "Id"],  # samples inside the command
        ["validate"],
        ["nope"],  # usage error after parsing
    ],
)
def test_main_leaves_the_default_cap_in_force(tmp_path, capsys, argv):
    doc = tmp_path / "w.doc"
    doc.write_text(DOC)
    for cap in ("4", "100000"):
        cli.main(["-d", str(doc), "--subset-cap", cap] + argv)
        capsys.readouterr()
        assert _cap_in_force() == hset.DEFAULT_SUBSET_CAP
    cli.run("validate", [], cli.parse_document(DOC), cli.Caps(subset_cap=7))
    assert _cap_in_force() == hset.DEFAULT_SUBSET_CAP


# boolean2 x 13: 8192 subsets, twice the default cap
BIG_DOC = (
    "algebra boolean\n"
    "carrier " + " ".join(f"p{i}" for i in range(13)) + "\n"
    "operator Id identity\n"
    "operator A sat-family {p0} {p0,p1} {p0,p1,p2}\n"
    "operator J red-family {p0} {p1,p2} {p3,p4,p5}\n"
)


@pytest.fixture(scope="module")
def big_doc(tmp_path_factory):
    doc = tmp_path_factory.mktemp("big") / "big.doc"
    doc.write_text(BIG_DOC)
    return doc


def _main_out(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv",
    [["classify", "A"], ["aa", "J"], ["jj", "A"], ["rr", "Id"], ["galois", "A", "J"]],
)
def test_a_raised_cap_reaches_parsing_and_every_command(big_doc, capsys, argv):
    code, _, err = _main_out(["-d", str(big_doc)] + argv, capsys)
    assert code == cli.EXIT_CAP and "above the cap of 4096" in err
    code, out, err = _main_out(
        ["-d", str(big_doc), "--subset-cap", "8192"] + argv, capsys
    )
    assert code in (cli.EXIT_OK, cli.EXIT_LAW_FAILED) and err == ""
    assert out


def test_a_raised_cap_prints_what_the_library_computes(big_doc, capsys):
    with hset.subset_cap(8192):
        ws = cli.parse_document(BIG_DOC)
        a, j = ws.operators["A"], ws.operators["J"]
        jj = JJ(a)
        expected_jj = ["JJ(A):"] + [
            f"  {u.render()} -> {jj.apply(u).render()}"
            for u in hset.enumerate_all(ws.algebra, ws.carrier)
        ]
        expected_galois = galois_check(a, j).render()
    argv = ["-d", str(big_doc), "--subset-cap", "8192"]
    code, out, _ = _main_out(argv + ["jj", "A"], capsys)
    assert code == cli.EXIT_OK and out.splitlines() == expected_jj
    _, out, _ = _main_out(argv + ["galois", "A", "J"], capsys)
    assert out == expected_galois + "\n"


# one-line usage errors for bad option values, from flags and environment


@pytest.mark.parametrize(
    "var", ["HEYTOP_SUBSET_CAP", "HEYTOP_SAMPLE_COUNT", "HEYTOP_SEED"]
)
@pytest.mark.parametrize("value", ["abc", "1e3"])
def test_non_integer_environment_value_is_a_usage_error(
    tmp_path, capsys, monkeypatch, var, value
):
    doc = tmp_path / "w.doc"
    doc.write_text(DOC)
    monkeypatch.setenv(var, value)
    _one_line_usage_error(cli.main(["-d", str(doc), "compat", "Id", "Id"]), capsys)


@pytest.mark.parametrize("count", ["0", "-5"])
def test_sample_count_below_one_is_a_usage_error(tmp_path, capsys, monkeypatch, count):
    doc = tmp_path / "w.doc"
    doc.write_text(DOC)
    argv = ["-d", str(doc), "--subset-cap", "4", "compat", "Id", "Id"]
    _one_line_usage_error(cli.main(["--sample-count", count] + argv), capsys)
    monkeypatch.setenv("HEYTOP_SAMPLE_COUNT", count)
    _one_line_usage_error(cli.main(argv), capsys)


@pytest.mark.parametrize(
    "argv", [["--subset-cap", "x", "validate"], ["--seed", "1e3", "validate"], []]
)
def test_bad_command_line_is_a_one_line_usage_error(tmp_path, capsys, argv):
    doc = tmp_path / "w.doc"
    doc.write_text(DOC)
    _one_line_usage_error(cli.main(["-d", str(doc)] + argv), capsys)


# every built-in rule tabulates from its rank-table rule, with no body call


def _every_rule_doc(algebra_line, alg):
    car = hset.Carrier(["a", "b"])
    table = "".join(
        f"  {u.render()} -> {u.render()}\n" for u in hset.enumerate_all(alg, car)
    )
    return (
        f"{algebra_line}\ncarrier a b\n"
        "operator Id identity\noperator Bot bottom\noperator Top top\n"
        "operator Neg complement\noperator DNeg double-complement\n"
        "operator Inh inhabited\noperator C const {a}\n"
        "operator Comp compose DNeg Inh\noperator M meet Id DNeg C\n"
        "operator Jn join Id Neg\noperator Ap sat-family {a}\n"
        "operator Jp red-family {b}\n"
        f"operator T table\n{table}end\n"
        "axiom_set ax\n  cover a {b}\n  cover b {}\nend\n"
        "operator GA generated-sat ax\noperator GJ generated-red ax\n"
        "topology Top1 Id Bot\n"
    )


@pytest.mark.parametrize(
    "algebra_line, alg",
    [("algebra boolean", boolean2()), ("algebra chain 3", chain(3))],
    ids=["boolean", "chain3"],
)
def test_no_operator_body_runs_within_the_cap(tmp_path, capsys, monkeypatch, algebra_line, alg):
    doc = tmp_path / "rules.doc"
    doc.write_text(_every_rule_doc(algebra_line, alg))
    commands = [["validate"], ["classify", "M"], ["galois", "GA", "GJ"], ["generate", "ax"]]
    expected = [_main_out(["-d", str(doc)] + argv, capsys) for argv in commands]

    def no_body(op, u):
        raise AssertionError(f"{op.name}: body ran")

    monkeypatch.setattr(ot.Operator, "_run", no_body)
    got = [_main_out(["-d", str(doc)] + argv, capsys) for argv in commands]
    assert got == expected
    assert got[0][0] == cli.EXIT_OK and got[0][2] == ""
