"""Fuzz the document parser and the command line with mutated documents.

Each example mutates the test_cli DOC (lines deleted, duplicated or
swapped, tokens substituted from a small vocabulary) and runs
parse_document and cli.main on it with an argument vector built from the
command names, the operator names and a handful of --subset-cap values.
Every input must end in one of the exit codes 0-3 with at most one stderr
line and no traceback: a defect in the input is a usage error, never a
crash.
"""

import contextlib
import io

from hypothesis import HealthCheck, given, settings, strategies as st

from heytop import cli, laws
from heytop.errors import HeytopError

from test_cli import DOC

LINES = DOC.splitlines()

VOCABULARY = [
    # section heads and block words
    "algebra", "carrier", "operator", "axiom_set", "relation", "topology",
    "end", "elements", "below", "cover", "domain", "edge", "table", "->",
    "boolean", "chain", "custom", "downsets",
    # rules
    "identity", "bottom", "top", "complement", "double-complement",
    "inhabited", "const", "compose", "meet", "join", "sat-family",
    "red-family", "generated-sat", "generated-red",
    # literals
    "{}", "{a}", "{b:u}", "{a,b:u}", "{a:zz}", "{zzz}", "{a,a}", "{", "}",
    "{a:}", "{:u}", "{,}",
    # degrees and numbers
    "0", "u", "1", "2", "7", "-1", "1000000000000",
    # names
    "Id", "Ju", "Ap", "T", "ax1", "r", "a", "b", "x",
    # non-ASCII
    "é", "∅", "ß", " ", " ",
]

COMMANDS = list(cli.COMMANDS)
NAMES = ["Id", "Bot", "Top", "DNeg", "Ju", "Ap", "T1", "GenA", "GenJ",
         "ax1", "r", "T", "nope"]
CAPS = ["0", "1", "4", "9", "4096", "8192", "x"]


@st.composite
def documents(draw):
    lines = list(LINES)
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["delete", "duplicate", "swap", "token"]))
        i = draw(st.integers(0, len(lines) - 1))
        if kind == "delete" and len(lines) > 1:
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            toks = lines[i].split(" ") or [""]
            k = draw(st.integers(0, len(toks) - 1))
            toks[k] = draw(st.sampled_from(VOCABULARY))
            lines[i] = " ".join(toks)
    return "\n".join(lines) + "\n"


@st.composite
def argument_vectors(draw):
    argv = []
    cap = draw(st.sampled_from([None, None] + CAPS))
    if cap is not None:
        argv += ["--subset-cap", cap]
    command = draw(st.sampled_from(COMMANDS))
    # mostly as many arguments as the command takes
    arity = max(cli.COMMANDS[command][1], 0)
    count = draw(st.sampled_from([arity, arity, arity, 0, 1, 2]))
    names = NAMES + list(laws.SUITES) if command == "laws" else NAMES
    args = draw(st.lists(st.sampled_from(names), min_size=count, max_size=count))
    return argv + [command] + args


def _run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


@settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
@given(text=documents(), argv=argument_vectors())
def test_mutated_documents_exit_within_the_contract(tmp_path_factory, text, argv):
    try:
        cli.parse_document(text)
    except HeytopError:
        pass
    doc = tmp_path_factory.getbasetemp() / "fuzz.doc"
    doc.write_text(text, encoding="utf-8")
    code, err = _run_main(["-d", str(doc)] + argv)
    assert code in (0, 1, 2, 3)
    assert err.count("\n") <= 1 and "Traceback" not in err
