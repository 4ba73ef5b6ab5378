import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from quasihopf import cli, qhspec
from quasihopf.exactmath import parse_scalar
from quasihopf.qha import check_axioms

from .helpers import q_fixture, z2


def _doc_z2():
    return qhspec.from_algebra(z2())


def test_roundtrip_is_identity():
    text = qhspec.serialize(_doc_z2())
    assert qhspec.serialize(qhspec.parse(text)) == text


def test_parsed_algebra_matches_source():
    H = z2()
    H2 = qhspec.to_algebra(qhspec.parse(qhspec.serialize(qhspec.from_algebra(H))))
    assert H2.alg == H.alg
    assert H2.delta_images == H.delta_images
    assert H2.antipode_images == H.antipode_images
    assert H2.coassociator == H.coassociator
    assert H2.alpha == H.alpha and H2.beta == H.beta
    assert H2.pivotal.pivot == H.pivotal.pivot
    assert H2.pivotal.twist == H.pivotal.twist
    assert check_axioms(H2).passed


def test_symplectic_fermion_roundtrip():
    fx = q_fixture(1, 7)
    doc = qhspec.from_algebra(fx.H, elements={"x+": fx.elements["x+"]},
                              cointegral=fx.cointegral)
    text = qhspec.serialize(doc)
    doc2 = qhspec.parse(text)
    assert qhspec.serialize(doc2) == text
    H2 = qhspec.to_algebra(doc2)
    assert H2.alg == fx.H.alg
    assert H2.delta_images == fx.H.delta_images
    assert H2.antipode_inv_images == fx.H.antipode_inv_images
    assert H2.coassociator_inv == fx.H.coassociator_inv
    assert H2.pivotal.twist_inv == fx.H.pivotal.twist_inv
    named = qhspec.named_elements(doc2)
    assert named["x+"] == fx.elements["x+"]
    assert qhspec.reference_cointegral(doc2) == fx.cointegral


def test_syntax_errors_carry_line_numbers():
    with pytest.raises(qhspec.SpecSyntaxError) as err:
        qhspec.parse("field 8\nbasis a b\nmul 0 0 0 1/0\n")
    assert "line 3" in str(err.value)
    with pytest.raises(qhspec.SpecSyntaxError) as err:
        qhspec.parse("field 8\nbasis a\nfrobnicate 1 2\n")
    assert "line 3" in str(err.value)
    with pytest.raises(qhspec.SpecSyntaxError):
        qhspec.parse("field 8\nbasis a\nmul 0 0 1\n")  # missing scalar
    with pytest.raises(qhspec.SpecSyntaxError):
        qhspec.parse("unit 0 1\n")  # scalar before field


def test_semantic_errors():
    with pytest.raises(qhspec.SpecSemanticError):
        qhspec.parse("field 8\nbasis a\nmul 0 3 0 1\n")  # index range
    text = qhspec.serialize(_doc_z2()).replace("phi-inv 0 0 0 1",
                                               "phi-inv 0 0 0 2")
    with pytest.raises(qhspec.SpecSemanticError):
        qhspec.to_algebra(qhspec.parse(text))  # phi not invertible
    text = "\n".join(l for l in qhspec.serialize(_doc_z2()).splitlines()
                     if not l.startswith("antipode-inv"))
    with pytest.raises(qhspec.SpecSemanticError):
        qhspec.to_algebra(qhspec.parse(text))  # missing inverse antipode


def _q_spec(N, power):
    """Q(N, zeta_8^power) as `sympferm --emit-spec` writes it."""
    fx = q_fixture(N, power)
    names = {k: fx.elements[k] for k in ("x+", "x-", "y+", "y-")}
    return qhspec.serialize(qhspec.from_algebra(fx.H, names,
                                                cointegral=fx.cointegral))


def _scalar_tokens(text):
    return [line.split()[-1] for line in text.splitlines()
            if line.split()[0] not in ("field", "basis")]


def test_parse_reads_each_distinct_scalar_token_once(monkeypatch):
    text = _q_spec(2, 2)
    tokens = _scalar_tokens(text)
    calls = []

    def counting(token, n):
        calls.append(token)
        return parse_scalar(token, n)

    monkeypatch.setattr(qhspec, "parse_scalar", counting)
    qhspec.parse(text)
    assert len(tokens) > 5000 and len(set(tokens)) < 30
    assert sorted(calls) == sorted(set(tokens))


@pytest.mark.parametrize("power", [0, 2, 4, 6])
def test_emitted_q2_specs_roundtrip(power):
    text = _q_spec(2, power)
    assert qhspec.serialize(qhspec.parse(text)) == text


def test_shared_token_accumulates_per_key():
    doc = qhspec.parse("field 8\nbasis a b c\nmul 0 1 1 1/2\n"
                       "mul 0 1 1 1/2\nmul 0 2 2 1/2\n")
    assert doc.mul == {(0, 1, 1): parse_scalar("1", 8),
                       (0, 2, 2): parse_scalar("1/2", 8)}


def test_repeated_bad_token_reports_its_first_line():
    with pytest.raises(qhspec.SpecSyntaxError) as err:
        qhspec.parse("field 8\nbasis a\n# comment\nunit 0 1/0\n"
                     "mul 0 0 0 1/0\n")
    assert err.value.line_no == 4


def test_scalars_carry_their_own_documents_conductor():
    body = "basis a b\nunit 0 1\nmul 0 1 1 -1/2\nelement x 1 -1/2\n"
    doc8 = qhspec.parse("field 8\n" + body)
    doc4 = qhspec.parse("field 4\n" + body)
    # a second field line starts a new field for the lines after it
    doc48 = qhspec.parse("field 4\nbasis a b\nunit 0 -1/2\n"
                         "field 8\nunit 1 -1/2\n")
    for doc, want in ((doc8, [8] * 3), (doc4, [4] * 3),
                      (doc48, [4, 8])):
        got = [c.n for store in (doc.unit, doc.mul, doc.elements.get("x", {}))
               for c in store.values()]
        assert got == want


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def z2_spec(tmp_path_factory):
    path = tmp_path_factory.mktemp("specs") / "z2.qhs"
    path.write_text(qhspec.serialize(_doc_z2()))
    return str(path)


@pytest.fixture(scope="module")
def q1_spec(tmp_path_factory):
    path = tmp_path_factory.mktemp("specs") / "q1.qhs"
    code, _, _ = _run(["sympferm", "--n", "1", "--beta", "z8^7",
                       "--emit-spec", str(path)])
    assert code == 0
    return str(path)


def test_cli_check_passes(z2_spec):
    code, out, _ = _run(["check", z2_spec])
    assert code == 0
    assert "[ok  ] axioms" in out


def test_cli_check_detects_broken_axioms(z2_spec, tmp_path):
    text = open(z2_spec).read().replace("counit 1 1", "counit 1 -1")
    bad = tmp_path / "bad.qhs"
    bad.write_text(text)
    code, out, _ = _run(["check", str(bad)])
    assert code == 3
    assert "FAIL" in out


def test_cli_parse_failure_exit_code(tmp_path):
    bad = tmp_path / "broken.qhs"
    bad.write_text("field 8\nbasis a\nmul 0 0 0 1/0\n")
    code, _, err = _run(["check", str(bad)])
    assert code == 2
    assert "line 3" in err


@pytest.mark.parametrize("text, line_no", [
    ("field 8\nbasis a\nmul 0 \u00b2 0 1\n", 3),
    ("field \u00b2\nbasis a\nunit 0 1\n", 1),
    ("field 8\nbasis a b\nunit \u0660 1\n", 3),
    ("field \u0663\nbasis a\nunit 0 1\n", 1),
    ("field 8\nbasis a\nunit 0 1_0\n", 3),
    ("field 8\nbasis a\nunit 0 z8^\u0663\n", 3),
    ("field 8\nbasis a\nunit 0 z8^\n", 3),
    ("field 8\nbasis a\nmul 0 0 0 1/\n", 3),
])
def test_cli_non_ascii_digits_are_parse_errors(tmp_path, text, line_no):
    """Indices, the conductor and scalar digits are ASCII decimal digits:
    '\u00b2' passes str.isdigit but not int(), and int() reads '\u0660' as 0
    and '1_0' as 10.  An exponent or denominator after '^' or '/' is not
    optional."""
    bad = tmp_path / "digits.qhs"
    bad.write_text(text, encoding="utf-8")
    code, _, err = _run(["check", str(bad)])
    assert code == 2
    assert f"line {line_no}:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ("check", "modtrace", "verify"))
def test_cli_spec_that_is_not_utf8_is_a_parse_error(tmp_path, command):
    bad = tmp_path / "latin.qhs"
    bad.write_bytes(b"field 8\nbasis a\nunit 0 1\xff\n")
    code, out, err = _run([command, str(bad)])
    assert code == 2
    assert err == f"error: {bad}: byte 24 is not UTF-8\n"
    assert out == ""


def test_cli_integrals(z2_spec):
    code, out, _ = _run(["integrals", z2_spec])
    assert code == 0
    assert "unimodular = true" in out


def test_cli_cointegrals_needs_pivotal_data(z2_spec, tmp_path):
    text = "\n".join(l for l in open(z2_spec).read().splitlines()
                     if not l.startswith(("pivot", "twist")))
    bare = tmp_path / "bare.qhs"
    bare.write_text(text)
    code, _, err = _run(["cointegrals", str(bare), "--side", "right"])
    assert code == 3
    assert "MissingPivotalData" in err


def test_cli_pipeline_reports_expected_trace(q1_spec):
    code, out, _ = _run(["modtrace", q1_spec])
    assert code == 0
    assert "t(r_x+) = -1/2*z8^2" in out
    assert "t(r_y+) = -1" in out


def test_cli_verify_suites(q1_spec):
    code, out, _ = _run(["verify", q1_spec, "--suite", "all"])
    assert code == 0
    assert "reduction" in out and "hom-pairing" in out


def test_cli_verify_failure_exit_code(z2_spec, tmp_path):
    # 2 + g is invertible but not a pivot: symmetrisation cannot verify
    text = open(z2_spec).read().replace("pivot 0 1", "pivot 0 2\npivot 1 1")
    text = text.replace("pivot-inv 0 1", "")
    bad = tmp_path / "skewed.qhs"
    bad.write_text(text)
    code, _, err = _run(["verify", str(bad), "--suite", "reduction"])
    assert code == 4
    assert "VerificationFailed" in err


@pytest.mark.parametrize("command", ("cointegrals", "modtrace"))
def test_cli_pin_without_the_first_coordinate_is_a_verification_failure(
        q1_spec, tmp_path, command):
    """A reference cointegral with no coefficient at the solution's first
    nonzero coordinate cannot fix its scale: exit 4, naming that basis
    element, rather than a form scaled neither to the pin nor to 1."""
    lines = open(q1_spec).read().splitlines()
    labels = next(l for l in lines if l.startswith("basis ")).split()[1:]
    first = min(int(l.split()[1]) for l in lines
                if l.startswith("cointegral "))
    bad = tmp_path / "unpinned.qhs"
    bad.write_text("\n".join(l for l in lines
                             if not l.startswith(f"cointegral {first} ")))
    code, out, err = _run([command, str(bad)] + (
        ["--side", "right"] if command == "cointegrals" else []))
    assert code == 4
    assert out == ""
    assert err == ("error: VerificationFailed: reference cointegral has no "
                   f"coefficient at {labels[first]}, the first nonzero "
                   "coordinate of the right cointegral\n")


def test_cli_json_report_matches_text_tree(z2_spec):
    code, out_json, _ = _run(["check", z2_spec, "--json"])
    assert code == 0
    tree = json.loads(out_json)
    assert tree["name"] == "axioms" and tree["status"] == "pass"
    names = {c["name"] for c in tree["children"]}
    assert {"algebra", "counit", "coproduct", "antipode"} <= names


def test_cli_reports_are_deterministic(q1_spec):
    runs = [_run(["verify", q1_spec, "--suite", "reduction"])
            for _ in range(2)]
    assert runs[0] == runs[1]


def _run_usage_error(argv):
    """Run the CLI on arguments argparse must reject: (exit code, stderr)."""
    err = io.StringIO()
    with redirect_stderr(err), pytest.raises(SystemExit) as exc:
        cli.main(argv)
    return exc.value.code, err.getvalue()


@pytest.mark.parametrize("option", ["--seed", "--budget"])
@pytest.mark.parametrize("command", [
    "check", "integrals", "cointegrals", "modtrace", "sympferm", "verify"])
def test_cli_sampling_options_belong_to_verify(z2_spec, command, option):
    """No command takes a sampling option, verify included: every check is
    exhaustive."""
    argv = ([command, "--n", "1", "--beta", "z8^7"] if command == "sympferm"
            else [command, z2_spec])
    code, err = _run_usage_error(argv + [option, "5"])
    assert code == 2
    assert f"error: unrecognized arguments: {option} 5" in err


def test_cli_sympferm_rejects_a_non_positive_n():
    code, err = _run_usage_error(["sympferm", "--n", "0", "--beta", "1"])
    assert code == 2
    assert "error: argument --n: must be a positive integer" in err


def test_cli_sympferm_bad_max_n_setting(monkeypatch):
    monkeypatch.setenv("QUASIHOPF_MAX_N", "abc")
    code, out, err = _run(["sympferm", "--n", "1", "--beta", "z8^7"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "QUASIHOPF_MAX_N" in err


def test_cli_sympferm_bad_beta_exit():
    code, _, err = _run(["sympferm", "--n", "1", "--beta", "z8^2"])
    assert code == 3
    code, _, err = _run(["sympferm", "--n", "1", "--beta", "(("])
    assert code == 2
    code, out, _ = _run(["sympferm", "--n", "1", "--beta", "z8^"])
    assert (code, out) == (2, "")


def test_shipped_documents_parse_to_the_fixtures():
    import pathlib

    from quasihopf.fixtures import group_algebra_cyclic, sweedler_algebra

    root = pathlib.Path(__file__).resolve().parent.parent / "specs"
    pairs = [("z2.qhs", z2()), ("z4.qhs", group_algebra_cyclic(4, conductor=4)),
             ("sweedler.qhs", sweedler_algebra())]
    for name, H in pairs:
        doc = qhspec.parse((root / name).read_text())
        got = qhspec.to_algebra(doc)
        assert got.alg == H.alg, name
        assert got.delta_images == H.delta_images, name
        assert got.pivotal.pivot == H.pivotal.pivot, name
        assert check_axioms(got).passed, name


def test_cli_check_on_shipped_document():
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent / "specs"
    code, out, _ = _run(["check", str(root / "z2.qhs")])
    assert code == 0


def test_cli_integrals_on_non_unimodular_fixture():
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent / "specs"
    code, out, _ = _run(["integrals", str(root / "sweedler.qhs")])
    assert code == 0
    assert "unimodular = false" in out
    code, out, _ = _run(["cointegrals", str(root / "sweedler.qhs"),
                         "--side", "left"])
    assert code == 0
    assert "symmetrised" in out


def test_engine_errors_carry_their_exit_code():
    from quasihopf import intcoint, modtrace, qha, sympferm

    precondition = [qha.AxiomViolation, qha.MissingPivotalData,
                    intcoint.DimensionZero, intcoint.WrongSolutionDim,
                    intcoint.InconsistentModulus, modtrace.NotUnimodular,
                    modtrace.NotSymmetrisedCointegral, sympferm.BadBeta,
                    sympferm.MaxNExceeded]
    for cls in precondition + [intcoint.VerificationFailed]:
        assert issubclass(cls, qha.QuasiHopfError)
        assert issubclass(cls, ValueError)
    assert {cls.exit_code for cls in precondition} == {cli.EXIT_AXIOM}
    assert intcoint.VerificationFailed.exit_code == cli.EXIT_VERIFY


def test_cli_axiom_violation_exit_code(tmp_path):
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent / "specs"
    text = (root / "z2.qhs").read_text()
    assert "\nalpha 0 1\n" in text
    bad = tmp_path / "bad_alpha.qhs"
    bad.write_text(text.replace("\nalpha 0 1\n", "\nalpha 0 2\n"))
    code, _, err = _run(["cointegrals", str(bad)])
    assert code == 3
    assert "AxiomViolation" in err
    assert "Traceback" not in err


def _shipped(name):
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent / "specs"
    return (root / name).read_text()


def test_cli_singular_pivot_is_a_spec_error(tmp_path):
    text = _shipped("z2.qhs")
    assert "\npivot-inv 0 1\n" in text
    text = text.replace("\npivot-inv 0 1\n", "\n")
    text = text.replace("\npivot 0 1\n", "\npivot 0 1\npivot 1 1\n")  # 1 + g
    bad = tmp_path / "singular_pivot.qhs"
    bad.write_text(text)
    code, _, err = _run(["check", str(bad)])
    assert code == 2
    assert "pivot is not invertible" in err
    assert "Traceback" not in err


def test_repeated_lines_accumulate():
    text = _shipped("z2.qhs")
    assert "\nmul 1 1 0 1\n" in text
    split = text.replace("\nmul 1 1 0 1\n", "\nmul 1 1 0 1/2\nmul 1 1 0 1/2\n")
    want = qhspec.to_algebra(qhspec.parse(text))
    got = qhspec.to_algebra(qhspec.parse(split))
    assert got.alg == want.alg
    assert qhspec.serialize(qhspec.parse(split)) == \
        qhspec.serialize(qhspec.parse(text))


@pytest.mark.parametrize("name", ["z2.qhs", "z4.qhs", "sweedler.qhs"])
def test_shipped_documents_roundtrip(name):
    text = _shipped(name)
    data = "".join(l + "\n" for l in text.splitlines()
                   if not l.startswith("#"))
    assert qhspec.serialize(qhspec.parse(text)) == data


def test_cli_closed_stdout_exits_1():
    import os
    import pathlib
    import subprocess
    import sys

    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first write
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "quasihopf.cli", "check",
             str(root / "specs" / "z2.qhs")],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""


def _run_capped(argv):
    """Run the CLI in a child process whose address space is capped at
    1 GiB, so a large allocation ends it with a MemoryError traceback."""
    import os
    import pathlib
    import resource
    import subprocess
    import sys

    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    cap = 1 << 30

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    return subprocess.run([sys.executable, "-m", "quasihopf.cli"] + argv,
                          capture_output=True, text=True, env=env,
                          preexec_fn=limit, timeout=120)


def test_cli_refuses_a_conductor_above_the_maximum_in_a_spec(tmp_path):
    """field 20011 would need a reduction table of 20010 * 20009 ints; the
    first scalar line is a parse error instead."""
    path = tmp_path / "big_field.qhs"
    path.write_text("field 20011\nbasis 1\nunit 0 1\n")
    proc = _run_capped(["check", str(path)])
    assert proc.returncode == 2, proc.stderr
    assert "line 3" in proc.stderr
    assert "conductor 20011 exceeds the maximum 1000" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_cli_sympferm_refuses_a_conductor_above_the_maximum():
    proc = _run_capped(["sympferm", "--n", "1", "--beta", "z8^7",
                        "--field", "20011"])
    assert proc.returncode == 2, proc.stderr
    assert "argument --field: must be a conductor from 1 to 1000" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


# tokens a mutation may put in place of a spec token: indices in and out of
# range, scalars of other fields, malformed scalars, keywords and junk
_MUTATION_TOKENS = ("0", "1", "2", "3", "5", "-1", "1/2", "1/0", "0/3", "z8",
                    "z4^3", "z3", "-z4", "abc", "", "#", "mul", "basis",
                    "field", "twist", "\u00b2", "1_0")


@st.composite
def _mutated_spec(draw):
    lines = _shipped(draw(st.sampled_from(
        ("z2.qhs", "z4.qhs", "sweedler.qhs")))).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("token", "delete", "duplicate", "swap")))
        i = draw(st.integers(0, len(lines) - 1))
        if kind == "token":
            toks = lines[i].split()
            if toks:
                toks[draw(st.integers(0, len(toks) - 1))] = draw(
                    st.sampled_from(_MUTATION_TOKENS))
                lines[i] = " ".join(toks)
        elif kind == "delete" and len(lines) > 1:
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        else:
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=_mutated_spec(),
       command=st.sampled_from(("check", "integrals", "cointegrals",
                                "modtrace", "verify")))
def test_cli_mutated_specs_exit_cleanly(text, command):
    """A mutated spec ends in a documented exit code, never a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mutated.qhs")
        with open(path, "w") as fh:
            fh.write(text)
        code, _, err = _run([command, path])
    assert code in (0, 2, 3, 4), err
    assert "Traceback" not in err
