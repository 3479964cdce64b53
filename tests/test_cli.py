import json
import time

import pytest
from hypothesis import given, settings, strategies as st

from qfodc import cli, coordalg, dual, fodc, rmat
from qfodc.coordalg import YoungWeight
from qfodc.cyclotomic import Zeta
from qfodc.scalar import FieldConfig, Scalar, UnsupportedConfigError


def run(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def test_build_u_sl2(capsys):
    rc, out = run(capsys, "build", "--series", "sl", "--n", "2",
                  "--corep", "u", "--zeta", "-1")
    assert rc == 0
    data = json.loads(out)
    assert data["dim"] == 4
    assert data["rank_with_eps"] == 5
    assert data["cert_degree"] == 3


def test_build_trivial_calculus(capsys):
    rc, out = run(capsys, "build", "--series", "sl", "--n", "2",
                  "--corep", "1", "--zeta", "1")
    assert rc == 0
    assert json.loads(out)["dim"] == 0


def test_sixth_root_twist_builds_in_one_ring(capsys):
    # zeta6 and its power zeta6^2 = zeta3 meet in the same Lie rows
    rc, out = run(capsys, "build", "--series", "sl", "--n", "6",
                  "--corep", "u", "--zeta=w")
    assert rc == 0
    data = json.loads(out)
    assert (data["dim"], data["rank_with_eps"], data["cert_degree"]) == (36, 37, 3)


def test_inadmissible_zeta_is_config_error(capsys):
    rc = cli.main(["build", "--series", "sl", "--n", "2", "--corep", "u",
                   "--zeta", "i"])
    assert rc == 3


def test_bad_descriptor_is_config_error(capsys):
    rc = cli.main(["build", "--series", "sl", "--n", "2",
                   "--corep", "garbage(u", "--zeta", "1"])
    assert rc == 3


@pytest.mark.parametrize("series, n, corep", [
    ("sl", "2", "proj:sym(u)"),
    ("sl", "2", "proj:anti(tensor(u,1))"),
    ("sl", "2", "proj:sym(tensor(1,1))"),
    ("sl", "2", "proj:sym(tensor(uc,uc))"),
    ("sl", "2", "proj:sym(tensor(u,uc))"),
    ("sp", "2", "proj:anti(tensor(u,u))"),   # Sp_q(4) has no rank-6 projector
    ("sl", "2", "tensor(u"),
    ("sl", "2", "dsum(,)"),
    ("sl", "2", "minor:x"),
    ("sl", "2", ""),
    ("sl", "2", "minor:99999999999999999999"),
])
def test_unsupported_descriptor_exits_3(series, n, corep, capsys):
    # an input the grammar does not support is a configuration error, not a
    # failed certificate (1) and not a traceback
    rc = cli.main(["build", "--series", series, "--n", n, "--corep", corep])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == "" and captured.err.startswith("error: ")


@pytest.mark.parametrize("corep", ["tensor(u,u", "dsum(u,u))", "tensor(u,)"])
def test_malformed_descriptor_is_named_as_given(corep, capsys):
    # the error names the whole descriptor, not the part that a nested
    # parse was left with ('' or 'u)')
    rc = cli.main(["build", "--series", "sl", "--n", "2", "--corep", corep])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert captured.err == f"error: cannot parse corepresentation descriptor {corep!r}\n"


@pytest.mark.parametrize("levels", [31, 400, 600])
def test_deeply_nested_descriptor_exits_3_at_once(levels, capsys):
    # bounded before anything is built: 31 levels pass the depth bound but
    # have dimension 2^32; 400 levels used to build tensor powers of
    # dimension 2^k and 600 ended in a RecursionError
    desc = "u"
    for _ in range(levels):
        desc = f"tensor({desc},u)"
    t0 = time.process_time()
    rc = cli.main(["build", "--series", "sl", "--n", "2", "--corep", desc])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == "" and captured.err.startswith("error: ")
    assert ("dimension" in captured.err) == (levels < dual.MAX_DESCRIPTOR_DEPTH)
    assert time.process_time() - t0 < 5


LEAVES = ("1", "u", "uc", "minor:1", "minor:2", "minor:0", "minor:x", "",
          "proj:sym(tensor(u,u))", "proj:anti(tensor(u,u))", "proj:sym(u)")
HEADS = ("tensor", "dsum", "proj:sym", "proj:anti", "minor:")


def _node(head, a, b):
    if head.startswith("proj"):
        return f"{head}({a})"
    if head == "minor:":
        return head + a
    return f"{head}({a},{b})"


def _mutate(text, pos, edit, char):
    pos = pos % (len(text) + 1)
    if edit == "insert":
        return text[:pos] + char + text[pos:]
    if edit == "delete":
        return text[:pos] + text[pos + 1:]
    return text[:pos] + char + text[pos + 1:]


# three leaves at most: every corepresentation has dimension <= 27 on SL_q(2)
GRAMMAR = st.recursive(
    st.sampled_from(LEAVES),
    lambda inner: st.builds(_node, st.sampled_from(HEADS), inner, inner),
    max_leaves=3,
)
DESCRIPTORS = (
    GRAMMAR
    | st.builds(_mutate, GRAMMAR, st.integers(0, 60),
                st.sampled_from(("insert", "delete", "replace")),
                st.sampled_from("(),: u1cx9-"))
    | st.text(alphabet="tensordumpaic:()1,0x9 -", max_size=24)
    | st.text(max_size=12)
)


@pytest.fixture(scope="module")
def ws_sl2():
    return dual.Workspace(FieldConfig.sl(2))


@settings(deadline=None, max_examples=300)
@given(desc=DESCRIPTORS)
def test_descriptor_registers_or_is_config_error(ws_sl2, desc):
    # every descriptor either registers a corepresentation or is rejected as
    # a configuration error (a ValueError that cli.main maps to exit 3); a
    # registered one has its parse tree's dimension, and every node of the
    # tree is registered under its text
    try:
        cor = ws_sl2.corep(desc)
    except ValueError as exc:
        assert not isinstance(exc, cli.FAILURES), repr(exc)
    else:
        assert isinstance(cor, coordalg.Corep)
        tree = dual._parse(desc.replace(" ", ""), ws_sl2.config)
        assert cor.dim == tree[2]
        nodes = [tree]
        while nodes:
            text, head, _, arg = nodes.pop()
            assert text in ws_sl2._coreps
            if head != "minor":
                nodes.extend(arg)


def test_verify_factorizability(capsys):
    rc, out = run(capsys, "verify", "--series", "sl", "--n", "2",
                  "--claim", "factorizability", "--degree", "2")
    assert rc == 0
    data = json.loads(out)
    assert data["rank"] == 14 and data["peter_weyl_oracle"] == 14


def test_verify_leibniz(capsys):
    rc, out = run(capsys, "verify", "--series", "sl", "--n", "2",
                  "--claim", "leibniz", "--zeta", "-1")
    assert rc == 0
    assert json.loads(out)["status"] == "pass"


def test_verify_direct_sum(capsys):
    rc, out = run(capsys, "verify", "--series", "sl", "--n", "2",
                  "--claim", "direct-sum", "--zeta", "-1")
    assert rc == 0
    data = json.loads(out)
    assert data["dims"] == [1, 4] and data["total"] == 5


def test_verify_central_generates(capsys):
    rc, out = run(capsys, "verify", "--series", "sl", "--n", "2",
                  "--claim", "central-generates", "--zeta", "-1")
    assert rc == 0


def test_verify_minor_tau_sl2(capsys):
    rc, out = run(capsys, "verify", "--series", "sl", "--n", "2",
                  "--claim", "minor-tau", "--degree", "3")
    assert rc == 0
    data = json.loads(out)
    assert data["results"]["k=1"]["equal"]


def test_classify_dsum(capsys):
    rc, out = run(capsys, "classify", "--series", "sl", "--n", "2",
                  "--corep", "dsum(u,1)", "--zeta", "-1")
    assert rc == 0
    data = json.loads(out)
    assert data["total_dim"] == 5 and data["residual_rank"] == 0
    assert [c["dim"] for c in data["components"]] == [4, 1]


def test_classify_from_central(capsys):
    rc, out = run(capsys, "classify", "--series", "sl", "--n", "2",
                  "--central", "u", "--zeta", "-1")
    assert rc == 0
    data = json.loads(out)
    assert len(data["components"]) == 1
    assert data["components"][0]["frame"] == "[1]"


@pytest.mark.parametrize("source", ["--corep=u", "--central=u"])
def test_classify_exits_1_when_the_coideal_certificate_fails(source, monkeypatch, capsys):
    # a failed certificate is a failed run, as in report; the residual
    # rank stays 0, so only the coideal verdict decides the status
    monkeypatch.setattr(dual.Workspace, "coideal_check",
                        lambda self, basis, degree=None, gauge=None: (False, degree))
    rc, out = run(capsys, "classify", "--series", "sl", "--n", "3", source, "--zeta=w")
    data = json.loads(out)
    assert rc == 1
    assert data["coideal_ok"] is False and data["residual_rank"] == 0


def test_central_element_needs_no_coordinate_antipode(monkeypatch, capsys):
    # D^{-1} is read off S^2(l+[v]) on the dual side, so neither command
    # builds the generator antipode table
    def refuse(self):
        raise AssertionError("the central element built the antipode table")

    monkeypatch.setattr(dual.Workspace, "antipode_table", refuse)
    for argv in ("verify --series sl --n 3 --claim centrality --zeta=w",
                 "classify --series sl --n 2 --central u --zeta=-1"):
        rc, _ = run(capsys, *argv.split())
        assert rc == 0, argv


@pytest.mark.parametrize("argv", [
    "verify --series sl --n 5 --claim centrality",
    "verify --series sl --n 4 --claim centrality --corep minor:2",
    "verify --series sl --n 4 --claim centrality --corep uc",
])
def test_large_centrality_inputs_finish(argv, capsys):
    # S^2 of these coreps' entries is too large to expand in the coordinate
    # algebra, so each finishes only with D^{-1} read on the dual side
    rc, out = run(capsys, *argv.split())
    assert rc == 0
    assert json.loads(out)["status"] == "pass"


@pytest.mark.parametrize("source", ["--corep=dsum(1,u)", "--central=u"])
def test_classify_certifies_at_the_given_degree(source, capsys):
    # the candidates and the coideal check are evaluated at --degree too,
    # so the input rows leave no residual against them
    rc, out = run(capsys, "classify", "--series", "sl", "--n", "2", source,
                  "--zeta=-1", "--degree", "4")
    assert rc == 0
    data = json.loads(out)
    assert data["residual_rank"] == 0 and data["cert_degree"] == 4
    assert all(c["cert_degree"] == 4 for c in data["components"])


def test_report_bundle(capsys):
    rc, out = run(capsys, "report", "--series", "sp", "--n", "1",
                  "--corep", "u", "--zeta", "-1")
    assert rc == 0
    data = json.loads(out)
    assert data["r_matrix_yang_baxter"] is True
    assert data["dim"] == 4


def test_deterministic_output(capsys):
    rc1, out1 = run(capsys, "build", "--series", "sl", "--n", "2",
                    "--corep", "u", "--zeta", "-1")
    rc2, out2 = run(capsys, "build", "--series", "sl", "--n", "2",
                    "--corep", "u", "--zeta", "-1")
    assert out1 == out2 and rc1 == rc2 == 0


def test_markdown_format(capsys):
    rc, out = run(capsys, "build", "--series", "sl", "--n", "2",
                  "--corep", "u", "--zeta", "-1", "--format", "markdown")
    assert rc == 0
    assert out.startswith("# qfodc build")
    assert "- **dim**: 4" in out


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    rc = cli.main(["build", "--series", "sl", "--n", "2", "--corep", "u",
                   "--zeta", "-1", "--out", str(target)])
    assert rc == 0
    assert json.loads(target.read_text())["dim"] == 4


def _no_work(*_):
    raise AssertionError("the command ran")


def test_unwritable_out_file_is_config_error(tmp_path, capsys, monkeypatch):
    # refused before dispatch: the patched command body never runs
    monkeypatch.setattr(fodc, "quantum_lie", _no_work)
    target = tmp_path / "missing" / "r.json"
    rc = cli.main(["build", "--series", "sl", "--n", "2", "--corep", "u",
                   "--out", str(target)])
    assert rc == 3
    assert capsys.readouterr().err.startswith("error: cannot write the report: ")
    assert not target.exists()


def test_out_directory_is_config_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(fodc, "quantum_lie", _no_work)
    rc = cli.main(["build", "--series", "sl", "--n", "2", "--corep", "u",
                   "--out", str(tmp_path)])
    assert rc == 3
    assert "Is a directory" in capsys.readouterr().err
    assert tmp_path.is_dir()


def test_existing_out_file_is_not_truncated_before_the_run(tmp_path, capsys, monkeypatch):
    target = tmp_path / "r.json"
    target.write_text("previous\n")
    monkeypatch.setattr(fodc, "quantum_lie", lambda *_: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        cli.main(["build", "--series", "sl", "--n", "2", "--corep", "u",
                  "--out", str(target)])
    assert target.read_text() == "previous\n"


def test_classify_rejects_corep_with_central(capsys):
    # one span to classify: X_zeta(corep) or the central element's span
    rc = cli.main(["classify", "--series", "sl", "--n", "2", "--corep", "u",
                   "--central", "u"])
    assert rc == 3
    assert "not allowed with argument" in capsys.readouterr().err


def test_peter_weyl_oracle_values():
    # classical Clebsch-Gordan bookkeeping behind the factorizability rank
    assert coordalg.peter_weyl_rank(FieldConfig.sl(2), 0) == 1
    assert coordalg.peter_weyl_rank(FieldConfig.sl(2), 1) == 5     # 1 + 4
    assert coordalg.peter_weyl_rank(FieldConfig.sl(2), 2) == 14    # 1 + 4 + 9
    assert coordalg.peter_weyl_rank(FieldConfig.sl(3), 1) == 10    # 1 + 9
    # Sp_q(2): u (x) u = V(2w1) + trivial, dims 1 + 4 + 9
    assert coordalg.peter_weyl_rank(FieldConfig.sp(1), 2) == 14


@pytest.mark.parametrize("argv", [
    ("verify", "--series", "sl", "--n", "2", "--claim", "minor-tau", "--degree", "-1"),
    ("verify", "--series", "sl", "--n", "2", "--claim", "minor-tau", "--degree", "0"),
    ("build", "--series", "sl", "--n", "2", "--corep", "u", "--d-max", "0"),
    ("build", "--series", "sl", "--n", "2", "--corep", "u", "--d-max", "1"),
    ("verify", "--series", "sl", "--n", "2", "--claim", "direct-sum", "--zeta=-1",
     "--d-max", "2"),
])
def test_degree_below_range_is_config_error(argv, capsys):
    # --d-max 1 and 2 pass the option type, but a rank needs degrees
    # start_degree .. start_degree + stability_window - 1 = 2 .. 3
    start = time.perf_counter()
    assert cli.main(list(argv)) == 3
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize("argv", [
    ("build", "--series", "sl", "--n", "99999999", "--corep", "u"),
    ("build", "--series", "sp", "--n", "99999999", "--corep", "u"),
    ("classify", "--series", "sl", "--n", "2", "--corep", "u", "--frame-bound", "-1"),
])
def test_out_of_range_size_or_frame_bound_is_config_error(argv, capsys):
    # refused before the R-matrix of a huge N is built
    start = time.perf_counter()
    assert cli.main(list(argv)) == 3
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("argv", [
    "verify --series sl --n 2 --claim coideal --degree 99",
    "verify --series sl --n 2 --claim centrality --degree 99",
    "verify --series sl --n 2 --claim central-generates --degree 99",
    "verify --series sl --n 2 --claim factorizability --degree 99",
    "classify --series sl --n 2 --corep u --degree 99",
    "classify --series sl --n 2 --central u --degree 99",
    # 820 and 1,365 words, over fodc.MAX_GRAM_WORDS: refused before any row
    "verify --series sl --n 3 --claim factorizability --degree 3",
    "verify --series sl --n 2 --claim factorizability --degree 5",
])
def test_degree_beyond_the_word_bound_is_config_error(argv, capsys):
    # sum_{t <= 99} 4^t words: refused before any work
    start = time.perf_counter()
    assert cli.main(argv.split()) == 3
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == "" and "words" in captured.err


def test_word_bound_admits_the_largest_degree_in_use():
    # Sp_q(6) minor-tau at degree 4 (CI) spans 1,727,605 words
    dual.check_word_count(6, 4)
    with pytest.raises(UnsupportedConfigError):
        dual.check_word_count(6, 5)
    dual.check_word_count(2, 10)
    with pytest.raises(UnsupportedConfigError):
        dual.check_word_count(2, 11)


def test_gram_bound_admits_sl2_at_degree_4(capsys):
    # 341 words, the largest SL_q(2) degree under the bound
    rc, out = run(capsys, "verify", "--series", "sl", "--n", "2",
                  "--claim", "factorizability", "--degree", "4")
    report = json.loads(out)
    assert rc == 0 and report["rank"] == report["peter_weyl_oracle"] == 55


@pytest.mark.parametrize("argv, message", [
    ("build --series sl --n 3 --corep minor:x", "minor degree must be an integer, got 'x'"),
    ("build --series sl --n 3 --zeta=wx", "zeta power must be an integer, got 'x'"),
])
def test_non_integer_field_is_named(argv, message, capsys):
    assert cli.main(argv.split()) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


def test_frame_bound_zero_is_valid(capsys):
    # an empty component library leaves a residual: a failure, not a usage error
    rc = cli.main(["classify", "--series", "sl", "--n", "2", "--corep", "u",
                   "--frame-bound", "0"])
    assert rc == 1
    assert json.loads(capsys.readouterr().out)["residual_rank"] > 0


def test_build_rejects_degree(capsys):
    # only verify and classify have a certification degree to set
    rc = cli.main(["build", "--series", "sl", "--n", "2", "--corep", "u",
                   "--degree", "3"])
    assert rc == 3


def test_zeta_minus_i_with_equals_sign():
    args = cli.make_parser().parse_args(
        ["build", "--series", "sl", "--n", "4", "--zeta=-i"])
    config = cli.field_config(args)
    assert cli.parse_zeta(config, args.zeta) == Zeta(4, 3)


def test_zeta_minus_i_spaced_matches_equals_sign(capsys):
    # argparse alone reads a separate "-i" as an option (exit 3)
    spaced = run(capsys, "build", "--series", "sl", "--n", "4", "--corep", "1",
                 "--zeta", "-i")
    joined = run(capsys, "build", "--series", "sl", "--n", "4", "--corep", "1",
                 "--zeta=-i")
    abbreviated = run(capsys, "build", "--series", "sl", "--n", "4", "--corep", "1",
                      "--ze", "-i")
    assert spaced == joined == abbreviated
    assert spaced[0] == 0 and json.loads(spaced[1])["zeta"] == "-i"


def _double_uc_entry_01(monkeypatch):
    # keeps the counit table valid but breaks the comatrix identity
    build = coordalg.contragredient

    def broken(*args):
        cor = build(*args)
        entries = [list(row) for row in cor.entries]
        entries[0][1] = entries[0][1].scaled(Scalar.from_int(2))
        return coordalg.Corep(entries, cor.label)

    monkeypatch.setattr(coordalg, "contragredient", broken)


def _lower_lplus_entry(monkeypatch):
    # an L+ that is not upper triangular: tau(-2 lambda) is not a character
    build = dual.lplus

    def broken(config, rdata):
        rep = build(config, rdata)
        m = {r: dict(row) for r, row in rep.gen_matrix(1, 1).items()}
        m.setdefault(2, {})[1] = Scalar.from_int(1)
        rep.gens[(1, 1)] = m
        return rep

    monkeypatch.setattr(dual, "lplus", broken)


@pytest.mark.parametrize("breaks, argv, reason", [
    (_double_uc_entry_01, "build --series sl --n 2 --corep uc", "comatrix"),
    (lambda mp: mp.setattr(fodc, "is_central", lambda *a, **k: False),
     "classify --series sl --n 2 --central u --zeta=-1", "not central"),
    (lambda mp: mp.setattr(dual.Workspace, "_antipode_axiom_holds",
                           lambda self, tab: False),
     "build --series sl --n 2 --corep uc", "antipode"),
    (lambda mp: mp.setattr(rmat, "_monomial_roots", lambda coeffs, bound: []),
     "build --series sl --n 2 --corep proj:sym(tensor(u,u))", "monomial roots"),
    (_lower_lplus_entry, "verify --series sl --n 2 --claim minor-tau", "characters"),
], ids=["comatrix", "not-central", "antipode", "spectral", "tau-character"])
def test_mathematical_failure_exits_1(breaks, argv, reason, monkeypatch, capsys):
    # a failed certificate is a failure (1), not a configuration error (3)
    # and not a traceback
    breaks(monkeypatch)
    assert cli.main(argv.split()) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("fail: ") and reason in captured.err


def test_rank_unstable_stays_undecided(monkeypatch, capsys):
    # also an ArithmeticError, but undecided (2), not a failure (1)
    def unstable(self, rows_at):
        raise dual.RankUnstableError("rank did not stabilize up to degree 6: [3, 4]")

    monkeypatch.setattr(dual.Workspace, "stabilized_rank", unstable)
    assert cli.main(["build", "--series", "sl", "--n", "2", "--corep", "u"]) == 2
    assert capsys.readouterr().err.startswith("undecided: ")


def test_leibniz_certifies_no_rank(monkeypatch, capsys):
    # verify leibniz reports no dimension, so it must not certify one
    def unstable(self, rows_at):
        raise dual.RankUnstableError("rank certification was not expected")

    monkeypatch.setattr(dual.Workspace, "stabilized_rank", unstable)
    rc, out = run(capsys, "verify", "--series", "sl", "--n", "2",
                  "--claim", "leibniz", "--zeta=-1")
    assert rc == 0 and json.loads(out)["status"] == "pass"


def test_verify_rejects_inadmissible_zeta_for_every_claim(capsys):
    # factorizability has no use for zeta, but i is not a twist of SL_q(2)
    assert cli.main(["verify", "--series", "sl", "--n", "2",
                     "--claim", "factorizability", "--zeta=i"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


# the options each claim reads
CLAIM_OPTIONS = {
    "minor-tau": {"degree"},
    "centrality": {"zeta", "corep", "degree"},
    "tensor-identity": {"degree"},
    "coideal": {"zeta", "corep", "degree"},
    "leibniz": {"zeta", "corep"},
    "factorizability": {"degree"},
    "direct-sum": {"zeta"},
    "central-generates": {"zeta", "corep", "degree"},
}
UNREAD = [(claim, option) for claim, reads in CLAIM_OPTIONS.items()
          for option in ("corep", "degree", "zeta") if option not in reads]


def test_claim_options_cover_every_claim():
    assert set(CLAIM_OPTIONS) == set(fodc.CLAIMS)


@pytest.mark.parametrize("claim,option", UNREAD)
def test_verify_rejects_an_option_the_claim_does_not_read(claim, option, capsys):
    value = {"corep": "garbage(", "degree": "9", "zeta": "-1"}[option]
    # an admissible twist for the claims that read one, so that only the
    # unread option can be refused
    twist = ["--zeta=-1"] if "zeta" in CLAIM_OPTIONS[claim] and option != "zeta" else []
    assert cli.main(["verify", "--series", "sl", "--n", "2", "--claim", claim,
                     *twist, f"--{option}={value}"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def test_verify_explicit_default_corep_matches_the_default(capsys):
    argv = ["verify", "--series", "sl", "--n", "2", "--claim", "coideal", "--zeta=-1"]
    rc, out = run(capsys, *argv)
    assert rc == 0 and json.loads(out)["corep"] == "u"
    assert run(capsys, *argv, "--corep", "u") == (rc, out)


def test_verify_default_zeta_is_the_trivial_character(capsys):
    argv = ["verify", "--series", "sl", "--n", "2", "--claim", "coideal"]
    rc, out = run(capsys, *argv)
    assert rc == 0 and json.loads(out)["zeta"] == "1"
    assert run(capsys, *argv, "--zeta=1") == (rc, out)


def test_build_golden_bytes(capsys):
    # frozen report bytes: any change to report content or ordering is loud
    rc, out = run(capsys, "build", "--series", "sl", "--n", "2",
                  "--corep", "1", "--zeta", "-1")
    assert rc == 0
    assert out == (
        '{\n'
        '  "basis": [\n'
        '    "X[1,1]"\n'
        '  ],\n'
        '  "cert_degree": 3,\n'
        '  "command": "build",\n'
        '  "config": "SL_q(2)",\n'
        '  "corep": "1",\n'
        '  "corep_dim": 1,\n'
        '  "dim": 1,\n'
        '  "invariant_dim_nominal": 1,\n'
        '  "rank_with_eps": 2,\n'
        '  "zeta": "-1"\n'
        '}\n'
    )
