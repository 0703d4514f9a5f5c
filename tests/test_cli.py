"""End-to-end runs of the command line front end."""

import contextlib
import hashlib
import io
import json
import weakref
from types import SimpleNamespace

import pytest

from cells_reference import reference_dot, reference_payload
from mosaic import cli, moduli, operad, quasibraid
from mosaic.errors import InvariantViolation
from mosaic.moduli import DOUBLE_COVER, PROJECTIVE, build_complex
from mosaic.polygon import Dissection

DOT_SQUARE_COVER = """\
graph tiles_n4_double_cover {
  t0 [label="1 2 3 4"];
  t1 [label="1 3 2 4"];
  t2 [label="2 1 3 4"];
  t3 [label="2 3 1 4"];
  t4 [label="3 1 2 4"];
  t5 [label="3 2 1 4"];
  t0 -- t2;  // facet 6
  t0 -- t1;  // facet 7
  t1 -- t4;  // facet 8
  t2 -- t3;  // facet 9
  t3 -- t5;  // facet 10
  t4 -- t5;  // facet 11
}
"""


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_counts_table():
    code, out, err = run_cli("counts", "--n", "5")
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert lines[0] == "n = 5"
    assert lines[2].split() == ["0", "1", "1", "12", "24", "12", "24"]
    assert lines[3].split() == ["1", "5", "5", "30", "60", "30", "60"]
    assert lines[4].split() == ["2", "5", "5", "15", "30", "15", "30"]
    assert "euler proof_sum: -3" in lines
    assert "euler closed_form: -3" in lines
    assert "euler enumerated: -3" in lines
    # deterministic output for fixed flags
    assert run_cli("counts", "--n", "5") == (code, out, err)


def test_a_broken_invariant_exits_as_a_failed_check(monkeypatch):
    def broken(n, mode=PROJECTIVE, max_codim=None):
        raise InvariantViolation(f"grade 1: broken on purpose at n = {n}")

    monkeypatch.setattr(moduli, "build_complex", broken)
    code, out, err = run_cli("counts", "--n", "5")
    assert code == cli.MISMATCH == 2
    assert out == ""
    assert err.startswith("error: grade 1: broken on purpose")


@pytest.mark.parametrize("mode, k", [(PROJECTIVE, 2), (DOUBLE_COVER, 1)])
def test_counts_fails_on_a_grade_with_the_wrong_count(monkeypatch, mode, k):
    # one grade of the closed form off by one: the build's count check,
    # not counts itself, finds it, and counts exits as a failed check
    closed_form = moduli.closed_form_f_vector

    def off_by_one(n, mode_=PROJECTIVE):
        counts = list(closed_form(n, mode_))
        counts[k] += mode_ == mode
        return tuple(counts)

    monkeypatch.setattr(moduli, "closed_form_f_vector", off_by_one)
    code, out, err = run_cli("counts", "--n", "5")
    assert code == cli.MISMATCH == 2
    assert out == ""
    assert err.startswith(f"error: grade {k}: ")


def test_counts_names_an_euler_characteristic_that_disagrees(monkeypatch):
    closed_form = moduli.euler_closed_form
    monkeypatch.setattr(moduli, "euler_closed_form", lambda n: closed_form(n) + 1)
    code, out, err = run_cli("counts", "--n", "5")
    assert code == cli.MISMATCH == 2
    assert "euler closed_form: -2" in out.splitlines()
    assert err == "MISMATCH: Euler characteristic\n"


def test_counts_names_a_diagonal_set_count_that_disagrees(monkeypatch):
    real = cli.enumerate_diagonal_sets
    monkeypatch.setattr(cli, "enumerate_diagonal_sets",
                        lambda n, k: real(n, k)[1:] if k == 1 else real(n, k))
    code, out, err = run_cli("counts", "--n", "5")
    assert code == cli.MISMATCH == 2
    assert out.splitlines()[3].split() == ["1", "5", "4", "30", "60", "30", "60"]
    assert err == "MISMATCH: diagonal sets at k=1\n"


def test_counts_json():
    code, out, _ = run_cli("counts", "--n", "6", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 6
    assert payload["agree"] is True
    assert payload["tiles"] == {"projective": 60, "double-cover": 120}
    assert [row["projective_cells"] for row in payload["rows"]] == [60, 270, 315, 105]
    assert payload["euler"] == {"proof_sum": 0, "closed_form": 0, "enumerated": 0}


def test_counts_single_grade():
    code, out, _ = run_cli("counts", "--n", "9", "--k", "2")
    assert code == 0
    rows = [line for line in out.splitlines() if line.split()[:1] == ["2"]]
    assert len(rows) == 1
    # n = 9 is beyond the build range, so only the formula columns appear
    assert rows[0].split() == ["2", "225", "225", "1134000", "2268000"]


def test_counts_range_and_enumeration_guards():
    code, _, err = run_cli("counts", "--n", "11")
    assert code == 64
    assert "error:" in err
    code, _, err = run_cli("counts", "--n", "9", "--enumerate")
    assert code == 64
    assert "unrecognized arguments" in err
    code, _, err = run_cli("counts", "--n", "5", "--k", "7")
    assert code == 64


# sha256 of the exit code, stdout and stderr of `mosaic counts --n N FLAGS`,
# joined by NULs, frozen
COUNTS_SHA256 = {
    (3, ""): "a98e9b955cd8ddaab068c8c1edf8130500f6bbd8ce354a32308e861ff3fbead4",
    (3, "--json"): "9fda445fd4a62be061b30c6b16686dd774f1e838b797ec0a4eb578231fcb31f2",
    (3, "--k 0"): "a98e9b955cd8ddaab068c8c1edf8130500f6bbd8ce354a32308e861ff3fbead4",
    (3, "--table"): "a98e9b955cd8ddaab068c8c1edf8130500f6bbd8ce354a32308e861ff3fbead4",
    (3, "--json --k 1"): "f058bda463449b048692b236eb4e8dac28c4da14f678a6159f9d88679cfbf7ac",
    (4, ""): "c48d4b5101886266fea90eb27ff0003dcc91179fea3034ad2b9ecb349f41a77b",
    (4, "--json"): "3e8f04b88fd359d096d724f5c7336c883387be76ef5150f6582e3ba51e302db2",
    (4, "--k 0"): "a35a8935666d522402befd251fb9ed66392de71d57d1d2a0791e7a2d491072e9",
    (4, "--k 1"): "6ef84af98245f293f1254356c930e66191e001099c0cab2b78075b9e5ebfa4ea",
    (4, "--json --k 1"): "eba9054b066c632e7954d339c8a8bb94a7301dfae56cdff832cbbf25f7efdb39",
    (5, ""): "612471200acfa3b4a8317e78170b89a4013ec1769819596687d4b1b896bc03be",
    (5, "--json"): "53d648d0c17286474a9289ba87f6b30b4f1673456d98387e25f232e8a8313812",
    (5, "--k 0"): "4c15667864a1b874a5a44885fdae435fe3ae489c5b4352adf6141ff63b5ddaad",
    (5, "--k 2"): "2597e704b5d28bc8970d127d4d2bf1bd1f65bd1a95ebc825c22b76c5570a4cfc",
    (5, "--json --k 1"): "38f94252f482c976d7e9a4934aa9134d1083cf2d4bcf902e1f9dcc64f212f17b",
    (6, ""): "6b7840b8bde7c4a15972d1cdc4e49918a793429be037da5fdcda5526ca9d1543",
    (6, "--json"): "00afc70d42c00ba794bbd07dd9678c8e093001fc4526835458e3a3588490793d",
    (6, "--k 0"): "6d3df5734af28da7b3b098d574c9dc8f8cecd06ced28a708ceba44fb933ae0bd",
    (6, "--k 3"): "95c4587db04f8d177afb43c4d9aaa6ccd532f7903605cf5f14ff46389a278544",
    (6, "--json --k 1"): "c17b5ba6159d44638a37a8f5940a29aacd5146e4252bc808c2d407cffc218bcf",
    (7, ""): "b625f87c7504fa7a9882bde93c6210e0e8dc950834b26c522181df65a5d95016",
    (7, "--json"): "2685c1cbb8d40d0d795cf67c29cc581283edabb6f5b24a90eaf8e9fb7c1e9393",
    (7, "--k 0"): "909e4a84dd974653213ce07881302e26540d503056baa7b1255dc407539be768",
    (7, "--k 4"): "86b4c2269b94d74a5864fa59241ca4f6bba06257f30c91448b40dedbdbaaa04f",
    (7, "--json --k 1"): "db5896204a3cc8bec3afb566a1969805e30d32ac28bfc6169495aa10fcb50281",
    (8, ""): "f09302a67a9205f8a9a45922b57ce3f2dbd2de035ad6b8ceff4bd803c0fa34ca",
    (8, "--json"): "97b3e84a2ad451e42be463ab27ec4fe2091987aebb0857323b9dc2fc1baa458f",
    (8, "--k 0"): "28e58bed9434e676ec798e00f08c6fe7adee9e049c8a21ebdc05a8f0c21ad58c",
    (8, "--k 5"): "50c000bc04264ba15402027374b87dc738101331816fbd797046d104ed3b173d",
    (8, "--json --k 1"): "aecfd9767b964341345eef9d401fe55dc2023de986572566e52dce5386c0318a",
    (9, ""): "c34fc5e3e0e523a47b00e6e388a1e4dc9464f76af00900455ed032c78063f891",
    (9, "--json"): "23c51c1bc28a9a2a58127bccf555ba8323ee6a9a6b228364a3f5f32ec16be77e",
    (9, "--k 0"): "96c1b2991c69ab23b0c003cf463a3a9c2f487fc06f6d5b807f753f6ec2436a46",
    (9, "--k 6"): "f315555327be0feca7ac7a52cfc1c623c883714c61786ea8e9ae868d0b9e550c",
    (9, "--json --k 1"): "fb0129368986cc256ec713764d91242ad0ff430f36a761de9780950c06c0f411",
    (10, ""): "e4f3f2422da1e91ab2b31f499fc8d852fbab9cd7702479d6b4b5944c7de4379f",
    (10, "--json"): "7c25a076463af15fb4d549310b2f28acace5ed1b3f13e53a4b12de99047af4b2",
    (10, "--k 0"): "4f591ebdde3ab4dff119c3b8ac1da169ee35582d722eac94115ee7da33ba283c",
    (10, "--k 7"): "48da0a334f7ed7968ef383d2a993bbb448278ed7b7441c3ac7a0881d161f913d",
    (10, "--json --k 1"): "7881cbcdeba9865a7597cb8d2826a1651b843cf9a3a53facc4bd779514fa7094",
}


@pytest.mark.parametrize("n,flags", sorted(COUNTS_SHA256))
def test_counts_output_is_frozen(n, flags):
    code, out, err = run_cli("counts", "--n", str(n), *flags.split())
    digest = hashlib.sha256(f"{code}\0{out}\0{err}".encode()).hexdigest()
    assert digest == COUNTS_SHA256[n, flags]


def test_counts_builds_up_to_the_build_limit(monkeypatch):
    monkeypatch.setattr(moduli, "_BUILD_LIMIT", 5)
    code, out, err = run_cli("counts", "--n", "6")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[1].split() == ["k", "sets", "counted", "proj", "double"]
    assert lines[2].split() == ["0", "1", "1", "60", "120"]
    assert all(len(line.split()) == 5 for line in lines[2:6])
    assert lines[6:] == ["euler proof_sum: 0", "euler closed_form: 0"]


def test_counts_holds_one_complex_at_a_time(monkeypatch):
    real, built = moduli.build_complex, []

    def build(n, mode=PROJECTIVE, max_codim=None):
        # every complex built before this one is gone
        assert [ref() for ref in built] == [None] * len(built)
        complex_ = real(n, mode, max_codim)
        built.append(weakref.ref(complex_))
        return complex_

    monkeypatch.setattr(moduli, "build_complex", build)
    code, out, _ = run_cli("counts", "--n", "6")
    assert code == 0
    assert len(built) == 2
    assert "euler enumerated: 0" in out.splitlines()


def test_complex_table():
    code, out, _ = run_cli("complex", "--n", "5")
    assert code == 0
    assert "n = 5, mode = projective" in out
    assert "cells by codim: (12, 30, 15) (total 57)" in out
    assert "tiles: 12" in out
    assert "euler: -3" in out


def test_complex_json_round_trip():
    code, out, _ = run_cli("complex", "--n", "5", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 5
    assert payload["mode"] == "projective"
    assert len(payload["cells"]) == 57
    assert len(payload["tiles"]) == 12
    complex_ = build_complex(5, PROJECTIVE)
    for entry in payload["cells"][:20]:
        rep = entry["representative"]
        diss = Dissection(tuple(rep["labels"]),
                          frozenset(tuple(d) for d in rep["diagonals"]))
        assert complex_.cell_for(diss).index == entry["id"]
    ids = {entry["id"] for entry in payload["cells"]}
    for parent, child in payload["boundary"]:
        assert parent in ids and child in ids


# sha256 of the stdout of `mosaic complex --n N --mode M --json`, frozen
COMPLEX_JSON_SHA256 = {
    (6, "projective"): "dcbb17f774b66ce22596e306c821df172ff9f877975a17b33ec8446b92cda7be",
    (6, "double-cover"): "ee51e84084cf66596a5824871fdce9e9743a4ffc3694e665c6055a10ce89892a",
    (7, "projective"): "e5f3787577119e809e3f747d8c24e2dadb55598e6e4a2c82d01e2180ae43b6ad",
    (7, "double-cover"): "fedefafef9825db4af67d436358ee2a300d98cb680caf9bb417463e5a28939e3",
}


@pytest.mark.parametrize("n,mode", sorted(COMPLEX_JSON_SHA256))
def test_complex_json_bytes_are_frozen(n, mode):
    code, out, _ = run_cli("complex", "--n", str(n), "--mode", mode, "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == COMPLEX_JSON_SHA256[n, mode]


@pytest.mark.parametrize("mode", (PROJECTIVE, DOUBLE_COVER))
@pytest.mark.parametrize("n", (3, 4, 5, 6, 7))
def test_complex_json_is_the_reference_payload(n, mode, cache):
    code, out, _ = run_cli("complex", "--n", str(n), "--mode", mode, "--json")
    assert code == 0
    assert out == json.dumps(reference_payload(cache.full(n, mode)), sort_keys=True) + "\n"


@pytest.mark.parametrize("mode", (PROJECTIVE, DOUBLE_COVER))
@pytest.mark.parametrize("n", (3, 4, 5))
def test_complex_dot_is_the_reference_rendering(n, mode, cache):
    code, out, _ = run_cli("complex", "--n", str(n), "--mode", mode, "--dot")
    assert code == 0
    assert out == reference_dot(cache.full(n, mode)) + "\n"


class _NoCell:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a Cell was made")


@pytest.mark.parametrize("mode", (PROJECTIVE, DOUBLE_COVER))
def test_complex_exports_make_no_cell(mode, cache, monkeypatch):
    # the JSON and dot text come from the label rows the codes decode to
    complex_ = cache.full(6, mode)
    want = {"--json": json.dumps(reference_payload(complex_), sort_keys=True) + "\n",
            "--dot": reference_dot(complex_) + "\n"}
    monkeypatch.setattr(moduli, "Cell", _NoCell)
    for flag, text in want.items():
        assert run_cli("complex", "--n", "6", "--mode", mode, flag) == (0, text, "")


# sha256 of the stdout of `mosaic complex --n N --mode M --dot`, frozen
COMPLEX_DOT_SHA256 = {
    (6, "projective"): "6df2c6858e0984f9882df3207cae0bfe693f8bac8172bc1a0f756bcc84741c6b",
    (6, "double-cover"): "a624fa05443a318e52838a225fc153675e9a51604063b814393b513d6ef9e5e2",
    (7, "projective"): "6b09178f9c82b7e46d7b9d573899f1a8805fb70df38339c0b1e2726ceeca0639",
    (7, "double-cover"): "7042151ef84ac8e146f957a5726cb0ca943fcd4f84de791cd36bfe66705fb0bb",
}


@pytest.mark.parametrize("n,mode", sorted(COMPLEX_DOT_SHA256))
def test_complex_dot_bytes_are_frozen(n, mode):
    code, out, _ = run_cli("complex", "--n", str(n), "--mode", mode, "--dot")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == COMPLEX_DOT_SHA256[n, mode]


def test_complex_dot_output():
    code, out, _ = run_cli("complex", "--n", "4", "--mode", "double-cover", "--dot")
    assert code == 0
    assert out == DOT_SQUARE_COVER


def test_divisor_pass():
    code, out, _ = run_cli("divisor", "--n", "6", "--set", "1,2,3")
    assert code == 0
    assert "divisor [1, 2, 3] of the 6-gon complex" in out
    assert "factors: 4-gon x 4-gon" in out
    assert "cells by codim: (9, 18, 9) (9 top cells)" in out
    assert "PASS: subcomplex is isomorphic to the product" in out


def test_divisor_prints_each_failure_and_exits_2(monkeypatch):
    def failing(complex_, subset):
        return moduli.DivisorReport(n=6, subset=subset, factor_sizes=(4, 4),
                                    sub_f_vector=(9, 18, 9),
                                    failures=["cell 0: broken on purpose", "cell 1: also"])

    monkeypatch.setattr(moduli, "verify_divisor_factorization", failing)
    code, out, _ = run_cli("divisor", "--n", "6", "--set", "1,2,3")
    assert code == cli.MISMATCH == 2
    assert out.splitlines()[-2:] == ["FAIL: cell 0: broken on purpose", "FAIL: cell 1: also"]
    assert "PASS" not in out


@pytest.mark.parametrize("argv,message", [
    (("counts", "--n", "8", "--k", "99"), "error: need 0 <= k <= 5, got 99\n"),
    (("divisor", "--n", "8", "--set", "1,99"),
     "error: subset [1, 99] is not within 1..8\n"),
    (("divisor", "--n", "8", "--set", "1"), "error: need 2 <= |S| <= 6, got [1]\n"),
    # the range of n is checked before the subset, which needs n >= 4
    *((("divisor", "--n", n, "--set", "1,2"), f"error: divisor supports 4 <= n <= 8, got {n}\n")
      for n in ("-1", "2", "3")),
])
def test_bad_input_is_rejected_before_any_build(monkeypatch, argv, message):
    def no_build(*args, **kwargs):
        raise AssertionError("built a complex for input that is out of range")

    monkeypatch.setattr(moduli, "build_complex", no_build)
    code, out, err = run_cli(*argv)
    assert code == 64
    assert out == ""
    assert err == message


@pytest.mark.parametrize("labels, repeated", (("1,1,2", 1), ("3,1,2,1,3", 1), ("2,5,5", 5)))
def test_a_repeated_label_is_rejected_before_any_build(monkeypatch, labels, repeated):
    def no_build(*args, **kwargs):
        raise AssertionError("built a complex for a label set with a repeat")

    monkeypatch.setattr(moduli, "build_complex", no_build)
    code, out, err = run_cli("divisor", "--n", "8", "--set", labels)
    assert code == 64
    assert out == ""
    assert err.endswith(f"error: argument --set: label {repeated} is repeated in {labels!r}\n")


def test_divisor_usage_errors():
    code, _, err = run_cli("divisor", "--n", "6", "--set", "1")
    assert code == 64
    assert "2 <= |S|" in err
    code, _, _ = run_cli("divisor", "--n", "6", "--set", "zebra")
    assert code == 64
    code, _, err = run_cli("divisor", "--n", "6", "--set", ",")
    assert code == 64
    assert err.endswith("error: argument --set: empty label set\n")
    code, _, _ = run_cli("divisor", "--n", "6")
    assert code == 64


def test_quasibraid_gens():
    code, out, _ = run_cli("quasibraid", "gens", "--n", "5")
    assert code == 0
    assert out.splitlines() == [
        "g1: diagonal (0, 2) free part (1 2)",
        "g2: diagonal (0, 3) free part (1 2 3)",
        "g3: diagonal (1, 3) free part (2 3)",
        "g4: diagonal (1, 4) free part (2 3 4)",
        "g5: diagonal (2, 4) free part (3 4)",
    ]


def test_quasibraid_relations():
    code, out, _ = run_cli("quasibraid", "relations", "--n", "4")
    assert code == 0
    assert out.splitlines() == [
        "involution: g1 g1 = 1",
        "involution: g2 g2 = 1",
    ]


def test_quasibraid_phi():
    code, out, _ = run_cli("quasibraid", "phi", "--n", "5")
    assert code == 0
    assert "pass" in out


def test_quasibraid_phi_fails_without_a_transposition(monkeypatch):
    real_phi = quasibraid.phi

    def broken(g):
        if g.diagonal == (0, 2):
            return quasibraid.Permutation.identity(g.n - 1)
        return real_phi(g)

    monkeypatch.setattr(quasibraid, "phi", broken)
    code, out, _ = run_cli("quasibraid", "phi", "--n", "5")
    assert code == cli.MISMATCH == 2
    assert "image order 0/24" in out
    assert ("FAIL: images miss the adjacent transposition (1 2), "
            "so they are not certified to generate S_4") in out.splitlines()


def test_quasibraid_export_is_deterministic():
    first = run_cli("quasibraid", "export", "--n", "6")
    second = run_cli("quasibraid", "export", "--n", "6")
    assert first == second
    code, out, _ = first
    assert code == 0
    assert out.startswith("generators: g1 g2 g3 g4 g5 g6 g7 g8 g9\n")
    assert out.endswith("\n")
    assert len(out.splitlines()) == 1 + 30


# sha256 of export_presentation(n), which `mosaic quasibraid export --n N`
# prints, and of the stdout of `mosaic quasibraid relations --n N`, frozen
PRESENTATION_SHA256 = {
    4: ("487fa655d192a490c47da18bdecc6bd7113f86db5eec5b01bb2d06b6a28eb24d",
        "8c7e132d522ce29a54b48cfb1a4126503783e4b0bf29b5e800234e5d32403d3f"),
    5: ("96807e6d2fa9f96dfd252ec00e03a7e15e757528416796d78e1dda13d68238d7",
        "70e87e56dd4bf5ee49b0de18460625ec2aae20d47848f062f622c2b1987f1fdf"),
    6: ("abfe24e0b43bbfa0ec68b0054b2fe60ddaf9f121708d1b3143c199fd8a7ad0a3",
        "7d0fcd373eb53f50b33bb9d7ff19d709bb3166d770731e6862fef1e1adad356e"),
    7: ("fd1eb942b86b565101a58757b0ba0dc5d7b79f2e72514bc95547555cb64044ae",
        "b7520a37b4614a23018fedaace6307aaee41ca996ab3a8084ea1d7c22ad8abd0"),
    8: ("292aa1c6ad760e01148fb079f6552359045cf4d2c7d5213a5ff3f4edbcbe85cf",
        "d7db4236eed93d45c27061e0fd27f4870cd4ff98c5b8b4e4bfef2a3aca73baf2"),
    9: ("96e4d0335cecac3d18a75ce55d354c45af1bf7e9c8760866234ad40b986d9261",
        "b89ee8a911417f5eefd5a0f00dbddeb018b193c7dbcd8e292b35c884d7dc95b2"),
}


@pytest.mark.parametrize("n", sorted(PRESENTATION_SHA256))
def test_quasibraid_presentation_bytes_are_frozen(n):
    export_sha, relations_sha = PRESENTATION_SHA256[n]
    text = quasibraid.export_presentation(n)
    assert hashlib.sha256(text.encode()).hexdigest() == export_sha
    assert run_cli("quasibraid", "export", "--n", str(n)) == (0, text, "")
    code, out, _ = run_cli("quasibraid", "relations", "--n", str(n))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == relations_sha


def test_quasibraid_range_guard():
    code, _, err = run_cli("quasibraid", "gens", "--n", "10")
    assert code == 64
    assert "error:" in err


def test_verify_small_range_is_vacuous_but_passing():
    code, out, _ = run_cli("verify", "--n-max", "3")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 11
    assert all(line.startswith("[PASS] criterion") for line in lines)
    assert sum("(vacuous)" in line for line in lines) == 6


def test_verify_range_guard():
    code, _, err = run_cli("verify", "--n-max", "9")
    assert code == 64
    assert err == "error: verify supports --n-max <= 8, got 9\n"


@pytest.mark.parametrize("n_max", ("-3", "0", "2"))
def test_verify_rejects_n_max_below_3_before_any_work(n_max):
    code, out, err = run_cli("verify", "--n-max", n_max)
    assert code == 64
    assert out == ""
    assert err == f"error: verify supports --n-max >= 3, got {n_max}\n"


def test_verify_prints_a_failed_criterion_and_exits_2(monkeypatch):
    monkeypatch.setattr(operad, "check_operad_axioms",
                        lambda n: SimpleNamespace(passed=False, failures=["broken on purpose"]))
    code, out, _ = run_cli("verify", "--n-max", "3")
    assert code == cli.MISMATCH == 2
    lines = out.splitlines()
    assert [line[:6] for line in lines] == ["[PASS]"] * 10 + ["[FAIL]"]
    assert lines[-1].startswith("[FAIL] criterion 11 operad axioms: broken on purpose [")


def test_usage_errors_exit_64():
    assert run_cli("nonsense")[0] == 64
    assert run_cli()[0] == 64
    assert run_cli("complex", "--n", "4", "--format", "yaml")[0] == 64
    assert run_cli("counts")[0] == 64
