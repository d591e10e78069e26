"""Each output check accepts totlat's real output and rejects a corrupted one."""

import contextlib
import io
import json

import pytest

import outputs
from totlat.cli import main
from workloads import ALL_CHECKS, Call


def cli(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(list(argv)) == 0
    return buf.getvalue()


@pytest.fixture(scope="module")
def refs():
    return outputs.References()


def idem_params(desc, ring="int"):
    return {"lattice": desc, "ring": ring, "seed": 5}


# -- idempotent documents ----------------------------------------------------------


@pytest.fixture(scope="module")
def boolean3():
    return cli("idempotent", "boolean:3", "--format", "json")


def test_idempotent_accepts_real_output(boolean3, refs):
    outputs.check_idempotent(boolean3, idem_params("boolean:3"), refs)
    text = cli("idempotent", "pentagon", "--method", "original", "--ring", "rat",
               "--format", "json")
    outputs.check_idempotent(text, idem_params("pentagon", "rat"), refs)


def corrupt(text, edit):
    doc = json.loads(text)
    edit(doc)
    return json.dumps(doc)


@pytest.mark.parametrize("edit", [
    lambda d: d["terms"][3].update(coeff=-d["terms"][3]["coeff"]),  # flipped sign
    lambda d: d["terms"].pop(5),  # dropped term
    lambda d: d["terms"].append(d["terms"][0]),  # duplicated term
    lambda d: d["terms"][0]["table"].update(a="ab"),  # not a retraction any more
    lambda d: d.update(ring="rat"),
    lambda d: d.update(target="0" * 16),
], ids=["flip", "drop", "duplicate", "table", "ring", "target"])
def test_idempotent_rejects_corruption(boolean3, refs, edit):
    with pytest.raises(outputs.OutputError):
        outputs.check_idempotent(corrupt(boolean3, edit), idem_params("boolean:3"), refs)


def test_idempotent_rejects_non_integer_rational(refs):
    text = cli("idempotent", "pentagon", "--ring", "rat", "--format", "json")
    bad = corrupt(text, lambda d: d["terms"][0].update(coeff="1/2"))
    with pytest.raises(outputs.OutputError):
        outputs.check_idempotent(bad, idem_params("pentagon", "rat"), refs)


def test_idempotent_rejects_wrong_direct_coefficient(refs):
    # divisor:12 has coefficients of both magnitudes 1 and 2; doubling one
    # keeps every term a retraction but breaks agreement with the reference
    text = cli("idempotent", "divisor:12", "--format", "json")
    outputs.check_idempotent(text, idem_params("divisor:12"), refs)
    bad = corrupt(text, lambda d: d["terms"][0].update(coeff=2 * d["terms"][0]["coeff"]))
    with pytest.raises(outputs.OutputError):
        outputs.check_idempotent(bad, idem_params("divisor:12"), refs)


# -- verify reports -------------------------------------------------------------------


VERIFY_PARAMS = {"lattices": ("diamond:3",), "checks": ALL_CHECKS, "seed": None}


@pytest.fixture(scope="module")
def diamond_reports():
    return cli("verify", "diamond:3", "--format", "json")


def test_verify_accepts_real_output(diamond_reports, refs):
    outputs.check_verify(diamond_reports, VERIFY_PARAMS, refs)


def test_verify_accepts_gated_skips_and_samples(refs):
    checks = ("central", "identity_on_tot", "ideal_closure")
    text = cli("verify", "partition:4", "--checks", ",".join(checks),
               "--format", "json", "--seed", "9", "--sample-count", "500")
    outputs.check_verify(text, {"lattices": ("partition:4",), "checks": checks,
                                "seed": 9}, refs)


def edit_report(text, index, edit):
    lines = text.splitlines()
    report = json.loads(lines[index])
    edit(report)
    lines[index] = json.dumps(report, sort_keys=True, ensure_ascii=False)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("edit", [
    lambda t: edit_report(t, 2, lambda r: r.update(status="fail")),
    lambda t: edit_report(t, 2, lambda r: r["counts"].update(endomorphisms=49)),
    lambda t: edit_report(t, 7, lambda r: r["counts"]["per_length"].update({"1": [1, 1, 1]})),
    lambda t: edit_report(t, 10, lambda r: r.update(status="skipped")),
    lambda t: "\n".join(t.splitlines()[:-1]) + "\n",  # a report dropped
    lambda t: "\n".join(reversed(t.splitlines())) + "\n",  # out of order
], ids=["status", "endo-count", "chain-count", "skip", "drop", "order"])
def test_verify_rejects_corruption(diamond_reports, refs, edit):
    with pytest.raises(outputs.OutputError):
        outputs.check_verify(edit(diamond_reports), VERIFY_PARAMS, refs)


# -- info -----------------------------------------------------------------------------------


def test_info_accepts_real_output_and_rejects_a_wrong_count(refs):
    text = cli("info", "boolean:3")
    outputs.check_info(text, {"lattice": "boolean:3"}, refs)
    bad = text.replace("bottom-to-top chain counts by length: [0, 1, 6, 6]",
                       "bottom-to-top chain counts by length: [0, 1, 6, 7]")
    assert bad != text
    with pytest.raises(outputs.OutputError):
        outputs.check_info(bad, {"lattice": "boolean:3"}, refs)


def test_round_rejects_differing_fingerprints(refs):
    idem = cli("idempotent", "pentagon", "--format", "json")
    info = cli("info", "pentagon")
    calls = [Call(("idempotent",), "idempotent", idem_params("pentagon")),
             Call(("info",), "info", {"lattice": "pentagon"})]
    assert [e for _, e in outputs.check_round(calls, [idem, info], refs)] == [None, None]
    fp = json.loads(idem)["source"]
    bad = info.replace(fp, "0123456789abcdef")
    verdicts = outputs.check_round(calls, [idem, bad], refs)
    assert verdicts[1][1] is not None
