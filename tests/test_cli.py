from __future__ import annotations

import hashlib
import json
from itertools import product

import pytest

from finwadge.cli import main
from finwadge.documents import PosetDocument, save_document
from finwadge.gallery import chain, fan


@pytest.fixture()
def chain2_doc(tmp_path):
    path = tmp_path / "L2.json"
    L2 = chain(2)
    save_document(PosetDocument(L2, {"top": L2.mask(["1"]), "bottom": L2.mask(["0"])}), path)
    return str(path)


@pytest.fixture()
def fan1_doc(tmp_path):
    path = tmp_path / "fan1.json"
    built = fan(1)
    save_document(PosetDocument(built.space, dict(built.sets)), path)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_space_report(capsys, tmp_path):
    path = tmp_path / "c3.json"
    save_document(PosetDocument(chain(3)), path)
    code, out = run(capsys, "space", str(path))
    assert code == 0
    report = json.loads(out)
    assert report == {"dimension": 2, "elements": 3, "open_sets": 4, "scattered_rank": 3}


def test_space_empty_document(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text('{"elements": [], "covers": []}')
    code, out = run(capsys, "space", str(path))
    assert code == 0
    assert json.loads(out)["dimension"] == -1


def test_space_deep_chain_has_no_recursion_limit(capsys, tmp_path):
    # index 0 is the top, so loading, the rank pass and the report walk a
    # chain of 1100 elements from its far end without recursing
    n = 1100
    path = tmp_path / "deep.json"
    names = [f"x{i}" for i in range(n)]
    path.write_text(json.dumps({"elements": names, "covers": [[names[i + 1], names[i]] for i in range(n - 1)]}))
    code, out = run(capsys, "space", str(path))
    assert code == 0
    assert json.loads(out) == {"dimension": n - 1, "elements": n, "open_sets": "capped", "scattered_rank": n}


def test_space_cyclic_document_exits_1(capsys, tmp_path):
    path = tmp_path / "cyc.json"
    path.write_text('{"elements": ["a", "b"], "covers": [["a", "b"], ["b", "a"]]}')
    code, _ = run(capsys, "space", str(path))
    assert code == 1


def test_classify_command(capsys, chain2_doc):
    code, out = run(capsys, "classify", chain2_doc, "top", "--oracle")
    assert code == 0
    report = json.loads(out)
    assert report["label"] == "ProperSigma(1)"
    assert report["sigma_rank"] == 1 and report["pi_rank"] == 2
    assert report["witness_chain_out"] == ["0", "1"]
    assert report["oracle_agrees"] is True


def test_reduce_none(capsys, chain2_doc):
    code, out = run(capsys, "reduce", chain2_doc, "top", "bottom")
    assert code == 0
    assert out == "NONE\n"


def test_reduce_witness_lines(capsys, chain2_doc):
    code, out = run(capsys, "reduce", chain2_doc, "top", "top")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert all("->" in line for line in lines)


def test_degrees_all(capsys, chain2_doc):
    code, out = run(capsys, "degrees", chain2_doc, "--all")
    assert code == 0
    report = json.loads(out)
    assert report["items"] == 4
    assert len(report["classes"]) == 4
    assert report["report"]["finitely_very_good"] is True
    assert report["diagnostics"]["max_antichain"] == 2


def test_degrees_fan3_stdout_is_pinned(capsys, tmp_path):
    """Classes, representatives and Hasse order of the fan(3) quotient, byte for byte."""
    path = tmp_path / "fan3.json"
    code, _ = run(capsys, "gallery", "build", "fan", "3", "--out", str(path))
    assert code == 0
    code, out = run(capsys, "degrees", str(path), "--all", "--cap", "12")
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "8d2203b216aa73a2328af6fbe1375da87fa4826644fb6308b5618f0958935b90"


def test_partitions_all_colorings_stdout_is_pinned(capsys, tmp_path):
    """Every 3-partition of a V beside a 2-chain: 48 classes, 426 strict pairs, 99 Hasse edges."""
    path = tmp_path / "v_chain2.json"
    doc = {
        "elements": ["e0", "e1", "e2", "e3", "e4"],
        "covers": [["e0", "e4"], ["e1", "e4"], ["e2", "e3"]],
    }
    path.write_text(json.dumps(doc))
    colorings = ["".join(map(str, c)) for c in product(range(3), repeat=5)]
    code, out = run(capsys, "partitions", str(path), *colorings, "-k", "3")
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "693ce2436b1277564da062b3ab49f992edfb17659410d320e74b3c143abaa149"


def test_degrees_cap_exit_2(capsys, tmp_path):
    path = tmp_path / "c7.json"
    save_document(PosetDocument(chain(7)), path)
    code, _ = run(capsys, "degrees", str(path), "--all")
    assert code == 2
    code, out = run(capsys, "degrees", str(path), "--all", "--cap", "7")
    assert code == 0


def test_degrees_dot(capsys, chain2_doc, tmp_path):
    dot = tmp_path / "deg.dot"
    code, _ = run(capsys, "degrees", chain2_doc, "--all", "--dot", str(dot))
    assert code == 0
    assert dot.read_text().startswith("digraph")


def test_partitions_constants(capsys, fan1_doc):
    code, out = run(capsys, "partitions", fan1_doc, "-k", "3", "--constants")
    assert code == 0
    report = json.loads(out)
    assert len(report["classes"]) == 3
    assert report["diagnostics"]["max_antichain"] == 3
    assert report["strict_order"] == []


def test_gallery_build_and_use(capsys, tmp_path):
    out_path = tmp_path / "fan2.json"
    code, _ = run(capsys, "gallery", "build", "fan", "2", "--out", str(out_path))
    assert code == 0
    code, out = run(capsys, "classify", str(out_path), "A")
    assert code == 0
    assert json.loads(out)["label"] == "ProperSigma(3)"


def test_gallery_unknown_name(capsys, tmp_path):
    code, _ = run(capsys, "gallery", "build", "mystery", "3", "--out", str(tmp_path / "x.json"))
    assert code == 1


def test_verify_suites_pass(capsys):
    for suite in ("finite-t0-very-good", "classify-oracle", "duality"):
        code, out = run(capsys, "verify", suite, "--max", "3")
        assert code == 0, out
        assert "pass" in out


def test_verify_cap(capsys):
    code, _ = run(capsys, "verify", "duality", "--max", "9")
    assert code == 2


def test_verify_failure_exits_3(capsys, monkeypatch):
    from finwadge.verify import VerifyResult

    def fake(name, max_size):
        return VerifyResult(name, False, 1, findings=["synthetic violation"])

    monkeypatch.setattr("finwadge.cli.run_suite", fake)
    code, out = run(capsys, "verify", "duality", "--max", "3")
    assert code == 3
    assert "FINDING: synthetic violation" in out


def test_degrees_explicit_subsets(capsys, chain2_doc):
    code, out = run(capsys, "degrees", chain2_doc, "top", "bottom", "[]")
    assert code == 0
    report = json.loads(out)
    assert report["items"] == 3
    assert len(report["classes"]) == 3


def test_reduce_kind_any(capsys, chain2_doc):
    # order can be ignored, so {top} does reduce to {bottom}
    code, out = run(capsys, "reduce", chain2_doc, "top", "bottom", "--kind", "any")
    assert code == 0
    assert out != "NONE\n"


def test_reduce_kind_any_none_on_long_chain(capsys, tmp_path):
    path = tmp_path / "c12.json"
    save_document(PosetDocument(chain(12)), path)
    code, out = run(capsys, "reduce", str(path), "1" * 11 + "0", "1" * 12, "--kind", "any")
    assert code == 0
    assert out == "NONE\n"


def test_space_opens_capped(capsys, tmp_path):
    path = tmp_path / "c17.json"
    save_document(PosetDocument(chain(17)), path)
    code, out = run(capsys, "space", str(path))
    assert code == 0
    assert json.loads(out)["open_sets"] == "capped"


def test_outputs_are_byte_identical(capsys, chain2_doc):
    _, first = run(capsys, "degrees", chain2_doc, "--all")
    _, second = run(capsys, "degrees", chain2_doc, "--all")
    assert first == second


def test_out_flag_writes_file(capsys, chain2_doc, tmp_path):
    target = tmp_path / "report.json"
    code, out = run(capsys, "classify", chain2_doc, "top", "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["label"] == "ProperSigma(1)"
