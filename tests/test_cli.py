from __future__ import annotations

import hashlib
import json
import random
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
    save_document(fan(1), path)
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


def test_degrees_all_fan3_uses_the_census(capsys, tmp_path, monkeypatch):
    """degrees --all classifies no set, runs no search and builds no list of subsets."""
    from finwadge import hierarchy, wadge

    calls = {"classify": 0, "search": 0, "all_subsets": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module in (hierarchy, wadge):
        monkeypatch.setattr(module, "classify", counted("classify", module.classify))
    monkeypatch.setattr(wadge, "_search_map", counted("search", wadge._search_map))
    monkeypatch.setattr(wadge, "all_subsets", counted("all_subsets", wadge.all_subsets))
    path = tmp_path / "fan3.json"
    built = fan(3)
    save_document(PosetDocument(built.space, dict(built.sets)), path)
    code, out = run(capsys, "degrees", str(path), "--all", "--cap", "12")
    assert code == 0
    assert calls == {"classify": 0, "search": 0, "all_subsets": 0}
    assert json.loads(out)["items"] == 4096


def test_degrees_all_beyond_the_census_limit_exits_2(capsys, tmp_path):
    path = tmp_path / "c25.json"
    save_document(PosetDocument(chain(25)), path)
    assert main(["degrees", str(path), "--all", "--cap", "30"]) == 2
    assert capsys.readouterr().err == "error: |X| = 25 exceeds the level census limit 24\n"


def test_parser_is_built_once(capsys, chain2_doc, monkeypatch):
    from finwadge import cli

    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    cli._parser.cache_clear()
    for argv in (["space", chain2_doc], ["classify", chain2_doc, "top"], ["degrees", chain2_doc, "--all"]):
        assert run(capsys, *argv)[0] == 0
    assert len(builds) == 1


def test_classify_large_space_stdout_is_pinned(capsys, tmp_path):
    """Levels and witness chains of the named fan(18) sets and three seeded 160-chain subsets."""
    built = fan(18)
    fan_path, chain_path = tmp_path / "fan18.json", tmp_path / "c160.json"
    save_document(built, fan_path)
    save_document(PosetDocument(chain(160)), chain_path)
    rng = random.Random(160)
    argvs = [["classify", str(fan_path), name] for name in sorted(built.sets)]
    argvs += [["classify", str(chain_path), "".join(rng.choice("01") for _ in range(160))] for _ in range(3)]
    out = ""
    for argv in argvs:
        code, text = run(capsys, *argv)
        assert code == 0
        out += text
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "db51842962aefcc41638d9a54a9b8c8fa366e30870163decee43a8c47041ba59"


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


def test_partitions_below_one_color_exit_1(capsys, fan1_doc):
    for k in ("0", "-2"):
        code, out = run(capsys, "partitions", fan1_doc, "-k", k, "--constants")
        assert (code, out) == (1, "")
        code, out = run(capsys, "partitions", fan1_doc, "00000", "-k", k)
        assert (code, out) == (1, "")


def test_partitions_below_one_color_has_one_message(capsys, chain2_doc):
    # both routes reject k < 1 before reading the colors
    for items in (["01"], ["--constants"], []):
        code, err = run_failing(capsys, "partitions", chain2_doc, *items, "-k", "-3")
        assert (code, err) == (1, ["error: a partition needs at least one color"])


def test_partitions_above_ten_colors_exit_1(capsys, chain2_doc):
    """A color is one digit, so k runs from 1 to 10."""
    for items in (["--constants"], ["01"]):
        code, err = run_failing(capsys, "partitions", chain2_doc, *items, "-k", "11")
        assert (code, err) == (1, ["error: -k must be at most 10, one digit per color, got 11"])
    code, out = run(capsys, "partitions", chain2_doc, "--constants", "-k", "10")
    assert code == 0
    assert [c["representative"] for c in json.loads(out)["classes"]] == [str(c) * 2 for c in range(10)]


def test_gallery_build_and_use(capsys, tmp_path):
    out_path = tmp_path / "fan2.json"
    code, _ = run(capsys, "gallery", "build", "fan", "2", "--out", str(out_path))
    assert code == 0
    code, out = run(capsys, "classify", str(out_path), "A")
    assert code == 0
    assert json.loads(out)["label"] == "ProperSigma(3)"


NEGATIVE_SIZE_ERRORS = {  # each builder names its own parameter
    "chain": "error: chain length must be >= 0",
    "antichain": "error: antichain size must be >= 0",
    "cinf": "error: truncation length must be >= 0",
    "expected-structure": "error: expected structure needs k >= 0",
    "fan": "error: fan needs N >= 0",
}


@pytest.mark.parametrize("name", ["chain", "antichain", "cinf", "expected-structure", "fan"])
def test_gallery_sizes_from_zero(capsys, tmp_path, name):
    path = tmp_path / "g.json"
    assert run(capsys, "gallery", "build", name, "0", "--out", str(path)) == (0, f"wrote {path}\n")
    assert run_failing(capsys, "gallery", "build", name, "-1", "--out", str(path)) == (1, [NEGATIVE_SIZE_ERRORS[name]])
    if name in ("chain", "antichain", "cinf"):
        assert json.loads(path.read_text()) == {"covers": [], "elements": []}


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


def test_verify_size_below_one_is_an_input_error(capsys):
    for bound in ("0", "-1"):
        code, _ = run(capsys, "verify", "duality", "--max", bound)
        assert code == 1


def test_verify_failure_exits_3(capsys, monkeypatch):
    from finwadge.verify import VerifyResult

    def fake(name, max_size):
        return VerifyResult(name, 1, findings=["synthetic violation"])

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


def test_reduce_on_chain4000_prints_a_monotone_witness(capsys, tmp_path):
    """On a chain, forward checking narrows one upper cover per assignment.

    So the search is 4,000 assignments, not one narrowing per comparable
    pair.  A is B's preimage under a seeded monotone map (a nondecreasing
    sequence on a chain), so its level allows the reduction.
    """
    n = 4000
    rng = random.Random(29)
    B = [rng.random() < 0.5 for _ in range(n)]
    A = [B[t] for t in sorted(rng.choices(range(n), k=n))]
    path = tmp_path / "c4000.json"
    save_document(PosetDocument(chain(n)), path)
    code, out = run(capsys, "reduce", str(path), "".join("01"[b] for b in A), "".join("01"[b] for b in B))
    assert code == 0
    lines = out.splitlines()
    assert [line.split(" -> ")[0] for line in lines] == [str(x) for x in range(n)]
    image = [int(line.split(" -> ")[1]) for line in lines]
    assert image == sorted(image)  # monotone on the chain 0 < 1 < ... < n-1
    assert [B[t] for t in image] == A


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


def run_failing(capsys, *argv):
    """Exit code and stderr lines of a run that must print nothing to stdout."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert captured.out == ""
    return code, captured.err.splitlines()


def test_directory_paths_exit_1(capsys, chain2_doc, tmp_path):
    for argv in (
        ("space", str(tmp_path)),
        ("space", chain2_doc, "--dot", str(tmp_path)),
        ("degrees", chain2_doc, "--all", "--out", str(tmp_path)),
        ("degrees", chain2_doc, "--all", "--dot", str(tmp_path)),
        ("partitions", chain2_doc, "-k", "3", "--constants", "--dot", str(tmp_path)),
    ):
        code, err = run_failing(capsys, *argv)
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error: ")


def test_space_negative_cap_exits_1(capsys, chain2_doc):
    code, err = run_failing(capsys, "space", chain2_doc, "--cap", "-1")
    assert (code, err) == (1, ["error: --cap must be at least 0, got -1"])


def test_degrees_all_negative_cap_exits_1(capsys, chain2_doc):
    code, err = run_failing(capsys, "degrees", chain2_doc, "--all", "--cap", "-1")
    assert (code, err) == (1, ["error: --cap must be at least 0, got -1"])


def test_classify_oracle_negative_cap_exits_1(capsys, chain2_doc):
    code, err = run_failing(capsys, "classify", chain2_doc, "top", "--oracle", "--cap", "-5")
    assert (code, err) == (1, ["error: --cap must be at least 0, got -5"])


@pytest.mark.parametrize(
    "argv",
    [("classify", "top", "--cap", "-1"), ("degrees", "top", "--cap", "-3")],
    ids=["classify-without-oracle", "degrees-without-all"],
)
def test_unused_negative_cap_exits_1(capsys, chain2_doc, argv):
    command, *rest = argv
    code, err = run_failing(capsys, command, chain2_doc, *rest)
    assert (code, err) == (1, [f"error: --cap must be at least 0, got {argv[-1]}"])


def test_files_are_written_before_stdout(capsys, chain2_doc, tmp_path):
    report, dot, dot_alone = tmp_path / "report.json", tmp_path / "deg.dot", tmp_path / "alone.dot"
    code, out = run(capsys, "degrees", chain2_doc, "--all", "--out", str(report), "--dot", str(dot))
    assert (code, out) == (0, "")
    code, out = run(capsys, "degrees", chain2_doc, "--all", "--dot", str(dot_alone))
    assert code == 0
    assert report.read_text() == out
    assert dot.read_text() == dot_alone.read_text()
    assert dot.read_text().startswith("digraph")


def test_document_set_members_must_be_names(capsys, tmp_path):
    path = tmp_path / "ints.json"
    path.write_text(json.dumps({"elements": ["a", "b"], "covers": [["a", "b"]], "sets": {"A": [0, True]}}))
    code, err = run_failing(capsys, "classify", str(path), "A")
    assert (code, err) == (1, ["error: sets['A'] must be an array of element names"])


@pytest.mark.parametrize(
    "document, message",
    [
        ([], "document root must be an object"),
        ({"elements": ["a", 1]}, "field 'elements' must be an array of names"),
        ({"elements": ["a", "a"]}, "field 'elements': element labels must be distinct"),
        ({"elements": ["a"], "covers": {"a": "a"}}, "field 'covers' must be an array of [lower, upper] pairs"),
        ({"elements": ["a"], "covers": [["z", "a"]]}, "in document covers: cover pair refers to unknown element 'z'"),
        ({"elements": ["a"], "sets": [["a"]]}, "field 'sets' must be an object"),
        ({"elements": ["a"], "sets": {"A": ["z"]}}, "sets['A']: unknown element 'z'"),
    ],
    ids=["root", "elements", "duplicates", "covers", "unknown-lower", "sets", "unknown-member"],
)
def test_malformed_document_exits_1(capsys, tmp_path, document, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(document))
    code, err = run_failing(capsys, "space", str(path))
    assert (code, err) == (1, [f"error: {message}"])


def test_deeply_nested_document_exits_1(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    code, err = run_failing(capsys, "space", str(path))
    assert code == 1
    assert err == [f"error: {path}: nested too deeply"]


def test_deeply_nested_subset_token_exits_1(capsys, chain2_doc):
    code, err = run_failing(capsys, "classify", chain2_doc, "[" * 100_000 + "]" * 100_000)
    assert code == 1
    assert err == ["error: bad subset array: nested too deeply"]


def test_degrees_all_kind_any(capsys, chain2_doc):
    # under arbitrary maps only the empty set, the whole space and the
    # proper nonempty sets differ
    code, out = run(capsys, "degrees", chain2_doc, "--all", "--kind", "any")
    assert code == 0
    report = json.loads(out)
    assert report["kind"] == "any" and report["items"] == 4
    assert [c["size"] for c in report["classes"]] == [1, 2, 1]


def test_degrees_all_kind_any_on_chain20_needs_no_listing(capsys, tmp_path):
    # the census of the discrete order: the empty set, the whole space and
    # one class of the 2^20 - 2 other sets, none of them listed
    path = tmp_path / "c20.json"
    save_document(PosetDocument(chain(20)), path)
    code, out = run(capsys, "degrees", str(path), "--all", "--kind", "any", "--cap", "20")
    assert code == 0
    report = json.loads(out)
    assert report["kind"] == "any" and report["items"] == 1 << 20
    assert [c["size"] for c in report["classes"]] == [1, 1048574, 1]


def test_degrees_all_kind_any_beyond_the_default_cap_exits_2(capsys, tmp_path):
    path = tmp_path / "c7.json"
    save_document(PosetDocument(chain(7)), path)
    code, err = run_failing(capsys, "degrees", str(path), "--all", "--kind", "any")
    assert code == 2
    assert err == ["error: |X| = 7 exceeds the all-subsets cap 6"]


def test_degrees_and_partitions_without_items_exit_1(capsys, chain2_doc):
    code, err = run_failing(capsys, "degrees", chain2_doc)
    assert (code, err) == (1, ["error: give --all or at least one subset"])
    code, err = run_failing(capsys, "partitions", chain2_doc, "-k", "2")
    assert (code, err) == (1, ["error: give --constants or at least one partition"])
