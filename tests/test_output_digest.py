"""Byte-identical CLI output, checked against a committed table of digests.

A fixed corpus of commands runs in-process through ``cli.main``, inside a
scratch directory and with relative paths.  Each corpus group hashes, run
by run, the argv, the exit code, stdout, stderr and the bytes of every
``--out`` and ``--dot`` file into one sha256; ``output_digests.json``
holds the expected digest of each group.  A change that alters output on
purpose regenerates the table with

    PYTHONPATH=src python tests/test_output_digest.py

and names each changed group in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import tempfile
from itertools import product
from pathlib import Path

import pytest

from finwadge import build_poset
from finwadge.cli import main
from finwadge.documents import PosetDocument, save_document
from finwadge.enumeration import all_posets
from finwadge.gallery import chain, fan
from finwadge.verify import SUITES

TABLE = Path(__file__).with_name("output_digests.json")


def _run(argv: list[str]) -> list:
    """One run's record: argv, exit code, stdout, stderr and written files.

    Every ``--out``/``--dot`` path is removed first, so a file that the
    run did not write reads as None.  A command line that argparse
    rejects is kept as its exit code and whether stderr starts with the
    usage line; argparse's wording is not finwadge's output.
    """
    files = [argv[i + 1] for i, a in enumerate(argv[:-1]) if a in ("--out", "--dot")]
    for name in files:
        if os.path.isfile(name):
            os.remove(name)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            return [argv, exc.code, "", err.getvalue().startswith("usage: finwadge"), {}]
    written = {name: Path(name).read_text(encoding="utf-8") if os.path.isfile(name) else None for name in files}
    return [argv, code, out.getvalue(), err.getvalue(), written]


def _doc(name: str, space) -> str:
    """Save a PosetDocument, or a bare FinitePoset, as ``name.json``."""
    path = f"{name}.json"
    save_document(space if isinstance(space, PosetDocument) else PosetDocument(space), path)
    return path


def _small_space(pairs) -> PosetDocument:
    """A 5-element space q0..q4 with the given covers, as in the benchmark."""
    labels = [f"q{i}" for i in range(5)]
    return PosetDocument(build_poset(labels, [(labels[a], labels[b]) for a, b in pairs]))


def _bits(P) -> list[str]:
    return ["".join(bits) for bits in product("01", repeat=P.n)]


def group_degrees_all():
    for n in range(1, 7):
        for i, P in enumerate(all_posets(n)):
            path = _doc(f"t{n}_{i}", P)
            yield ["degrees", path, "--all"]
            if n <= 4:
                yield ["degrees", path, "--all", "--kind", "any"]


PARTITION_SPACES = {"chain3+2": [(2, 3), (3, 4)], "V+chain2": [(0, 4), (1, 4), (2, 3)]}


def group_partitions_k3():
    colorings = ["".join(map(str, c)) for c in product(range(3), repeat=5)]
    for name, pairs in PARTITION_SPACES.items():
        path = _doc(name, _small_space(pairs))
        for kind in ("wadge", "any"):
            yield ["partitions", path, *colorings, "-k", "3", "--kind", kind]


def group_constants():
    docs = [_doc("fan1", fan(1))] + [_doc(name, _small_space(pairs)) for name, pairs in PARTITION_SPACES.items()]
    for path, k, kind in product(docs, ("4", "1", "0"), ("wadge", "any")):
        yield ["partitions", path, "-k", k, "--constants", "--kind", kind]
    yield ["partitions", docs[0], "-k", "4", "--constants", "--out", "c.json", "--dot", "c.dot"]


def group_fan2_named_sets():
    doc = fan(2)
    path = _doc("fan2", doc)
    names = sorted(doc.sets)
    yield ["space", path, "--out", "s.json", "--dot", "s.dot"]
    for kind in ("wadge", "any"):
        yield ["degrees", path, *names, "--kind", kind]
    yield ["degrees", path, *names, "--out", "d.json", "--dot", "d.dot"]
    for name in names:
        yield ["classify", path, name, "--oracle"]
    for a, b in product(names, repeat=2):
        yield ["reduce", path, a, b]


def group_classify_oracle():
    for n in range(1, 4):
        for i, P in enumerate(all_posets(n)):
            path = _doc(f"t{n}_{i}", P)
            for bits in _bits(P):
                yield ["classify", path, bits, "--oracle"]
    path = _doc("c9", chain(9))
    yield ["classify", path, "[]"]
    yield ["classify", path, '["1", "3", "8"]', "--oracle", "--cap", "9", "--out", "o.json"]


def group_reduce():
    for n in range(1, 4):
        for i, P in enumerate(all_posets(n)):
            path = _doc(f"t{n}_{i}", P)
            for a, b, kind in product(_bits(P), _bits(P), ("wadge", "any")):
                yield ["reduce", path, a, b, "--kind", kind]


def group_verify():
    for suite in SUITES:
        yield ["verify", suite, "--max", "4"]


def group_gallery():
    for name, param in (("chain", 4), ("antichain", 3), ("cinf", 5), ("expected-structure", 2), ("fan", 1)):
        path = f"g-{name}.json"
        yield ["gallery", "build", name, str(param), "--out", path]
        yield ["space", path, "--out", "gs.json", "--dot", "gs.dot"]
    yield ["gallery", "build", "chain", "0", "--out", "g0.json"]
    yield ["gallery", "build", "nope", "1", "--out", "g.json"]
    yield ["gallery", "build", "chain", "--out", "g.json"]
    yield ["gallery", "build", "chain", "1", "2", "--out", "g.json"]
    yield ["gallery", "build", "cinf", "0", "--out", "g.json"]
    yield ["gallery", "build", "fan", "-1", "--out", "g.json"]
    yield ["gallery", "build", "chain", "2", "--out", "missing-dir/g.json"]


def group_large_spaces():
    """The fan(3) quotient, and classify on the named sets of fan(18) and on seeded chain(160) subsets."""
    yield ["gallery", "build", "fan", "3", "--out", "fan3.json"]
    yield ["degrees", "fan3.json", "--all", "--cap", "12"]
    doc = fan(18)
    fan_path, chain_path = _doc("fan18", doc), _doc("c160", chain(160))
    for name in sorted(doc.sets):
        yield ["classify", fan_path, name]
    rng = random.Random(160)
    for _ in range(3):
        yield ["classify", chain_path, "".join(rng.choice("01") for _ in range(160))]


def group_error_exits():
    L2 = chain(2)
    doc = _doc("L2", PosetDocument(L2, {"top": L2.mask(["1"])}))
    big = _doc("c9", chain(9))
    huge = _doc("c25", chain(25))
    os.makedirs("adir", exist_ok=True)
    bad = {
        "syntax": '{"elements": [',
        "cyclic": '{"elements": ["a", "b"], "covers": [["a", "b"], ["b", "a"]]}',
        "nested": "[" * 100000 + "]" * 100000,
        "members": '{"elements": ["a", "b"], "covers": [], "sets": {"A": [0, true]}}',
        "unknown": '{"elements": ["a"], "covers": [["a", "z"]]}',
    }
    for name, text in bad.items():
        Path(f"bad-{name}.json").write_text(text, encoding="utf-8")
        yield ["space", f"bad-{name}.json"]
    yield ["space", "missing.json"]
    yield ["space", "adir"]
    yield ["space", doc, "--dot", "adir"]
    yield ["degrees", doc, "--all", "--out", "adir"]
    yield ["degrees", doc, "--all", "--dot", "adir"]
    yield ["partitions", doc, "-k", "3", "--constants", "--dot", "adir"]
    for token in ("xyz", "101", '["1", 2]', '["9"]', "[" * 100000 + "]" * 100000, '["1"'):
        yield ["classify", doc, token]
    yield ["partitions", doc, "012", "-k", "3"]
    yield ["partitions", doc, "02", "-k", "2"]
    yield ["partitions", doc, "-k", "2"]
    yield ["partitions", doc, "-k", "0", "--constants"]
    yield ["degrees", doc]
    yield ["degrees", big, "--all"]
    yield ["degrees", big, "--all", "--kind", "any"]
    yield ["degrees", huge, "--all", "--cap", "30"]
    yield ["classify", big, "top", "--oracle"]
    yield ["classify", big, "[]", "--oracle"]
    yield ["space", doc, "--cap", "-1"]
    yield ["degrees", doc, "--all", "--cap", "-1"]
    yield ["classify", doc, "top", "--oracle", "--cap", "-5"]
    for max_ in ("0", "-1", "6"):
        yield ["verify", "duality", "--max", max_]
    yield ["bogus"]
    yield []
    yield ["reduce", doc, "top"]
    yield ["verify", "nope"]


GROUPS = {
    "degrees-all": group_degrees_all,
    "partitions-k3": group_partitions_k3,
    "constants": group_constants,
    "fan2-named-sets": group_fan2_named_sets,
    "classify-oracle": group_classify_oracle,
    "reduce": group_reduce,
    "verify": group_verify,
    "gallery": group_gallery,
    "large-spaces": group_large_spaces,
    "error-exits": group_error_exits,
}


def run_corpus() -> dict[str, list]:
    """Every group's run records, each group in its own fresh directory."""
    records = {}
    with tempfile.TemporaryDirectory() as root:
        cwd = os.getcwd()
        try:
            for name, group in GROUPS.items():
                path = os.path.join(root, name)
                os.mkdir(path)
                os.chdir(path)
                records[name] = [_run(argv) for argv in group()]
        finally:
            os.chdir(cwd)
    return records


def digests(records: dict[str, list]) -> dict[str, str]:
    return {
        name: hashlib.sha256(json.dumps(runs, sort_keys=True).encode("utf-8")).hexdigest()
        for name, runs in records.items()
    }


def changed_groups(got: dict[str, str], want: dict[str, str]) -> list[str]:
    return sorted(name for name in want.keys() | got.keys() if got.get(name) != want.get(name))


def check(got: dict[str, str], want: dict[str, str]) -> None:
    changed = changed_groups(got, want)
    if changed:
        raise AssertionError(f"CLI output changed in group(s): {', '.join(changed)}")


@pytest.fixture(scope="module")
def records():
    return run_corpus()


def test_every_group_matches_the_table(records):
    check(digests(records), json.loads(TABLE.read_text(encoding="utf-8")))


def test_one_byte_fails_exactly_its_group(records):
    want = digests(records)
    for name, runs in records.items():
        argv, code, out, err, written = runs[0]
        tampered = dict(records)
        tampered[name] = [[argv, code, out + " ", err, written]] + runs[1:]
        assert changed_groups(digests(tampered), want) == [name]
        with pytest.raises(AssertionError, match=f"group\\(s\\): {name}$"):
            check(digests(tampered), want)


if __name__ == "__main__":
    TABLE.write_text(json.dumps(digests(run_corpus()), indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {TABLE}")
