"""Golden digests of the builders' text output on a fixed corpus.

Each entry pins the first 16 hex digits of the sha256 of ``render_basis``
for ``build_cdub``, ``build_dbasis`` and ``build_dg`` on one context.  Any
change to a builder that alters an implication, its order, a right-hand
side merge or the prefix length shows here as a changed digest.

A second table pins the pseudo-closed sets of each context with their
closures, in the order ``enumerate_pseudo_closed`` lists them.  They depend
on the closure operator only, so all three bases of a context give one digest.
"""

from __future__ import annotations

import hashlib

import pytest

from conftest import EX51_CXT, ctx_from_rows
from implbase.bases import build_cdub, build_dbasis, build_dg, enumerate_pseudo_closed
from implbase.context import Context, gen_synthetic, parse_cxt
from implbase.sets import Basis, render_basis

BUILDERS = (build_cdub, build_dbasis, build_dg)

#: (objects, attributes, density) of the seeded synthetic contexts; seeds 0-3.
SHAPES = ((8, 6, 0.5), (12, 9, 0.6), (12, 10, 0.35), (15, 12, 0.3), (20, 14, 0.3), (25, 16, 0.3))
#: (objects, attributes, density, seed) of wider single contexts: the
#: ``build`` benchmark's shape (17 attributes after reduction), 21 attributes,
#: and 76 objects by 68 attributes, past the 64 bits up to which sets are
#: packed into machine words.
WIDE = ((15, 19, 0.3, 0), (20, 24, 0.2, 0), (100, 80, 0.03, 1))

GOLDEN = {
    "ex51": ("717763370a4f2041", "8100ec9530c0d2cc", "3402b18aaf6895c4"),
    "chain3": ("2c0080f0a8ee500c", "9096d22a9b003260", "16e0324f90b65116"),
    "gen-8x6-0.5-s0": ("e2288a2263cafc47", "18ab9fd9bd8f9030", "ce749b0e2a78af6a"),
    "gen-8x6-0.5-s1": ("752a5ab91951142b", "9521625d83844bad", "3e6e7615131e17b8"),
    "gen-8x6-0.5-s2": ("b190f5a73282ff65", "ca6f59510ec43c19", "694dcf452eff3ab0"),
    "gen-8x6-0.5-s3": ("9398f2c4f41a07df", "3292d2ef0c54e9a0", "2d6992880662db17"),
    "gen-12x9-0.6-s0": ("9638c16d7a2df7a8", "428f5d53e41febce", "35da6be8ca20bf32"),
    "gen-12x9-0.6-s1": ("e41d70bb41b18deb", "10c11fa340b6dc53", "7ce32be52cbc7ed5"),
    "gen-12x9-0.6-s2": ("07751128acde5915", "dac025b8f73e20bc", "33f80a8564e719fb"),
    "gen-12x9-0.6-s3": ("acfbe2d54ebae165", "fbc63ee3dffb874e", "c0112ca498858f7d"),
    "gen-12x10-0.35-s0": ("6c0b0ed877d7e3ce", "31aada74d11f28d9", "c642513a3a759444"),
    "gen-12x10-0.35-s1": ("bcb324503c2e1468", "a638024292e5bb71", "2053ff6ea6345658"),
    "gen-12x10-0.35-s2": ("4c91003c21bda428", "9ea8a6b1138487c5", "b442d8da58c2107a"),
    "gen-12x10-0.35-s3": ("401eb3e7088421a6", "ced5538efe70ad0a", "6470f1631ae3a6bc"),
    "gen-15x12-0.3-s0": ("ceb5bc37a0d61f9a", "47078820715599d2", "e44c5e55a4066cac"),
    "gen-15x12-0.3-s1": ("74d07e9330f6fe08", "721a9b556df1ed9b", "9a2956f8c093f643"),
    "gen-15x12-0.3-s2": ("29c698e8989a795b", "4f77cc82684c7b23", "0ed7dd8b6c27df06"),
    "gen-15x12-0.3-s3": ("87825b673e7df481", "02d624a71eda07c2", "9eafc11716fea667"),
    "gen-20x14-0.3-s0": ("497ffa28932417ba", "28ab422c01ce0df1", "415ad464040e6ead"),
    "gen-20x14-0.3-s1": ("b84bb48fd2309acb", "e61a68bb35528211", "117e5be7914cea40"),
    "gen-20x14-0.3-s2": ("eb13b12beecd54ef", "01aa56aa7b648567", "d6e60a929cdf4b2c"),
    "gen-20x14-0.3-s3": ("827b98206c602369", "163830c582c447dc", "01f628b21ac1360f"),
    "gen-25x16-0.3-s0": ("bfcece32f3a31658", "5e5f793b49afce7d", "83dc20fd6225bfae"),
    "gen-25x16-0.3-s1": ("b3d9cb853d10dd67", "5298f12bfcc3edae", "daaaaa9bd605518f"),
    "gen-25x16-0.3-s2": ("804a0d5e865fecc5", "1568af41ead64ff7", "3da85b4941df6144"),
    "gen-25x16-0.3-s3": ("96cf94e530a8b786", "d8a4922dd1d6c2f3", "a66ff436628a0ff9"),
    "gen-15x19-0.3-s0": ("b22b85fb5d712c19", "268d517b55576a4d", "67eea689d346a062"),
    "gen-20x24-0.2-s0": ("14f8e2574b533bdb", "088273bb27320c7f", "7be57ec1b34dc450"),
    "gen-100x80-0.03-s1": ("f3f36bae83fd8017", "1126822961047036", "98bab9774a9a690a"),
}

#: The pseudo-closed sets of each context: ``premise -> closure`` per line.
PSEUDO_CLOSED = {
    "ex51": "2a2a6593b46c5580",
    "chain3": "9a61a6916242d0c8",
    "gen-8x6-0.5-s0": "4b2772a78ce7d89a",
    "gen-8x6-0.5-s1": "1941b068d78d310b",
    "gen-8x6-0.5-s2": "dd4e069ec1afff7f",
    "gen-8x6-0.5-s3": "37f73a45c607eb71",
    "gen-12x9-0.6-s0": "515c90f4ae1c2fd4",
    "gen-12x9-0.6-s1": "aebe06fa7aeec29a",
    "gen-12x9-0.6-s2": "2c977d0a035e7f0c",
    "gen-12x9-0.6-s3": "068dfe327f8ddfb2",
    "gen-12x10-0.35-s0": "6017196df9a8b39d",
    "gen-12x10-0.35-s1": "62d8d5258dc8a164",
    "gen-12x10-0.35-s2": "fe632df4bbd7af81",
    "gen-12x10-0.35-s3": "4f7b39a65c9184c2",
    "gen-15x12-0.3-s0": "d662244dd498179d",
    "gen-15x12-0.3-s1": "efcf660cbe75216d",
    "gen-15x12-0.3-s2": "5a84ad802159a146",
    "gen-15x12-0.3-s3": "a82c913cdddce20d",
    "gen-20x14-0.3-s0": "3ea92d2786e61018",
    "gen-20x14-0.3-s1": "727ffc45059668ba",
    "gen-20x14-0.3-s2": "7ce2b0619a5e1dfa",
    "gen-20x14-0.3-s3": "abcbddd390ca8e74",
    "gen-25x16-0.3-s0": "5b9ba34e674ac20f",
    "gen-25x16-0.3-s1": "8228a553fe893ce1",
    "gen-25x16-0.3-s2": "8b0b198b9e80d37d",
    "gen-25x16-0.3-s3": "0bce798b32b878f0",
    "gen-15x19-0.3-s0": "0fcbcb748e58896d",
    "gen-20x24-0.2-s0": "6dc2989f983fc7f1",
    "gen-100x80-0.03-s1": "4ffdb113ae14ff8b",
}


def corpus() -> dict[str, Context]:
    out = {
        "ex51": parse_cxt(EX51_CXT.read_text(encoding="utf-8")),
        "chain3": ctx_from_rows(["a", "b", "c"], ["", "a", "a b"]),
    }
    seeded = [(*shape, seed) for shape in SHAPES for seed in range(4)]
    for objects, attributes, density, seed in seeded + list(WIDE):
        name = f"gen-{objects}x{attributes}-{density}-s{seed}"
        out[name] = gen_synthetic(objects, attributes, density, seed)
    return out


CORPUS = corpus()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def test_corpus_and_golden_table_agree():
    assert list(CORPUS) == list(GOLDEN) == list(PSEUDO_CLOSED)


@pytest.mark.parametrize("name", list(GOLDEN))
def test_builders_render_the_golden_text(name):
    ctx = CORPUS[name]
    got = tuple(digest(render_basis(build(ctx))) for build in BUILDERS)
    assert got == GOLDEN[name]


def test_corpus_exercises_the_binary_prefix():
    assert any(build_dbasis(ctx).sigma0_len > 0 for ctx in CORPUS.values())


def pseudo_closed_text(basis: Basis) -> str:
    return "".join(f"{w.pseudo_closed} -> {w.closure}\n" for w in enumerate_pseudo_closed(basis))


@pytest.mark.parametrize("name", list(PSEUDO_CLOSED))
def test_every_basis_gives_the_golden_pseudo_closed_sets(name):
    ctx = CORPUS[name]
    got = {build.__name__: digest(pseudo_closed_text(build(ctx))) for build in BUILDERS}
    assert got == dict.fromkeys(got, PSEUDO_CLOSED[name])
