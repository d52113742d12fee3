"""Golden certificates: byte-identical CLI output on small fixed inputs.

The hom files under tests/data were drawn with randgen (seed 111 cases 9
and 3, seed 112 case 8, seed 114 case 2) and graph.json is the codomain of
the admpush instance's injective leg.  admpush_f_ref.json and
admpush_g_ref.json are the admpush legs with their graphs given by file
name (the shared domain in admpush_domain.json, the left codomain in
graph.json), so their certificates list and digest those graph files too.
hcheck_leg.json is the leg randgen.random_general_hom draws onto
random_graph(max_v=3, max_e=3, prefix="b") from case_rng(7, 22), pushed
out along itself; hcheck_leg3.json is the one it draws from case_rng(7, 52),
whose collisions lie in two degrees.
Commands run from inside tests/data
with relative paths, so the argv and input paths echoed in each certificate
do not depend on where the checkout lives.  A digest changes only when a
certificate's bytes change.
"""

import hashlib
import pathlib

import pytest

from quivpush.cli import main

DATA = pathlib.Path(__file__).parent / "data"

GOLDEN = [
    # verify --path and --leavitt print one layout: the param mode (EXACT or
    # TRUNCATED(n)), then one check degree_<d> per degree with dim_pushout,
    # dim_image and dim_fiber, ok when the three are one number
    (["verify", "--leavitt", "union_f.json", "union_g.json"],
     "c1b55417aa87916915b40992ff6dbc0d59c1d93fc1cf8fcaf36318b4bcef06a3"),
    (["verify", "--leavitt", "--field", "fp:2147483647", "union_f.json", "union_g.json"],
     "0c0e718c1b49543f58eab1946f4ec5892d37459a07865ce15b0f884472e351d6"),
    (["verify", "--leavitt", "admpush_f.json", "admpush_g.json"],
     "cc9799908023884b90f1d25106f877ed47ca00230ac7146fd4b2e93dffcfd5b8"),
    (["verify", "--leavitt", "--field", "fp:2147483647", "admpush_f.json", "admpush_g.json"],
     "94ae82b283f58e1cc852ad655538e9508e015a2960508aa13535566274c6f230"),
    (["verify", "--leavitt", "--field", "fp:2", "admpush_f.json", "admpush_g.json"],
     "cf108129ebb095bbee70d16599201ba2202ead5ec5e427c11741af1f6e4e63ec"),
    # no degree row has a "commutes" line: the square commutes by
    # construction of graph_pushout, so verify --path does not check it;
    # nor "injective" or "surjective", which restated the numbers; nor a
    # row for degrees 2 to 4: P's longest path has length 1, and past it
    # all four algebras are 0, so such a row would check nothing
    (["verify", "--path", "path_f.json", "path_g.json"],
     "1368d317ff62ad3bad683799d77821d3b6c0f68d23a4ca453f91e39e4782981a"),
    (["pushout", "onecolor_f.json", "onecolor_g.json"],
     "f952059dee04e56df0781aa3160e537d610571f69be4fc567ec548427bd67fa3"),
    (["pushout", "admpush_f.json", "admpush_g.json"],
     "28f73a5418dc620f5d641460141bcf5882b5c5e0d340bf2d340ab14ab54ce276"),
    # union legs: each class is named by its one id, as in the pushout graph
    (["pushout", "union_f.json", "union_g.json"],
     "67f35fbbd8d6104c9731357a2d54ac6bfbe5290722e468a5e9cfd4bdc295405a"),
    # a pushout with a collision and two missing paths (h = hcheck_leg.json on both sides)
    (["pushout", "--check-h", "2", "hcheck_leg.json", "hcheck_leg.json"],
     "2c9090e6f752f1dcce52d285502e912a1f36718a0dabb87052e043727a1c4d5f"),
    # 8 collisions in degrees 2 and 3 and 20 missing paths: the order of
    # collisions across degrees (h = hcheck_leg3.json on both sides)
    (["pushout", "--check-h", "3", "hcheck_leg3.json", "hcheck_leg3.json"],
     "322bbe0aa6f687291dd5dac0f43f08e68bee0752444ec31e65bcaff3da0a0394"),
    (["classify", "admpush_g.json"],
     "2f2d39b1c7657576f60b5e3bcf52732bdef1328080709a15758f7b4ee4697f3d"),
    (["classify", "union_f.json"],
     "02136d81ff59414dd929755a0173931168f5ccd107c8111bdc443a29c28c3f9c"),
    (["classify", "admpush_f_ref.json"],
     "61c0eea61a956269d670c2187be6233636759201fa536133af4305558cd99604"),
    (["verify", "--leavitt", "admpush_f_ref.json", "admpush_g_ref.json"],
     "091037ab81c70d01811ef71deed3495a61b4d9f9b6dea4465f24d86570e33296"),
    (["eval", "graph.json", "3/2*chi[c0_ke0.xe0.xe2] - chi[x0] + 2"],
     "f65c6f13966190fde32a0e6fe32511d394067f2d91c10fe9f9393bfdf1e891a4"),
    (["eval", "--leavitt", "graph.json",
      "chi[xe0.xe2] - 2*chi[xe2*.xe0*] + 3/2*chi[c0_ke0.c0_ke0*] + 1"],
     "1a4022ddf99ad40931660a996de38fc92f8e2f6c3ea707d97594d073fde51f75"),
    # over Z/7, 3/2 prints as 5 and -1 as 6: how a Z/p coefficient prints
    (["eval", "--field", "fp:7", "graph.json", "3/2*chi[c0_ke0.xe0.xe2] - chi[x0] + 2"],
     "474ac050d53d9783c7124156aa7dda5c6e8b56b931815c496c21749466816b64"),
    (["eval", "--leavitt", "--field", "fp:7", "graph.json",
      "chi[xe0.xe2] - 2*chi[xe2*.xe0*] + 3/2*chi[c0_ke0.c0_ke0*] + 1"],
     "3b07b64973f9e2ba2c4430c82ac1e2014a834f57477cd6fde650fd60dfa8f0ab"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_golden_certificate(monkeypatch, capsys, argv, digest):
    monkeypatch.chdir(DATA)
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
