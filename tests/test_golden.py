"""Golden digests over the CLI surface: each row is a command line run on the
seed-0 fixtures, mapped to the SHA-256 of what it prints and of every file it
writes. A change that alters any output byte must update the table on purpose.

The table was generated once by running the rows (``run_rows``' result, as
printed), not checked by hand."""

import hashlib

from coordtext.cli import main

VOCABULARY = "kettle\nladle\nlamp\nmug\npan\nteapot\n"
TEMPLATES = (
    "[locpred_prompts]\nWhere is the {category}, as a {repr}?\nGive the {repr} of the {category}.\n"
    "[revloc_prompts]\nWhat is at {loc}?\n"
    "[revloc_target]\nIt is a {category}.\n"
    "[negpred_target]\nNo {such} object.\n"
    "[hallucination]\nIs a {obj} in the {medium}?\n"
)
BASE_CLASSES = '{"categories": [{"id": 1, "name": "sofa"}, {"id": "2", "name": "chair"}]}\n'

# Rows run in order in one directory that holds the fixtures under fx/, the
# three inputs above and every earlier row's outputs. "stdout" is what the row printed.
ROWS = [
    (["build", "ift", "--annotations", "fx/coco_50.json", "--scheme", "nfp", "--out", "ift_nfp.jsonl"], {
        "stdout": "3b332f9956de537bedb71f531cc60c34d3af394146b53d44f30c8b61eb64e180",
        "ift_nfp.jsonl": "e306c101eb690987d494f065a60bfe5cd246a1bd7aa019296eaad2b258cda478",
        "ift_nfp.report.json": "1999f94ee7cc9997e61046f1b05b4e0b755261b526d4254a7349f0f092b22e04",
    }),
    (["build", "ift", "--annotations", "fx/coco_50.json", "--scheme", "diga", "--out", "ift_diga.jsonl"], {
        "stdout": "94a31f3807a3f7b857c0c37af36eff8edbd55f6e74d70b656220d0f02e6cb991",
        "ift_diga.jsonl": "d9cdadd2197e71e5b31051f64967931e8a783a1dbd534cd0af27ed53c28243e0",
        "ift_diga.report.json": "b8a737a7b7ccae9506779be787657d781886c55ce1c6183b4fa4cea1f499243d",
    }),
    (["build", "ift", "--annotations", "fx/coco_50.json", "--form", "point", "--out", "ift_point.jsonl"], {
        "stdout": "505c675a717e4ef001208afbef7ac8df7a3f82496ca098e4f7a46c4c8f28a48e",
        "ift_point.jsonl": "00d74c17389046402796432d2c35197dac44428e1ba11e923fb5ddbf9167909a",
        "ift_point.report.json": "2628f0f5caec810fe4d86dc732e7ad5eedbf3c5b6c819ae2169240b250625185",
    }),
    (["build", "ift", "--annotations", "fx/coco_50.json", "--mix", "locpred=1,negpred=0.5,revloc=2",
      "--captions", "fx/captions_50.jsonl", "--seed", "4", "--out", "ift_mix.jsonl"], {
        "stdout": "29c38ac42ab7fc5853ebcb6b6dd435b0e8ff3f073e3d219115af0f9d2a2e6e08",
        "ift_mix.jsonl": "7aa23b3bca0a182ff8aabcb8e6a998744d632c1b3c744ff8d6abe0ddd871bf24",
        "ift_mix.report.json": "00ffc6d686ebb88d7b4ab78964cc5dfce438520563b0a9f8e54034a4ffc50a33",
    }),
    (["build", "ift", "--annotations", "fx/coco_50.json", "--templates", "templates.txt", "--out", "ift_tpl.jsonl"], {
        "stdout": "be8f7f14f5080f710770ed33b72b6b6bdd7fbbbffb1a41081ada25acaa618fe4",
        "ift_tpl.jsonl": "8b94720936a4507ab0652b385fa8e7554c827898060ff436ec64c26b9e5512e7",
        "ift_tpl.report.json": "3aa88898e4c4f6a8af3e0af75bba8bb13cb527efed75565a8ccbb43dd7f39f1a",
    }),
    (["build", "hallucination", "--annotations", "fx/coco_50.json", "--vocab-file", "vocab.txt",
      "--out", "hal_vocab.jsonl"], {
        "stdout": "c501ad93db1859c68d050228e24d90f9f6cac0b6d8a642ebcfc453788a474fb3",
        "hal_vocab.jsonl": "cbbab2b9347bc2ffe32293b6a860fe17ceaa7525604e3db65fac078ec5890e31",
        "hal_vocab.report.json": "d22ae4c7f6c21279e707103c475b2301e16794c3046939d06dee5181476308c3",
    }),
    (["build", "hallucination", "--annotations", "fx/coco_50.json", "--vocab-file", "vocab.txt",
      "--disjoint-from", "base.json", "--seed", "5", "--out", "hal_disjoint.jsonl"], {
        "stdout": "761ec42c6e5290dc277fe5a64d95c4898820ea9385fba7f960913fa2a80008a8",
        "hal_disjoint.jsonl": "2721077b8b948a9ffcd2967c62e8407bb749d7f3133a0db52aaf5b69675c59cf",
        "hal_disjoint.report.json": "e3658f54d56a0b16d6d2960126e26e0499cb2e5f6c3ce98065b7e76011685353",
    }),
    (["build", "hallucination", "--annotations", "fx/coco_50.json", "--videos", "fx/videos.jsonl",
      "--templates", "templates.txt", "--out", "hal_videos.jsonl"], {
        "stdout": "f0e9aa7b6fb4d3469796bcf8705499ccf3bd9ec41c8293ef9fd15e6fa7babd8e",
        "hal_videos.jsonl": "18e926fa9bd2359091fcd1f383a317bfebafa0fbbacc84bdbcbebd5fa70b8235",
        "hal_videos.report.json": "9ac8121c33c38b627a0c80d072fd40769093d1f999a8839bc4e5180be516ab1c",
    }),
    (["build", "video-static", "--videos", "fx/videos.jsonl", "--frames", "12", "--out", "tracks.jsonl"], {
        "stdout": "fe61057506f3c397fdb2a1f61dc3212456859b04b9a1a454700bc4dc56796b22",
        "tracks.jsonl": "f11ae32ccba425fab69de15b497a5c3126266e12c724ba9cd0360705b44802c4",
        "tracks.report.json": "605f0e2dc81498146e9c6af31a8b899250fb9ac5fc636eee0dbc7ed274f1758e",
    }),
    (["build", "spatial-bench", "--annotations", "fx/coco_50.json", "--seed", "1", "--out", "spatial.jsonl"], {
        "stdout": "6a4f620d26d644c3f7ecc715272e84771685491afe3ddd34e893a86278629f23",
        "spatial.jsonl": "79dd940292bd9d5fb039f56733034de8bb80a0dfa1cf2e4ffbd9f3aec5b82c3f",
        "spatial.report.json": "456cc9b7cf989bccf10fb5df0a38fb814d6c8c0533af15c0b62f9d5dd0eb08ac",
    }),
    (["query", "--records", "hal_videos.jsonl", "--mock", "random", "--seed", "3", "--out", "hal_random.jsonl"], {
        "stdout": "2ad6335723f42f30c46ec9582da542e490291e5d2d5cb1d3883e1ae00965eb40",
        "hal_random.jsonl": "80f1acf87d0b1b90bb8e2dbfa9f509602c5db49fcee3d79e77b7cfdb892e51f8",
    }),
    (["evaluate", "--records", "hal_videos.jsonl", "--responses", "hal_random.jsonl",
      "--report", "hal_eval.json", "--dump", "hal_dump.jsonl"], {
        "stdout": "5faf91860854975a61c5ec378f22751706d20ef670083fdeb51cbec54266ce91",
        "hal_dump.jsonl": "08887b58834334378f1a67fcb1ff338cfb4020d2771ebfa5a093abea3795d566",
        "hal_eval.json": "8ddee745056a4ebcfab5454559a3d69edcb07d5b495ea2f6b523a58fa5a35621",
    }),
    (["query", "--records", "fx/vqa.jsonl", "--mock", "random", "--seed", "3", "--out", "vqa_random.jsonl"], {
        "stdout": "7c49d91bb604d433a7493149d254c6e550c970a3f11835f065daaf7fec5fe2dc",
        "vqa_random.jsonl": "07763052c2e3a369365c0cacff97514423e69e554a46dca62cbb0b2370643f89",
    }),
    (["evaluate", "--records", "fx/vqa.jsonl", "--responses", "vqa_random.jsonl", "--task", "vqa",
      "--report", "vqa_eval.json", "--dump", "vqa_dump.jsonl"], {
        "stdout": "21c81a39713a2e0a91a1301abe5b61a6e3e8467fb25c646b36ee6d341d90f84d",
        "vqa_dump.jsonl": "1458f57e24296c01027f84a391715b51de0aa5f95294008fc7f0dbaa50103db6",
        "vqa_eval.json": "548dcd22595ed56b609b2762ba2f9763816482cd0e58215f1ffd71ce7218ce11",
    }),
    (["query", "--records", "spatial.jsonl", "--mock", "random", "--seed", "3", "--out", "spatial_random.jsonl"], {
        "stdout": "d1fda99bc23db3b5be56e844e792f91f6e0a39b45f19d340231c3d4130b9a707",
        "spatial_random.jsonl": "faebc336e9af0c7126000276dabb9be60e7f57bb9f07e17681394222c2f1f58a",
    }),
    (["evaluate", "--records", "spatial.jsonl", "--responses", "spatial_random.jsonl", "--containment-only",
      "--report", "spatial_eval.json", "--dump", "spatial_dump.jsonl"], {
        "stdout": "5696201890d333db79b792c48730a4e56bf44ec896bfbddce98e8f05efc75c75",
        "spatial_dump.jsonl": "478bc62bf78c6d7dcd47b9a922be99ec00977f711c2452fe9b7eec1bb1d97b11",
        "spatial_eval.json": "f1b872bcae8dc51d0ee138e25bdd2d01fc4ab15d19ef8d487ae62d27210b83bb",
    }),
    (["stats", "--corpus", "fx/corpus_80k.txt", "--phrases", "left,the right,to the left", "--out", "stats.json"], {
        "stdout": "d0b85ec2a96e7c501d28ced6c21af614e6378423d468e20f863a02b296061686",
        "stats.json": "34d4db26c91ae9eb93041040554a5a25ca273035106ac3b069abb988ca7439e1",
    }),
    (["query", "--records", "spatial.jsonl", "--mock", "oracle", "--out", "spatial_oracle.jsonl"], {
        "stdout": "013902fbc059a6aaf3a1669e74ac494b431e811b32bd44dee4041d78833a260d",
        "spatial_oracle.jsonl": "fb977506917c17146ec70024d3d5c612117eb5d4d121f00f4fc8e81eeb8bdcaf",
    }),
    (["evaluate", "--records", "spatial.jsonl", "--responses", "spatial_oracle.jsonl",
      "--report", "spatial_oracle_eval.json", "--dump", "spatial_oracle_dump.jsonl"], {
        "stdout": "93ffc31de1a0b5660fc351d48bdb074e33f28d9976b1cc574f4f79fa3a91373d",
        "spatial_oracle_dump.jsonl": "58baa203beef1a4dd8648ccf9ec31c7f834054a99ac90e43d0383ec0f27c0641",
        "spatial_oracle_eval.json": "8d3434a48a57932a5d1e7e34301930df040680fb91e9e38eb6df27a612d4e151",
    }),
    (["encode", "--bbox", "10,120,30,145", "--dims", "640x480", "--scheme", "nfp"], {
        "stdout": "cfd32b2e33b42625d4d9ccd431d3b5eaa3e8c582cdb26a3c2a33d722c26f6527",
    }),
    (["encode", "--point", "321.5,77", "--dims", "640x480", "--scheme", "nfp"], {
        "stdout": "04ed15189cfe2b2911d412b92c3a808011163187b40e0a2386198cfeb586849a",
    }),
    (["encode", "--bbox", "10,120,30,145", "--dims", "640x480", "--scheme", "ivb"], {
        "stdout": "4eb33c91208957609c4c27fd04f47e40cc9f3968343636de24b5b1b4c1485fc3",
    }),
    (["encode", "--point", "321.5,77", "--dims", "640x480", "--scheme", "ivb"], {
        "stdout": "e2c00c7d31f76447d766da607bc7ef8b20582e5a574ced9e0fa059a455d30598",
    }),
    (["encode", "--bbox", "10,120,30,145", "--dims", "640x480", "--scheme", "diga"], {
        "stdout": "2cb4a0fe954e2a0baca477a7f3a6753873744e1b061919362a04ed6a5b4b1030",
    }),
    (["encode", "--point", "321.5,77", "--dims", "640x480", "--scheme", "diga"], {
        "stdout": "8cbeace0afeb733b6495d98540784ef4e623c691388185b0d5cade1789272a67",
    }),
    (["decode", "--text", "(0.0156, 0.2500, 0.0469, 0.3021)", "--form", "bbox", "--dims", "640x480",
      "--scheme", "nfp"], {
        "stdout": "4a1c6a2d76b79f58f6fd4ce4a9b9270c3e12c605101fef9eee9bdc949b0dd5f8",
    }),
    (["decode", "--text", "(0.5023, 0.1604)", "--form", "point", "--dims", "640x480", "--scheme", "nfp"], {
        "stdout": "393e532e4dd2941cfc99aa9f759f7cc092227fb4c3d7ebedf254166894ff57ee",
    }),
    (["decode", "--text", "3,56,10,67", "--form", "bbox", "--dims", "640x480", "--scheme", "ivb", "--lenient"], {
        "stdout": "19b35e793db032cefbdce93bb79bea834d93b4c35390a85551fe156883fbad7c",
    }),
    (["decode", "--text", "(112, 35)", "--form", "point", "--dims", "640x480", "--scheme", "ivb"], {
        "stdout": "8f049ef61ebc5383e3bb6fbe1ee817c563a2f988820806a031818eb97ecacbb2",
    }),
    (["decode", "--text", "(0, 4, 4, 7, 4, 5)", "--form", "bbox", "--dims", "640x480", "--scheme", "diga"], {
        "stdout": "2babde4ae379729e80ac7d8df8850849b5f73975f6e88ec1d8c92c8f4720bb16",
    }),
    (["decode", "--text", "(8, 2, -6, 1)", "--form", "point", "--dims", "640x480", "--scheme", "diga"], {
        "stdout": "0477ffd7e45e0aed1f41c6c349123b5ad75e1bad7092f987e7c0bdf068173d7d",
    }),
    (["build", "ift", "--annotations", "fx/coco_50.json", "--form", "point", "--scheme", "nfp",
      "--out", "ift_point_nfp.jsonl"], {
        "stdout": "e4b40ae9da8ff591ab92d68cd702fa03806c48f65739b09f29a9ae8fd5af7fb6",
        "ift_point_nfp.jsonl": "33115a9fa3a6989ce98935d50af00796ce52f02a406a29f69993b30f92804bce",
        "ift_point_nfp.report.json": "77ef61d90b26c33ec10dd065d41a5f66b3bdda55229a6e35e85a91506a94e497",
    }),
    (["build", "ift", "--annotations", "fx/coco_50.json", "--form", "point", "--scheme", "diga",
      "--out", "ift_point_diga.jsonl"], {
        "stdout": "746ba3d3f0f5b317fe48c47fee4df507729ec7ea5360181eaacc6e5cbee9c529",
        "ift_point_diga.jsonl": "8be5523eba8097e982d1f2fa315a8d40d7601db359d64efe22fc6017d9d095ba",
        "ift_point_diga.report.json": "59bf961b4694662e352cc48978c384750d1be503ecc105c4510334bc6f65717f",
    }),
    (["build", "ift", "--annotations", "fx/coco_50.json", "--captions", "fx/captions_50.jsonl", "--mix", "revloc=1",
      "--scheme", "nfp", "--out", "ift_revloc_nfp.jsonl"], {
        "stdout": "ca864a9b28f6add6169c4e7aa64c8abfba6fbe909f51a5c46467a03f321f012c",
        "ift_revloc_nfp.jsonl": "12f4bc678bc3cdab0894f8da5cb6716d3575eb63b97836e606149e2ab03065b1",
        "ift_revloc_nfp.report.json": "4a719484299c4dfa7201941dcc6137a2c038d2e85549cd004adaf11ac61a1eab",
    }),
    (["build", "ift", "--annotations", "fx/coco_50.json", "--captions", "fx/captions_50.jsonl", "--mix", "revloc=1",
      "--scheme", "ivb", "--out", "ift_revloc_ivb.jsonl"], {
        "stdout": "af85cf22d9f83b84e1f03657415cd03d496c938464e1f1656c389c9f1584807f",
        "ift_revloc_ivb.jsonl": "018b69692eb24216fe490e979c4538aed268eb64c2acadab607710b7a9f07eb7",
        "ift_revloc_ivb.report.json": "62ef63267b0db4f3af1f2164ef72ea8af0cc61137913900d13cf91f68bc535d0",
    }),
    (["build", "ift", "--annotations", "fx/coco_50.json", "--captions", "fx/captions_50.jsonl", "--mix", "revloc=1",
      "--scheme", "diga", "--out", "ift_revloc_diga.jsonl"], {
        "stdout": "5d6ce15ea9a47b23f2ab8e66f735da83522a26315735b1fb88ab89d9a8103833",
        "ift_revloc_diga.jsonl": "c065213af0cc87616be69324eca6c3df71463f1ba0894e5d5b59b9276f68d592",
        "ift_revloc_diga.report.json": "eeac1a05cb096d4529a00c86bfb77f83d1efcc478affcf720b03cf65bb4c9ded",
    }),
]


# SHA-256 of every file that ``coordtext fixtures --seed 0`` writes. Builds read
# the parsed values, so without this a changed byte in a fixture file would go
# unseen. Generated by running the command, not checked by hand.
FIXTURE_FILES = {
    "captions_50.jsonl": "5afe5581949784702c4032731fb197c8de53298c6734fa162b97f8c7dceb016a",
    "coco_200.json": "418fdb74a934ef4efd9c85e4fe0129313a6c4d27b43e0555bff254461624f37d",
    "coco_50.json": "d0808f0d98c56ecebdcda87108aca0047f983620b036c0a4141cbd17461c5133",
    "corpus_80k.txt": "9b4bdca06d6ed143dc278ba1c1d66cdb69aa20750ed3473e26a9facad8e7c83f",
    "videos.jsonl": "f85f3fad7909f15b583621c76678e90bb9d4e1c38b9a79d670e57bee7e0311fa",
    "vqa.jsonl": "a9d5c6c4c6da4032d53d30ae4b6937b493e14354a28e684ed14188abf2342cd3",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_rows(root, capsys) -> list[dict[str, str]]:
    """Run every row in ``root``; returns, per row, the digest of its stdout and of each file it wrote."""
    assert main(["fixtures", "--out", "fx", "--seed", "0"]) == 0
    (root / "vocab.txt").write_text(VOCABULARY, encoding="utf-8")
    (root / "templates.txt").write_text(TEMPLATES, encoding="utf-8")
    (root / "base.json").write_text(BASE_CLASSES, encoding="utf-8")
    capsys.readouterr()
    written = []
    for argv, _ in ROWS:
        before = set(root.iterdir())
        assert main(argv) == 0, argv
        digests = {"stdout": _sha(capsys.readouterr().out.encode("utf-8"))}
        digests.update((p.name, _sha(p.read_bytes())) for p in sorted(set(root.iterdir()) - before))
        written.append(digests)
    return written


def test_cli_golden_table(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run_rows(tmp_path, capsys) == [digests for _, digests in ROWS]


def test_fixture_files_golden(tmp_path, capsys):
    assert main(["fixtures", "--out", str(tmp_path), "--seed", "0"]) == 0
    assert {p.name: _sha(p.read_bytes()) for p in tmp_path.iterdir()} == FIXTURE_FILES
