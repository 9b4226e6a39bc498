"""Today's outputs, pinned byte for byte.

Each case runs the pipeline, or a command, on a corpus whose bytes are fixed:
the syngen configs that test_generate_bytes_are_pinned pins, or records
written here.  It compares the sha256 of every file written, and of what a
command prints, with the tables below.  test_criterion_7_determinism compares
two runs of one tree; these tables hold the bytes across changes.  A change
that moves an output on purpose updates its table entry in the same change
and gives the reason in CHANGES.md.

No id holds a line break: csv.writer quotes "\\r" differently across the
supported Python versions.
"""

import hashlib
import json

import pytest

from botminer.cli import main
from botminer.corpus import RATE_LIFETIME, STRICT
from botminer.detector import ActivityStrategy, DetectorConfig
from botminer.errors import PipelineStageError
from botminer.pipeline import PipelineSettings, execute_pipeline
from botminer.syngen import generate

from conftest import BOT_APP, record, write_ndjson
from test_syngen import _PINNED

# the configs of test_generate_bytes_are_pinned, by its test ids
SYNTH = dict(zip(["default", "humans_only", "bots_only", "dup_heavy"],
                 (config for config, *_ in _PINNED)))

# polarities that are not whole, most of them inexact in binary, and a zero
FRACTIONAL_LEXICON = ("good\t0.75\ngreat\t1.5\nhope\t0.1\npeace\t0.3333333333333333\n"
                      "support\t2.25\nbad\t-0.25\nwar\t-2.5\ncrisis\t-0.1\n"
                      "regime\t-0.001\nhate\t-1e-2\npeople\t0\n")


# ids that csv.writer quotes (a comma, a quote) or that are not ASCII
QUOTED_IDS_RECORDS = [
    record(i="plain", text="good people hope peace", account="h1"),
    record(i="comma,1", text="bad war news today", minutes=5, account="h2"),
    record(i='quote"2', text="great support for the people", minutes=9, account="h1"),
    record(i="ünï3", text="terror crisis bad", minutes=12, source=BOT_APP, account="s1"),
    record(i="space 4", text="regime hate war", minutes=14, source=BOT_APP, account="b1",
           followers=500, friends=510),
    record(i="tab\t5", text="regime hate war", minutes=15, source=BOT_APP, account="b1",
           followers=500, friends=510),
    record(i="6", text="hope good people", minutes=20, account="h3"),
]


# humans only, on the web client, none with a near-equal follower/friend
# count and none posting a text twice: every tweet is NoBot
NOTHING_FLAGGED_RECORDS = [
    record(i="n1", text="good people hope #FreeIran", account="h1"),
    record(i="n2", text="bad war news #FreeIran today", minutes=4, account="h2",
           followers=300, friends=40),
    record(i="n3", text="peace support for the people", minutes=7, account="h3",
           followers=5, friends=900),
    record(i="n4", text="crisis and terror @someone", minutes=11, account="h1"),
    record(i="n5", text="#FreeIran hope good news", minutes=16, account="h2",
           followers=300, friends=40),
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _sha256sum(out_dir, printed=None) -> str:
    """``sha256sum``'s listing of the files in out_dir, after what was printed."""
    lines = [] if printed is None else [f"{_sha(printed.encode('utf-8'))}  (printed)\n"]
    if out_dir.exists():
        lines += [f"{_sha(path.read_bytes())}  {path.name}\n" for path in sorted(out_dir.iterdir())]
    return "".join(lines)


@pytest.fixture(scope="module")
def corpora(default_synth, tmp_path_factory):
    """Corpus name -> path: the pinned syngen corpora and the hand-written ones."""
    root = tmp_path_factory.mktemp("golden")
    paths = {"default": default_synth[0]}
    for name, config in SYNTH.items():
        if name not in paths:
            paths[name] = root / f"{name}.ndjson"
            generate(config, paths[name], root / f"{name}_truth.csv")
    paths["quoted_ids"] = write_ndjson(root / "quoted_ids.ndjson", QUOTED_IDS_RECORDS)
    paths["nothing_flagged"] = write_ndjson(root / "nothing_flagged.ndjson",
                                            NOTHING_FLAGGED_RECORDS)
    (root / "fractional.tsv").write_text(FRACTIONAL_LEXICON, encoding="utf-8")
    paths["fractional_lexicon"] = root / "fractional.tsv"
    return paths


# case -> (corpus, PipelineSettings fields; "detector" holds DetectorConfig fields)
RUNS = {
    "default": ("default", {}),
    "jsonl_lifetime_iqr": ("default", {
        "output_format": "jsonl", "rate_basis": RATE_LIFETIME,
        "detector": {"activity_strategy": ActivityStrategy.IQR_FENCE}}),
    "dup_heavy_fractional_lexicon": ("dup_heavy", {
        "lexicon_path": "fractional_lexicon",
        "detector": {"activity_quantile": 0.9, "ratio_tolerance": 0.2}}),
    "humans_only_median_fence": ("humans_only", {
        "output_format": "jsonl",
        "detector": {"activity_strategy": ActivityStrategy.IQR_FENCE,
                     "iqr_fence_base": "median"}}),
    "bots_only_lifetime": ("bots_only", {"rate_basis": RATE_LIFETIME}),
    "quoted_ids": ("quoted_ids", {"lexicon_path": "fractional_lexicon"}),
    "nothing_flagged": ("nothing_flagged", {}),
}

# case -> sha256sum's listing of the files the run writes
ARTIFACTS = {
    "default": """\
6703a30a4308179d78a5f7a8a9f9acb518e5bdd136a287251a46bde46236b320  classifications.csv
ccea76891376f04872cc153d1ebdc24ed52b704f9e9af3644d4cd7a59a21f1ad  cooccurrence_bot.csv
edfb6575492519a17293c57cead9d3a38d50303b8b671a7d53bebaa5d60abb87  cooccurrence_nobot.csv
1b459133f2675831c693b549c8d2ee10ccb9088e9d495c516d2ca95a7a741718  cooccurrence_suspicious.csv
edcf0e7de84c965457222a948960f85c612455eeddb118742116767e6e2aee98  ecdf_bot.csv
51d164af3a611d2edb71261f6cb80686f99e8995588fad3730f2a46f96a1d4db  ecdf_nobot.csv
9218bb3369841fea2cd7a0997ddd168cd7dbbd62721cf2e3460c9d38c7384ac7  ecdf_suspicious.csv
0138a9316b059878115867301c5d34b104e02b53ebfd6656d5f63865f768be90  run_summary.json
526c5a6ebdc6532d9bbf79904b04644e5186e340664fedebb1468d0cfa277278  wordcloud_bot.csv
7c2d45f16a9c5511a6c70f5deca6fdf243511d0bcb4e4aab6bfa851bbfbe2307  wordcloud_nobot.csv
615c324520371ce64dd0282cf6eb9af27b2b7fa85ad0c25cd7262990c22b7e85  wordcloud_suspicious.csv
""",
    "jsonl_lifetime_iqr": """\
313fec805a25cb4b1ec5dd8e7ac7d0e4c7b9488da9422cf49730c665d6912919  classifications.jsonl
0f1c31cce7978e8dce081973482d3a8f28c41321f7ec9abb573376ea6ac267a8  cooccurrence_bot.csv
798a312cac277f9f7e5c8130fe45d58521acc373e023b0d3937d7737028b25ed  cooccurrence_nobot.csv
39307a1d00f28facdf584c64b4dbb47d4039f2af9b7ad1979b68a2d4e9bd9f25  cooccurrence_suspicious.csv
427b1a9bc385522fb475331bb6cacf24d024cdf053b99b63de114030fb48874e  ecdf_bot.csv
3e54aa45a9f95895b42d022f5129a87d543467a285cca2876107fbcf4957f086  ecdf_nobot.csv
68ea3056c55a0631a6b2157807b3e9adb003571e8cdb59f4f17aabf969996bd5  ecdf_suspicious.csv
c058f6daa2be1f49d0024cd858f6b37b233207699975bdbbdc2edf6ae54dcb91  run_summary.json
3b2c18a0567cfb4d0ec4d9a0d39b3e059ac9cb548311a98022516d9746b4e3bb  wordcloud_bot.csv
3b76590476ecdba81b5ebd1b6c6d2b557abc4f0fbda2c9631e82f8b4d2ced5a5  wordcloud_nobot.csv
0c5d96945ebea7956f47d55df4e2c78771263a2a627371e759b9b85556c335dd  wordcloud_suspicious.csv
""",
    "dup_heavy_fractional_lexicon": """\
df40590198edf28605de6d4072efc0b2e61feaec29a19b5c5b631f81b6ad1390  classifications.csv
505f8e2cb939f1afa280a858c12c387c03ba869a4a4155408c1406fb9e816b78  cooccurrence_bot.csv
8834a54903c02bdd90062b4b8a5eabf55b8f40835be5bc696c90dcab98f34c70  cooccurrence_nobot.csv
afe3b000b607c6581e9076d7700c0f4960a81156a3b7ab1939bc9825df1ce215  cooccurrence_suspicious.csv
8be62f1158fc0556583152bcdd682719e58d50b7a399c0c71c8ea1f584dd5e79  ecdf_bot.csv
713035f03940f702a89d21a14d4012362b49e227b92dd290bb53f3a0c1b5d2f6  ecdf_nobot.csv
42100a2f3fdc23f1bec61b7b15e8822a73b2d642e43f6d54832427c1e12ff510  ecdf_suspicious.csv
a3447558c86ae5874d9fd8c9a24419da667dffddc6635cc51de9e2f5976b5c8e  run_summary.json
b7a5a439cdb41cfe5e34a1df843d8499f91549673940b5ec1353ff214d3c3ee3  wordcloud_bot.csv
fdf5b89bf3f4074ea42d8a3b5c46afe9b167da03a8cba4ed62decd83b1e1089e  wordcloud_nobot.csv
4d61df7686ace58d195459ea3d4c3c095c0f4f4fc781a42fc09be408bd9a93cf  wordcloud_suspicious.csv
""",
    "humans_only_median_fence": """\
4551be465d9024c6024e7e4d48a04eb8240b4328c6d18069c3cf717ef3c55ed2  classifications.jsonl
47c13da3da7d60da6d2714f7a8f5c49c35038e3a07bba35657e7528506dc353b  cooccurrence_bot.csv
68c7f66fb36c1e7fb3b2c2a1d81b662379d6e9ce0adda1265ae14ddccc533fac  cooccurrence_nobot.csv
383fa0703c67e6d226a680528d049bcfd3c21d07caa243685b38559e45fe82ce  cooccurrence_suspicious.csv
c516ab0cb5fac83e274946ea01a904547fbcfe9407f3094b85cab48ca7c5915b  ecdf_bot.csv
964b7ac2a1d991bc10e0882597fde275e3715d6e75d1e1af63c778c619e93b3d  ecdf_nobot.csv
5a02cc718f9169ceed3a822925baa793513135d0ee17d80e743033a056d2ff73  ecdf_suspicious.csv
edf14d2709aae97b0e72491b5d7beb5c9dda882fc60372eb09bb9f65d8542641  run_summary.json
a5b7cd8885bc56ba2ee1251e04e906ac7badc484dfd3a4b9e1cb8bea037c9728  wordcloud_bot.csv
7950b6f6db3b6fa41596c8d3db741ff9cb97b7301bdd5baaa46a064569fcae6b  wordcloud_nobot.csv
35b3bf166661a209476b1c8c6a46767d065cfc3e29e68e01ff48f4267008fe3b  wordcloud_suspicious.csv
""",
    "bots_only_lifetime": """\
3b5ce756ae836871e77688db1cbc50784339afd069384639edb0494767b57bba  classifications.csv
10155b038378e4b5cd82bc2436c104434fa775f6ace4d9c4496b7ff43911efb0  cooccurrence_bot.csv
e2eedb018c0a55d7f14a8a274503ef40b3c618c72710b58be18026968b8d2727  cooccurrence_nobot.csv
88aac76d7c9786b87ccbbfc7295d60954cd7059d7b4c745a329aa46750d576bb  cooccurrence_suspicious.csv
77d3b67974156b9ca3d7f75d5f64add50263a63d93b673f2127b8256affaa8a1  ecdf_bot.csv
7cc7d4efc18df84cae221c98a2005f8d83c617c44101a98e0766f442e15a93b3  ecdf_nobot.csv
fa42b7fff4e7f5497bdd1ed3076a242731204ec40be589f583141471c661c403  ecdf_suspicious.csv
e31582891d548e54c4d168dead1ee504a05d3a55a534f63a70fc2cdf5289b85a  run_summary.json
d3a824b3509051391cb767377d0140e7e967b42425bbdb5a1f7c872e4fde4a5c  wordcloud_bot.csv
633d61ead7d2a5dfe53a28ef9b3c1c51ba66c1ef6c32a31cca891770051063cc  wordcloud_nobot.csv
7a5108e00aeadd1091a236e2620921aa78d8eb54351e3e21dbdd09bbf10d8d3c  wordcloud_suspicious.csv
""",
    "quoted_ids": """\
ec44a9d716b60a6e9faef5f55cdea954c834d5f5f2c3f7851fd2524406fe3953  classifications.csv
940097eb68755959e6028cbbe12c3cac67f4e98af7b51ff09c202be2559c77cc  cooccurrence_bot.csv
1e046fcaa704ae37690462b27c12fc9bdf6b746233834d838870352f354387e0  cooccurrence_nobot.csv
91904ce1f694df9f01d9903ccc25f04d0dbb038df059ac2e95c8757e38f65fb3  cooccurrence_suspicious.csv
49d8e010c4ef636775c356c1ea50065ce854dcc4dd875ccb837f4618b5109f04  ecdf_bot.csv
7c011f96eb08c7f0d3090ade2f4db15346619511f19199d91cbd9606878c0960  ecdf_nobot.csv
f89d92bc02ccdcb2e371f80330c20729e2cbd68d95508f5ce33b68799cb290ff  ecdf_suspicious.csv
e299b90af36b506cda667fc5ed58b9c7a6547936caffd208d313aaa13b7b0e43  run_summary.json
cb1b45fafc78d729fe8bbda7d3761659a5c674aea72554889e4d273b4162abe5  wordcloud_bot.csv
6580460f40fc603130d03ee86a5e7017ed940f5da9de42b27b8be8cf62800c79  wordcloud_nobot.csv
789db55b83d99cb60ba08701f839c4f0db2d00d9ba6f8bdc85f9f5646177c21a  wordcloud_suspicious.csv
""",
    "nothing_flagged": """\
db119a9d9f278dc53219608f046c9769535d8e7071fef9511cef5614afa94a4a  classifications.csv
a40999e0722499e35308eb645c68b4d44826505865e381d1b3bcad7e8ed83fab  cooccurrence_bot.csv
0321f6f1f4dae1a91d842548c0e030be5760b316995461875b7710ba79592acc  cooccurrence_nobot.csv
a40999e0722499e35308eb645c68b4d44826505865e381d1b3bcad7e8ed83fab  cooccurrence_suspicious.csv
61ff50e3c44f04842dc7fc4492fa9fffed72176263e77273e0be5242d07c306a  ecdf_bot.csv
c18f93391dc96227b91e8ef94adac9c8394e1a6e0d10faec5aa6c7886ffa4768  ecdf_nobot.csv
61ff50e3c44f04842dc7fc4492fa9fffed72176263e77273e0be5242d07c306a  ecdf_suspicious.csv
51f3e19131639abf8054235c0d4f6ccef347f709a0c36c23a0428338cd993074  run_summary.json
0e7f6f2056e30c1700dbb1ba687297a563258c0d1f399368012473803e07ebaa  wordcloud_bot.csv
1201f0e86fe9224e72a53a6a98613910e7fe70216f204f0bbf788c96ce1baff8  wordcloud_nobot.csv
0e7f6f2056e30c1700dbb1ba687297a563258c0d1f399368012473803e07ebaa  wordcloud_suspicious.csv
""",
}


def _settings(fields: dict, corpora: dict) -> PipelineSettings:
    fields = dict(fields)
    if "lexicon_path" in fields:
        fields["lexicon_path"] = corpora[fields["lexicon_path"]]
    return PipelineSettings(detector=DetectorConfig(**fields.pop("detector", {})), **fields)


@pytest.mark.parametrize("case", RUNS)
def test_pipeline_artifacts_are_pinned(corpora, tmp_path, case):
    corpus, fields = RUNS[case]
    execute_pipeline(corpora[corpus], tmp_path, _settings(fields, corpora))
    assert _sha256sum(tmp_path) == ARTIFACTS[case]


STRICT_ERROR = "stage 'ingest' failed: line 41: followers_count has type str"


def test_strict_first_error_is_pinned(corpora, tmp_path):
    lines = corpora["dup_heavy"].read_text("utf-8").splitlines(keepends=True)
    bad = json.loads(lines[40])
    bad["user"]["followers_count"] = str(bad["user"]["followers_count"])
    lines[40] = json.dumps(bad, separators=(",", ":")) + "\n"
    lines[100:100] = ["{not json\n"]  # a later error is not the one reported
    corpus = tmp_path / "corpus.ndjson"
    corpus.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(PipelineStageError) as info:
        execute_pipeline(corpus, tmp_path / "out", PipelineSettings(strictness=STRICT))
    assert str(info.value) == STRICT_ERROR


# case -> argv, where a corpus name and OUT stand for paths
COMMANDS = {
    "ingest_check": ["ingest-check", "default"],
    "ingest_check_strict": ["ingest-check", "dup_heavy", "--strict"],
    "detect": ["detect", "default", "--out", "OUT"],
    "detect_lifetime_iqr_jsonl": ["detect", "dup_heavy", "--rate-basis", "lifetime",
                                  "--activity-strategy", "iqr", "--format", "jsonl",
                                  "--out", "OUT"],
    "detect_quoted_ids": ["detect", "quoted_ids", "--quantile", "0.5", "--out", "OUT"],
}

# case -> the sha256 of what it printed (with OUT for the out path), and of
# each file it wrote
OUTPUTS = {
    "ingest_check": """\
34e74bafe474aecf0705bbc72ffd90784311e0e9828ebe0b1c31ed5389b956ed  (printed)
""",
    "ingest_check_strict": """\
6e2a468219798764fbb39af2ce46375d352fac1fbba581145530f78e8860097a  (printed)
""",
    "detect": """\
a9e89841cddf0d533de02de99febc3fdb2292a8162edc63a74d9c4378c2362cc  (printed)
6703a30a4308179d78a5f7a8a9f9acb518e5bdd136a287251a46bde46236b320  classifications.csv
""",
    "detect_lifetime_iqr_jsonl": """\
958816e4fa35a77a227b97a9198c6a2dd8bb06c2f200fbd2dc55a78822843621  (printed)
5fbd1a54dec21c3e97716a23f2d384c656cc945aba3b7b93deb140cac959137d  classifications.jsonl
""",
    "detect_quoted_ids": """\
fb4dde7cafa561a267144e0359ac832100b77b62deb54daa10f0df5750eb6b27  (printed)
d8325de10bada9a24bbc7dfd2311440ada7382435b9a834859d01c14ff7e7f59  classifications.csv
""",
}


@pytest.mark.parametrize("case", COMMANDS)
def test_command_output_is_pinned(corpora, tmp_path, capsys, case):
    out = tmp_path / "out"
    argv = [str(corpora[arg]) if arg in corpora else str(out) if arg == "OUT" else arg
            for arg in COMMANDS[case]]
    assert main(argv) == 0
    printed = capsys.readouterr().out.replace(str(out), "OUT")
    assert _sha256sum(out, printed) == OUTPUTS[case]
