"""Every artifact of a fixed-seed pipeline run, pinned by its sha256.

The network is one 100-node component without leaves, so the potential
solve runs PCG on all of it; the layout, communities, PageRank and all
three graph exports read the same network. A change that moves any
byte of any artifact fails here and must say why the bytes moved.
"""

import contextlib
import hashlib
import io
from pathlib import Path

from sanctionflow.cli import run

STAGES = [
    ["synth", "--issuers", "100", "--entities", "2000", "--copy-prob", "0.9",
     "--seed", "1", "--out", "events.csv"],
    ["ingest", "--events", "events.csv", "--out", "canonical.csv"],
    ["build", "--level", "institution", "--events", "canonical.csv",
     "--out", "net.tsv"],
    ["symmetrize", "--net", "net.tsv", "--out", "flow.tsv"],
    ["decompose", "--net", "net.tsv", "--out", "hodge"],
    ["communities", "--net", "net.tsv", "--seed", "1",
     "--out", "communities.csv"],
    ["pagerank", "--net", "net.tsv", "--out", "pagerank.csv"],
    ["layout", "--net", "net.tsv", "--potentials", "hodge/nodes.csv",
     "--jitter", "0.01", "--out", "layout.csv"],
    *(["report", "--net", "net.tsv", "--decomp", "hodge",
       "--pagerank", "pagerank.csv", "--partition", "communities.csv",
       "--layout", "layout.csv", "--graph-format", fmt,
       "--out", f"report_{fmt}"]
      for fmt in ("edge_table", "dot", "json_graph")),
]

DIGESTS = {
    "canonical.csv":
        "6057f222575c3649c50cabca7831685664c3b55524be3cb9edf0d079743f95a0",
    "communities.csv":
        "02735ff1dcbf207a20e24e83a39a25eeb3c9f549bfd752f3f4fb6337edb733ba",
    "events.csv":
        "65aa1d50ac24231d1be6eb0060e4306ee4d03f74ebba84cfed6ec4370e538e67",
    "flow.tsv":
        "4405785f0cd0736d0f97b7e37a21e35a5710ee49848b4ac23f66ae8637b38519",
    "hodge/nodes.csv":
        "8c08b9095d008e93eef65ce2eab47758270187ff3032d35b00f604d5a5a2ad9b",
    "hodge/pairs.csv":
        "7b8d2f9acef1a8cf892b327e7d0438f6db8a8f7261a97ff690fd50b83cbba175",
    "hodge/summary.csv":
        "214ed8a17f06db9b4d5098e6417612a16fa95b0ddd4f0fcb46bc826af4a312eb",
    "layout.csv":
        "5f84d091a9e7756e671a77267afb77838c6962c327d43a5c673d2bb7cf1e3ea0",
    "net.tsv":
        "209b8882d84f2ccca119d9e00aa0f8b8e7ddc5c6e7d3d3fbd3cd43c811c79f44",
    "pagerank.csv":
        "c283f47e4fdcd32a688c2a1338cb8995767ccc9da5bbf97a37e30e4e02c34010",
    "report_dot/graph.dot":
        "a1f61d46090cc609dd36e006e6ea34f12cfcc6fdee3caddff2c2dd3b24994851",
    "report_dot/potential_table.csv":
        "b76d882b9980720bce996427501e0b2bcc335cf2b890e0c5f53a12bbcbb7276a",
    "report_dot/scatter.csv":
        "1202c277bb451c87eaae51aaa27465b9c55a388aee80fd9a09485fd0329cd56e",
    "report_edge_table/graph.tsv":
        "f7d376f773fd1852aedf3ef3da4c1b47fdd2f8894939e62a01b5d14fb78f1ec3",
    "report_edge_table/potential_table.csv":
        "2523193cb0d7c4ab936705f766de6891497a476515cf2a37e40d3d99c18a5170",
    "report_edge_table/scatter.csv":
        "f8608cedd12cf8886a1386b3c14061d89d626496b021dd44d0ea2d6527b95f62",
    "report_json_graph/graph.json":
        "27a32f089e7606bc35a03362336e7aa332519dd73d7bb8743470513e1fd79ab7",
    "report_json_graph/potential_table.csv":
        "df7868a588b1638db6f292a757c377d92916e4754fd913611f5a9b3f66f73f3e",
    "report_json_graph/scatter.csv":
        "c608490de7b395ccf2192317d3231a07055ca2c884bd4cf1575d185316d74086",
}


def run_digests(root, stages, inputs=()):
    """Run the stages in ``root``; the sha256 of every file they wrote."""
    for argv in stages:
        with contextlib.redirect_stdout(io.StringIO()):
            assert run(argv) == 0, argv
    return {path.relative_to(root).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*"))
            if path.is_file() and path.name not in inputs}


def test_pipeline_artifacts_match_pinned_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_digests(tmp_path, STAGES) == DIGESTS


# A hand-written network whose node lines are not in name order and whose
# edge lines are shuffled: the writers order their rows by node name, so
# these bytes pin that order apart from the order of the nodes.
SHUFFLED_NET = Path(__file__).parent / "fixtures" / "shuffled_net.tsv"
SHUFFLED_STAGES = [
    ["symmetrize", "--net", "net.tsv", "--out", "flow.tsv"],
    ["decompose", "--net", "net.tsv", "--out", "hodge"],
    ["pagerank", "--net", "net.tsv", "--out", "pagerank.csv"],
    *(["report", "--net", "net.tsv", "--decomp", "hodge",
       "--pagerank", "pagerank.csv", "--graph-format", fmt,
       "--out", f"report_{fmt}"]
      for fmt in ("edge_table", "dot", "json_graph")),
]

SHUFFLED_DIGESTS = {
    "flow.tsv":
        "1c37889cba293dbe478268c5e4a3379e781cf127d591d5e6ea602510deb443ac",
    "hodge/nodes.csv":
        "5f5098c188e177323f859790864d8c5ea4e8e09b35f65d86374e204f33ccb191",
    "hodge/pairs.csv":
        "59e978b4ad7a1a33b29bf24b7886c9a507f72484ce64dadc43b3033fb9948a75",
    "hodge/summary.csv":
        "5ebac329ee898e7d4bd0e70cd65bb0d6376438dd35092cc828cf1bcd8c8d0422",
    "pagerank.csv":
        "5f226f6948f5cf3256c2638899b12d373bd53854426ac25f572cbad16a58f925",
    "report_dot/graph.dot":
        "050708b57a180991c4bf414c960b1c071a667222934ebbeab09da72a70018591",
    "report_dot/potential_table.csv":
        "ac4945e29ea1c8bb6fe2c39078399b046b9979315b8a55f76c463e035a2df717",
    "report_dot/scatter.csv":
        "319f0c8560d74a0b0fa24cc6e784d149f2cc27cd74773eaba1b8049811131fbe",
    "report_edge_table/graph.tsv":
        "113bc7f705b91b6dd00ae28a760dcf1ece7d540a5f5e88fdbb66b5cdccb4411b",
    "report_edge_table/potential_table.csv":
        "f5e31dbec3ecc6bc92910ce39ba5f4105eb844fb569e2031372c55ad2416a5a3",
    "report_edge_table/scatter.csv":
        "37048cedfc028fd9fdd4193a4093383c4bd4e08174ccb833174936c4c6ef7d85",
    "report_json_graph/graph.json":
        "262684eacd7a50d8b71e3d2f048e196817915dff3946d9660553b7c66f025435",
    "report_json_graph/potential_table.csv":
        "8620b64b08bebe4421190bfef056770b7dcdf4fe19686d36f00cc2031fedf5b3",
    "report_json_graph/scatter.csv":
        "e44139ea3d07d42a2db1a4068115958ff53f3a57c8d6397626a1402dd1c55fe2",
}


def test_shuffled_network_artifacts_match_pinned_digests(tmp_path,
                                                          monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "net.tsv").write_bytes(SHUFFLED_NET.read_bytes())
    assert run_digests(tmp_path, SHUFFLED_STAGES, ["net.tsv"]) == \
        SHUFFLED_DIGESTS
