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
        "55ec3ac2750e26b2c9bda73f14593007b771c34d3cb81588f03283084b97798c",
    "net.tsv":
        "209b8882d84f2ccca119d9e00aa0f8b8e7ddc5c6e7d3d3fbd3cd43c811c79f44",
    "pagerank.csv":
        "c283f47e4fdcd32a688c2a1338cb8995767ccc9da5bbf97a37e30e4e02c34010",
    "report_dot/graph.dot":
        "0efa69e70d06accb9f0102b1b26e77f2c219d15734f02c9a86d4a2f66b93bd3f",
    "report_dot/potential_table.csv":
        "b76d882b9980720bce996427501e0b2bcc335cf2b890e0c5f53a12bbcbb7276a",
    "report_dot/scatter.csv":
        "1202c277bb451c87eaae51aaa27465b9c55a388aee80fd9a09485fd0329cd56e",
    "report_edge_table/graph.tsv":
        "1e0c4a66f6f825d126a8fc4a2bb06095c60437a92d9c9f5d266fb5759f6e3d8f",
    "report_edge_table/potential_table.csv":
        "2523193cb0d7c4ab936705f766de6891497a476515cf2a37e40d3d99c18a5170",
    "report_edge_table/scatter.csv":
        "f8608cedd12cf8886a1386b3c14061d89d626496b021dd44d0ea2d6527b95f62",
    "report_json_graph/graph.json":
        "2f95c7547d7fbc198ae5ba837029fec028da0abf18968c28ee142b1ed89bd951",
    "report_json_graph/potential_table.csv":
        "df7868a588b1638db6f292a757c377d92916e4754fd913611f5a9b3f66f73f3e",
    "report_json_graph/scatter.csv":
        "c608490de7b395ccf2192317d3231a07055ca2c884bd4cf1575d185316d74086",
}


def test_pipeline_artifacts_match_pinned_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for argv in STAGES:
        with contextlib.redirect_stdout(io.StringIO()):
            assert run(argv) == 0, argv
    found = {path.relative_to(tmp_path).as_posix():
             hashlib.sha256(path.read_bytes()).hexdigest()
             for path in sorted(tmp_path.rglob("*")) if path.is_file()}
    assert found == DIGESTS
