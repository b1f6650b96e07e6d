"""Byte identity of the fixture webapp's artifacts across changes.

The digests pin the exact bytes of every artifact of one ``jspkdm analyze``
run on the fixture webapp, rendered servlet sources included. A change that
means to alter an output format updates them and says why.
"""

from __future__ import annotations

import hashlib

from jspkdm.cli import main

GOLDEN_SHA256 = {
    "out/deps.dot": "ef04a28d593ac524e2a688772552df173059568f8be5f19c5c73e40c5acf1080",
    "out/model.json": "dbd8cfdd6fb2347e1534f215e890416fc1ffd36a23dd542a1fd84eecdb07f1e7",
    "out/model.xmi": "0484af8d387ef02f38101fa6823f4b06908993e2e04d59e5e0bbbb9fee25a7d8",
    "out/report.json": "6aa34c9cc0a56b6439e9b7753f7d2e8e03702d9ecfeafddb19283001f00353b3",
    "servlets/jsp_detail_002ejsp.java":
        "b3aff38ac06f7966d1bd42d95be6c021030e8f2c4751e8ba2a5d505636766f8d",
    "servlets/jsp_error_002ejsp.java":
        "997e924023a2b2a3f49877f71e3ee56c24cb33b5a52548462a0262da035f36d1",
    "servlets/jsp_header_002ejsp.java":
        "ebb8a51d61841685ab25fd62c65f1c2fffa7fd2fbf43daa5e6a911a56e7b5489",
    "servlets/jsp_index_002ejsp.java":
        "d5067bcbc2f5618ca7670046c03020a417325820060f76f2f6324ffd3fee69c3",
    "servlets/jsp_powers_002ejsp.java":
        "1dfb14e7a992696f8c78c76f2ff26b20616d4d08a51bd1a6e7584f8527448fbc",
}


def test_fixture_artifacts_match_golden_digests(fixture_webapp, tmp_path):
    assert main(["analyze", str(fixture_webapp), "--out", str(tmp_path / "out"),
                 "--servlet-src-out", str(tmp_path / "servlets")]) == 0
    digests = {path.relative_to(tmp_path).as_posix():
               hashlib.sha256(path.read_bytes()).hexdigest()
               for sub in ("out", "servlets") for path in (tmp_path / sub).iterdir()}
    assert digests == GOLDEN_SHA256
