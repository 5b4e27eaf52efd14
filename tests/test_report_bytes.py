"""Pinned --deterministic report bytes of fast CLI ops.

Each digest is the SHA-256 of an op's JSON report followed by its CSV
table.  They were recorded before the report-building code was merged
into one builder (numpy 2.4.6, Python 3.11.7), so a refactor that moves a
single bit of a verdict, estimate or level table fails here.  A change
that means to alter report bytes updates the digest it alters and says so.
"""

import hashlib

import pytest
from click.testing import CliRunner

from gaugeset.cli import main

PINNED = {
    "integrate G6 --method henstock": "f6fc61c9ed74a5d9aea49022e62543d3505a86026e975052a0801589d342a902",
    "integrate G6 --method mcshane": "304479ec55e864ad509398fcf806550712508f0bd1bb85a8f7b0d16c3cbb76af",
    "integrate G6 --method birkhoff": "189f5c0f6cbd2145230a9271568688b242cc931e40782b25a4ab469b0a6f7275",
    "integrate G6 --method vh": "2df1e1a626079058d4ea022e9419903f59fe417ee260bf22dfb77db5fe53c7db",
    "integrate G6 --method vms": "8dc3b6b9bda9cb20b940c8dfa31af5d7776b983ef3f75c90487ed67c4d2d8d53",
    "integrate G6 --method hkp": "2be4761bbc7414a01053a84245144170cbbd206b4b8e7964404833604712fdbb",
    "integrate G2 --method henstock": "c119257207a6f5ab3871360d20466e100dc1a965c4a3509e63b67ea031687c28",
    "integrate G2 --method birkhoff": "cadc22424fc7e85c31d3886c305390f7e684f65fb5eb2e0b983d56f10c1182a4",
    "integrate G2 --method vh": "0901a1c1adc1372c245bf34e92223fb6e5877aabb42ea1748dab65d3455d8950",
    "integrate G2 --method hkp": "7b5def8d9760aed31167bcd68845db5ac7b3aeac1b81db5cee52d0a2eb1a0131",
    "decompose G6 --selection steiner --theorem t33": "f994a86a970861be2f46b8800a0b96a3e576a5e896aa8aa28f0e05d5b67ba471",
    "decompose G2 --selection steiner --theorem t33": "8fbabb40b0c900da436219e4781af310f7f627f61ca6ac94b18a2cec494ffea9",
    "varmeasure G6 --set 0.25:0.5,0.75 --levels 4": "186d57764e2db8e54a6dad5d9b1590d7261fcff13bd6c6acfda44c9823c272b6",
    "riemann-check G2": "cfade86445e49373fb6ac65cb0e2964a9cde1575d07ae2b2ae27fc6b94e4e54f",
    "riemann-check G6 --set 0.5,0.2:0.4 --trials 3": "d89ad66ec2b45bcd6a58a6bfc9b262218182129229b259e8a2588da281580a95",
    # diverging ops, one per shape of divergence.directions: both columns
    # (mcshane), the column whose probe sums pass the bound (henstock), the
    # trial sum of largest norm (birkhoff), none (vms) and hkp's record
    "integrate G1 --method mcshane": "9dc93d4112946a9c16545d43885cf1cda849960e1ea7c13174b0c241aaa37c28",
    "integrate G3 --method henstock": "9bac95992a422177370dc70bcd89c558750bc167ffec5a947b7e6186789abd32",
    "integrate G3 --method birkhoff": "276b9a213839aa481840d0a8752e6d2d9cbe4b514ed4e749f531dd2d381bc1d3",
    "integrate G5 --method vms": "86f22ffdd4a41cafbb557930fa6081b1c1c40c956f45ba7a08b2a9ebde3dcc0a",
    "integrate G3 --method hkp": "6a386e3a587eaa6f71eee2d470c15cf201969b58db14fa0364d4c33e4c32c278",
    # the twelve-level packing under constant gauges, and a t55 run whose
    # variational sums query a built Primitive
    "varmeasure G2 --set 0.25:0.75": "24b28d0ad685654017442a55f06478fc843d1a76ece1174d200b5fccb31874a2",
    "decompose G2 --selection steiner --theorem t55": "fedb9a45dfc31c9960adea06cc0cdd486ce4a921d70863990d7e4a76451fceb5",
    # levels 38-40 have constant gauges below 1e-12, so their packings are
    # walked one step at a time, not accumulated
    "varmeasure G2 --set 0,0.5:0.5000000001 --levels 40": "5df8740bb7399a7f0cbd4335fd15414bfb1a92f630f2ae9df8ad63a189461d68",
    # a converging G1 run: the last bits of its probe sums, hence of probe_spread
    # and eff_residual, move with the order in which a probe is summed
    "integrate G1 --method henstock --levels 8": "78cd70cb78a1e322794eea59160b090abca9f9accbba7112afef1c2f8382eed8",
}


def report_digest(argv, out_dir):
    res = CliRunner().invoke(main, argv + ["--deterministic", "--out", str(out_dir)])
    assert res.exit_code == 0, res.output
    [json_path] = out_dir.glob("*.json")
    [csv_path] = out_dir.glob("*.csv")
    return hashlib.sha256(json_path.read_bytes() + csv_path.read_bytes()).hexdigest()


@pytest.mark.parametrize("op", sorted(PINNED))
def test_report_bytes_pinned(op, tmp_path):
    assert report_digest(op.split(), tmp_path) == PINNED[op]
