"""Byte-identical CLI output: the sha256 of stdout for `list` (tsv and
json), `poset` (dot and json), `verify springer` and `verify oracle`, at
every isogeny level of A(2,2), C(2,2), D(4) and D(5) in the figure
convention.  A change that alters any of these outputs must say why and
update the digest."""

from __future__ import annotations

import hashlib

import pytest

from clanorbits.cli import main

DIGESTS = {
    "list --family a --p 2 --q 2 --isogeny sc":
        "c924c756984246a3ccaf54c8ba7f3c3307b221384e7d8e74172c6a7d7c617c60",
    "list --format json --family a --p 2 --q 2 --isogeny sc":
        "0b4ecf9e07a451dacb01083c515d37b45b7f5977400b263a3b80d09394cd0e57",
    "poset --family a --p 2 --q 2 --isogeny sc":
        "89782cff212ca8d3a428942db0cd864e655e3e8f29869dc7df17aa6471ab6ce8",
    "poset --format json --family a --p 2 --q 2 --isogeny sc":
        "0b442946f2612d2fa6d5e61ab8ba05c2654acb26860320f21036439cef93e205",
    "verify springer --family a --p 2 --q 2 --isogeny sc":
        "2335d2ebe0a1e6db9f15d6901932c1ced763f0aa2f24dd9c7d74ec2a8e40a76c",
    "verify oracle --family a --p 2 --q 2 --isogeny sc":
        "8dd48b73e11568fd4b3ac311092716efb39ee0debc8258edc726f8106dfecb61",
    "list --family a --p 2 --q 2 --isogeny adjoint":
        "d922c875ed2a0da1fbeb435bc20b19173e9835fa5e62fc6d6ebeed386cf0e9a8",
    "list --format json --family a --p 2 --q 2 --isogeny adjoint":
        "9ad11a699d023f7d53f61d0e88472888ec9a7ffd96b171fd8cef709c25c6cc4a",
    "poset --family a --p 2 --q 2 --isogeny adjoint":
        "765f4f1090701e751aed47ebb28f8eeb3dcccb055731eb9119445d3042cf3b83",
    "poset --format json --family a --p 2 --q 2 --isogeny adjoint":
        "a0bc3e7f82a68a15a859fc9d6253f8f348254ffbaac03aae8db7c651600ce843",
    "verify springer --family a --p 2 --q 2 --isogeny adjoint":
        "431e9467de4af63be35b70dff5aaed577d1f961ac1acdd7bb34600a643d168f6",
    "verify oracle --family a --p 2 --q 2 --isogeny adjoint":
        "8dd48b73e11568fd4b3ac311092716efb39ee0debc8258edc726f8106dfecb61",
    "list --family c --p 2 --q 2 --isogeny sc":
        "a932b3ab3bc9314f5b899bd30daaa127cb89638fb7e19febbfaa1104294488bf",
    "list --format json --family c --p 2 --q 2 --isogeny sc":
        "d53f2715e9db539c098864eae1a12ad9591b944789da9b77ae9cbe29662c02ea",
    "poset --family c --p 2 --q 2 --isogeny sc":
        "7219334751e6b8621d853e3b6ffbafcc8e6f1af45e737e0233ceac373f8f99b7",
    "poset --format json --family c --p 2 --q 2 --isogeny sc":
        "5f0203d3e5249ffbc39d7790a427d8c81b924ec5ff3540075c05d4bd5f415237",
    "verify springer --family c --p 2 --q 2 --isogeny sc":
        "3f3f0f2a6b35991f289b87a90869cdb4094093d2c1d41b81bdf7e427cb2e2c8e",
    "list --family c --p 2 --q 2 --isogeny adjoint":
        "a602a17414edcc33e667d6cc4b651b6f2edb7644b92de71bc05462f48aa7d027",
    "list --format json --family c --p 2 --q 2 --isogeny adjoint":
        "2d7d1ef90362ec0d8a2b935021b03010d76d1ac148770d95d844ef70dbe566ec",
    "poset --family c --p 2 --q 2 --isogeny adjoint":
        "b9fc8be6ebf63816608f3d9028b590533bbdb53cea90c70a9fdfb01def53b574",
    "poset --format json --family c --p 2 --q 2 --isogeny adjoint":
        "d2eb5f59e363fc3b3eaa84ce3ac9bfb69aeebfdbd10301e007df333f8f72eb41",
    "verify springer --family c --p 2 --q 2 --isogeny adjoint":
        "f4b1f15614e1ef8435c4d2df4be48d7caee5504bc01583acfb518880bfd97467",
    "list --family d --n 4 --isogeny sc":
        "9a6cb7af035023303e3f205d65189814c5e0be1811a157621b29dcea81a3aa26",
    "list --format json --family d --n 4 --isogeny sc":
        "f6764b9a145f21158389577fcf1e7634fb628ac4bd1646c0778c2b9775052598",
    "poset --family d --n 4 --isogeny sc":
        "2c4d31018afc276348c139f5fa96030f65a9de1e64b5d3ae507f13bddc29ee1a",
    "poset --format json --family d --n 4 --isogeny sc":
        "1686abf1a0d179d091d1dc918f85dea7d5b3ecbc9bb564ad25a283d5076a17c4",
    "verify springer --family d --n 4 --isogeny sc":
        "bc43caace43791749be2017d9f576925a0ec4b99967d54af4652298d2fe29198",
    "list --family d --n 4 --isogeny so":
        "9a6cb7af035023303e3f205d65189814c5e0be1811a157621b29dcea81a3aa26",
    "list --format json --family d --n 4 --isogeny so":
        "f6764b9a145f21158389577fcf1e7634fb628ac4bd1646c0778c2b9775052598",
    "poset --family d --n 4 --isogeny so":
        "2c4d31018afc276348c139f5fa96030f65a9de1e64b5d3ae507f13bddc29ee1a",
    "poset --format json --family d --n 4 --isogeny so":
        "1686abf1a0d179d091d1dc918f85dea7d5b3ecbc9bb564ad25a283d5076a17c4",
    "verify springer --family d --n 4 --isogeny so":
        "bc43caace43791749be2017d9f576925a0ec4b99967d54af4652298d2fe29198",
    "list --family d --n 4 --isogeny so-prime":
        "9a6cb7af035023303e3f205d65189814c5e0be1811a157621b29dcea81a3aa26",
    "list --format json --family d --n 4 --isogeny so-prime":
        "f6764b9a145f21158389577fcf1e7634fb628ac4bd1646c0778c2b9775052598",
    "poset --family d --n 4 --isogeny so-prime":
        "2c4d31018afc276348c139f5fa96030f65a9de1e64b5d3ae507f13bddc29ee1a",
    "poset --format json --family d --n 4 --isogeny so-prime":
        "1686abf1a0d179d091d1dc918f85dea7d5b3ecbc9bb564ad25a283d5076a17c4",
    "verify springer --family d --n 4 --isogeny so-prime":
        "bc43caace43791749be2017d9f576925a0ec4b99967d54af4652298d2fe29198",
    "list --family d --n 4 --isogeny adjoint":
        "bec04375147da974a354d6d30c1736e297cc095d12dafd104c2f2e08a754ca00",
    "list --format json --family d --n 4 --isogeny adjoint":
        "8a3b04675d8845cb689ded86fb2ef9ce4cbe6d3190483b298b4728e20e575e19",
    "poset --family d --n 4 --isogeny adjoint":
        "8b7b23b56858e06e039e8e6c39b931f767b3b244d599b2061fbe25ff08920fd7",
    "poset --format json --family d --n 4 --isogeny adjoint":
        "05d1731015f22004c56a7f088589d80ddd3e86e29a454c74c7ff3990b6328854",
    "verify springer --family d --n 4 --isogeny adjoint":
        "12a08c0423dc69c48a91d6aba67502a928269a562959da0937384387ccbab867",
    "list --family d --n 5 --convention figure --isogeny sc":
        "0070a6a30edc97e68573e7ebe49a7de55d5a25875791dd7f0ab515862ab4c04e",
    "list --format json --family d --n 5 --convention figure --isogeny sc":
        "7da75aa719f85d333f6e93e76d4de4698dbf5d51e442f2d1968e88b57f8984e0",
    "poset --family d --n 5 --convention figure --isogeny sc":
        "dc315f9fb12f8e030bd032d5f815ebab88971ad737ab604bec35e608b006e991",
    "poset --format json --family d --n 5 --convention figure --isogeny sc":
        "9be78f78fcfbb4c180839844126dfd4d82954531088b110ef6d92fadc99d2631",
    "verify springer --family d --n 5 --convention figure --isogeny sc":
        "e0f4417b3b890969b20e0338232bb1e1167ba5fab737cb4c2f94a7eccf8433dd",
    "list --family d --n 5 --convention figure --isogeny so":
        "0070a6a30edc97e68573e7ebe49a7de55d5a25875791dd7f0ab515862ab4c04e",
    "list --format json --family d --n 5 --convention figure --isogeny so":
        "7da75aa719f85d333f6e93e76d4de4698dbf5d51e442f2d1968e88b57f8984e0",
    "poset --family d --n 5 --convention figure --isogeny so":
        "dc315f9fb12f8e030bd032d5f815ebab88971ad737ab604bec35e608b006e991",
    "poset --format json --family d --n 5 --convention figure --isogeny so":
        "9be78f78fcfbb4c180839844126dfd4d82954531088b110ef6d92fadc99d2631",
    "verify springer --family d --n 5 --convention figure --isogeny so":
        "e0f4417b3b890969b20e0338232bb1e1167ba5fab737cb4c2f94a7eccf8433dd",
    "list --family d --n 5 --convention figure --isogeny so-prime":
        "0070a6a30edc97e68573e7ebe49a7de55d5a25875791dd7f0ab515862ab4c04e",
    "list --format json --family d --n 5 --convention figure --isogeny so-prime":
        "7da75aa719f85d333f6e93e76d4de4698dbf5d51e442f2d1968e88b57f8984e0",
    "poset --family d --n 5 --convention figure --isogeny so-prime":
        "dc315f9fb12f8e030bd032d5f815ebab88971ad737ab604bec35e608b006e991",
    "poset --format json --family d --n 5 --convention figure --isogeny so-prime":
        "9be78f78fcfbb4c180839844126dfd4d82954531088b110ef6d92fadc99d2631",
    "verify springer --family d --n 5 --convention figure --isogeny so-prime":
        "e0f4417b3b890969b20e0338232bb1e1167ba5fab737cb4c2f94a7eccf8433dd",
    "list --family d --n 5 --convention figure --isogeny adjoint":
        "0070a6a30edc97e68573e7ebe49a7de55d5a25875791dd7f0ab515862ab4c04e",
    "list --format json --family d --n 5 --convention figure --isogeny adjoint":
        "7da75aa719f85d333f6e93e76d4de4698dbf5d51e442f2d1968e88b57f8984e0",
    "poset --family d --n 5 --convention figure --isogeny adjoint":
        "dc315f9fb12f8e030bd032d5f815ebab88971ad737ab604bec35e608b006e991",
    "poset --format json --family d --n 5 --convention figure --isogeny adjoint":
        "9be78f78fcfbb4c180839844126dfd4d82954531088b110ef6d92fadc99d2631",
    "verify springer --family d --n 5 --convention figure --isogeny adjoint":
        "e0f4417b3b890969b20e0338232bb1e1167ba5fab737cb4c2f94a7eccf8433dd",
}


@pytest.mark.parametrize("command", DIGESTS)
def test_cli_output_is_pinned(command, capsys):
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[command]
