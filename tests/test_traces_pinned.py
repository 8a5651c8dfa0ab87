"""Pinned traces of computed starts, and of stored ones.

The computed starts are the first twenty feasible draws of
perfbench's ``cross_check`` stream at seed 0, solved by all three solvers.

Each draw is ``gen_random_smoothed(n, m, phi, instance_seed)`` with
``n`` in 10..16, ``m`` in 2n..4n and ``phi`` in (16, 64, 256), realized
at ``sample_costs(instance, cost_seed)``; none stores a flow or a tree,
so every solve starts from the maximum flow of its budgets.  Each solver
row holds the step count, the degenerate count and ``Trace.digest()``.
A change to any of them is a change of behaviour: edit the table by
hand and say why.  The three traces of the first draw, one line per
step in this order, are the cross_check workload's seed-0 digest.

The stored starts are the generated families' own: network simplex on
``ns_lower(6,10,64)`` from its stored tree, under Dantzig's rule and
the strongly feasible one, and on ``ns_lower(10,40,128)`` (perfbench's
``ns_pivots``) and ``ns_lower(20,40,64)`` under Dantzig's rule;
successive shortest paths on the detour-free twins of
``ns_lower(6,10,64)``, ``ns_lower(8,16,128)`` (perfbench's
``ssp_twin``) and ``ns_lower(20,40,64)``, shipping the predicted pivot
count from ``s`` to ``t``; and MMCC on ``mmcc_general(8,16,256)``,
``mmcc_general(12,48,4096)`` (perfbench's ``mmcc_waves``),
``mmcc_large_phi(4,9)`` and ``mmcc_large_phi(6,16)`` from their stored
flows; each at cost seeds 0 and 1.
"""

import pytest

from flowlab.experiment import solve
from flowlab.generators import (
    MmccGeneralParams,
    NsParams,
    gen_mmcc_general,
    gen_mmcc_large_phi,
    gen_ns_lower_bound,
    gen_random_smoothed,
    predicted_ns_pivots,
    sample_costs,
    strip_q_chain,
)
from flowlab.ssp import ssp_solve, zero_budget_copy

# (n, m, phi, instance seed, cost seed), then (algorithm, steps, degenerate, digest)
PINNED = [
    ((16, 48, 16, 2834767559, 312965100), (
        ("mmcc", 4, 0, "1a03f13a71537b9fb6497d8858a51a56c33028dd4d68456301a2268878119b76"),
        ("ns", 4, 2, "5157b24e10b5019570880c4df590feade47bab7571e8a72eb7e0c4a8f0e2b8b9"),
        ("ssp", 14, 0, "8810a6081af8eb34ad70f5476c506c540feb1a3454386a0a40994f40ab70a6c7"),
    )),
    ((10, 30, 64, 332532992, 398244282), (
        ("mmcc", 5, 0, "de622253bb71c14877929fa9d566c9d4bf8fd2e39ff5dac61a16a452d76993ba"),
        ("ns", 7, 3, "45f8dc80cff31fbee40c573c0d4f095353c369418eeb1ecda182b6985d823ed8"),
        ("ssp", 7, 0, "5dd261f244fbd6d30f9f450743fecc534a0f66692e051c912e4eaaf6cbaca967"),
    )),
    ((13, 37, 16, 509955779, 298561272), (
        ("mmcc", 2, 0, "dcfd339e054a505957ad605c3758ad538ce69c66b5e7fcc93d80a34fc4f19074"),
        ("ns", 7, 5, "6893c5cd6598621baa86e20d5b5739bc50cb908d1bc1e3e917429558f2377e67"),
        ("ssp", 7, 0, "2b2b1462c36051329deb605c357de968109d92138cdae36c259604ac7d4422a6"),
    )),
    ((10, 22, 64, 2299993539, 809117062), (
        ("mmcc", 2, 0, "94a7cd702075a647a7091761eb35d339895d2b1f3b57985d75271e3ec3c2db1d"),
        ("ns", 5, 3, "76c052fdf9bd19fdc80eb11782baa8506f38b3d6874c8477723bbc5fb1617a6b"),
        ("ssp", 5, 0, "155635bf86cc37e181189cb62db15a87b97dc8806b3f588f33fde791655b1e87"),
    )),
    ((15, 48, 16, 1818683063, 2902608020), (
        ("mmcc", 2, 0, "f93480032807de045aa7ee25c43796a6bf0a2e05136c9118135c5ee6b32e5b2f"),
        ("ns", 3, 2, "a54c75fdd2440da35c0f4b9afb0f16a77e4d1710d253531f9a6ac95c77d58fb8"),
        ("ssp", 9, 0, "567e293b5c7b14ccf6884d6fc605829e9ff3713514905203a0f74f6645483e7c"),
    )),
    ((13, 39, 64, 3825726239, 3664823816), (
        ("mmcc", 0, 0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        ("ns", 3, 3, "56c8f31b690a872a864acbc6d13f1d9b4aeec5e5f64b37089f940233d17a0c0b"),
        ("ssp", 4, 0, "a34d93b00ce371e3ea2db4f3282272fa64704f7a9bdb973befde18830f4a6bf5"),
    )),
    ((16, 62, 16, 1060835611, 703882384), (
        ("mmcc", 4, 0, "35b62621c7f548ad5cb208f08f77d4a2c5419499c29bd14b2cbc327841254e57"),
        ("ns", 9, 4, "cd7e7d471640da2f31004c08122358037f2f6d135d2d4ac55ea15043298f5514"),
        ("ssp", 10, 0, "edc2ecf9f157b70cd5ec722fb0a5488cb34130e7bbf88221410fb2cc08ed6253"),
    )),
    ((10, 32, 256, 3364101858, 687447596), (
        ("mmcc", 1, 0, "7d62a1d1d717423a95bd9d17240b9fc2775682d06c41d8a2a4014f96db2aa9ae"),
        ("ns", 7, 6, "73b665a18b6ae9b62684ad3facc7593cc207156c862c82f104edd0733f97fe8c"),
        ("ssp", 4, 0, "745e912b4f8b96d18a0986592900b98d808035c7e8337fa3dfe1781a08f9edfb"),
    )),
    ((10, 32, 16, 2972980739, 2485013624), (
        ("mmcc", 3, 0, "441c109d92abddb68137418613fd5235150dd597f4d2a6067b1ef2066ef8cd1f"),
        ("ns", 4, 1, "c68ba75ab477af882d59c30cb5f84eb257e5c35b4a800dcadebcdc0c2a214c3a"),
        ("ssp", 5, 0, "5b2831d83aa2a4e0cda497dade5189d4d6e662e2076536df087c7e3e2a70c3b3"),
    )),
    ((11, 28, 64, 339256137, 1903672263), (
        ("mmcc", 3, 0, "f81ced776ab44ae2f4247b48e231d6d34f23ca6fa7f6d05a83f386ec4df394a6"),
        ("ns", 5, 2, "a67ce10b7a67ca1cd54b9b678cde6f34549e9b1e451797a600bb59a14d4a99f9"),
        ("ssp", 7, 0, "a05ea868cd3ec55c2e68f2f02d8b0ad5abfefc5ac9c8eac759362c438ffec0c5"),
    )),
    ((11, 44, 16, 686743193, 2284936197), (
        ("mmcc", 4, 0, "3f44869b6f6e30db657b2892d6c6bda639033fc0906966560f8394d69fd09a81"),
        ("ns", 7, 4, "43032f8445d66180f3e2d86ff14cd24fd4784cb2b9fff23cfd3ab13ba61150b3"),
        ("ssp", 8, 0, "350fa356df8ef7a823c8b64a1786255743734c988badec7871b7c1415bb9d2ec"),
    )),
    ((14, 55, 256, 4016739838, 2869431529), (
        ("mmcc", 2, 0, "395648316323ebc32976e57d488a19f402fdf6998769d96b6dd80cacda95481f"),
        ("ns", 8, 6, "9fe96f31ad3c7f30da7b8f531d198dceb72781423566bc66272610cd5c2fc049"),
        ("ssp", 9, 0, "7daebaeb9fb2950c62b352c7bec769f868d5bd92b8fc28f485b8708d4c64c515"),
    )),
    ((10, 26, 16, 327275570, 819007044), (
        ("mmcc", 0, 0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        ("ns", 1, 1, "7b04ab0f31867fe1578b221f53f8c76d65258744d953f250341b4f438f3d60da"),
        ("ssp", 4, 0, "cc787e85ebfd699fc4b2bbd2f9d8d439d6de6ed608b210a731e9c9e4a37ce78b"),
    )),
    ((11, 34, 64, 2978356787, 2985724322), (
        ("mmcc", 3, 0, "181c6d376d2938d06534580b0543acd7483dd2a41ba6bfd5a0c09af0f73de039"),
        ("ns", 4, 1, "34cc427d1c69b890d4ceace172225c1fcfc400eb682edf6db178500f68076945"),
        ("ssp", 6, 0, "cad72166f30a1908da1372a17c6502bfc0695a8dd1c092b0d5c1445a9198f6bf"),
    )),
    ((11, 38, 256, 2001316270, 486465923), (
        ("mmcc", 0, 0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        ("ns", 3, 3, "29647de0cb2a0b1641c03ba84a4104c1fdfe8eee3c941d2ec17b63ff8ea38353"),
        ("ssp", 5, 0, "02c24013b35eb0e8a3b580b0b15ad00c15a167fa6fc0a6e46d615618b4e3c61d"),
    )),
    ((11, 44, 64, 3281846987, 2007894057), (
        ("mmcc", 1, 0, "431afff3692263cb03d687814c78c465f5c309c72196af742e91590c8cfb97c0"),
        ("ns", 6, 5, "1eeb9c7ddf4da181c537c0b9046e7896476b8ecc58570b92f39fedc2e946b754"),
        ("ssp", 4, 0, "c7f37595e65ef4e89c5b36478f2ce1f84762ea312312ff1a504fa60541ce880b"),
    )),
    ((13, 51, 64, 2962109723, 3991024329), (
        ("mmcc", 1, 0, "d684dc142c54981a2f12cfcede9197dcc6d53a449da5013e2219ef04509496a1"),
        ("ns", 9, 8, "c712b3ffc7e66d7de4aec79aef16a811ed8ecf3b36e67a94cedb07f9ef6f3e88"),
        ("ssp", 5, 0, "6daa51d265d36ffb60a0092dea21549eda3426f3f1b25bd60927392b75f57901"),
    )),
    ((16, 43, 256, 4006263097, 1848295764), (
        ("mmcc", 3, 0, "a75f3e4827de86ee1eb19e5ec6b00bbd82df7e576165cf4b2ec7073dfd8ca9b6"),
        ("ns", 8, 5, "1f798903fa51afe2a826a683aab0e06603a5ba1da712618aa20278c3f253069f"),
        ("ssp", 6, 0, "e3b65095d039ab57888d44e09ce3d36dc4a1807ca3702d349925a05630a4037b"),
    )),
    ((12, 35, 256, 317914771, 3799011330), (
        ("mmcc", 3, 0, "0d2dc00002e97218e95a38f71c8e2171806c572dc6e501058c11d5a10ffae517"),
        ("ns", 5, 2, "a72c9db30a357155084c3dc25cb53d2daae322205e01768867f0d8d8282378b1"),
        ("ssp", 6, 0, "56add40a669eb80b79c924c85c821293b0c1d059732fd310de4f8b932f8a031d"),
    )),
    ((15, 58, 16, 1134343104, 2527117158), (
        ("mmcc", 1, 0, "ee21bd75a75b4c6005c3b0b419a0bc9f33ad348939ad1b73171983dee7f41e07"),
        ("ns", 11, 10, "3cb641b4f91308db81da940842c6366333341c2ffad60c91469ee442abbcd5e5"),
        ("ssp", 7, 0, "e6809fbf88f1334183b1ac67ff4900b520c0cc9dbb3059f5fa9d06c52b227cda"),
    )),
]


@pytest.mark.parametrize("draw, pinned", PINNED, ids=["%d-%d-%d-%d" % d[:4] for d, _ in PINNED])
def test_computed_starts_give_the_pinned_traces(draw, pinned):
    n, m, phi, instance_seed, cost_seed = draw
    inst = gen_random_smoothed(n, m, phi, instance_seed)
    costs = sample_costs(inst, cost_seed)
    for algorithm, steps, degenerate, digest in pinned:
        trace = solve(inst, costs, algorithm)
        got = (trace.step_count, trace.degenerate_count, trace.digest())
        assert got == (steps, degenerate, digest), algorithm


def _ns_lower(params, seed, strongly_feasible=False):
    inst, tree = gen_ns_lower_bound(NsParams(*params))
    costs = sample_costs(inst, seed)
    return solve(inst, costs, "ns", structure=tree, strongly_feasible=strongly_feasible)


def _ssp_twin(params, seed):
    lower, _ = gen_ns_lower_bound(NsParams(*params))
    twin = strip_q_chain(lower)
    names = twin.network.node_names
    net = zero_budget_copy(twin.realize(sample_costs(twin, seed)))
    return ssp_solve(net, names.index("s"), names.index("t"), predicted_ns_pivots(lower))


def _mmcc(inst, seed):
    return solve(inst, sample_costs(inst, seed), "mmcc")


STORED_ROWS = {
    "ns_lower-6-10-64": lambda seed: _ns_lower((6, 10, 64), seed),
    "ns_lower-6-10-64-strong": lambda seed: _ns_lower((6, 10, 64), seed, True),
    "ns_lower-10-40-128": lambda seed: _ns_lower((10, 40, 128), seed),
    "ns_lower-20-40-64": lambda seed: _ns_lower((20, 40, 64), seed),
    "ssp_twin-6-10-64": lambda seed: _ssp_twin((6, 10, 64), seed),
    "ssp_twin-8-16-128": lambda seed: _ssp_twin((8, 16, 128), seed),
    "ssp_twin-20-40-64": lambda seed: _ssp_twin((20, 40, 64), seed),
    "mmcc_general-8-16-256": lambda seed: _mmcc(
        gen_mmcc_general(MmccGeneralParams(8, 16, 256)), seed
    ),
    "mmcc_general-12-48-4096": lambda seed: _mmcc(
        gen_mmcc_general(MmccGeneralParams(12, 48, 4096)), seed
    ),
    "mmcc_large_phi-4-9": lambda seed: _mmcc(gen_mmcc_large_phi(4, 9), seed),
    "mmcc_large_phi-6-16": lambda seed: _mmcc(gen_mmcc_large_phi(6, 16), seed),
}

# (row, cost seed), then (steps, degenerate, digest)
STORED = [
    (("ns_lower-6-10-64", 0),
     (142, 22, "cf5c6ca38a00e6df8d050252bef8d243a3c635b3edd69dd2909c3d74dad270fb")),
    (("ns_lower-6-10-64", 1),
     (142, 22, "9074584905023b0d0f80672fd62dad591286aea161c09ba27261fb0f10aa5561")),
    (("ns_lower-6-10-64-strong", 0),
     (131, 11, "6ef73a0e144a660a0413099c1c85c48c14ce2d6bc8bdd6f56541c1c0bcaf6821")),
    (("ns_lower-6-10-64-strong", 1),
     (131, 11, "f5a973731b9b1ae95e5ba68d4c11f6b383ba51c28bce48a39612f109cb2c3334")),
    (("ns_lower-10-40-128", 0),
     (1678, 78, "9c463db861d36f3932867f5dd0f43aa783f2566d3bea13c37cbd7c79cec02a6a")),
    (("ns_lower-10-40-128", 1),
     (1678, 78, "281904f3c846b57c3749016d4378fd2937476bde82e5cad61d9bb63bac6a01e7")),
    (("ns_lower-20-40-64", 0),
     (1174, 54, "a95df25f55b0c8557ba653407bcfbae9515cd576f5398194b7595d89b8ba3de1")),
    (("ns_lower-20-40-64", 1),
     (1174, 54, "c247fe2076e12b979625e999583af03e11e9704cc7255dcdebbe01049a28feb2")),
    (("ssp_twin-6-10-64", 0),
     (120, 0, "e613d691e574bfab9186673708e30426f40ec06be976720b6bf78bf0a1e20592")),
    (("ssp_twin-6-10-64", 1),
     (120, 0, "5c29b2ac805cf8d1e44ee2889ca9b58356f0553b74017d72723901562f68548f")),
    (("ssp_twin-8-16-128", 0),
     (512, 0, "10e977bd553b3562b99e79d237cb6ee949fbd7ac63a2dc70c44eb47ccbe70cec")),
    (("ssp_twin-8-16-128", 1),
     (512, 0, "3a423499655c5a08a970ed2dfb9ab248ac449f0ac01b7ea60314712f441767ef")),
    (("ssp_twin-20-40-64", 0),
     (1120, 0, "7bf55effa5ff0678bff6581f1fc39ce46f155c49065f0550d431c8e0de43072c")),
    (("ssp_twin-20-40-64", 1),
     (1120, 0, "569d07ede5b7c8094e9530a0182cfddb877fc83f8eab9b917bd1c07a4ead8000")),
    (("mmcc_general-8-16-256", 0),
     (62, 0, "660984ace15fb6927b90058c7b0e17953929665c7d3a9a21025d31c78f3df51c")),
    (("mmcc_general-8-16-256", 1),
     (62, 0, "7064b278c4e9c5d724f520be0b4ec95155c7969849c9b402ebbf97d5a33c6841")),
    (("mmcc_general-12-48-4096", 0),
     (358, 0, "a378039df9075e475dc208eb089c410f57743718d27702fb279973740878b130")),
    (("mmcc_general-12-48-4096", 1),
     (358, 0, "3e0d1ca4f7b905cb826cdde7f3385ee12ee6ba0ceb79a02d1062ef40f2ccc73b")),
    (("mmcc_large_phi-4-9", 0),
     (78, 0, "147b88b9b26d9a170cc9b61589cfae7c404fd43b132618f2c31063dc7b181e6d")),
    (("mmcc_large_phi-4-9", 1),
     (78, 0, "e88dc301c02386ee9ce7e230ff60a857a6181f23f8dd56c9db6deb235a657cb2")),
    (("mmcc_large_phi-6-16", 0),
     (202, 0, "30dfa920871cd77a9aa15aff2d6417218a43eb5534a2f1ef8d447d3ad0b02ef1")),
    (("mmcc_large_phi-6-16", 1),
     (202, 0, "6d263a342238415c044e20d488167d22895194b0906f787f682ec9374eacfe60")),
]


@pytest.mark.parametrize("row, pinned", STORED, ids=["%s-%d" % row for row, _ in STORED])
def test_stored_starts_give_the_pinned_traces(row, pinned):
    name, seed = row
    trace = STORED_ROWS[name](seed)
    assert (trace.step_count, trace.degenerate_count, trace.digest()) == pinned
